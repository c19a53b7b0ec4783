"""Characteristic tracing through a stored spectral run.

A tracer follows ``dx/dt = u(t, x)`` through the field history of a completed
run, sampling the local density, the velocity-gradient invariants (divergence,
vorticity, the two deviatoric combinations), the two force kernels, and the
reconstructed coefficient ``A(t)``.

The history is a list of :class:`~epriccati.simulate.SpectralFrame`, as
:func:`~epriccati.simulate.run_example` stores it: each frame holds the
comoving state as its stacked ``rfft2`` half spectrum.  The tracer advances
the comoving position by ``dy/dt = w / a`` and reports physical samples at
``x = a y``: ``rho = sigma / a^2``, ``d = 2 H + div_y(w) / a``, the
vorticity and the two deviatoric combinations divided by ``a``, and the
force kernels divided by ``a^2``.

Numerics: positions advance with classical RK4 between consecutive history
frames; the stages at the two frame times read those frames, the midpoint
stages share one 4-point Lagrange interpolation over neighboring frames (4th
order in time overall), and space is interpolated trigonometrically.  One
table per history, :func:`_midpoint_table`, holds every interval's window
and midpoint weights.  The tracer makes no transform: it scales each frame's
stored half spectra to the physical density and the comoving velocity
``w / a``, and the force kernels are the Riesz multipliers of
:class:`~epriccati.spectral.Grid` applied to the density's half spectrum.
Values come from the real interpolant of these half spectra
(:func:`~epriccati.spectral.eval_point`: Hermitian weights over the half
axis, both Nyquist modes as cosines, so it equals the field on grid nodes);
the velocity gradients come from the same interpolant with the
Nyquist-zeroed ``ik`` of the solver.  The coefficient is reconstructed from
the sampled kernels by cumulative quadrature of ``f_i / rho``: each interval
applies Simpson's rule at RK4's three times, its midpoint value read from
the same table, so it integrates the cubic through the RK4 midpoint's window
(4th order in the frame spacing, exact for cubics on any spacing)::

    A(t) = 1/2 [ (omega0/rho0)^2 - (eta0/rho0 + I1(t))^2 - (xi0/rho0 + I2(t))^2 ]

with ``I_i(t)`` the running integrals; vorticity itself is not integrated
because ``omega / rho`` is conserved along characteristics.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import InvalidStateError, NonVacuumError
from .riccati import coefficient_A
from .simulate import PdeRunResult
from .spectral import Grid, eval_point

__all__ = ["TracerSeries", "trace_characteristic"]


@dataclass
class TracerSeries:
    """Samples along one characteristic; times strictly increasing."""

    t: np.ndarray
    x: np.ndarray  # (n, 2) positions
    rho: np.ndarray
    d: np.ndarray
    omega: np.ndarray
    eta: np.ndarray
    xi: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    A: np.ndarray
    status: str = "complete"


class _Window:
    """Half spectra of the 4-frame Lagrange window, built as a tracer walks forward.

    Frame ``j`` lives in slot ``j % size``; each slot holds five ``rfft2``
    half spectra, ``u1``, ``u2`` (the comoving velocity ``w / a``), ``rho``,
    ``f1`` and ``f2`` (physical), scaled from the frame's stored ``hat`` with
    no transform.  A window is ``size`` consecutive frames, so once loaded it
    fills every slot and ``held`` lists its frames in slot order.
    """

    def __init__(self, frames, grid: Grid, k: float):
        self.frames = frames
        self.kernels = k * grid._riesz
        size = min(4, len(frames))
        self.spectra = np.empty((size, 5, grid.N, grid.N // 2 + 1), dtype=complex)
        self.held = [-1] * size

    def load(self, idxs) -> None:
        """Hold frames ``idxs``, building each one not yet held."""
        for j in idxs:
            s = j % len(self.held)
            if self.held[s] != j:
                self._build(j, self.spectra[s])
                self.held[s] = j

    def _build(self, j: int, spec: np.ndarray) -> None:
        frame = self.frames[j]
        np.multiply(frame.hat[1:], 1.0 / frame.a, out=spec[:2])
        np.multiply(frame.hat[0], 1.0 / frame.a**2, out=spec[2])
        np.multiply(self.kernels, spec[2], out=spec[3:])  # kernels vanish at the zero mode


def _midpoint_table(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The frames and Lagrange weights of every interval's midpoint over times ``t``.

    Row ``i`` holds the window of up to four frames around ``[t_i, t_i+1]``,
    frame ``j`` in column ``j % 4`` (:class:`_Window`'s slot order), and the
    weights that interpolate those frames at ``(t_i + t_i+1) / 2``.
    """
    m = min(4, len(t))
    lo = np.clip(np.arange(len(t) - 1) - 1, 0, len(t) - m)[:, None]
    frames = lo + (np.arange(m) - lo) % m
    nodes, mid = t[frames], t[:-1] + 0.5 * np.diff(t)
    weights = np.ones(frames.shape)
    for i, j in permutations(range(m), 2):
        weights[:, i] *= (mid - nodes[:, j]) / (nodes[:, i] - nodes[:, j])
    return frames, weights


def trace_characteristic(result: PdeRunResult, x0) -> TracerSeries:
    """Trace the characteristic through ``result``'s history starting at ``x0``.

    The run must have been produced with ``store_history=True``.  The tracer
    samples at every history frame time; the run fails with
    :class:`NonVacuumError` if the seed density vanishes (the coefficient
    reconstruction divides by the density along the path).
    """
    if result.history is None:
        raise ValueError("tracing requires a run with store_history=True")
    if len(result.history) < 2:
        raise ValueError(f"tracing needs two history frames, the run stored {len(result.history)}")
    x = np.array(x0, dtype=float)
    if x.shape != (2,) or not np.all(np.isfinite(x)):
        raise ValueError("x0 must be a finite 2-vector")
    grid = result.grid
    k = result.params.k
    frames = result.history
    times = np.array([f.t for f in frames])
    windows, mids = _midpoint_table(times)
    window = _Window(frames, grid, k)
    window.load(windows[0])  # windows[i] holds frames i and i + 1

    def sample(i: int, pos) -> tuple:
        """``(rho, d, omega, eta, xi, f1, f2)`` and the velocity of frame ``i`` at ``pos``."""
        spec = window.spectra[i % len(window.held)]
        (u1, u2, rho, f1, f2), gx, gy = eval_point(spec, grid, pos, grad=True)
        d = 2.0 * frames[i].H + gx[0] + gy[1]
        return (rho, d, gx[1] - gy[0], gx[0] - gy[1], gy[0] + gx[1], f1, f2), np.array([u1, u2])

    def frame_velocity(i: int, pos) -> np.ndarray:
        return eval_point(window.spectra[i % len(window.held), :2], grid, pos)

    def window_velocity(weights, pos) -> np.ndarray:
        return weights @ eval_point(window.spectra[:, :2], grid, pos)

    first, k1 = sample(0, x)  # each frame's sampled velocity is the next step's k1
    rho0, _, omega0, eta0, xi0, _, _ = first
    if rho0 <= 0.0:
        raise NonVacuumError(f"tracer seeded at vacuum density rho={rho0:.3e}")

    records = [(times[0], x.copy(), first)]  # x is the comoving position y
    status = "complete"
    for i, idxs in enumerate(windows):
        h = times[i + 1] - times[i]
        window.load(idxs)  # holds frame i + 1, the node of k4
        k2 = window_velocity(mids[i], x + 0.5 * h * k1)
        k3 = window_velocity(mids[i], x + 0.5 * h * k2)
        k4 = frame_velocity(i + 1, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            status = "truncated"
            break
        values, k1 = sample(i + 1, x)
        records.append((times[i + 1], x.copy(), values))

    ts = np.array([r[0] for r in records])
    scale = np.array([frames[i].a for i in range(len(records))])
    xs = np.array([r[1] for r in records]) * scale[:, None]
    rho, d, omega, eta, xi, f1, f2 = np.array([r[2] for r in records]).T
    if np.any(rho <= 0.0):
        raise InvalidStateError("tracer crossed a vacuum region; A(t) undefined")

    i1, i2 = _cumquad(np.array([f1, f2]) / rho, ts)
    a_vals = coefficient_A(omega0 / rho0, eta0 / rho0 + i1, xi0 / rho0 + i2)
    return TracerSeries(
        t=ts, x=xs, rho=rho, d=d, omega=omega, eta=eta, xi=xi, f1=f1, f2=f2, A=a_vals,
        status=status,
    )


def _cumquad(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Running integrals of the samples ``y[..., j]`` at times ``t[j]``, 0 at ``t[0]``.

    Interval ``i`` applies Simpson's rule at RK4's times, the midpoint value
    read from :func:`_midpoint_table`: exact for cubics on any spacing (for
    degree ``n - 1`` when ``n < 4``), 4th order in the spacing.
    """
    frames, weights = _midpoint_table(t)
    mid = np.sum(y[..., frames] * weights, axis=-1)
    out = np.zeros_like(y)
    np.cumsum(np.diff(t) / 6.0 * (y[..., :-1] + 4.0 * mid + y[..., 1:]), axis=-1, out=out[..., 1:])
    return out
