"""Periodic pseudo-spectral operators and time stepping for the 2D fluid system.

Fields live on an ``N x N`` grid over the periodic square ``[-L, L)^2``
(axis 0 is x, axis 1 is y); ``ScalarField`` is a plain ``(N, N)`` float array
and ``VectorField`` a ``(2, N, N)`` array.  The governing equations are mass
conservation and momentum balance with a Poisson force::

    rho_t = -div(rho u)
    u_t   = -(u . grad) u + k grad Laplacian^{-1} (rho - c_b)

Background force and comoving frame
-----------------------------------
The data decay inside the box (see :func:`make_density`), so on the whole
plane ``rho - c_b`` tends to ``-c_b`` and the background exerts the linear
force ``gamma x`` with ``gamma = -k c_b / 2``.  A linear field is not
periodic; :class:`ComovingFrame` absorbs it into comoving coordinates
``y = x / a(t)`` with ``a'' = gamma a``, ``a(0) = 1``, ``a'(0) = 0``.  The
solver state is then the comoving density ``sigma = a^2 rho(a y)`` and the
peculiar velocity ``w = u - H x`` (``H = a'/a``), which obey::

    sigma_t = -(1/a) div(sigma w)
    w_t     = -(1/a) (w . grad) w - H w + (k/a) grad Laplacian^{-1} (sigma - mean sigma)

The fluid's own mean keeps the periodic convention: the inverse Laplacian
only exists for mean-zero sources on the torus, so every Poisson/Riesz
multiplier is 0 at the constant Fourier mode, which subtracts the spatial
mean of its argument.  When ``k c_b = 0`` the frame is static (``a = 1``)
and these are the equations in the first block.

Dealiasing uses the 2/3 rule: inputs to quadratic products and the products
themselves are truncated to modes ``max(|m1|, |m2|) <= N//3``.

Time stepping is an explicit 4-stage Runge-Kutta step with an advective CFL
restriction; the forcing is nonstiff at the amplitudes this solver targets.
The state of each stage is the stacked ``rfft2`` half spectrum of
``(sigma, w1, w2)``: a step transforms the fields once on entry and its
increment once on exit, and within a stage only the quadratic products pass
through the grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidStateError, PositivityError, PositivityWarning, StepSizeError
from .riccati import PhysicalParams

__all__ = [
    "Grid",
    "ComovingFrame",
    "make_density",
    "poisson_inverse",
    "riesz_apply",
    "f1_field",
    "f2_field",
    "f1_f2_eval",
    "step_ep",
    "diagnostics",
    "eval_point",
]

# escalation thresholds for negative density excursions
_NEGATIVE_WARN = -1e-8
_NEGATIVE_FAIL = -1e-4


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid: ``N`` points per axis (power of two) on ``[-L, L)^2``."""

    N: int = 128
    L: float = 10.0

    def __post_init__(self):
        if self.N < 16 or (self.N & (self.N - 1)) != 0:
            raise ValueError("N must be a power of two with N >= 16")
        if not self.L > 0.0:
            raise ValueError("L must be positive")

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.N

    @cached_property
    def x(self) -> np.ndarray:
        return -self.L + self.dx * np.arange(self.N)

    @cached_property
    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.x, self.x, indexing="ij")

    # --- rfft2 layout: axis 0 full modes, axis 1 the half spectrum ---

    @cached_property
    def _kx(self) -> np.ndarray:
        k = (math.pi / self.L) * np.fft.fftfreq(self.N, d=1.0 / self.N)
        return k[:, None]

    @cached_property
    def _ky(self) -> np.ndarray:
        k = (math.pi / self.L) * np.arange(self.N // 2 + 1)
        return k[None, :]

    @cached_property
    def _k2_guarded(self) -> np.ndarray:
        k2 = self._kx**2 + self._ky**2
        k2[0, 0] = 1.0  # keeps the zero-order multipliers 0 at the constant mode
        return k2

    @cached_property
    def _inv_lap(self) -> np.ndarray:
        """Mean-zero inverse Laplacian ``-1/|k|^2``; 0 at the constant mode."""
        inv = -1.0 / self._k2_guarded
        inv[0, 0] = 0.0
        return inv

    @cached_property
    def _ik(self) -> np.ndarray:
        """The derivative multipliers ``(i kx, i ky)``, stacked."""
        ik = 1j * np.stack(np.broadcast_arrays(self._kx, self._ky))
        ik[0, self.N // 2, :] = 0.0  # odd derivative undefined at the Nyquist mode
        ik[1, :, self.N // 2] = 0.0
        return ik

    @cached_property
    def _dealias(self) -> np.ndarray:
        m = np.fft.fftfreq(self.N, d=1.0 / self.N)
        keep = self.N // 3
        mask = (np.abs(m[:, None]) <= keep) & (np.abs(m[None, : self.N // 2 + 1]) <= keep)
        return mask

    @cached_property
    def _riesz(self) -> np.ndarray:
        """The two force-kernel multipliers ``(kx^2 - ky^2)/|k|^2`` and ``2 kx ky/|k|^2``.

        Both are 0 at the constant mode, so neither ``c_b`` nor the fluid's
        mean exerts a force.
        """
        kx, ky = np.broadcast_arrays(self._kx, self._ky)
        return np.stack([kx**2 - ky**2, 2.0 * kx * ky]) / self._k2_guarded

    @cached_property
    def _hermitian(self) -> np.ndarray:
        """Weights ``1, 2, ..., 2, 1`` of the half axis in the real interpolant."""
        w = np.full(self.N // 2 + 1, 2.0)
        w[0] = w[-1] = 1.0
        return w


@dataclass(frozen=True)
class ComovingFrame:
    """Scale factor ``a(t)`` of the comoving coordinates ``y = x / a(t)``.

    ``a`` solves ``a'' = gamma a`` with ``a(0) = 1`` and ``a'(0) = 0``:
    ``cosh(t sqrt(gamma))`` for ``gamma > 0``, ``cos(t sqrt(-gamma))`` for
    ``gamma < 0`` (collapsing to 0 at :attr:`t_collapse`) and ``1`` for
    ``gamma = 0``.
    """

    gamma: float = 0.0

    @classmethod
    def for_params(cls, params: PhysicalParams) -> ComovingFrame:
        """The frame that absorbs the background force ``-k c_b x / 2``."""
        return cls(-0.5 * params.k * params.c_b)

    @property
    def t_collapse(self) -> float:
        """First zero of ``a``: ``pi / (2 sqrt(-gamma))``, or ``inf`` if ``gamma >= 0``."""
        return 0.5 * math.pi / math.sqrt(-self.gamma) if self.gamma < 0.0 else math.inf

    def scale(self, t: float) -> tuple[float, float]:
        """``(a, H)`` at time ``t``, with ``H = a'/a``."""
        if self.gamma > 0.0:
            s = math.sqrt(self.gamma)
            return math.cosh(s * t), s * math.tanh(s * t)
        if self.gamma < 0.0:
            s = math.sqrt(-self.gamma)
            return math.cos(s * t), -s * math.tan(s * t)
        return 1.0, 0.0


def make_density(grid: Grid, blobs) -> np.ndarray:
    """Sum of radial bumps: each blob contributes ``amplitude * profile(rate * r)``.

    ``profile`` is ``exp(-s^2)`` for kind ``"gaussian"`` and ``1/cosh(s)`` for
    kind ``"sech"``; ``r`` is the distance to the blob center (no periodic
    images -- the data are assumed to decay inside the box).
    """
    X, Y = grid.mesh
    rho = np.zeros_like(X)
    for blob in blobs:
        r = np.hypot(X - blob.center[0], Y - blob.center[1])
        s = blob.rate * r
        if blob.kind == "gaussian":
            rho += blob.amplitude * np.exp(-(s**2))
        elif blob.kind == "sech":
            rho += blob.amplitude / np.cosh(s)
        else:
            raise ValueError(f"unknown blob kind {blob.kind!r}")
    return rho


def _inv(fhat, grid):
    return np.fft.irfft2(fhat, s=(grid.N, grid.N))


def poisson_inverse(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Solve ``Laplacian(phi) = f - mean(f)`` spectrally; ``phi`` has zero mean."""
    return _inv(np.fft.rfft2(f) * grid._inv_lap, grid)


def riesz_apply(i: int, j: int, h: np.ndarray, grid: Grid) -> np.ndarray:
    """Apply the zero-order operator ``d_i d_j Laplacian^{-1}`` to ``h``.

    Realized as the Fourier multiplier ``k_i k_j / |k|^2`` with the constant
    mode set to zero (the mean of ``h`` is subtracted).
    """
    if i not in (1, 2) or j not in (1, 2):
        raise ValueError("component indices must be 1 or 2")
    ki = grid._kx if i == 1 else grid._ky
    kj = grid._kx if j == 1 else grid._ky
    return _inv(ki * kj / grid._k2_guarded * np.fft.rfft2(h), grid)


def f1_field(rho: np.ndarray, params: PhysicalParams, grid: Grid) -> np.ndarray:
    """Anisotropic force kernel ``k (R_11 - R_22)[rho - c_b]`` on the grid."""
    return params.k * _inv(grid._riesz[0] * np.fft.rfft2(rho), grid)


def f2_field(rho: np.ndarray, params: PhysicalParams, grid: Grid) -> np.ndarray:
    """Shear force kernel ``k (R_12 + R_21)[rho - c_b]`` on the grid."""
    return params.k * _inv(grid._riesz[1] * np.fft.rfft2(rho), grid)


def eval_point(spec: np.ndarray, grid: Grid, x, grad: bool = False) -> np.ndarray:
    """Real trigonometric interpolant of ``rfft2`` half spectra at the point ``x``.

    ``spec`` is a stack of half spectra, shape ``(..., N, N//2 + 1)``; the
    result has one value per spectrum, shape ``spec.shape[:-2]``.  The
    interpolant is ``Re sum_m w_m2 F_m exp(i k_m . (x + L)) / N^2`` with the
    Hermitian weights ``w = 1, 2, ..., 2, 1`` over the half axis and both
    Nyquist modes entering as cosines (the symmetric convention); it equals
    the field on grid nodes.  With ``grad=True`` the result is stacked as
    ``(value, d/dx, d/dy)``; the derivatives use the Nyquist-zeroed ``ik`` of
    the grid operators, folded into the evaluation vectors.
    """
    e1 = np.exp(1j * (x[0] + grid.L) * grid._kx[:, 0])
    e1[grid.N // 2] = e1[grid.N // 2].real  # axis 0's Nyquist as a cosine; Re does axis 1's
    e2 = grid._hermitian * np.exp(1j * (x[1] + grid.L) * grid._ky[0])
    if not grad:
        return (spec @ e2 @ e1).real / grid.N**2
    cols = spec @ np.stack([e2, grid._ik[1, 0] * e2], axis=-1)  # (..., N, 2)
    vals = np.stack([e1, grid._ik[0, :, 0] * e1]) @ cols  # (..., 2, 2)
    out = np.stack([vals[..., 0, 0], vals[..., 1, 0], vals[..., 0, 1]])
    return out.real / grid.N**2


def f1_f2_eval(rho: np.ndarray, params: PhysicalParams, x, grid: Grid) -> tuple[float, float]:
    """Both force kernels evaluated at an arbitrary point by spectral interpolation."""
    f1, f2 = params.k * eval_point(grid._riesz * np.fft.rfft2(rho), grid, x)
    return float(f1), float(f2)


def _rhs(hat, params, grid, a, H):
    """Method-of-lines right-hand side on the stacked half spectra of ``(sigma, w1, w2)``.

    ``hat`` and the result have shape ``(3, N, N//2 + 1)``.  Only the
    quadratic products are formed on the grid, from dealiased fields, and they
    are dealiased again.  ``a`` and ``H`` are the comoving frame's scale factor
    and its rate at the stage time (``1`` and ``0`` in a static frame).
    """
    ik, mask = grid._ik, grid._dealias
    m = hat * mask
    r, v1, v2 = _inv(m, grid)
    grad = _inv(m[1:, None] * ik, grid)  # grad[i, j] = d_j v_i
    adv = v1 * grad[:, 0] + v2 * grad[:, 1]
    prod = np.fft.rfft2(np.stack([r * v1, r * v2, adv[0], adv[1]])) * mask

    # comoving transport carries 1/a, as does the force through k; c_b is in
    # the frame, so only the fluid's fluctuation forces; H drags the velocity
    out = np.empty_like(hat)
    out[0] = -(ik[0] * prod[0] + ik[1] * prod[1]) / a
    out[1:] = -prod[2:] / a + (params.k / a) * ik * (hat[0] * grid._inv_lap) - H * hat[1:]
    return out


def cfl_limit(u: np.ndarray, grid: Grid, cfl: float = 0.5, a: float = 1.0) -> float:
    """Largest advectively stable step; ``inf`` for a fluid at rest.

    The comoving speed is ``|u| / a`` for scale factor ``a``.
    """
    umax = float(np.max(np.abs(u))) / a
    if umax == 0.0:
        return math.inf
    return cfl * grid.dx / umax


def step_ep(
    rho: np.ndarray,
    u: np.ndarray,
    params: PhysicalParams,
    grid: Grid,
    dt: float,
    cfl: float = 0.5,
    *,
    frame: ComovingFrame | None = None,
    t: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """One explicit 4-stage Runge-Kutta step of the full system.

    Without ``frame`` the step is taken in the static frame; with one, the
    fields are the comoving ``(sigma, w)`` at time ``t`` and each stage sees
    the frame's ``(a, H)`` at its own time.  ``dt`` must respect the advective
    CFL bound ``cfl * dx * a(t) / max|u|``.  The spatial mean of ``rho`` is
    conserved by construction (divergence form); negative density excursions
    warn beyond ``-1e-8`` and fail beyond ``-1e-4``.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(u))):
        raise InvalidStateError("fields contain non-finite values")
    frame = frame or ComovingFrame()
    stage = (frame.scale(t), frame.scale(t + 0.5 * dt), frame.scale(t + dt))
    limit = cfl_limit(u, grid, cfl, stage[0][0])
    if dt > limit * (1.0 + 1e-12):
        raise StepSizeError(
            f"dt={dt:.6g} violates the advective CFL bound {limit:.6g}"
        )

    state = np.concatenate([rho[None], u])
    hat = np.fft.rfft2(state)
    k1 = _rhs(hat, params, grid, *stage[0])
    k2 = _rhs(hat + 0.5 * dt * k1, params, grid, *stage[1])
    k3 = _rhs(hat + 0.5 * dt * k2, params, grid, *stage[1])
    k4 = _rhs(hat + dt * k3, params, grid, *stage[2])
    state = state + _inv((dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), grid)
    rho_new, u_new = state[0], state[1:]

    rho_min = float(rho_new.min())
    if rho_min < _NEGATIVE_FAIL:
        raise PositivityError(f"density reached {rho_min:.3e}")
    if rho_min < _NEGATIVE_WARN:
        # stable message so the warnings machinery deduplicates per call site
        warnings.warn(
            f"density dipped below {_NEGATIVE_WARN:g}", PositivityWarning, stacklevel=2
        )
    return rho_new, u_new


def diagnostics(
    rho: np.ndarray, params: PhysicalParams, grid: Grid, a: float = 1.0
) -> tuple[float, float, float]:
    """One norm sample: sup of ``|rho|``, of the potential, and of its x-derivative.

    ``rho`` is the comoving density of a frame with scale factor ``a`` (the
    density itself when ``a = 1``); the norms are physical: ``sup|sigma| / a^2``
    and ``sup|d_y phi| / a``.  The potential is ``Laplacian^{-1}`` of the
    fluid's fluctuation under the mean-zero torus convention, the same in
    both coordinates up to a constant; norms are grid maxima, the gradient is
    spectral.
    """
    phihat = np.fft.rfft2(rho) * grid._inv_lap
    phi = _inv(phihat, grid)
    dphi_dx = _inv(grid._ik[0] * phihat, grid)
    return (
        float(np.max(np.abs(rho))) / a**2,
        float(np.max(np.abs(phi))),
        float(np.max(np.abs(dphi_dx))) / a,
    )
