"""Periodic pseudo-spectral operators and time stepping for the 2D fluid system.

Fields live on an ``N x N`` grid over the periodic square ``[-L, L)^2``
(axis 0 is x, axis 1 is y); ``ScalarField`` is a plain ``(N, N)`` float array
and ``VectorField`` a ``(2, N, N)`` array.  The governing equations are mass
conservation and momentum balance with a Poisson force::

    rho_t = -div(rho u)
    u_t   = -(u . grad) u + k grad Laplacian^{-1} (rho - c_b)

Background force and comoving frame
-----------------------------------
The data are taken to decay inside the box (5.1's do; 5.2's and 5.3's do
not, see :func:`make_density`), so on the whole plane ``rho - c_b`` tends to
``-c_b`` and the background exerts the linear force ``gamma x`` with
``gamma = -k c_b / 2``.  A linear field is not periodic; :class:`ComovingFrame`
absorbs it into comoving coordinates ``y = x / a(t)`` with ``a'' = gamma a``,
``a(0) = 1``, ``a'(0) = 0``.  The solver state is then the comoving density
``sigma = a^2 rho(a y)`` and the peculiar velocity ``w = u - H x``
(``H = a'/a``), which obey::

    sigma_t = -(1/a) div(sigma w)
    w_t     = -(1/a) (w . grad) w - H w + (k/a) grad Laplacian^{-1} (sigma - mean sigma)

The fluid's own mean keeps the periodic convention: the inverse Laplacian
only exists for mean-zero sources on the torus, so every Poisson/Riesz
multiplier is 0 at the constant Fourier mode, which subtracts the spatial
mean of its argument.  When ``k c_b = 0`` the frame is static (``a = 1``)
and these are the equations in the first block.

Dealiasing uses the 2/3 rule: inputs to quadratic products and the products
themselves are truncated to modes ``max(|m1|, |m2|) <= N//3``.

Transforms of dealiased fields visit only the kept columns.  ``irfft2`` is
``ifft`` down the columns (axis 0) and then ``irfft`` along the rows, and
``rfft2`` is ``rfft`` along the rows and then ``fft`` down the columns, each
pass with its own ``1/n``.  A dealiased spectrum is 0 past half-axis column
``N//3``, so a right-hand side runs the column passes on the ``N//3 + 1``
kept columns alone: the inverse into a half spectrum whose other columns
stay 0, the forward before the products are truncated.  That is 22 of the
65 columns at ``N = 128`` that no longer carry zeros through a transform,
and the results are bit for bit those of ``irfft2`` and ``rfft2``.

Time stepping is an explicit Dormand-Prince 5(4) step, on the stage loop
of :mod:`~epriccati.integrate`, with an advective CFL restriction; the
forcing is nonstiff at the amplitudes this solver targets.  A step's seven stage
slopes give its free 4th-order continuous extension, which
:func:`~epriccati.simulate.run_example` reads for records that fall inside a
step.  The solver state is the stacked ``rfft2`` half spectrum of
``(sigma, w1, w2)``: :func:`step_ep` takes and returns it, within a stage
only the quadratic products pass through the grid, and each step inverts its
new state once for the checks that need grid values.  A :class:`WorkSet`
holds every buffer a right-hand side works in, so a stage writes its slope
in place and a step allocates only its new state and that state's grid
fields.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidStateError, PositivityError, PositivityWarning
from .integrate import _NODES, _dp5_stages
from .riccati import PhysicalParams

__all__ = [
    "Grid",
    "ComovingFrame",
    "make_density",
    "WorkSet",
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

        ``k`` times them, applied to the density's half spectrum, gives the
        anisotropic kernel ``f1 = k (R_11 - R_22)[rho - c_b]`` and the shear
        kernel ``f2 = k (R_12 + R_21)[rho - c_b]``, as the tracer does.
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
    kind ``"sech"``; ``r`` is the distance to the blob center, with no periodic
    images.  That is the whole-plane density only if the data decay inside the
    box: 5.1's Gaussian does (3.7e-44 of its peak on the box edge), but the
    sech bumps of 5.2 and 5.3 are 3.6% of their peak there at ``L = 10`` and,
    sitting off-centre, jump across the periodic seam (ROADMAP direction 10).
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


def _inv(fhat):
    """Inverse ``rfft2`` of (stacked) half spectra of ``N x N`` grid fields."""
    n = fhat.shape[-2]
    return np.fft.irfft2(fhat, s=(n, n))


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


class WorkSet:
    """The buffers a right-hand side works in, for one grid size; one set serves a whole run.

    Buffers whose uses never overlap share memory, so the set is about
    2.5 MB at ``N = 128``:

    - ``half``, ``(4, N, N//2 + 1)``: the inverse's half spectra between its
      two passes; columns past the kept ones are never written and stay 0;
    - ``prod``, ``(5, N, N//2 + 1)``: on the kept columns, first the
      dealiased inputs of the inverse, then the products' dealiased
      spectra; the other columns stay 0;
    - ``fields``, ``(4, N, N)``: the inputs' grid fields, sharing memory
      with ``rows``, ``(5, N, N//2 + 1)``: the products' row transforms,
      then the slope's scratch, and the new state's column pass;
    - ``quad``, ``(5, N, N)``: the quadratic products, sharing memory with
      ``tmp``: the stage sums' product buffer, a float64 view of a state.
    """

    def __init__(self, grid: Grid):
        n, h = grid.N, grid.N // 2 + 1
        # the half-axis columns the 2/3 rule keeps; a dealiased spectrum is 0 past them
        self.N, self.kept = n, n // 3 + 1
        self.half = np.zeros((4, n, h), dtype=complex)
        self.prod = np.zeros((5, n, h), dtype=complex)
        shared = np.empty(max(4 * n * n, 10 * n * h))
        self.fields = shared[: 4 * n * n].reshape(4, n, n)
        self.rows = shared.view(complex)[: 5 * n * h].reshape(5, n, h)
        self.quad = np.empty((5, n, n))
        self.tmp = self.quad.reshape(-1)[: 6 * n * h].reshape(3, n, 2 * h)

    def inverse(self) -> np.ndarray:
        """``fields``: ``irfft2`` of ``prod[:4]``, whose kept columns hold dealiased spectra."""
        c = self.kept
        np.fft.ifft(self.prod[:4, :, :c], axis=-2, out=self.half[:, :, :c])
        return np.fft.irfft(self.half, self.N, axis=-1, out=self.fields)

    def forward(self) -> np.ndarray:
        """``prod``: ``rfft2`` of ``quad`` on the kept columns, through ``rows``."""
        c = self.kept
        np.fft.rfft(self.quad, axis=-1, out=self.rows)
        np.fft.fft(self.rows[:, :, :c], axis=-2, out=self.prod[:, :, :c])
        return self.prod


def _rhs(hat, params, grid, a, H, work, out):
    """Method-of-lines right-hand side on the stacked half spectra of ``(sigma, w1, w2)``.

    Writes the slope at ``hat`` into ``out``, both of shape
    ``(3, N, N//2 + 1)``, and returns ``out``; every intermediate lives in
    ``work``, a :class:`WorkSet` for ``grid``.  Only the quadratic products
    are formed on the grid, from dealiased fields, and they are dealiased
    again; both transforms run their column passes on the kept columns
    alone (see the module docstring).  Advection is in vorticity form,
    ``(w . grad) w = grad(|w|^2 / 2) + omega (-w2, w1)``: exact for the kept
    modes, which the 2/3 rule leaves alias-free (``3 (N//3) < N``), so the
    velocity gradients never visit the grid.  ``a`` and ``H`` are the
    comoving frame's scale factor and its rate at the stage time (``1`` and
    ``0`` in a static frame).
    """
    c = work.kept
    ik, mask = grid._ik, grid._dealias[:, :c]
    m, rows = work.prod[:4, :, :c], work.rows
    np.multiply(hat[:, :, :c], mask, out=m[:3])
    np.multiply(ik[0, :, :c], m[2], out=m[3])
    m[3] -= np.multiply(ik[1, :, :c], m[1], out=rows[0, :, :c])
    r, v1, v2, omega = work.inverse()

    quad = work.quad
    np.multiply(r, v1, out=quad[0])
    np.multiply(r, v2, out=quad[1])
    np.multiply(v1, v1, out=quad[2])
    quad[2] += np.multiply(v2, v2, out=quad[3])
    quad[2] *= 0.5
    np.negative(omega, out=quad[3])
    quad[3] *= v2
    np.multiply(omega, v1, out=quad[4])
    prod = work.forward()
    prod[:, :, :c] *= mask

    # comoving transport carries 1/a, as does the force through k; c_b is in
    # the frame, so only the fluid's fluctuation forces; H drags the velocity.
    # The products' row transforms are spent, so rows is the scratch
    np.multiply(ik[0], prod[0], out=out[0])
    out[0] += np.multiply(ik[1], prod[1], out=rows[0])
    np.negative(out[0], out=out[0])
    out[0] /= a
    force = np.multiply(params.k, hat[0], out=rows[0])
    force *= grid._inv_lap
    np.subtract(prod[2], force, out=force)
    w = out[1:]
    np.multiply(ik, force, out=w)
    w += prod[3:]
    np.negative(w, out=w)
    w /= a
    w -= np.multiply(H, hat[1:], out=rows[1:3])
    return out


_CFL = 0.5  # the fraction of the advective time scale ``dx * a / max|u|`` a step may take


def cfl_limit(u: np.ndarray, grid: Grid, a: float = 1.0) -> float:
    """Largest stable step ``_CFL * dx * a / max|u|`` at scale factor ``a``; ``inf`` at rest."""
    umax = float(np.max(np.abs(u))) / a
    if umax == 0.0:
        return math.inf
    return _CFL * grid.dx / umax


def check_positivity(rho: np.ndarray) -> None:
    """Escalate negative density excursions.

    A minimum below ``-1e-8`` warns with :class:`PositivityWarning`, one
    below ``-1e-4`` raises :class:`PositivityError`.
    """
    rho_min = float(rho.min())
    if rho_min < _NEGATIVE_FAIL:
        raise PositivityError(f"density reached {rho_min:.3e}")
    if rho_min < _NEGATIVE_WARN:
        # one stable message and call site, so the warnings machinery reports
        # a run's dips once, from steps and records alike
        warnings.warn(f"density dipped below {_NEGATIVE_WARN:g}", PositivityWarning, stacklevel=1)


def step_ep(
    hat: np.ndarray,
    params: PhysicalParams,
    grid: Grid,
    dt: float,
    *,
    frame: ComovingFrame | None = None,
    t: float = 0.0,
    k: np.ndarray | None = None,
    work: WorkSet | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One explicit Dormand-Prince 5(4) step of the full system.

    ``hat`` is the stacked ``rfft2`` half spectrum of the comoving
    ``(sigma, w1, w2)``, shape ``(3, N, N//2 + 1)``, which is ``(rho, u1, u2)``
    only in the static frame; the step returns the new spectrum and its
    grid fields ``_inv(hat)``.  Without ``frame`` the step is taken in the
    static frame; with one, the state is at time ``t`` and each stage
    sees the frame's ``(a, H)`` at its own time.
    ``k``, shape ``(7, 3, N, N//2 + 1)``, holds the stage slopes: on entry
    ``k[0]`` is the slope at ``(t, hat)``, the previous step's ``k[6]``
    (first same as last), and :func:`~epriccati.integrate._dp5_stages`, the
    ODE integrator's stage loop, writes ``k[1:]``, ``k[6]`` being the slope
    at the new state, so a step makes six right-hand-side evaluations and
    its continuous extension is :func:`~epriccati.integrate._extend` of
    ``(hat, k, dt)``.  Without ``k`` the step computes ``k[0]`` itself.
    ``work`` is the :class:`WorkSet` of the right-hand sides, which a run
    makes once beside ``k``; without one the step makes its own, and one
    made for another ``N`` raises ``ValueError``.  Each stage writes its
    slope into ``k[s]`` in place, and the stage sums run on float64 views
    of the spectra, in ``k[6]`` and the work set; so a step allocates only
    its new state and that state's grid fields.
    The caller keeps ``dt`` within the advective CFL bound :func:`cfl_limit`
    at ``a(t)``.  The density's mean mode is never written (divergence form);
    the new density passes :func:`check_positivity`.  A non-finite spectrum,
    given or produced, raises :class:`~epriccati.errors.InvalidStateError`.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if work is None:
        work = WorkSet(grid)
    elif work.N != grid.N:
        raise ValueError(f"the work set is for N = {work.N}, not the grid's N = {grid.N}")
    if not np.all(np.isfinite(hat)):
        raise InvalidStateError("the spectrum contains non-finite values")
    frame = frame or ComovingFrame()
    if k is None:
        k = np.empty((7, *hat.shape), dtype=complex)
        _rhs(hat, params, grid, *frame.scale(t), work, k[0])

    def stage(s, y, out):
        a, H = frame.scale(t + _NODES[s] * dt)
        _rhs(y.view(complex), params, grid, a, H, work, out.view(complex))

    # a real multiply by each tableau coefficient, on the float64 views,
    # gives the complex one by (c + 0j) without its zero products; k[6],
    # free until the last stage fills it, is the accumulator
    kf = k.view(float)
    new = _dp5_stages(stage, hat.view(float), dt, kf, kf[6], work.tmp).view(complex)
    # irfft2's two passes, the column pass in the work set
    fields = np.fft.irfft(np.fft.ifft(new, axis=-2, out=work.rows[:3]), grid.N, axis=-1)
    if not np.all(np.isfinite(fields)):
        raise InvalidStateError("the step produced non-finite values")
    check_positivity(fields[0])
    return new, fields


def diagnostics(
    rho: np.ndarray, rho_hat: np.ndarray, grid: Grid, a: float = 1.0
) -> tuple[float, float, float]:
    """One norm sample: sup of ``|rho|``, of the potential, and of its x-derivative.

    ``rho`` is the comoving density of a frame with scale factor ``a`` (the
    density itself when ``a = 1``) and ``rho_hat`` its ``rfft2`` half
    spectrum, which the solver state holds, so a sample makes only the two
    inverse transforms.  The norms are physical: ``sup|sigma| / a^2`` and
    ``sup|d_y phi| / a``.  The potential is ``Laplacian^{-1}`` of the
    fluid's fluctuation under the mean-zero torus convention, the same in
    both coordinates up to a constant; norms are grid maxima, the gradient is
    spectral.
    """
    phihat = rho_hat * grid._inv_lap
    phi = _inv(phihat)
    dphi_dx = _inv(grid._ik[0] * phihat)
    return (
        float(np.max(np.abs(rho))) / a**2,
        float(np.max(np.abs(phi))),
        float(np.max(np.abs(dphi_dx))) / a,
    )
