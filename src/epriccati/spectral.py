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

Dealiasing uses the 2/3 rule, and the solver holds only the modes it keeps:
``max(|m1|, |m2|) <= N//3``.  A spectrum is the *kept block*, shape
``(..., 2(N//3) + 1, N//3 + 1)``: its rows are the x-wavenumbers ``0..N//3``
and ``-N//3..-1`` in ``rfft2`` order, its columns the y-wavenumbers
``0..N//3`` of the half axis.  That is 3,655 of ``rfft2``'s 8,320 modes at
``N = 128`` (85 rows by 43 columns), and no Nyquist mode.  :func:`_keep`
takes the block of an ``rfft2`` half spectrum; a run projects its initial
data this way, so every field it makes is band-limited to the block.
Quadratic products are formed on the grid and only their kept block is
kept; the 2/3 rule leaves those modes alias-free (``3 (N//3) < N``).

Transforms zero-pad the block.  ``irfft2`` is ``ifft`` down the columns
(axis 0) and then ``irfft`` along the rows, and ``rfft2`` is ``rfft`` along
the rows and then ``fft`` down the columns, each pass with its own ``1/n``.
An inverse writes the block's rows into ``N`` rows whose others stay 0,
runs the column pass on the ``N//3 + 1`` kept columns alone, and lets
``irfft`` pad the columns; a forward runs its column pass on the kept
columns and keeps the block's rows.  The results are bit for bit those of
``irfft2`` of the zero-padded half spectrum and the block of ``rfft2``.

Time stepping is an explicit Dormand-Prince 5(4) step, on the stage loop
of :mod:`~epriccati.integrate`, with an advective CFL restriction; the
forcing is nonstiff at the amplitudes this solver targets.  The solver
state is the stacked kept block of ``(sigma, w1, w2)``; within a stage
only the quadratic products pass through the grid, and each step inverts
its new state once for its checks.  A :class:`WorkSet` owns a run's step:
its grid, physics and frame, the seven stage slopes, every buffer a
right-hand side works in, and the spectrum its last step returned, from
which :func:`step_ep` reuses the last slope as its first (first same as
last).  The slopes give the step's free 4th-order continuous extension,
which :func:`~epriccati.simulate.run_example` reads for records inside a
step.  A step allocates only its new state and that state's grid fields.
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

    # --- the kept block: rows x-wavenumbers 0..N//3, -N//3..-1; columns 0..N//3 ---

    @cached_property
    def _kx(self) -> np.ndarray:
        c = self.N // 3 + 1
        m = np.concatenate([np.arange(c), np.arange(1 - c, 0)])
        return (math.pi / self.L) * m[:, None]

    @cached_property
    def _ky(self) -> np.ndarray:
        k = (math.pi / self.L) * np.arange(self.N // 3 + 1)
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
        return 1j * np.stack(np.broadcast_arrays(self._kx, self._ky))

    @cached_property
    def _riesz(self) -> np.ndarray:
        """The two force-kernel multipliers ``(kx^2 - ky^2)/|k|^2`` and ``2 kx ky/|k|^2``.

        ``k`` times them, applied to the density's kept block, gives the
        anisotropic kernel ``f1 = k (R_11 - R_22)[rho - c_b]`` and the shear
        kernel ``f2 = k (R_12 + R_21)[rho - c_b]``, as the tracer does.
        Both are 0 at the constant mode, so neither ``c_b`` nor the fluid's
        mean exerts a force.
        """
        kx, ky = np.broadcast_arrays(self._kx, self._ky)
        return np.stack([kx**2 - ky**2, 2.0 * kx * ky]) / self._k2_guarded

    @cached_property
    def _hermitian(self) -> np.ndarray:
        """Weights ``1, 2, ..., 2`` of the kept columns in the real interpolant."""
        w = np.full(self.N // 3 + 1, 2.0)
        w[0] = 1.0
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


def _keep(spec: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The kept blocks of (stacked) ``rfft2`` half spectra, or of their kept columns.

    The block's rows are ``spec``'s first ``N//3 + 1`` and last ``N//3`` of
    ``N``, its columns the first ``N//3 + 1``; written into ``out`` when given.
    """
    n = spec.shape[-2]
    c = n // 3 + 1
    if out is None:
        out = np.empty((*spec.shape[:-2], 2 * c - 1, c), dtype=complex)
    out[..., :c, :] = spec[..., :c, :c]
    out[..., c:, :] = spec[..., n - c + 1 :, :c]
    return out


def _pad(hat: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write kept blocks into their modes of ``out``, and no other mode; returns ``out``.

    ``out`` holds (stacked) ``rfft2`` half spectra, or their kept columns.
    """
    c = hat.shape[-1]
    out[..., :c, :c] = hat[..., :c, :]
    out[..., out.shape[-2] - c + 1 :, :c] = hat[..., c:, :]
    return out


def _inv(hat: np.ndarray) -> np.ndarray:
    """Grid fields of (stacked) kept blocks: ``irfft2`` of their zero-padded half spectra.

    ``N`` is the power of two (see :class:`Grid`) whose ``N//3`` is the
    block's last column: ``3 (N//3)`` is ``N - 1`` or ``N - 2``, so ``N``
    is the power of two just above it.
    """
    c = hat.shape[-1]
    n = 1 << (3 * (c - 1)).bit_length()
    cols = _pad(hat, np.zeros((*hat.shape[:-2], n, c), dtype=complex))
    return np.fft.irfft(np.fft.ifft(cols, axis=-2, out=cols), n, axis=-1)


def eval_point(spec: np.ndarray, grid: Grid, x, grad: bool = False) -> np.ndarray:
    """Real trigonometric interpolant of kept blocks at the point ``x``.

    ``spec`` is a stack of kept blocks, shape ``(..., 2(N//3) + 1, N//3 + 1)``;
    the result has one value per block, shape ``spec.shape[:-2]``.  The
    interpolant is ``Re sum_m w_m2 F_m exp(i k_m . (x + L)) / N^2`` with the
    Hermitian weights ``w = 1, 2, ..., 2`` over the kept columns; it equals
    the field on grid nodes.  With ``grad=True`` the result is stacked as
    ``(value, d/dx, d/dy)``; the derivatives use the ``ik`` of the grid
    operators, folded into the evaluation vectors.
    """
    e1 = np.exp(1j * (x[0] + grid.L) * grid._kx[:, 0])
    e2 = grid._hermitian * np.exp(1j * (x[1] + grid.L) * grid._ky[0])
    if not grad:
        return (spec @ e2 @ e1).real / grid.N**2
    cols = spec @ np.stack([e2, grid._ik[1, 0] * e2], axis=-1)  # (..., rows, 2)
    vals = np.stack([e1, grid._ik[0, :, 0] * e1]) @ cols  # (..., 2, 2)
    out = np.stack([vals[..., 0, 0], vals[..., 1, 0], vals[..., 0, 1]])
    return out.real / grid.N**2


class WorkSet:
    """One run's step: its grid, physics and frame, stage slopes and buffers.

    ``k``, ``(7, 3, 2(N//3) + 1, N//3 + 1)``, holds a step's seven stage
    slopes as kept blocks, and ``end`` is the spectrum the set's last step
    returned (``None`` before one).  Buffers whose uses never overlap share
    memory, so the set is 3,634,016 bytes at ``N = 128``, of which ``k``'s
    1,228,080 a run held anyway:

    - ``pad``, ``(4, N, N//3 + 1)``: the inverse's kept blocks in their
      rows of the kept columns; the other rows are never written and stay 0;
    - ``cols``, ``(5, N, N//3 + 1)``: the kept columns after a column pass,
      the inverse's and then the forward's, then ``scratch``, the slope's;
    - ``prod``, ``(5, 2(N//3) + 1, N//3 + 1)``: the vorticity's scratch,
      then the products' kept blocks;
    - ``fields``, ``(4, N, N)``: the inputs' grid fields, sharing memory
      with ``rows``, ``(5, N, N//2 + 1)``: the products' row transforms;
    - ``quad``, ``(5, N, N)``: the quadratic products, sharing memory with
      ``tmp``: the stage sums' product buffer, a float64 view of a state.
    """

    def __init__(self, grid: Grid, params: PhysicalParams, frame: ComovingFrame):
        n, h, c = grid.N, grid.N // 2 + 1, grid.N // 3 + 1
        r = 2 * c - 1
        self.grid, self.params, self.frame = grid, params, frame
        self.k = np.empty((7, 3, r, c), dtype=complex)
        self.end = None
        self.pad = np.zeros((4, n, c), dtype=complex)
        self.cols = np.empty((5, n, c), dtype=complex)
        self.scratch = self.cols.reshape(-1)[: 2 * r * c].reshape(2, r, c)
        self.prod = np.empty((5, r, c), dtype=complex)
        shared = np.empty(max(4 * n * n, 10 * n * h))
        self.fields = shared[: 4 * n * n].reshape(4, n, n)
        self.rows = shared.view(complex)[: 5 * n * h].reshape(5, n, h)
        self.quad = np.empty((5, n, n))
        self.tmp = self.quad.reshape(-1)[: 6 * r * c].reshape(3, r, 2 * c)

    def inverse(self, m: int, out: np.ndarray | None = None) -> np.ndarray:
        """Grid fields of the kept blocks in ``pad[:m]``, into ``out`` when given."""
        np.fft.ifft(self.pad[:m], axis=-2, out=self.cols[:m])
        return np.fft.irfft(self.cols[:m], self.grid.N, axis=-1, out=out)

    def forward(self) -> np.ndarray:
        """``prod``: the kept blocks of ``rfft2`` of ``quad``, through ``rows`` and ``cols``."""
        np.fft.rfft(self.quad, axis=-1, out=self.rows)
        np.fft.fft(self.rows[:, :, : self.cols.shape[-1]], axis=-2, out=self.cols)
        return _keep(self.cols, out=self.prod)


def _rhs(hat, a, H, work, out):
    """Method-of-lines right-hand side on the stacked kept blocks of ``(sigma, w1, w2)``.

    Writes the slope at ``hat`` into ``out``, both of shape
    ``(3, 2(N//3) + 1, N//3 + 1)``, and returns ``out``; the grid and the
    physics are ``work``'s, and every intermediate lives in that
    :class:`WorkSet`.  Only the quadratic products are formed on the grid,
    and only their kept blocks are kept (see the module docstring).
    Advection is in vorticity form, ``(w . grad) w = grad(|w|^2 / 2) +
    omega (-w2, w1)``: exact for the kept modes, which the 2/3 rule leaves
    alias-free (``3 (N//3) < N``), so the velocity gradients never visit the
    grid.  ``a`` and ``H`` are the comoving frame's scale factor and its
    rate at the stage time (``1`` and ``0`` in a static frame).
    """
    grid, prod, s = work.grid, work.prod, work.scratch
    ik = grid._ik
    vort = np.multiply(ik[0], hat[2], out=prod[0])  # the vorticity's kept block
    vort -= np.multiply(ik[1], hat[1], out=prod[1])
    _pad(hat, work.pad[:3])
    _pad(vort, work.pad[3])
    r, v1, v2, omega = work.inverse(4, out=work.fields)

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

    # comoving transport carries 1/a, as does the force through k; c_b is in
    # the frame, so only the fluid's fluctuation forces; H drags the velocity
    np.multiply(ik[0], prod[0], out=out[0])
    out[0] += np.multiply(ik[1], prod[1], out=s[0])
    np.negative(out[0], out=out[0])
    out[0] /= a
    force = np.multiply(work.params.k, hat[0], out=s[0])
    force *= grid._inv_lap
    np.subtract(prod[2], force, out=force)
    w = out[1:]
    np.multiply(ik, force, out=w)
    w += prod[3:]
    np.negative(w, out=w)
    w /= a
    w -= np.multiply(H, hat[1:], out=s)
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


def step_ep(hat: np.ndarray, t: float, dt: float, work: WorkSet) -> tuple[np.ndarray, np.ndarray]:
    """One explicit Dormand-Prince 5(4) step of the full system, from ``hat`` at time ``t``.

    ``hat`` is the stacked kept block of the comoving ``(sigma, w1, w2)``,
    shape ``(3, 2(N//3) + 1, N//3 + 1)``, which is ``(rho, u1, u2)`` only
    in the static frame; the step returns the new spectrum, read-only,
    and its grid fields ``_inv(hat)``.  ``work`` is the run's
    :class:`WorkSet`, whose grid, physics and frame the step is taken in;
    each stage sees the frame's ``(a, H)`` at its own time.
    :func:`~epriccati.integrate._dp5_stages`, the ODE integrator's stage
    loop, writes the slopes ``work.k[1:]``, ``k[6]`` being the one at the new
    state, so the step's continuous extension is
    :func:`~epriccati.integrate._extend` of ``(hat, work.k, dt)`` until the
    set's next step.  ``k[0]``, the slope at ``(t, hat)``, is that ``k[6]``
    (first same as last) when ``hat`` is ``work.end``, the spectrum the
    set's last step returned, so a run continues from it at that step's end
    time; for any other ``hat`` the step evaluates it, a seventh right-hand
    side.  A step that raises leaves the set remembering no spectrum.  The
    stage sums run on float64 views of the spectra, in ``k[6]`` and the set,
    so a step allocates only its new state and that state's grid fields.
    The caller keeps ``dt`` within the advective CFL bound :func:`cfl_limit`
    at ``a(t)``.  The density's mean mode is never written (divergence form);
    the new density passes :func:`check_positivity`.  A ``hat`` of another
    shape raises ``ValueError``, and a non-finite spectrum, given or
    produced, :class:`~epriccati.errors.InvalidStateError`.
    """
    first_same_as_last, work.end = hat is work.end, None
    k, frame = work.k, work.frame
    if hat.shape != k.shape[1:]:
        raise ValueError(f"the spectrum has shape {hat.shape}, not the work set's {k.shape[1:]}")
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if not np.all(np.isfinite(hat)):
        raise InvalidStateError("the spectrum contains non-finite values")
    if first_same_as_last:
        k[0] = k[6]
    else:
        _rhs(hat, *frame.scale(t), work, k[0])

    def stage(s, y, out):
        a, H = frame.scale(t + _NODES[s] * dt)
        _rhs(y.view(complex), a, H, work, out.view(complex))

    # a real multiply by each tableau coefficient, on the float64 views,
    # gives the complex one by (c + 0j) without its zero products; k[6],
    # free until the last stage fills it, is the accumulator
    kf = k.view(float)
    new = _dp5_stages(stage, hat.view(float), dt, kf, kf[6], work.tmp).view(complex)
    _pad(new, work.pad[:3])
    fields = work.inverse(3)
    if not np.all(np.isfinite(fields)):
        raise InvalidStateError("the step produced non-finite values")
    check_positivity(fields[0])
    new.flags.writeable = False  # nothing may change the state under its kept slope
    work.end = new
    return new, fields


def diagnostics(
    rho: np.ndarray, rho_hat: np.ndarray, grid: Grid, a: float = 1.0
) -> tuple[float, float, float]:
    """One norm sample: sup of ``|rho|``, of the potential, and of its x-derivative.

    ``rho`` is the comoving density of a frame with scale factor ``a`` (the
    density itself when ``a = 1``) and ``rho_hat`` its kept block, which the
    solver state holds, so a sample makes only one inverse, of the
    potential and its gradient stacked.  The norms are physical:
    ``sup|sigma| / a^2`` and ``sup|d_y phi| / a``.  The potential is
    ``Laplacian^{-1}`` of the fluid's fluctuation under the mean-zero torus
    convention, the same in both coordinates up to a constant; norms are
    grid maxima, the gradient is spectral.
    """
    phihat = rho_hat * grid._inv_lap
    phi, dphi_dx = _inv(np.stack([phihat, grid._ik[0] * phihat]))
    return (
        float(np.max(np.abs(rho))) / a**2,
        float(np.max(np.abs(phi))),
        float(np.max(np.abs(dphi_dx))) / a,
    )
