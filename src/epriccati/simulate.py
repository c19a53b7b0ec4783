"""Whole-run driver for the spectral solver: scenarios, norm series, snapshots.

Three built-in example scenarios ship with the package (zero initial velocity
in all of them):

* ``"5.1"`` -- attractive forcing ``k=-1`` with background ``c_b=0.03`` and a
  single Gaussian bump ``0.015 * exp(-|x|^2)``.
* ``"5.2"`` -- attractive forcing ``k=-1``, ``c_b=0.04``, four offset sech
  bumps of unequal amplitude (non-symmetric data).
* ``"5.3"`` -- repulsive forcing ``k=+1`` with zero background and the same
  density as ``"5.2"``.

``run_example`` advances the fields, records the norm series at a fixed
cadence, takes snapshots at requested times, and can retain the field
history needed for characteristic tracing, one frame per norm sample.
Steps end only at ``t_end``; a record inside a step reads the step's
4th-order continuous extension.  Snapshots, history frames and the final
state are one type, :class:`SpectralFrame`: the solver state itself, the
stacked kept block (see :mod:`~epriccati.spectral`) of a step's end or an
extension value.  A snapshot is the history's frame at its time, and the
final state is the ``t_end`` frame.  Tracers read a history and transform
nothing.

The background's whole-plane force is carried by the comoving frame of
:class:`~epriccati.spectral.ComovingFrame` (``gamma = -k c_b / 2``): stored
fields are the comoving density and peculiar velocity, each frame records
its scale factor, and the norm series is physical.  Scenarios ``5.1`` and
``5.2`` run in an expanding frame; ``5.3`` (``c_b = 0``) in a static one.
A frame with ``k c_b > 0`` collapses at ``t_c = pi / sqrt(2 k c_b)``, the
background's own finite-time collapse; runs must end before it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import EpriccatiError
from .integrate import _MAX_STEPS, _extend  # one step budget and tableau for ODE and PDE runs
from .riccati import PhysicalParams
from .spectral import (
    ComovingFrame,
    Grid,
    WorkSet,
    _inv,
    _keep,
    cfl_limit,
    check_positivity,
    diagnostics,
    make_density,
    step_ep,
)

__all__ = [
    "Blob",
    "ScenarioConfig",
    "NormSeries",
    "SpectralFrame",
    "PdeRunResult",
    "EXAMPLE_NAMES",
    "example_config",
    "run_example",
]


@dataclass(frozen=True)
class Blob:
    """A radial density bump ``amplitude * profile(rate * |x - center|)``."""

    kind: str  # "gaussian" or "sech"
    amplitude: float
    center: tuple[float, float] = (0.0, 0.0)
    rate: float = 1.0


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one PDE run.

    The default ``dt_max`` is 0.5, five norm samples per step; the samples,
    and history frames, inside a step read its continuous extension (see
    :func:`run_example`).
    """

    grid: Grid = Grid()
    params: PhysicalParams = PhysicalParams(k=-1.0, c_b=0.03)
    blobs: tuple[Blob, ...] = ()
    t_end: float = 10.0
    dt_max: float = 0.5
    norm_cadence: float = 0.1
    snapshot_times: tuple[float, ...] = ()
    store_history: bool = False

    def __post_init__(self):
        object.__setattr__(self, "snapshot_times", tuple(self.snapshot_times))
        if not round(self.t_end, 12) > 0.0:  # run_example's schedule resolution
            raise ValueError("t_end must be positive after rounding to 1e-12")
        if not all(0.0 <= ts <= self.t_end for ts in self.snapshot_times):
            raise ValueError("snapshot_times must lie in [0, t_end]")
        if not self.dt_max > 0.0:
            raise ValueError("dt_max must be positive")
        if not self.norm_cadence > 0.0:
            raise ValueError("norm_cadence must be positive")
        if self.t_end / self.dt_max > _MAX_STEPS:
            raise ValueError(f"t_end / dt_max exceeds the step budget of {_MAX_STEPS}")
        if self.t_end / self.norm_cadence > _MAX_STEPS:
            raise ValueError(f"t_end / norm_cadence exceeds the record budget of {_MAX_STEPS}")


@dataclass
class NormSeries:
    """Time series of the three sup norms tracked by the solver."""

    t: np.ndarray
    rho_sup: np.ndarray
    phi_sup: np.ndarray
    dphi_dx_sup: np.ndarray


@dataclass(init=False)
class SpectralFrame:
    """A snapshot, history frame or final state: the solver state at ``t``, its kept block.

    ``hat`` is the stacked kept block of the comoving ``(sigma, w1, w2)``,
    shape ``(3, 2(N//3) + 1, N//3 + 1)``: the state
    :func:`~epriccati.spectral.step_ep` returned at a step end, or the
    step's continuous extension inside it.
    ``rho`` and ``u`` are the comoving density ``sigma`` and the peculiar
    velocity ``w`` on the grid of comoving points ``y``, inverse-transformed
    on every read and not kept, so a run holds one copy of each frame.  The
    physical fields at ``x = a y`` are ``rho = sigma / a^2`` and
    ``u = H x + w`` with ``H = a'/a``; a static frame has ``a = 1`` and
    ``H = 0``.  A grid density given as the keyword ``rho`` replaces the
    density row of ``hat`` with the kept block of its ``rfft2``, so
    ``dataclasses.replace(frame, rho=...)`` is the frame with that density,
    projected as a run projects its initial data.
    """

    t: float
    hat: np.ndarray
    a: float = 1.0
    H: float = 0.0

    def __init__(self, t, hat, a=1.0, H=0.0, *, rho=None):
        if rho is not None:
            hat = np.concatenate([_keep(np.fft.rfft2(rho))[None], hat[1:]])
        self.t, self.hat, self.a, self.H = t, hat, a, H

    @property
    def rho(self) -> np.ndarray:
        return _inv(self.hat[0])

    @property
    def u(self) -> np.ndarray:
        return _inv(self.hat[1:])


@dataclass
class PdeRunResult:
    """A run's records and final state.

    A snapshot is the history's frame at its time, and ``final`` is the
    ``t_end`` frame, with ``store_history`` the same object as ``history[-1]``.
    """

    config: ScenarioConfig
    norms: NormSeries
    snapshots: list[SpectralFrame]
    history: list[SpectralFrame] | None
    final: SpectralFrame

    @property
    def grid(self) -> Grid:
        return self.config.grid

    @property
    def params(self) -> PhysicalParams:
        return self.config.params


_FOUR_BUMPS = (
    Blob("sech", 0.01, (-2.5, -2.5), 0.5),
    Blob("sech", 0.02, (2.5, 2.5), 0.5),
    Blob("sech", 0.01, (-2.5, 2.5), 0.5),
    Blob("sech", 0.01, (2.5, -2.5), 0.5),
)

_EXAMPLES = {
    "5.1": ScenarioConfig(
        params=PhysicalParams(k=-1.0, c_b=0.03),
        blobs=(Blob("gaussian", 0.015, (0.0, 0.0), 1.0),),
    ),
    "5.2": ScenarioConfig(
        params=PhysicalParams(k=-1.0, c_b=0.04),
        blobs=_FOUR_BUMPS,
    ),
    "5.3": ScenarioConfig(
        params=PhysicalParams(k=1.0, c_b=0.0),
        blobs=_FOUR_BUMPS,
    ),
}

EXAMPLE_NAMES = tuple(sorted(_EXAMPLES))


def example_config(name: str, **overrides) -> ScenarioConfig:
    """Config for a built-in scenario, optionally overriding any field."""
    if name not in _EXAMPLES:
        raise ValueError(f"unknown example {name!r}; choose from {EXAMPLE_NAMES}")
    cfg = _EXAMPLES[name]
    return replace(cfg, **overrides) if overrides else cfg


def run_example(cfg: ScenarioConfig) -> PdeRunResult:
    """Advance a scenario to ``t_end``, recording norms, snapshots and history.

    The state is the kept block of the initial fields' ``rfft2``,
    transformed once: the initial data projected onto the modes the 2/3
    rule keeps, as every later state is.
    Steps end only at ``t_end``, rounded to 1e-12, and take ``min(dt_max,
    cfl_limit(u, grid, a), t_end - t)``, at most half the advective time
    scale ``dx * a / max|u|``; this is the one place ``dt`` is chosen.
    Every step is :func:`~epriccati.spectral.step_ep` on the run's one
    :class:`~epriccati.spectral.WorkSet`, which carries the last stage slope
    from one step to the next (first same as last).  Records fall at the
    norm cadence and the snapshot times, rounded to 1e-12 (a time that
    rounds to 0 is the initial state): a norm sample, the snapshot at a
    snapshot time and, with ``store_history``, the same frame in the
    history; the ``t_end`` frame is the final state.  A record within 1e-12
    of a step end reads that end, any other the step's 4th-order continuous
    extension from the set's slopes, whose density passes the same
    positivity check as a step's; so records never change a step.  The
    default ``dt_max = 0.5`` suffices: its time error is about three orders
    below the spatial error at ``N = 128``, and tracers integrate the forces
    to 4th order in the frame spacing.  Raises
    :class:`~epriccati.errors.EpriccatiError` before stepping if the frame
    collapses by ``t_end`` or its ``a(t_end)**2`` overflows, and when a run
    needs more than ``_MAX_STEPS`` steps.
    """
    grid = cfg.grid
    frame = ComovingFrame.for_params(cfg.params)
    if cfg.t_end >= frame.t_collapse:
        raise EpriccatiError(
            f"the background collapses at t_c = {frame.t_collapse:.6g} "
            f"(k c_b > 0); t_end = {cfg.t_end:.6g} must be below it"
        )
    try:
        a2_end = frame.scale(cfg.t_end)[0] ** 2
    except OverflowError:
        a2_end = math.inf
    if not math.isfinite(a2_end):  # math.cosh(inf) and inf ** 2 return inf
        raise EpriccatiError(
            f"the frame's scale factor a overflows by t_end = {cfg.t_end:.6g} (k c_b < 0)"
        )
    rho = make_density(grid, cfg.blobs)
    hat = _keep(np.fft.rfft2(np.stack([rho, np.zeros_like(rho), np.zeros_like(rho)])))
    fields = _inv(hat)

    t_end = round(cfg.t_end, 12)
    n_norm = int(math.floor(cfg.t_end / cfg.norm_cadence + 1e-9))
    # without snapshot times the initial state is the one snapshot
    snap_wanted = {round(ts, 12) for ts in cfg.snapshot_times} or {0.0}
    norm_times = {round(i * cfg.norm_cadence, 12) for i in range(1, n_norm + 1)}
    schedule = sorted(ts for ts in norm_times | snap_wanted | {t_end} if ts > 0.0)

    norms = []
    snapshots: list[SpectralFrame] = []
    history: list[SpectralFrame] | None = [] if cfg.store_history else None

    def record(tr, state, density) -> SpectralFrame:
        """Norm sample, snapshot and history frame at ``tr``; ``density`` is ``_inv(state[0])``."""
        a, H = frame.scale(tr)
        norms.append((tr, *diagnostics(density, state[0], grid, a)))
        # no copy: step ends are read-only and nothing writes a state once
        # made (a copy raised peak RSS by 0.7 MB at N = 128, t = 5)
        spectral = SpectralFrame(tr, state, a, H)
        if tr in snap_wanted:
            snapshots.append(spectral)
        if history is not None:
            history.append(spectral)
        return spectral

    record(0.0, hat, fields[0])

    work = WorkSet(grid, cfg.params, frame)  # the run's step: its slopes and buffers
    t = 0.0
    steps = 0
    pending = iter(schedule)
    tr = next(pending)
    while t < t_end:
        steps += 1
        if steps > _MAX_STEPS:
            raise EpriccatiError(f"step budget of {_MAX_STEPS} steps exhausted before t_end")
        a = frame.scale(t)[0]
        dt = min(cfg.dt_max, cfl_limit(fields[1:], grid, a), t_end - t)
        new, fields = step_ep(hat, t, dt, work)
        t_new = t_end if t_end - t <= dt * (1.0 + 1e-9) else t + dt
        while tr is not None and tr <= t_new + 1e-12:
            state, density = new, fields[0]
            if tr < t_new - 1e-12:  # inside the step: its continuous extension
                # on float64 views, as the step sums its stages
                theta = (tr - t) / dt
                state = _extend(hat.view(float), work.k.view(float), dt, theta).view(complex)
                density = _inv(state[0])
                check_positivity(density)
            final = record(tr, state, density)  # the last record is at t_end
            tr = next(pending, None)
        hat, t = new, t_new

    arr = np.array(norms)
    series = NormSeries(t=arr[:, 0], rho_sup=arr[:, 1], phi_sup=arr[:, 2], dphi_dx_sup=arr[:, 3])
    return PdeRunResult(config=cfg, norms=series, snapshots=snapshots, history=history, final=final)
