"""Adaptive embedded Runge-Kutta integration with event and blow-up detection.

A Dormand-Prince 5(4) pair with proportional step control drives both the
single-trajectory front end (:func:`integrate`) and the batched engine
(:func:`integrate_batch`) used by phase-plane sweeps.  Both share one stepping
core, so a batch of one reproduces a single run bit for bit, and batch results
are independent of how trajectories are grouped -- the property that makes
sweep output identical for any worker count.

The core is stage-major: the seven stage slopes of a step are one
``(7, n, dim)`` array, and each stage combination is the in-order sum
``c[0] * k[0] + c[1] * k[1] + ...`` over whole ``(n, dim)`` slabs.  Zero
coefficients are kept, so a non-finite slope poisons the step as it should.
The ``n`` rows are the compacted working set of running trajectories: their
time, state, step size, FSAL slope and floor error live in compact arrays,
updated with ``np.where`` over the accepted rows.  They are written back to
the full-size results, and the set shrinks, only on a step where a row stops.

Blow-up policy: a finite-time singularity is never declared from state
magnitude alone.  The integrator reports ``BLOW_UP`` only when the state
magnitude exceeds ``blowup_magnitude`` *and* the accepted step size has
collapsed to ``dt_min`` with a non-decreasing error estimate.  Small-magnitude
step collapse raises :class:`StiffnessError` instead.  The singularity time is
reported as a bracket ``[t_lo, t_hi]``: ``t_lo`` is the last accepted sample,
and the width is an estimate of the remaining lifetime from the state's own
logarithmic growth rate (valid for the quadratic blow-ups this package
integrates, where the remaining time is at most ``2 |y| / |y'|``).  The
bracket pins the singularity of the *numerical* trajectory; its absolute
offset from the exact blow-up time is limited by the accumulated local error,
i.e. it tightens with the tolerances.

:func:`integrate_fixed_oracle` is an independent fixed-step classical RK4
implementation kept free of the adaptive machinery; tests use it as a
brute-force reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import EpriccatiError, InvalidStateError, StiffnessError
from .riccati import System

__all__ = [
    "IntegratorOptions",
    "TerminalStatus",
    "EventSpec",
    "EventOccurrence",
    "Trajectory",
    "BatchResult",
    "integrate",
    "integrate_batch",
    "integrate_fixed_oracle",
]

# Dormand-Prince 5(4) tableau (FSAL).  _COUPLING[s] holds the coefficients
# of stages 0..s-1 in stage s; _WEIGHTS gives the 5th-order solution from
# stages 0..5; _ERR maps stage slopes to the difference between the 5th- and
# 4th-order solutions; _DENSE is the matching 4th-order interpolant.
_NODES = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_COUPLING = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_WEIGHTS = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_ERR = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
_DENSE = np.array(
    [
        [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)

_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_SAFETY = 0.9
_MAX_STEPS = 1_000_000

# internal per-trajectory status codes
_RUNNING, _REACHED, _BLOWUP, _DOMAIN_END, _STIFF, _INVALID = range(6)


class TerminalStatus(Enum):
    REACHED_HORIZON = "reached-horizon"
    BLOW_UP = "blow-up"
    COEFFICIENT_DOMAIN_END = "coefficient-domain-end"


@dataclass(frozen=True)
class IntegratorOptions:
    """Tolerances, step bounds and blow-up threshold for adaptive integration.

    Defaults keep sweep classifications stable under tolerance halving.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-9
    dt_init: float = 1e-3
    dt_min: float = 1e-12
    dt_max: float = 1.0
    blowup_magnitude: float = 1e6
    t_end: float = 20.0

    def __post_init__(self):
        if not (0.0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt_init <= dt_max")
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if not self.blowup_magnitude > 0.0:
            raise ValueError("blowup_magnitude must be positive")
        if not self.t_end > 0.0:
            raise ValueError("t_end must be positive")


@dataclass(frozen=True)
class EventSpec:
    """A scalar predicate of ``(t, state)`` whose sign change defines an event.

    ``direction`` is one of ``"rising"``, ``"falling"``, ``"any"``.  Events are
    located on the dense-output interpolant by bisection to within
    ``refine_tol`` in time; they are recorded, never terminal.
    """

    predicate: Callable[[float, np.ndarray], float]
    direction: str = "any"
    refine_tol: float = 1e-10
    name: str = ""

    def __post_init__(self):
        if self.direction not in ("rising", "falling", "any"):
            raise ValueError("direction must be 'rising', 'falling' or 'any'")
        if not self.refine_tol > 0.0:
            raise ValueError("refine_tol must be positive")


@dataclass(frozen=True)
class EventOccurrence:
    name: str
    index: int
    t: float
    state: np.ndarray


def _quartic(y0, h, q, theta):
    """Dense output ``y0 + h * Q @ (theta, theta^2, theta^3, theta^4)`` of one step."""
    return y0 + h * (q @ theta ** np.arange(1, 5))


@dataclass
class _DenseSegments:
    """Per-step quartic interpolants: y(t0 + theta*h) = y0 + h * Q @ theta_powers."""

    t0: np.ndarray
    h: np.ndarray
    y0: np.ndarray
    q: np.ndarray  # (n_steps, dim, 4)

    def evaluate(self, t: float) -> np.ndarray:
        idx = int(np.searchsorted(self.t0, t, side="right")) - 1
        idx = min(max(idx, 0), len(self.h) - 1)
        theta = (t - self.t0[idx]) / self.h[idx]
        return _quartic(self.y0[idx], self.h[idx], self.q[idx], theta)


@dataclass
class Trajectory:
    """Ordered samples of one integration plus terminal bookkeeping.

    ``blow_up_bracket`` is ``(t_lo, t_hi)`` when ``status`` is ``BLOW_UP``,
    else ``None``.  ``interpolate`` evaluates the dense output (adaptive runs
    recorded with ``dense=True`` only).
    """

    t: np.ndarray
    y: np.ndarray
    status: TerminalStatus
    blow_up_bracket: tuple[float, float] | None = None
    events: list[EventOccurrence] = field(default_factory=list)
    dense: _DenseSegments | None = None

    @property
    def final_time(self) -> float:
        return float(self.t[-1])

    @property
    def final_state(self) -> np.ndarray:
        return self.y[-1]

    def interpolate(self, t) -> np.ndarray:
        if self.dense is None:
            raise ValueError("trajectory was recorded without dense output")
        tq = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.stack([self.dense.evaluate(tv) for tv in tq])
        return out[0] if np.ndim(t) == 0 else out


@dataclass
class BatchResult:
    """Terminal summaries of a batch integration, aligned with the input rows."""

    status: np.ndarray  # int8 codes, see module internals
    t_final: np.ndarray
    y_final: np.ndarray
    blow_lo: np.ndarray
    blow_hi: np.ndarray

    def terminal_status(self, i: int) -> TerminalStatus:
        return _STATUS_MAP[int(self.status[i])]


_STATUS_MAP = {
    _REACHED: TerminalStatus.REACHED_HORIZON,
    _BLOWUP: TerminalStatus.BLOW_UP,
    _DOMAIN_END: TerminalStatus.COEFFICIENT_DOMAIN_END,
}


class _Recorder:
    """Collects accepted steps of a single trajectory and locates events."""

    def __init__(self, t0, y0, events: Sequence[EventSpec], dense: bool):
        self.ts = [t0]
        self.ys = [np.array(y0, dtype=float)]
        self.events = list(events)
        self.dense = dense
        self.seg_t0, self.seg_h, self.seg_y0, self.seg_q = [], [], [], []
        self.occurrences: list[EventOccurrence] = []
        self._g_prev = [ev.predicate(t0, np.asarray(y0)) for ev in self.events]

    def on_accept(self, t0, h, y0, stages, t1, y1):
        self.ts.append(t1)
        self.ys.append(y1.copy())
        if not (self.dense or self.events):
            return
        q = stages.T @ _DENSE  # (dim, 4)
        if self.dense:
            self.seg_t0.append(t0)
            self.seg_h.append(h)
            self.seg_y0.append(y0.copy())
            self.seg_q.append(q)
        if self.events:
            self._locate_events(t0, h, y0, q, t1, y1)

    def _locate_events(self, t0, h, y0, q, t1, y1):
        for i, ev in enumerate(self.events):
            g0 = self._g_prev[i]
            g1 = ev.predicate(t1, y1)
            crossed = False
            if g0 < 0.0 <= g1 and ev.direction in ("rising", "any"):
                crossed = True
            elif g0 > 0.0 >= g1 and ev.direction in ("falling", "any"):
                crossed = True
            if crossed:
                ta, tb = 0.0, 1.0
                ga = g0
                while (tb - ta) * h > ev.refine_tol:
                    tm = 0.5 * (ta + tb)
                    ym = _quartic(y0, h, q, tm)
                    gm = ev.predicate(t0 + tm * h, ym)
                    if (ga < 0.0) == (gm < 0.0):
                        ta, ga = tm, gm
                    else:
                        tb = tm
                tm = 0.5 * (ta + tb)
                self.occurrences.append(
                    EventOccurrence(
                        name=ev.name or f"event{i}",
                        index=i,
                        t=t0 + tm * h,
                        state=_quartic(y0, h, q, tm),
                    )
                )
            self._g_prev[i] = g1


def _combine(coef, stages):
    """In-order sum ``coef[0] * stages[0] + coef[1] * stages[1] + ...``.

    Zero coefficients are kept, so a non-finite stage poisons the sum.
    """
    acc = coef[0] * stages[0]
    for j in range(1, len(coef)):
        acc += coef[j] * stages[j]
    return acc


def _core(system: System, Y0: np.ndarray, opts: IntegratorOptions, recorder=None):
    """Shared stepping loop.  Returns per-trajectory terminal summaries."""
    Y = np.array(Y0, dtype=float)
    m, dim = Y.shape
    t_final = min(opts.t_end, system.domain_end)
    horizon_status = _DOMAIN_END if system.domain_end < opts.t_end else _REACHED

    t = np.zeros(m)
    status = np.full(m, _RUNNING, dtype=np.int8)
    blow_lo = np.full(m, np.nan)
    blow_hi = np.full(m, np.nan)
    fsal = system.rhs(t, Y)
    status[~np.all(np.isfinite(fsal), axis=1)] = _INVALID
    if t_final <= 0.0:  # an invalid start stays invalid on an empty horizon
        status[status == _RUNNING] = horizon_status
    steps = 0
    floor_cut = opts.dt_min * (1.0 + 1e-9)

    # The working set: the running rows, compacted; ``rows`` maps them to the
    # result arrays, which are written only when a row stops.
    rows = np.flatnonzero(status == _RUNNING)
    tc, yc, fc = t[rows], Y[rows], fsal[rows]
    hc = np.full(rows.size, min(max(opts.dt_init, opts.dt_min), opts.dt_max))
    floor_err = np.full(rows.size, np.nan)  # error at the previous dt_min rejection
    stages = np.empty((7, rows.size, dim))

    while rows.size:
        steps += 1
        if steps > _MAX_STEPS:
            raise EpriccatiError(f"step budget of {_MAX_STEPS} steps exhausted before t_end")

        remaining = t_final - tc
        last = hc >= remaining
        h_att = np.where(last, remaining, hc)
        h_col = h_att[:, None]

        stages[0] = fc
        for s in range(1, 6):
            ys = yc + h_col * _combine(_COUPLING[s], stages)
            stages[s] = system.rhs(tc + _NODES[s] * h_att, ys)
        y_new = yc + h_col * _combine(_WEIGHTS, stages)
        stages[6] = system.rhs(tc + h_att, y_new)

        err_vec = h_col * _combine(_ERR, stages)
        scale = opts.abs_tol + opts.rel_tol * np.maximum(np.abs(yc), np.abs(y_new))
        with np.errstate(invalid="ignore", divide="ignore"):
            err = np.maximum.reduce(np.abs(err_vec) / scale, axis=1)
        err = np.where(np.isfinite(err), err, np.inf)

        accept = err <= 1.0

        # step-size controller (plain proportional with limiter); minimum of
        # maximum is np.clip without its wrapper's cost
        with np.errstate(divide="ignore"):
            factor = np.where(
                err == 0.0,
                _MAX_FACTOR,
                np.minimum(np.maximum(_SAFETY * err ** -0.2, _MIN_FACTOR), _MAX_FACTOR),
            )
        hc = np.minimum(np.maximum(h_att * factor, opts.dt_min), opts.dt_max)

        # accepted steps
        t_new = np.where(last, t_final, tc + h_att)
        if recorder is not None:
            for j in np.flatnonzero(accept):
                recorder.on_accept(tc[j], h_att[j], yc[j], stages[:, j], t_new[j], y_new[j])
        acc_col = accept[:, None]
        tc = np.where(accept, t_new, tc)
        yc = np.where(acc_col, y_new, yc)
        fc = np.where(acc_col, stages[6], fc)
        floor_err = np.where(accept, np.nan, floor_err)
        stop = accept & last

        # rejected steps at the dt_min floor: classify after two consecutive
        # floor rejections with a non-decreasing error estimate
        at_floor = ~accept & (h_att <= floor_cut)
        if at_floor.any():
            second = at_floor & ~np.isnan(floor_err) & (err >= floor_err * (1.0 - 1e-12))
            first = at_floor & np.isnan(floor_err)
            floor_err[first] = err[first]
            for j in np.flatnonzero(second):
                i = rows[j]
                mag = float(np.max(np.abs(yc[j])))
                rhs_mag = float(np.max(np.abs(fc[j])))
                nonfinite = not np.all(np.isfinite(stages[:, j]))
                if mag > opts.blowup_magnitude:
                    status[i] = _BLOWUP
                    span = 2.0 * mag / rhs_mag if rhs_mag > 0.0 else 0.0
                    blow_lo[i] = tc[j]
                    blow_hi[i] = tc[j] + max(span, 10.0 * opts.dt_min)
                elif nonfinite:
                    status[i] = _INVALID
                else:
                    status[i] = _STIFF
                stop[j] = True

        if stop.any():
            status[rows[stop & accept]] = horizon_status
            done = rows[stop]
            t[done] = tc[stop]
            Y[done] = yc[stop]
            keep = ~stop
            rows, tc, yc, hc, fc, floor_err = (
                a[keep] for a in (rows, tc, yc, hc, fc, floor_err)
            )
            stages = np.empty((7, rows.size, dim))

    return t, Y, status, blow_lo, blow_hi


def integrate(
    system: System,
    init: np.ndarray,
    opts: IntegratorOptions | None = None,
    events: Sequence[EventSpec] = (),
    dense: bool = True,
) -> Trajectory:
    """Integrate one trajectory adaptively from ``t=0`` to ``opts.t_end``.

    ``init`` is the raw state vector (use ``State2.as_array()`` /
    ``AuxState3.as_array()`` for the domain types).  Every accepted step is
    recorded as a sample; events are located on the dense interpolant.

    Raises
    ------
    StiffnessError
        if the step size collapses to ``dt_min`` without magnitude growth.
    InvalidStateError
        if the right-hand side produces non-finite values away from a
        blow-up; the exception carries the last good sample.
    """
    opts = opts or IntegratorOptions()
    y0 = np.asarray(init, dtype=float)
    if y0.ndim != 1 or y0.shape[0] != system.dim:
        raise ValueError(f"initial state must have shape ({system.dim},)")
    if not np.all(np.isfinite(y0)):
        raise InvalidStateError("initial state has non-finite components")

    rec = _Recorder(0.0, y0, events, dense)
    t, Y, status, blow_lo, blow_hi = _core(system, y0[None, :], opts, recorder=rec)

    code = int(status[0])
    if code == _STIFF:
        raise StiffnessError(
            f"step size collapsed to dt_min={opts.dt_min} at t={t[0]:.6g} "
            "without state magnitude growth",
            t=float(t[0]),
            state=Y[0].copy(),
        )
    if code == _INVALID:
        raise InvalidStateError(
            "right-hand side produced non-finite values",
            t=float(t[0]),
            state=Y[0].copy(),
        )

    dense_out = None
    if dense and rec.seg_h:
        dense_out = _DenseSegments(
            t0=np.array(rec.seg_t0),
            h=np.array(rec.seg_h),
            y0=np.array(rec.seg_y0),
            q=np.array(rec.seg_q),
        )
    bracket = None
    if code == _BLOWUP:
        bracket = (float(blow_lo[0]), float(blow_hi[0]))
    return Trajectory(
        t=np.array(rec.ts),
        y=np.array(rec.ys),
        status=_STATUS_MAP[code],
        blow_up_bracket=bracket,
        events=rec.occurrences,
        dense=dense_out,
    )


def integrate_batch(
    system: System, inits: np.ndarray, opts: IntegratorOptions | None = None
) -> BatchResult:
    """Integrate many trajectories of one system; rows of ``inits`` are states.

    Each trajectory adapts its own step size; results are identical to running
    :func:`integrate` per row (without sample recording).  Stiffness/invalid
    outcomes are reported in ``status`` codes and raised by consumers.
    """
    opts = opts or IntegratorOptions()
    Y0 = np.asarray(inits, dtype=float)
    if Y0.ndim != 2 or Y0.shape[1] != system.dim:
        raise ValueError(f"initial states must have shape (m, {system.dim})")
    t, Y, status, blow_lo, blow_hi = _core(system, Y0, opts, recorder=None)
    return BatchResult(status=status, t_final=t, y_final=Y, blow_lo=blow_lo, blow_hi=blow_hi)


def integrate_fixed_oracle(
    system: System, init: np.ndarray, dt: float, t_end: float
) -> Trajectory:
    """Fixed-step classical 4th-order integration; the brute-force reference.

    No adaptivity, no events, no dense output.  Kept deliberately independent
    of the adaptive core so regression tests cross different code paths.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    y = np.asarray(init, dtype=float).copy()
    if y.ndim != 1 or y.shape[0] != system.dim:
        raise ValueError(f"initial state must have shape ({system.dim},)")
    n_steps = int(round(t_end / dt))
    ts = [0.0]
    ys = [y.copy()]
    one = np.ones(1)

    def f(tv, yv):
        out = system.rhs(one * tv, yv[None, :])[0]
        if not np.all(np.isfinite(out)):
            raise InvalidStateError(
                "right-hand side produced non-finite values", t=tv, state=yv.copy()
            )
        return out

    t = 0.0
    for i in range(n_steps):
        k1 = f(t, y)
        k2 = f(t + 0.5 * dt, y + 0.5 * dt * k1)
        k3 = f(t + 0.5 * dt, y + 0.5 * dt * k2)
        k4 = f(t + dt, y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = dt * (i + 1)
        ts.append(t)
        ys.append(y.copy())
    return Trajectory(t=np.array(ts), y=np.array(ys), status=TerminalStatus.REACHED_HORIZON)
