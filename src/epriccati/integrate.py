"""Adaptive embedded Runge-Kutta integration with blow-up detection.

A Dormand-Prince 5(4) pair with proportional step control drives both the
single-trajectory front end (:func:`integrate`) and the batched engine
(:func:`integrate_batch`) used by phase-plane sweeps.  Both share one stepping
core, so a batch of one reproduces a single run bit for bit, and batch results
are independent of how trajectories are grouped.

Breakpoints: ``System.breaks`` are the times where the right-hand side has a
kink in ``t`` (a tabulated coefficient's knots).  A step that would pass the
next break is shortened to end exactly on it, as the last step ends on the
horizon, so no step straddles a kink and is rejected by the error estimate.
The coefficient is continuous there, so the FSAL slope stays exact.  Without
breaks, stepping is unchanged.

The core is stage-major and state-major: the seven stage slopes of a step
are one ``(7, dim, n)`` array, the state and FSAL slope are ``(dim, n)``, and
each stage combination is the in-order sum ``c[0] * k[0] + c[1] * k[1] + ...``
over whole ``(dim, n)`` slabs.  Zero coefficients are kept, so a non-finite
slope poisons the step as it should.  The ``n`` rows are the compacted
working set of running trajectories: their time, state, step size, FSAL
slope, floor error and next-stop index live in compact arrays.  A step's end
values become the new ones, with the rejected rows' old values copied back.
They are gathered back to the ``(m, dim)`` results, and the set shrinks, only
on a step where a row stops.  At a sweep's working set of some two thousand
rows numpy's per-call cost rivals the arithmetic, so the step avoids
reductions along the short ``dim`` axis, broadcast selects, per-step searches
and per-row Python loops.

With the states state-major, each state component is a contiguous row, so
the slopes and the combinations stream through memory instead of striding
over the short ``dim`` axis; ``System.rhs`` gets the ``(n, dim)`` view
``ys.T``, whose columns are those rows.  The stage arithmetic runs in two
work buffers of a stage's shape that the core keeps between steps, ``acc``
and ``tmp``: :func:`_combine` sums into ``acc`` with each product in
``tmp``, a stage's ``y + h * acc`` is formed in ``acc``, and the error
estimate reuses both, so a step allocates no product arrays.  The same
:func:`_combine` and :func:`_dp5_stages` step the spectral solver's
``(3, 2(N//3) + 1, N//3 + 1)`` kept blocks, as float64 views.  Every operation is
the one the row-major, allocating loop made, in the same order, so results
are bit-identical to it.

Every constant the step hands numpy is a read-only 0-d float64 array
(:func:`~epriccati.riccati.frozen`): the tableau, the controller's factors
and bounds, and the tolerances, step bounds and horizon, converted once per
run.  numpy 2 takes a Python float through NEP 50's weak-scalar path, which
on a one-row step's few elements makes an operation about 1.5 times as
dear, and a step made some sixty such calls.  The 0-d array gives the same
float64 operation, so results are bit-identical.  ``tests/test_hot_loop.py``
keeps float literals out of the functions that run six times a step.

The coefficient is evaluated once per attempted step: ``System.coef`` gets
the ``(6, n)`` block of the step's six stage times ``tc + c h`` in one call,
and stage ``s`` reads its row.  At one row numpy's per-call cost dominates,
and one evaluation per stage would cost a coupled comparison run about a
fifth of its time.

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

The default floor ``dt_min = 1e-9`` equals the default tolerances.  Steps
below it would only narrow a bracket that is already far narrower than the
trajectory's own error: on the 60x60 README sweep a floor of ``1e-12`` took
about 180 more steps per blow-up row (23% of the sweep's slope
evaluations) for brackets about 5e-11 wide, where ``1e-9`` gives brackets
about 5e-8 wide that contain the old ones, with midpoints moved by at most
30 ulps and every status and horizon row unchanged.  For ``y' = -y^2/2``
from ``-1`` at ``rel_tol = abs_tol = 1e-9`` the bracket contains the exact
pole ``t = 2``; at ``1e-6`` it does not yet, as the bracket is not widened
by an error estimate.

:func:`integrate_fixed_oracle` is an independent fixed-step classical RK4
implementation kept free of the adaptive machinery; tests use it as a
brute-force reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import EpriccatiError, InvalidStateError, StiffnessError
from .riccati import System, frozen

__all__ = [
    "IntegratorOptions",
    "TerminalStatus",
    "Trajectory",
    "BatchResult",
    "integrate",
    "integrate_batch",
    "integrate_fixed_oracle",
]

# Dormand-Prince 5(4) tableau (FSAL).  _COUPLING[s] holds the coefficients
# of stages 0..s-1 in stage s; _WEIGHTS gives the 5th-order solution from
# stages 0..5; _ERR maps stage slopes to the difference between the 5th- and
# 4th-order solutions.  The three hold frozen 0-d arrays (see the module
# docstring).
_NODES = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_COUPLING = tuple(
    tuple(map(frozen, row))
    for row in (
        (),
        (1 / 5,),
        (3 / 40, 9 / 40),
        (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    )
)
_WEIGHTS = tuple(map(frozen, (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)))
_ERR = tuple(
    map(frozen, (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40))
)
# Continuous extension of a step (Shampine's quartic; Hairer, Norsett & Wanner,
# Solving ODEs I, II.6): y(t + theta h) = y + h sum_i k_i sum_j _DENSE[i][j]
# theta^(j+1), 4th order in h, the step end at theta = 1 (each row sums to
# _WEIGHTS[i], 0 for stage 6).
_DENSE = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)

# the nodes of stages 1..6 as a column, one row of stage times each
_STAGE_NODES = np.array(_NODES[1:])[:, None]

# the step-size controller's limits, safety factor and error exponent, and
# the error ratio a step may reach and the one a non-finite error becomes
_MIN_FACTOR = frozen(0.2)
_MAX_FACTOR = frozen(5.0)
_SAFETY = frozen(0.9)
_EXPONENT = frozen(-0.2)
_ACCEPT = frozen(1.0)
_INF = frozen(np.inf)
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
    ``dt_min`` is the floor a blow-up must reach; its default equals the
    default tolerances, which makes brackets about 5e-8 wide (see the module
    docstring).  ``dt_init`` below it needs an explicit smaller ``dt_min``.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-9
    dt_init: float = 1e-3
    dt_min: float = 1e-9
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


@dataclass
class Trajectory:
    """Ordered samples of one integration plus terminal bookkeeping.

    ``t`` and ``y`` are the initial point and the end of every accepted step,
    nothing between them.  ``blow_up_bracket`` is ``(t_lo, t_hi)`` when
    ``status`` is ``BLOW_UP``, else ``None``.
    """

    t: np.ndarray
    y: np.ndarray
    status: TerminalStatus
    blow_up_bracket: tuple[float, float] | None = None

    @property
    def final_time(self) -> float:
        return float(self.t[-1])

    @property
    def final_state(self) -> np.ndarray:
        return self.y[-1]


@dataclass
class BatchResult:
    """Terminal summaries of a batch integration, aligned with the input rows."""

    status: np.ndarray  # int8 codes, see module internals
    t_final: np.ndarray
    y_final: np.ndarray
    blow_lo: np.ndarray
    blow_hi: np.ndarray

    def terminal_status(self, i: int) -> TerminalStatus:
        """Row ``i``'s status; raises as :func:`integrate` would for a stiff or invalid row."""
        return _outcome(int(self.status[i]), self.t_final[i], self.y_final[i])


_STATUS_MAP = {
    _REACHED: TerminalStatus.REACHED_HORIZON,
    _BLOWUP: TerminalStatus.BLOW_UP,
    _DOMAIN_END: TerminalStatus.COEFFICIENT_DOMAIN_END,
}


def _outcome(code: int, t: float, y: np.ndarray) -> TerminalStatus:
    """The status of a run stopped at ``(t, y)``, or the error it stopped with."""
    if code == _STIFF:
        raise StiffnessError(
            f"step size collapsed to dt_min at t={t:.6g} without state magnitude growth",
            t=float(t),
            state=y.copy(),
        )
    if code == _INVALID:
        raise InvalidStateError(
            "right-hand side produced non-finite values", t=float(t), state=y.copy()
        )
    return _STATUS_MAP[code]


def _combine(coef, stages, out, tmp):
    """Write the in-order sum ``coef[0] * stages[0] + coef[1] * stages[1] + ...`` into ``out``.

    ``tmp`` holds each product; both buffers have a stage's shape.  Zero
    coefficients are kept, so a non-finite stage poisons the sum.  Returns
    ``out``.
    """
    np.multiply(stages[0], coef[0], out=out)
    for j in range(1, len(coef)):
        out += np.multiply(stages[j], coef[j], out=tmp)
    return out


def _extend(y, stages, h, theta):
    """The continuous extension of the step of size ``h`` from ``y`` at ``theta`` in ``[0, 1]``.

    ``stages`` are the step's seven slopes, the last at its end (FSAL).
    """
    weights = [sum(p * theta ** (j + 1) for j, p in enumerate(row)) for row in _DENSE]
    acc = _combine(weights, stages, np.empty_like(y), np.empty_like(y))
    acc *= h
    return np.add(y, acc, out=acc)


def _dp5_stages(rhs, y, h, k, acc, tmp):
    """Fill ``k[1:]`` for a Dormand-Prince step of size ``h`` from ``y``; return its 5th-order end.

    ``k[0]`` is the slope at ``y`` on entry and ``k[6]`` the one at the end
    (FSAL); ``rhs(s, y_s, out)`` writes the slope of stage ``s``, taken at
    node ``_NODES[s]``, time ``t + _NODES[s] h``, into ``out``, which is
    ``k[s]``, and must only read ``y_s``.  ``acc`` and ``tmp`` are work
    buffers of ``y``'s shape for :func:`_combine`; each stage's
    ``y + h * acc`` is formed in ``acc``, and the returned end is a new
    array.  ``acc`` may be ``k[6]``, which no stage reads before the last
    one fills it.
    """
    for s, coef in enumerate((*_COUPLING[1:], _WEIGHTS), start=1):
        _combine(coef, k, acc, tmp)
        acc *= h
        y_s = np.add(y, acc, out=acc) if s < 6 else y + acc
        rhs(s, y_s, k[s])
    return y_s


# a non-finite slope is rejected or stops its row, so numpy need not warn of it
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _core(system: System, Y0: np.ndarray, opts: IntegratorOptions, samples=None):
    """Shared stepping loop.  Returns per-trajectory terminal summaries.

    With a single row, ``samples`` (a list) gets ``(t, y)`` of each accepted step.
    """
    Y = np.array(Y0, dtype=float)
    m, dim = Y.shape
    t_final = min(opts.t_end, system.domain_end)
    horizon_status = _DOMAIN_END if system.domain_end < opts.t_end else _REACHED
    # no step passes a stop: a break inside the horizon, or t_final
    breaks = np.sort(np.asarray(system.breaks, dtype=float))
    stops = np.append(breaks[(breaks > 0.0) & (breaks < t_final)], t_final)

    t = np.zeros(m)
    status = np.full(m, _RUNNING, dtype=np.int8)
    blow_lo = np.full(m, np.nan)
    blow_hi = np.full(m, np.nan)
    fsal = system.rhs(system.coef(t), Y)
    status[~np.all(np.isfinite(fsal), axis=1)] = _INVALID
    if t_final <= 0.0:  # an invalid start stays invalid on an empty horizon
        status[status == _RUNNING] = horizon_status
    steps = 0
    floor_cut = opts.dt_min * (1.0 + 1e-9)
    # the run's constants as frozen 0-d arrays (see the module docstring)
    abs_tol, rel_tol, dt_min, dt_max, t_stop = map(
        frozen, (opts.abs_tol, opts.rel_tol, opts.dt_min, opts.dt_max, t_final)
    )

    # The working set: the running rows, compacted and state-major (one row
    # per state component); ``rows`` maps them to the result arrays, which
    # are written only when a row stops.
    rows = np.flatnonzero(status == _RUNNING)
    tc, yc, fc = t[rows], Y[rows].T.copy(), fsal[rows].T.copy()
    hc = np.full(rows.size, min(max(opts.dt_init, opts.dt_min), opts.dt_max))
    floor_err = np.full(rows.size, np.nan)  # error at the previous dt_min rejection
    nxt_i = np.searchsorted(stops, tc, side="right")  # index of the next stop
    stages = np.empty((7, dim, rows.size))
    acc, tmp = np.empty((2, dim, rows.size))

    def stage(s, ys, out):
        # row s - 1 of the step's coefficients drives stage s; rhs sees the (n, dim) view
        out[...] = system.rhs(coefs[s - 1], ys.T).T

    while rows.size:
        steps += 1
        if steps > _MAX_STEPS:
            raise EpriccatiError(f"step budget of {_MAX_STEPS} steps exhausted before t_end")

        # the first stop after tc, where np.searchsorted(stops, tc, side="right")
        # points; tc only grows, so the index only moves forward
        nxt = stops[nxt_i]
        while (passed := nxt <= tc).any():
            nxt_i += passed
            nxt = stops[nxt_i]
        remaining = nxt - tc
        last = hc >= remaining
        h_att = np.where(last, remaining, hc)

        # the coefficient at the six stage times, one evaluation for the
        # step; row s - 1 drives stage s, and rhs sees the (n, dim) view
        coefs = system.coef(tc + _STAGE_NODES * h_att)
        stages[0] = fc
        y_new = _dp5_stages(stage, yc, h_att, stages, acc, tmp)

        # |h * err| / (abs_tol + rel_tol * max(|y|, |y_new|)), in the buffers
        ratio = _combine(_ERR, stages, acc, tmp)
        ratio *= h_att
        np.abs(ratio, out=ratio)
        scale = np.maximum(np.abs(yc, out=tmp), np.abs(y_new), out=tmp)
        scale *= rel_tol
        scale += abs_tol
        ratio /= scale
        # max over the few components as a fold: a reduce along the short
        # axis costs far more; NaN propagates either way
        err = ratio[0]
        for col in range(1, dim):
            err = np.maximum(err, ratio[col])
        err = np.where(np.isfinite(err), err, _INF)

        accept = err <= _ACCEPT

        # step-size controller (plain proportional with limiter); minimum of
        # maximum is np.clip without its wrapper's cost; err = 0 gives
        # 0 ** -0.2 = inf, so _MAX_FACTOR
        factor = np.minimum(np.maximum(_SAFETY * err**_EXPONENT, _MIN_FACTOR), _MAX_FACTOR)
        hc = np.minimum(np.maximum(h_att * factor, dt_min), dt_max)

        # the step's end values, with the rejected rows' old values copied back
        # (stages is reused, so the FSAL slopes are a copy); a step with no
        # rejected row skips the copy-back and the floor test below
        t_new = np.where(last, nxt, tc + h_att)
        if samples is not None and accept[0]:
            samples.append((t_new[0], y_new[:, 0].copy()))
        f_new = stages[6].copy()
        all_accepted = accept.all()
        if not all_accepted:
            rej = np.flatnonzero(~accept)
            t_new[rej], y_new[:, rej], f_new[:, rej] = tc[rej], yc[:, rej], fc[:, rej]
        tc, yc, fc = t_new, y_new, f_new
        stop = accept & last & (nxt == t_stop)

        # rejected steps at the dt_min floor: classify after two consecutive
        # floor rejections with a non-decreasing error estimate, as a blow-up
        # if the state is large (bracketed by its growth rate), else as
        # invalid if a slope is non-finite, else as stiff
        if all_accepted:
            floor_err.fill(np.nan)
        else:
            floor_err = np.where(accept, np.nan, floor_err)
            at_floor = ~accept & (h_att <= floor_cut)
            if at_floor.any():
                second = at_floor & ~np.isnan(floor_err) & (err >= floor_err * (1.0 - 1e-12))
                first = at_floor & np.isnan(floor_err)
                floor_err[first] = err[first]
                j = np.flatnonzero(second)
                mag = np.max(np.abs(yc[:, j]), axis=0)
                rhs_mag = np.max(np.abs(fc[:, j]), axis=0)
                blown = mag > opts.blowup_magnitude
                finite = np.all(np.isfinite(stages[:, :, j]), axis=(0, 1))
                status[rows[j]] = np.where(blown, _BLOWUP, np.where(finite, _STIFF, _INVALID))
                span = np.where(rhs_mag > 0.0, 2.0 * mag / rhs_mag, 0.0)[blown]
                b = j[blown]
                blow_lo[rows[b]] = tc[b]
                blow_hi[rows[b]] = tc[b] + np.maximum(span, 10.0 * opts.dt_min)
                stop[j] = True

        if stop.any():
            status[rows[stop & accept]] = horizon_status
            done = rows[stop]
            t[done] = tc[stop]
            Y[done] = yc[:, stop].T
            keep = ~stop
            rows, tc, hc, floor_err, nxt_i = (a[keep] for a in (rows, tc, hc, floor_err, nxt_i))
            yc, fc = yc[:, keep], fc[:, keep]
            stages = np.empty((7, dim, rows.size))
            acc, tmp = np.empty((2, dim, rows.size))

    return t, Y, status, blow_lo, blow_hi


def integrate(
    system: System,
    init: np.ndarray,
    opts: IntegratorOptions | None = None,
) -> Trajectory:
    """Integrate one trajectory adaptively from ``t=0`` to ``opts.t_end``.

    ``init`` is the raw state vector (``State2.as_array()`` for a primary
    state).  The trajectory's samples are the initial point and the end of
    every accepted step.

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

    samples = [(0.0, y0)]
    t, Y, status, blow_lo, blow_hi = _core(system, y0[None, :], opts, samples)

    outcome = _outcome(int(status[0]), t[0], Y[0])
    bracket = None
    if outcome is TerminalStatus.BLOW_UP:
        bracket = (float(blow_lo[0]), float(blow_hi[0]))
    ts, ys = zip(*samples)
    return Trajectory(np.array(ts), np.array(ys), outcome, bracket)


def integrate_batch(
    system: System, inits: np.ndarray, opts: IntegratorOptions | None = None
) -> BatchResult:
    """Integrate many trajectories of one system; rows of ``inits`` are states.

    Each trajectory adapts its own step size; results are identical to running
    :func:`integrate` per row (without sample recording).  Stiffness/invalid
    outcomes are reported in ``status`` codes and raised by
    :meth:`BatchResult.terminal_status`.
    """
    opts = opts or IntegratorOptions()
    Y0 = np.asarray(inits, dtype=float)
    if Y0.ndim != 2 or Y0.shape[1] != system.dim:
        raise ValueError(f"initial states must have shape (m, {system.dim})")
    t, Y, status, blow_lo, blow_hi = _core(system, Y0, opts)
    return BatchResult(status=status, t_final=t, y_final=Y, blow_lo=blow_lo, blow_hi=blow_hi)


def integrate_fixed_oracle(
    system: System, init: np.ndarray, dt: float, t_end: float
) -> Trajectory:
    """Fixed-step classical 4th-order integration; the brute-force reference.

    Kept deliberately independent of the adaptive core (no step control, no
    breakpoints, no blow-up detection) so regression tests cross different
    code paths.
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
        out = system.rhs(system.coef(one * tv), yv[None, :])[0]
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
