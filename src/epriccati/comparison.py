"""Monotone comparison of the primary and auxiliary systems, and certification.

The auxiliary ``(a, b, B)`` flow bounds the primary ``(rho, d)`` flow whenever
the initial data are strictly ordered (``b0 < d0`` and ``0 < rho0 < a0``) and
the coefficient respects the exponential envelope ``-e^t <= A(t)`` on its
whole domain (:func:`check_envelope`).  Along the auxiliary flow
``B = B0 e^t``, so the run integrates the primary system twice, under ``A``
and under ``-B0 e^t``, as one ``(rho, d, a, b)`` state on one shared adaptive
grid (``B`` as a state column would set the step size); the ordering check
then needs no cross-grid interpolation.

:func:`certify_global` turns the ordering into a global-existence certificate
in two steps.  It first picks, by arithmetic alone, the largest ``epsilon``
from a fixed geometric ladder that lands ``(rho0 + eps, d0 - eps)`` in the
open interior of the certified region, then runs the coupled system once
over a finite horizon as a numerical sanity check.  The certificate's
validity is for all time (it rests on the invariant-region argument and the
whole-domain envelope check); the finite horizon only exercises the
numerics and is recorded on the certificate for honesty.

Certification is offered for attractive forcing in normalized form
(``k = -1``, ``c_b = 1``) only; repulsive inputs are refused because the
comparison breaks down there.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .coefficients import (
    CoefficientModel,
    ConstantCoefficient,
    ExponentialEnvelope,
    TabulatedCoefficient,
)
from .errors import AdmissibilityError
from .integrate import IntegratorOptions, TerminalStatus, integrate
from .regions import Region, classify, in_certified_interior
from .riccati import AuxState3, PhysicalParams, State2, System, ep_rhs_into, frozen

__all__ = [
    "CoupledRun",
    "Certificate",
    "coupled_system",
    "run_coupled",
    "d_upper_bound",
    "certify_global",
    "within_envelope",
]

ORDERING_SLACK = 1e-10
ENVELOPE_SLACK = 1e-9  # relative, scaled with the envelope


@dataclass
class CoupledRun:
    """Joint trajectory of the stacked systems on one shared adaptive grid."""

    t: np.ndarray
    ep: np.ndarray  # (n, 2) columns rho, d
    aux: np.ndarray  # (n, 3) columns a, b, B = B0 e^t
    ordering_ok: bool
    min_d_gap: float  # min over samples of d - b
    min_a_gap: float  # min over samples of a - rho
    min_rho: float
    status: TerminalStatus
    blow_up_bracket: tuple[float, float] | None = None


@dataclass(frozen=True)
class Certificate:
    """Deterministic record of a successful global-existence certification."""

    rho0: float
    d0: float
    epsilon: float
    shifted_region: Region
    t_verified: float
    rho_sup: float
    d_min: float
    d_max: float


def coupled_system(A: CoefficientModel, big_b0: float = 1.0) -> System:
    """Stacked state ``(rho, d, a, b)``: the primary system under ``A`` and under ``-B0 e^t``.

    Normalized parameters (``k = -1``, ``c_b = 1``).  ``coef(t)`` fills
    ``A(t)`` and ``-B0 e^t`` into one block with a last axis of two, and one
    ``ep_rhs_into`` call gives both halves, each equal to the matching
    :func:`~epriccati.riccati.ep_system` bit for bit.  The call reads the
    states as ``(2 n, 2)``, rows ``(rho, d)`` and ``(a, b)`` in turn, beside
    the flattened pairs.  Its columns are then 1-D, which numpy steps through
    faster than the 2-D columns of an ``(n, 2, 2)`` view: at one row the call
    takes about 5 µs instead of 9.  The integrator hands ``rhs`` the
    transposed view of its state-major states, which for more than one row
    ``reshape`` copies; the output is C order, so it is written through a
    view.
    """
    worst = ExponentialEnvelope(alpha=big_b0)
    p = PhysicalParams()
    k, c_b = frozen(p.k), frozen(p.c_b)

    def coef(t):
        pair = np.empty((*t.shape, 2))
        pair[..., 0] = A.values(t)
        pair[..., 1] = worst.values(t)
        return pair

    def rhs(pair, Y):
        out = np.empty(Y.shape)  # C order, so that its reshape is a view
        ep_rhs_into(out.reshape(-1, 2), Y.reshape(-1, 2), pair.reshape(-1), k, c_b)
        return out

    return System(rhs=rhs, dim=4, domain_end=A.domain_end(), breaks=A.breakpoints(), coef=coef)


def _envelope_times(A: CoefficientModel) -> np.ndarray:
    """Sorted times in ``[0, A.domain_end()]`` at which the envelope check is decided.

    A violation, if any, shows at one of a few points: ``A e^-t`` moves toward
    0 for the constant model and an exponential with ``beta <= 1``, so
    ``t = 0`` decides them, and ``A + e^t`` is convex on each segment of a
    tabulated model (its minimum is at a knot, an end or ``t = ln(-slope)``).
    A time may repeat.  No such rule holds for an arbitrary function of time,
    so any other model is a :class:`TypeError`.
    """
    if type(A) in (ConstantCoefficient, ExponentialEnvelope):
        return np.array([0.0])
    if type(A) is TabulatedCoefficient:
        knots, vals = A.times, A.values_table
        slopes = np.diff(vals) / np.diff(knots)
        with np.errstate(invalid="ignore", divide="ignore"):
            t_min = np.log(-slopes)
        inside = (knots[:-1] < t_min) & (t_min < knots[1:])
        candidates = np.concatenate([[0.0], knots, t_min[inside]])
        return np.sort(candidates[candidates >= 0.0])
    raise TypeError(f"no exact envelope check for {type(A).__name__}")


def within_envelope(t: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Sample-wise ``-e^t <= A``, with ``ENVELOPE_SLACK``; a ``NaN`` fails."""
    lower = -np.exp(t)
    return A >= lower + lower * ENVELOPE_SLACK


def check_envelope(A: CoefficientModel) -> None:
    """Verify ``-e^t <= A(t)`` on the model's whole domain (see :func:`within_envelope`).

    Exact for the constant, exponential and tabulated models, the only ones
    accepted (see :func:`_envelope_times`).  An exponential with ``beta > 1``
    outgrows ``e^t``, so it is refused at the time it crosses the slackened
    envelope.  A table that does not cover ``t = 0``, where every run starts,
    is refused too.  Raises :class:`AdmissibilityError` on any violation.
    """
    if type(A) is ExponentialEnvelope and A.beta > 1.0:
        t_cross = max(0.0, math.log((1.0 + ENVELOPE_SLACK) / A.alpha) / (A.beta - 1.0))
        raise AdmissibilityError(
            f"coefficient violates the exponential envelope from t={t_cross:.6g} on: "
            f"A=-{A.alpha:.6g} e^({A.beta:.6g} t) falls faster than -e^t"
        )
    if type(A) is TabulatedCoefficient and not A.times[0] <= 0.0 <= A.times[-1]:
        raise AdmissibilityError(
            f"coefficient does not cover t=0: its table spans "
            f"[{A.times[0]:.6g}, {A.times[-1]:.6g}]"
        )
    ts = _envelope_times(A)
    vals = A.values(ts)
    bad = ~within_envelope(ts, vals)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise AdmissibilityError(
            f"coefficient violates the exponential envelope at t={ts[i]:.6g}: "
            f"A={vals[i]:.6g} < {-math.exp(ts[i]):.6g}"
        )


def run_coupled(
    ep_init: State2,
    aux_init: AuxState3,
    A: CoefficientModel,
    t_end: float,
    opts: IntegratorOptions | None = None,
) -> CoupledRun:
    """Integrate both systems together and report whether the ordering held.

    ``(a, b)`` runs under ``-B0 e^t``, ``B0 = aux_init.B`` (see
    :func:`coupled_system`); ``aux`` holds ``(a, b, B0 e^t)``.  Requires strict
    initial ordering ``aux_init.b < ep_init.d`` and ``0 < ep_init.rho <
    aux_init.a``, and a coefficient inside the envelope on its whole domain
    (see :func:`check_envelope`).  A blow-up of either component returns
    partial data with the blow-up status rather than raising.  A ``t_end``
    past ``ln(DBL_MAX / B0)``, where ``-B0 e^t`` overflows float64, is a
    :class:`ValueError`.
    """
    if not aux_init.b < ep_init.d:
        raise AdmissibilityError(
            f"need strict ordering b0 < d0, got b0={aux_init.b}, d0={ep_init.d}"
        )
    if not 0.0 < ep_init.rho < aux_init.a:
        raise AdmissibilityError(
            f"need 0 < rho0 < a0, got rho0={ep_init.rho}, a0={aux_init.a}"
        )
    t_max = math.log(sys.float_info.max / aux_init.B)
    if t_end > t_max:
        raise ValueError(
            f"t_end={t_end:.6g} is past t={t_max:.6f}, where -B0 e^t overflows "
            f"float64 (B0={aux_init.B:.6g})"
        )
    check_envelope(A)

    opts_run = replace(opts or IntegratorOptions(), t_end=t_end)
    y0 = np.array([ep_init.rho, ep_init.d, aux_init.a, aux_init.b])
    traj = integrate(coupled_system(A, aux_init.B), y0, opts_run)

    ep = traj.y[:, :2]
    aux = np.column_stack([traj.y[:, 2:], aux_init.B * np.exp(traj.t)])
    d_gap = ep[:, 1] - aux[:, 1]
    a_gap = aux[:, 0] - ep[:, 0]
    ordering_ok = bool(
        np.all(d_gap > -ORDERING_SLACK)
        and np.all(a_gap > -ORDERING_SLACK)
        and np.all(ep[:, 0] > -ORDERING_SLACK)
    )
    return CoupledRun(
        t=traj.t,
        ep=ep,
        aux=aux,
        ordering_ok=ordering_ok,
        min_d_gap=float(np.min(d_gap)),
        min_a_gap=float(np.min(a_gap)),
        min_rho=float(np.min(ep[:, 0])),
        status=traj.status,
        blow_up_bracket=traj.blow_up_bracket,
    )


def d_upper_bound(rho_M: float, gamma: float, d0: float) -> float:
    """Closed-form divergence bound given a density cap ``rho_M`` and coefficient cap.

    ``max(d0, sqrt(2 * max(1, gamma * rho_M^2 - rho_M + 1)))``.
    """
    if not rho_M > 0.0:
        raise ValueError("rho_M must be positive")
    return max(d0, math.sqrt(2.0 * max(1.0, gamma * rho_M * rho_M - rho_M + 1.0)))


_EPS_LADDER_DEPTH = 20


def _ladder_epsilon(rho0: float, d0: float) -> float | None:
    """Largest ``eps = (1/2 - rho0) 2^-j``, ``j = 1..20``, with
    ``(rho0 + eps, d0 - eps)`` in the open certified interior, or None.

    A rung whose shift rounds away (``rho0 + eps == rho0`` or
    ``d0 - eps == d0``) is skipped: the comparison needs strict ordering.
    A non-finite point raises :class:`RegionDomainError` from the interior test.
    """
    # vacuum data cannot satisfy the strict ordering the comparison rests on
    if rho0 <= 0.0:
        return None
    scale = 0.5 - rho0
    if scale <= 0.0:
        return None
    for j in range(1, _EPS_LADDER_DEPTH + 1):
        eps = scale * 2.0**-j
        a0, b0 = rho0 + eps, d0 - eps
        if in_certified_interior(a0, b0) and rho0 < a0 and b0 < d0:
            return eps
    return None


def certify_global(
    rho0: float,
    d0: float,
    A: CoefficientModel,
    t_verify: float = 10.0,
    params: PhysicalParams | None = None,
    opts: IntegratorOptions | None = None,
) -> Certificate | None:
    """Certify global smoothness of the trajectory from ``(rho0, d0)``, or return None.

    Picks the largest shift ``eps in {2^-1, ..., 2^-20} * (1/2 - rho0)`` that
    lands ``(rho0 + eps, d0 - eps)`` in the open certified interior; the
    finite ladder makes certificates reproducible.  The coupled run over
    ``[0, t_verify]`` from the shifted point must then confirm the ordering,
    otherwise no certificate is issued; ``t_verify`` sets only this run's
    length.  The envelope is checked once, on the model's whole domain, by
    :func:`run_coupled` (or here when no shift lands).

    Raises :class:`AdmissibilityError` for repulsive forcing (``k > 0``), for
    non-normalized parameters, and for coefficients outside the envelope.
    """
    params = params or PhysicalParams()
    if params.k > 0.0:
        raise AdmissibilityError(
            "certification is only offered for attractive forcing (k < 0)"
        )
    if not (params.k == -1.0 and params.c_b == 1.0):
        raise AdmissibilityError(
            "certification requires normalized parameters k=-1, c_b=1; "
            f"got k={params.k}, c_b={params.c_b}"
        )
    eps = _ladder_epsilon(rho0, d0)
    if eps is None:
        # a coefficient outside the envelope is refused whatever the point
        check_envelope(A)
        return None
    run = run_coupled(
        State2(rho=rho0, d=d0), AuxState3(a=rho0 + eps, b=d0 - eps, B=1.0), A, t_verify, opts
    )
    if run.status != TerminalStatus.REACHED_HORIZON or not run.ordering_ok:
        return None
    return Certificate(
        rho0=rho0,
        d0=d0,
        epsilon=eps,
        shifted_region=classify(rho0 + eps, d0 - eps),
        t_verified=t_verify,
        rho_sup=float(np.max(run.ep[:, 0])),
        d_min=float(np.min(run.ep[:, 1])),
        d_max=float(np.max(run.ep[:, 1])),
    )
