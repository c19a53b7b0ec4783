"""Monotone comparison of the primary and auxiliary systems, and certification.

The auxiliary ``(a, b, B)`` flow bounds the primary ``(rho, d)`` flow whenever
the initial data are strictly ordered (``b0 < d0`` and ``0 < rho0 < a0``) and
the coefficient respects the exponential envelope ``-e^t <= A(t)``.  Both
systems are integrated as one stacked state so they share identical step
sizes; the ordering check then needs no cross-grid interpolation.

:func:`certify_global` turns the ordering into a global-existence certificate
in two steps.  It first picks, by arithmetic alone, the largest ``epsilon``
from a fixed geometric ladder that lands ``(rho0 + eps, d0 - eps)`` in the
open interior of the certified region, then runs the coupled system once
over a finite horizon as a numerical sanity check.  The certificate's
validity is for all time (it rests on the invariant-region argument); the
finite horizon only exercises the numerics and is recorded on the
certificate for honesty.

Certification is offered for attractive forcing in normalized form
(``k = -1``, ``c_b = 1``) only; repulsive inputs are refused because the
comparison breaks down there.
"""

from __future__ import annotations

import math
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
from .riccati import AuxState3, PhysicalParams, State2, System, aux_rhs_into, ep_rhs_into

__all__ = [
    "CoupledRun",
    "Certificate",
    "coupled_system",
    "run_coupled",
    "d_upper_bound",
    "certify_global",
]

ORDERING_SLACK = 1e-10
ENVELOPE_SAMPLES_PER_UNIT_TIME = 1000


@dataclass
class CoupledRun:
    """Joint trajectory of the stacked systems on one shared adaptive grid."""

    t: np.ndarray
    ep: np.ndarray  # (n, 2) columns rho, d
    aux: np.ndarray  # (n, 3) columns a, b, B
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


def coupled_system(A: CoefficientModel, p: PhysicalParams) -> System:
    """Stacked state ``(rho, d, a, b, B)`` advanced with shared step sizes."""

    def rhs(t, Y):
        out = np.empty_like(Y)
        ep_rhs_into(out[..., :2], Y[..., :2], A.values(t), p)
        aux_rhs_into(out[..., 2:], Y[..., 2:])
        return out

    return System(rhs=rhs, dim=5, domain_end=A.domain_end())


def _envelope_times(A: CoefficientModel, horizon: float) -> np.ndarray:
    """Times in ``[0, horizon]`` at which the envelope checks are decided.

    For the closed-form models a violation, if any, shows at one of a few
    points: ``A + e^t`` is convex on each segment of a tabulated model (its
    minimum is at a knot, an end or ``t = ln(-slope)``), and ``A e^-t`` is
    monotone for the constant and exponential models.  A clamp only lowers
    ``A``, so it is caught at ``t = 0``; maxima sit at knots or ends.  Other
    models are sampled ``ENVELOPE_SAMPLES_PER_UNIT_TIME`` times per unit time.
    """
    if isinstance(A, (ConstantCoefficient, ExponentialEnvelope)):
        return np.array([0.0, horizon])
    if isinstance(A, TabulatedCoefficient):
        knots, vals = A.times, A.values_table
        slopes = np.diff(vals) / np.diff(knots)
        with np.errstate(invalid="ignore", divide="ignore"):
            t_min = np.log(-slopes)
        inside = (knots[:-1] < t_min) & (t_min < knots[1:])
        candidates = np.concatenate([[0.0, horizon], knots, t_min[inside]])
        return np.unique(candidates[(candidates >= 0.0) & (candidates <= horizon)])
    n = max(2, int(math.ceil(ENVELOPE_SAMPLES_PER_UNIT_TIME * horizon)) + 1)
    return np.linspace(0.0, horizon, n)


def check_envelope(
    A: CoefficientModel, t_end: float, gamma: float | None = None
) -> None:
    """Verify ``-e^t <= A(t)`` (and ``A(t) <= gamma`` if given) on ``[0, t_end]``.

    Exact for constant, exponential and tabulated models; black-box callbacks
    are sampled densely (see :func:`_envelope_times`).  Raises
    :class:`AdmissibilityError` on any violation; a ``NaN`` value violates.
    """
    horizon = min(t_end, A.domain_end())
    ts = _envelope_times(A, horizon)
    vals = A.values(ts)
    lower = -np.exp(ts)
    bad = ~(vals >= lower + lower * 1e-9)  # tiny slack, scaled with the envelope
    if np.any(bad):
        i = int(np.argmax(bad))
        raise AdmissibilityError(
            f"coefficient violates the exponential envelope at t={ts[i]:.6g}: "
            f"A={vals[i]:.6g} < {lower[i]:.6g}"
        )
    if gamma is not None and np.any(vals > gamma + 1e-12):
        i = int(np.argmax(vals > gamma + 1e-12))
        raise AdmissibilityError(
            f"coefficient exceeds its upper bound gamma={gamma} at t={ts[i]:.6g}"
        )


def run_coupled(
    ep_init: State2,
    aux_init: AuxState3,
    A: CoefficientModel,
    t_end: float,
    opts: IntegratorOptions | None = None,
) -> CoupledRun:
    """Integrate both systems together and report whether the ordering held.

    Requires strict initial ordering ``aux_init.b < ep_init.d`` and
    ``0 < ep_init.rho < aux_init.a``, and a coefficient inside the envelope
    (see :func:`check_envelope`).  A blow-up of either component returns
    partial data with the blow-up status rather than raising.
    """
    if not aux_init.b < ep_init.d:
        raise AdmissibilityError(
            f"need strict ordering b0 < d0, got b0={aux_init.b}, d0={ep_init.d}"
        )
    if not 0.0 < ep_init.rho < aux_init.a:
        raise AdmissibilityError(
            f"need 0 < rho0 < a0, got rho0={ep_init.rho}, a0={aux_init.a}"
        )
    check_envelope(A, t_end)

    opts_run = replace(opts or IntegratorOptions(), t_end=t_end)
    y0 = np.concatenate([ep_init.as_array(), aux_init.as_array()])
    traj = integrate(coupled_system(A, PhysicalParams()), y0, opts_run, dense=False)

    ep = traj.y[:, :2]
    aux = traj.y[:, 2:]
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
    otherwise no certificate is issued.  The envelope is checked once: by
    :func:`run_coupled`, or here when no shift lands.

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
        check_envelope(A, t_verify)
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
