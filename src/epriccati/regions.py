"""Sub-critical regions, invariant-space geometry and escape-time formulas.

The certified initial-data set in the ``(rho, d)`` phase plane is the union of
three pieces, evaluated here exactly as closed-form inequalities:

* ``OmegaT`` -- top slab: ``0 < rho < 1/2`` and ``d >= 1/2``.
* ``OmegaM`` -- middle band: ``0 < rho < 1/2`` and
  ``max(0, 1/2 - (3/8 - rho/2) * log[(1/rho^2 - 1/rho)/2]) < d <= 1/2``.
* ``OmegaB`` -- bottom lobe: ``0 < rho < 1/2``, ``rho - 1/2 < d < 0`` and
  ``(1/2 - d) / (3/8 - (rho - d)/2) <= log[(1/(rho-d)^2 - 1/(rho-d))/2]``.

All logarithms are natural.  The companion 3D invariant space for the
auxiliary ``(a, b, B)`` system is bounded by the surfaces ``S1 = 0`` (with
``S1 = (1/a^2 - 1/a)/2 - B``) and ``S2 = b - 1/2 = 0``; on those surfaces the
flow points inward, which :func:`s1_flux` and :func:`s2_flux` expose for
direct numerical verification.

Membership tests use exact floating-point evaluation of the stated
inequalities; callers that need slack for integration error apply it
themselves (see :func:`in_omega0`'s ``slack`` parameter).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import RegionDomainError
from .riccati import AuxState3, eval_rhs_aux

__all__ = [
    "Region",
    "SurfaceFlux",
    "in_omega_T",
    "in_omega_M",
    "in_omega_B",
    "classify",
    "in_certified_interior",
    "in_omega0",
    "s1_flux",
    "s2_flux",
    "t_star",
    "t_star_star",
    "b_lower_rate",
    "admissibility_condition",
]


class Region(Enum):
    OMEGA_T = "OmegaT"
    OMEGA_M = "OmegaM"
    OMEGA_B = "OmegaB"
    OUTSIDE = "Outside"


@dataclass(frozen=True)
class SurfaceFlux:
    """Directional derivative of a bounding surface along the flow, per unit time."""

    surface: str
    value: float


def _check_finite(*vals):
    for v in vals:
        if not math.isfinite(v):
            raise RegionDomainError(f"non-finite argument {v!r}")


def _log_arg(s: float) -> float:
    """The expression (1/s^2 - 1/s)/2 appearing in every escape-time formula.

    For ``0 < s`` below about 1e-162, ``s * s`` underflows to 0; the
    expression is then far above the largest float, so it is ``inf``.
    """
    s2 = s * s
    if s > 0.0 and s2 == 0.0:
        return math.inf
    return 0.5 * (1.0 / s2 - 1.0 / s)


def _omega_m_lower(rho: float) -> float:
    """Lower d-boundary of the middle band; only valid for 0 < rho < 1/2."""
    return max(0.0, 0.5 - (0.375 - 0.5 * rho) * math.log(_log_arg(rho)))


def in_omega_T(rho: float, d: float) -> bool:
    """Top slab membership: ``0 < rho < 1/2`` and ``d >= 1/2``."""
    _check_finite(rho, d)
    return 0.0 < rho < 0.5 and d >= 0.5


def in_omega_M(rho: float, d: float) -> bool:
    """Middle band membership (lower bound strict, upper bound inclusive)."""
    _check_finite(rho, d)
    if not (0.0 < rho < 0.5):
        return False
    return _omega_m_lower(rho) < d <= 0.5


def in_omega_B(rho: float, d: float) -> bool:
    """Bottom lobe membership for ``rho - 1/2 < d < 0``."""
    _check_finite(rho, d)
    if not (0.0 < rho < 0.5 and rho - 0.5 < d < 0.0):
        return False
    s = rho - d  # in (rho, 1/2), so the log argument is positive
    lhs = (0.5 - d) / (0.375 - 0.5 * s)
    return lhs <= math.log(_log_arg(s))


def classify(rho: float, d: float) -> Region:
    """Classify a phase point; precedence OmegaT, OmegaM, OmegaB, Outside.

    The three sets are disjoint by their d-ranges, so precedence never masks a
    membership.  Any non-``OUTSIDE`` result is a sub-criticality certificate
    under the exponential-envelope coefficient assumption.
    """
    if in_omega_T(rho, d):
        return Region.OMEGA_T
    if in_omega_M(rho, d):
        return Region.OMEGA_M
    if in_omega_B(rho, d):
        return Region.OMEGA_B
    return Region.OUTSIDE


def in_certified_interior(rho: float, d: float) -> bool:
    """Membership in the open interior of the certified union.

    The comparison-based certifier needs initial data strictly inside the
    union, so every inequality is taken strict.  Two topological details:
    the seam ``d = 1/2`` between the top slab and the middle band is interior
    (the band's lower boundary stays strictly below 1/2 for all
    ``0 < rho < 1/2``), while the line ``d = 0`` is excluded -- the union
    contains points on both sides of it but not the line itself.
    """
    _check_finite(rho, d)
    if not (0.0 < rho < 0.5):
        return False
    if d > 0.0:
        return d > _omega_m_lower(rho)
    if d < 0.0:
        if not rho - 0.5 < d:
            return False
        s = rho - d
        return (0.5 - d) / (0.375 - 0.5 * s) < math.log(_log_arg(s))
    return False


def in_omega0(s: AuxState3, slack: float = 0.0) -> bool:
    """Membership in the 3D invariant space of the auxiliary system.

    ``slack >= 0`` loosens every boundary to absorb integration error when
    verifying invariance numerically.
    """
    if not (s.a <= 0.5 + slack and s.b >= 0.5 - slack):
        return False
    return s.B <= _log_arg(s.a) + slack * max(1.0, abs(s.B))


def s1_flux(s: AuxState3) -> SurfaceFlux:
    """Flow flux through the ``S1 = 0`` level set, evaluated at ``s``.

    Returns the general expression ``b/a^2 - b/(2a) - B``; on the surface
    (``B = (1/a^2 - 1/a)/2``) it reduces to the positive inward form for
    ``0 < a <= 1/2`` and ``b >= 1/2``.
    """
    if not s.a > 0.0:
        raise RegionDomainError("s1_flux requires a > 0")
    value = s.b / (s.a * s.a) - s.b / (2.0 * s.a) - s.B
    return SurfaceFlux(surface="S1", value=value)


def s2_flux(s: AuxState3) -> SurfaceFlux:
    """Flow flux through the ``S2 = 0`` plane (the b-derivative), at ``s``."""
    if not s.a > 0.0:
        raise RegionDomainError("s2_flux requires a > 0")
    return SurfaceFlux(surface="S2", value=eval_rhs_aux(s).b_dot)


def t_star(a0: float) -> float:
    """Escape window ``log[(1/a0^2 - 1/a0)/2]`` for starts with ``0 < a0 < 1/2``.

    Outside that range the logarithm argument drops to 1 or below and there is
    no positive window, which is reported as a domain error.
    """
    _check_finite(a0)
    if not (0.0 < a0 < 0.5):
        raise RegionDomainError(f"t_star requires 0 < a0 < 1/2, got {a0}")
    return math.log(_log_arg(a0))


def t_star_star(a0: float, b0: float) -> float:
    """Escape window for negative starts: ``log[(1/(a0-b0)^2 - 1/(a0-b0))/2]``."""
    _check_finite(a0, b0)
    if not (0.0 < a0 < 0.5):
        raise RegionDomainError(f"t_star_star requires 0 < a0 < 1/2, got {a0}")
    if not (a0 - 0.5 < b0 < 0.0):
        raise RegionDomainError(
            f"t_star_star requires a0 - 1/2 < b0 < 0, got b0={b0}"
        )
    return math.log(_log_arg(a0 - b0))


def b_lower_rate(a0: float, b0: float) -> float:
    """Minimum growth rate of ``b`` before the invariant space is reached.

    ``3/8 - a0/2`` for ``0 <= b0 <= 1/2`` and ``3/8 - (a0 - b0)/2`` for
    ``b0 < 0`` (where ``a0 - b0 < 1/2`` keeps the rate positive).
    """
    _check_finite(a0, b0)
    if not (0.0 < a0 < 0.5):
        raise RegionDomainError(f"b_lower_rate requires 0 < a0 < 1/2, got {a0}")
    if b0 > 0.5:
        raise RegionDomainError(f"b_lower_rate requires b0 <= 1/2, got {b0}")
    if b0 >= 0.0:
        return 0.375 - 0.5 * a0
    if not a0 - b0 < 0.5:
        raise RegionDomainError(
            f"b_lower_rate requires a0 - b0 < 1/2 for b0 < 0, got a0-b0={a0 - b0}"
        )
    return 0.375 - 0.5 * (a0 - b0)


def admissibility_condition(a0: float, b0: float) -> bool:
    """Whether the linear-growth bound reaches ``b = 1/2`` inside the escape window.

    For ``0 <= b0 <= 1/2`` compares against :func:`t_star`; for
    ``a0 - 1/2 < b0 < 0`` against :func:`t_star_star`; ``b0 >= 1/2`` starts
    already in the invariant slice and is vacuously admissible.
    """
    _check_finite(a0, b0)
    if not (0.0 < a0 < 0.5):
        raise RegionDomainError(f"admissibility requires 0 < a0 < 1/2, got {a0}")
    if b0 >= 0.5:
        return True
    if b0 >= 0.0:
        return (0.5 - b0) / (0.375 - 0.5 * a0) <= t_star(a0)
    if not a0 - 0.5 < b0:
        raise RegionDomainError(
            f"admissibility requires b0 > a0 - 1/2 for b0 < 0, got b0={b0}"
        )
    return (0.5 - b0) / (0.375 - 0.5 * (a0 - b0)) <= t_star_star(a0, b0)
