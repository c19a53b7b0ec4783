"""Sub-critical regions and the invariant-space geometry they rest on.

Every certified piece rests on one escape inequality, :func:`escape`.  At a
point of the strip ``0 < rho < 1/2``, ``rho - 1/2 < d``, let
``s = rho - min(d, 0)``: the auxiliary ``b`` grows at least at the rate
``3/8 - s/2``, so it reaches ``1/2`` by the time ``(1/2 - d) / (3/8 - s/2)``,
and the point is admissible when that time is within the escape window
``log[(1/s^2 - 1/s)/2]``.  The certified initial-data set in the ``(rho, d)``
phase plane is the union of three pieces, which :func:`classify` tells apart
by ``d``:

* ``OmegaT`` -- top slab: ``0 < rho < 1/2`` and ``d >= 1/2``.
* ``OmegaM`` -- middle band: ``0 < rho < 1/2``, ``0 < d <= 1/2`` and
  ``(1/2 - d) / (3/8 - rho/2) < log[(1/rho^2 - 1/rho)/2]``.
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
from enum import Enum

from .errors import RegionDomainError
from .riccati import AuxState3, eval_rhs_aux

__all__ = [
    "Region",
    "escape",
    "classify",
    "in_certified_interior",
    "in_omega0",
    "s1_flux",
    "s2_flux",
]


class Region(Enum):
    OMEGA_T = "OmegaT"
    OMEGA_M = "OmegaM"
    OMEGA_B = "OmegaB"
    OUTSIDE = "Outside"


def _log_arg(s: float) -> float:
    """The expression (1/s^2 - 1/s)/2 appearing in every escape-time formula.

    For ``0 < s`` below about 1e-162, ``s * s`` underflows to 0; the
    expression is then far above the largest float, so it is ``inf``.
    """
    s2 = s * s
    if s > 0.0 and s2 == 0.0:
        return math.inf
    return 0.5 * (1.0 / s2 - 1.0 / s)


def escape(rho: float, d: float) -> tuple[float, float, float] | None:
    """The escape inequality's ``(rate, reach, window)`` at ``(rho, d)``.

    With ``s = rho - min(d, 0)``: ``b`` grows at least at ``rate = 3/8 - s/2``,
    reaches ``1/2`` by ``reach = (1/2 - d) / rate``, and must do so within
    ``window = log[(1/s^2 - 1/s)/2]``.  ``None`` off the strip
    ``0 < rho < 1/2``, ``rho - 1/2 < d``; non-finite input is a
    :class:`RegionDomainError`.
    """
    for v in (rho, d):
        if not math.isfinite(v):
            raise RegionDomainError(f"non-finite argument {v!r}")
    # numpy scalars (a sweep's grid) would warn where the reach overflows
    rho, d = float(rho), float(d)
    if not (0.0 < rho < 0.5 and rho - 0.5 < d):
        return None
    s = rho - min(d, 0.0)
    rate = 0.375 - 0.5 * s
    return rate, (0.5 - d) / rate, math.log(_log_arg(s))


def classify(rho: float, d: float) -> Region:
    """Classify a phase point into the piece of the certified union holding it.

    The pieces' d-ranges meet only on the seam ``d = 1/2``, which lies in
    both OmegaT and OmegaM and classifies as OmegaT.  Any non-``OUTSIDE``
    result is a sub-criticality certificate under the exponential-envelope
    coefficient assumption.
    """
    e = escape(rho, d)
    if e is None:
        return Region.OUTSIDE
    _, reach, window = e
    if d >= 0.5:
        return Region.OMEGA_T
    if 0.0 < d and reach < window:
        return Region.OMEGA_M
    if d < 0.0 and reach <= window:
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
    e = escape(rho, d)
    return e is not None and d != 0.0 and e[1] < e[2]


def in_omega0(s: AuxState3, slack: float = 0.0) -> bool:
    """Membership in the 3D invariant space of the auxiliary system.

    ``slack >= 0`` loosens every boundary to absorb integration error when
    verifying invariance numerically.
    """
    if not (s.a <= 0.5 + slack and s.b >= 0.5 - slack):
        return False
    return s.B <= _log_arg(s.a) + slack * max(1.0, abs(s.B))


def s1_flux(s: AuxState3) -> float:
    """Flow flux through the ``S1 = 0`` level set, evaluated at ``s``.

    Returns the general expression ``b/a^2 - b/(2a) - B``; on the surface
    (``B = (1/a^2 - 1/a)/2``) it reduces to the positive inward form for
    ``0 < a <= 1/2`` and ``b >= 1/2``.
    """
    if not s.a > 0.0:
        raise RegionDomainError("s1_flux requires a > 0")
    return s.b / (s.a * s.a) - s.b / (2.0 * s.a) - s.B


def s2_flux(s: AuxState3) -> float:
    """Flow flux through the ``S2 = 0`` plane (the b-derivative), at ``s``."""
    if not s.a > 0.0:
        raise RegionDomainError("s2_flux requires a > 0")
    return eval_rhs_aux(s).b_dot
