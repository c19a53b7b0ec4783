"""State types and right-hand sides of the divergence/density dynamics.

Two ODE systems live here.  The primary system tracks ``(rho, d)`` -- density
and velocity divergence along a flow characteristic -- driven by a
time-dependent coefficient ``A(t)`` and a forcing constant ``k`` with
background density ``c_b``::

    d'   = -1/2 d^2 + A(t) rho^2 + k (rho - c_b)
    rho' = -rho d

The auxiliary system tracks ``(a, b, B)`` and is the normalized comparison
system (forcing sign -1, unit background) with the exponential coefficient
promoted to a third state variable::

    b' = -1/2 b^2 - B a^2 - a + 1
    a' = -b a
    B' = B

The ``(a, b)`` part is the primary system under ``A = -B``, and along this
flow ``B = B0 e^t``: the comparison run integrates it under ``-B0 e^t``,
while the invariant-space argument needs the 3D form.

The batched slopes are written once, in :func:`ep_rhs_into`; every vectorized
system calls it.  The scalar :func:`eval_rhs_ep` and :func:`eval_rhs_aux` are
written out on their own so that they stay an independent reference for the
batched forms.

All types are immutable value objects; right-hand-side evaluation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .coefficients import CoefficientModel
from .errors import InvalidStateError

__all__ = [
    "PhysicalParams",
    "State2",
    "AuxState3",
    "Deriv2",
    "Deriv3",
    "eval_rhs_ep",
    "eval_rhs_aux",
    "coefficient_A",
    "ep_rhs_into",
    "System",
    "ep_system",
    "aux_system",
]


def _require_finite(name, *values):
    for v in values:
        if not math.isfinite(v):
            raise InvalidStateError(f"{name} has non-finite component {v!r}")


@dataclass(frozen=True)
class PhysicalParams:
    """Forcing sign/strength ``k`` (attractive for k < 0) and background ``c_b``."""

    k: float = -1.0
    c_b: float = 1.0

    def __post_init__(self):
        _require_finite("PhysicalParams", self.k, self.c_b)
        if self.k == 0.0:
            raise ValueError("forcing constant k must be nonzero")
        if self.c_b < 0.0:
            raise ValueError("background density c_b must be >= 0")


@dataclass(frozen=True)
class State2:
    """Phase point ``(rho, d)`` along a characteristic; ``rho >= 0``."""

    rho: float
    d: float

    def __post_init__(self):
        _require_finite("State2", self.rho, self.d)
        if self.rho < 0.0:
            raise InvalidStateError(f"density must be >= 0, got rho={self.rho}")

    def as_array(self) -> np.ndarray:
        return np.array([self.rho, self.d], dtype=float)


@dataclass(frozen=True)
class AuxState3:
    """Auxiliary phase point ``(a, b, B)`` with ``a > 0`` and ``B >= 1``."""

    a: float
    b: float
    B: float = 1.0

    def __post_init__(self):
        _require_finite("AuxState3", self.a, self.b, self.B)
        if not self.a > 0.0:
            raise InvalidStateError(f"auxiliary density must be > 0, got a={self.a}")
        if not self.B >= 1.0:
            raise InvalidStateError(f"exponential coefficient must be >= 1, got B={self.B}")


class Deriv2(NamedTuple):
    rho_dot: float
    d_dot: float


class Deriv3(NamedTuple):
    a_dot: float
    b_dot: float
    B_dot: float


def eval_rhs_ep(s: State2, t: float, A: CoefficientModel, p: PhysicalParams) -> Deriv2:
    """Right-hand side of the primary ``(rho, d)`` system at time ``t``.

    Raises :class:`CoefficientDomainError` if ``A`` is not evaluable at ``t``
    and :class:`InvalidStateError` for non-finite states.
    """
    _require_finite("State2", s.rho, s.d)
    a_val = A.value(t)
    d_dot = -0.5 * s.d * s.d + a_val * s.rho * s.rho + p.k * (s.rho - p.c_b)
    return Deriv2(rho_dot=-s.rho * s.d, d_dot=d_dot)


def eval_rhs_aux(s: AuxState3) -> Deriv3:
    """Right-hand side of the autonomous auxiliary ``(a, b, B)`` system."""
    _require_finite("AuxState3", s.a, s.b, s.B)
    b_dot = -0.5 * s.b * s.b - s.B * s.a * s.a - s.a + 1.0
    return Deriv3(a_dot=-s.b * s.a, b_dot=b_dot, B_dot=s.B)


def coefficient_A(w, e, x):
    """The coefficient ``A = 1/2 (w^2 - e^2 - x^2)``; broadcasts over arrays.

    ``w``, ``e`` and ``x`` are the characteristic's vorticity and deviatoric
    gradient combinations divided by the density (plus, for ``e`` and ``x``,
    the accumulated force integrals ``I1``, ``I2``).
    """
    return 0.5 * (w * w - e * e - x * x)


def ep_rhs_into(out: np.ndarray, Y: np.ndarray, a_val, p: PhysicalParams) -> np.ndarray:
    """Write the ``(rho, d)`` slopes of the states ``Y[..., :2]`` into ``out``.

    ``a_val`` is the coefficient at each row's time.  Returns ``out``.
    """
    rho = Y[..., 0]
    d = Y[..., 1]
    out[..., 0] = -rho * d
    out[..., 1] = -0.5 * d * d + a_val * rho * rho + p.k * (rho - p.c_b)
    return out


def _identity(t):
    return t


@dataclass(frozen=True)
class System:
    """Vectorized ODE system consumed by the integrator.

    The time dependence is split from the slopes.  ``coef(t)`` maps an array
    of times to the coefficient(s) the slopes read, one leading entry per
    time, and works on any shape of ``t``: the integrator calls it once per
    attempted step on a ``(6, m)`` array, the step's six stage times, and
    hands one row to each stage.  ``rhs(c, Y)`` maps those per-row
    coefficients and states of shape (m, dim) to derivatives of shape
    (m, dim).  The default ``coef`` is the identity, so a system may read the
    time itself as ``rhs(t, Y)``.  ``domain_end`` caps integration when the
    driving coefficient has a bounded time domain.  ``breaks`` are the times
    where ``coef`` has a kink (the coefficient's ``breakpoints()``); the
    integrator ends a step on each one.
    """

    rhs: callable
    dim: int
    domain_end: float = math.inf
    breaks: tuple = ()
    coef: callable = _identity


def ep_system(A: CoefficientModel, p: PhysicalParams) -> System:
    """Batched right-hand side for the primary system; columns are (rho, d).

    ``coef`` is ``A.values``, so ``rhs`` takes ``A`` at each row's time.
    """

    def rhs(a_val, Y):
        return ep_rhs_into(np.empty_like(Y), Y, a_val, p)

    return System(
        rhs=rhs, dim=2, domain_end=A.domain_end(), breaks=A.breakpoints(), coef=A.values
    )


def aux_system() -> System:
    """Batched right-hand side for the auxiliary system; columns are (a, b, B).

    The ``(a, b)`` slopes are :func:`ep_rhs_into` under ``A = -B`` with the
    normalized parameters, the ones every coupled comparison step uses, and
    ``B' = B``.  The system is autonomous, so ``rhs`` ignores the time.
    """

    def rhs(_t, Y):
        out = ep_rhs_into(np.empty_like(Y), Y, -Y[..., 2], PhysicalParams())
        out[..., 2] = Y[..., 2]
        return out

    return System(rhs=rhs, dim=3)
