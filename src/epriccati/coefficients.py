"""Models for the time-dependent coefficient multiplying the quadratic density term.

The closed divergence/density ODE system carries a scalar coefficient ``A(t)``
in front of ``rho**2``.  Its decay rate decides whether trajectories can be
certified as global, so the toolkit treats the coefficient as a first-class
object with a small set of interchangeable model variants:

* :class:`ConstantCoefficient` -- ``A(t) = value``; the constant-coefficient
  reduction used by local/restricted models.
* :class:`ExponentialEnvelope` -- ``A(t) = -alpha * exp(beta * t)``; inside
  the certification envelope ``-e^t <= A(t)`` for all time iff ``alpha, beta <= 1``.
* :class:`TabulatedCoefficient` -- piecewise-linear interpolation of samples,
  e.g. a coefficient reconstructed from a PDE run.  Extrapolation is an error,
  never silent.

The set is closed: each model's envelope check
(:func:`~epriccati.comparison.check_envelope`) is exact on its whole domain,
``[0, domain_end()]``, and no other subclass is accepted there.
:meth:`CoefficientModel.breakpoints` lists the kinks (a tabulated model's
knots) that the integrator steps onto.  Models are immutable and safe to
share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoefficientDomainError

__all__ = [
    "CoefficientModel",
    "ConstantCoefficient",
    "ExponentialEnvelope",
    "TabulatedCoefficient",
]


@dataclass(frozen=True)
class CoefficientModel:
    """Base class: a scalar function of time."""

    def _raw(self, _t):
        raise NotImplementedError

    def domain_end(self) -> float:
        """Largest time at which the model is evaluable (``inf`` if unbounded)."""
        return math.inf

    def breakpoints(self):
        """Sorted times where the model is continuous but not smooth."""
        return ()

    def value(self, t: float) -> float:
        """Evaluate at a single time ``t >= 0``."""
        if not (t >= 0.0):
            raise ValueError(f"coefficient queried at negative time t={t}")
        return float(self._raw(float(t)))

    def values(self, t: np.ndarray) -> np.ndarray:
        """Vectorized evaluation at an array of times of any shape."""
        return np.asarray(self._raw(np.asarray(t, dtype=float)), dtype=float)


@dataclass(frozen=True)
class ConstantCoefficient(CoefficientModel):
    value_const: float = 0.0

    def _raw(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.value_const)


@dataclass(frozen=True)
class ExponentialEnvelope(CoefficientModel):
    """``A(t) = -alpha * exp(beta * t)`` with ``alpha, beta > 0``."""

    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if not (self.alpha > 0.0 and self.beta > 0.0):
            raise ValueError("ExponentialEnvelope requires alpha > 0 and beta > 0")

    def _raw(self, t):
        return -self.alpha * np.exp(self.beta * t)


@dataclass(frozen=True)
class TabulatedCoefficient(CoefficientModel):
    """Piecewise-linear interpolation of ``(times, values)`` samples.

    Queries outside ``[times[0], times[-1]]`` raise
    :class:`~epriccati.errors.CoefficientDomainError`.  Linear interpolation
    preserves monotone envelopes checked at the knots.
    """

    times: np.ndarray
    values_table: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        vals = np.asarray(self.values_table, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("TabulatedCoefficient needs at least two sample times")
        if times.shape != vals.shape:
            raise ValueError("times and values must have matching shapes")
        if not np.all(np.diff(times) > 0):
            raise ValueError("sample times must be strictly increasing")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(vals))):
            raise ValueError("tabulated samples must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values_table", vals)

    def domain_end(self) -> float:
        return float(self.times[-1])

    def breakpoints(self):
        """The interior knots."""
        return tuple(self.times[1:-1].tolist())

    def _raw(self, t):
        lo, hi = self.times[0], self.times[-1]
        # one reduction per end, over every axis; fmin/fmax skip NaN, so a NaN
        # time gives NaN but does not hide an out-of-range time beside it, and
        # an empty t passes
        if (
            np.fmin.reduce(t, axis=None, initial=lo) < lo
            or np.fmax.reduce(t, axis=None, initial=hi) > hi
        ):
            raise CoefficientDomainError(
                f"tabulated coefficient queried outside [{lo}, {hi}]"
            )
        return np.interp(t, self.times, self.values_table)
