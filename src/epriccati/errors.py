"""Semantic exception hierarchy for the package.

Public functions raise these instead of bare ValueError so callers can
distinguish contract violations (bad inputs) from runtime conditions
(coefficient domain exhausted, step-size collapse, lost positivity).
"""


class EpriccatiError(Exception):
    """Base class for all package errors."""


class InvalidStateError(EpriccatiError):
    """A state vector contains non-finite components or violates a type invariant.

    Carries the last known-good sample when raised mid-integration.
    """

    def __init__(self, message, t=None, state=None):
        super().__init__(message)
        self.t = t
        self.state = state


class CoefficientDomainError(EpriccatiError):
    """A coefficient model was queried outside its time domain."""


class NonVacuumError(EpriccatiError):
    """Initial density must be strictly positive."""


class RegionDomainError(EpriccatiError):
    """Arguments fall outside the domain of a region/threshold formula."""


class AdmissibilityError(EpriccatiError):
    """Inputs violate the admissibility requirements of the comparison machinery.

    Raised for non-strict initial ordering, coefficient envelope violations,
    and repulsive forcing passed to the certifier.
    """


class StiffnessError(EpriccatiError):
    """Step size collapsed to dt_min without state magnitude growth.

    Deliberately distinct from a blow-up report: the integrator refuses to
    classify a small-magnitude step-size collapse as a singularity.
    """

    def __init__(self, message, t=None, state=None):
        super().__init__(message)
        self.t = t
        self.state = state


class PositivityError(EpriccatiError):
    """A density field went negative beyond the accepted tolerance."""


class ConfigError(EpriccatiError):
    """A run configuration failed schema validation.

    ``problems`` lists one human-readable message per violation, each
    prefixed with the JSON path of the offending element.
    """

    def __init__(self, problems):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


class PositivityWarning(UserWarning):
    """A density field dipped slightly negative (within the escalation band)."""
