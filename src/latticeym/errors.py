"""Exception types shared across the package."""


class LatticeYMError(Exception):
    """Base class for all package errors."""


class NonUnitaryInput(LatticeYMError):
    """A matrix argument failed the unitarity check."""


class ResolutionTooLow(LatticeYMError):
    """Two quadrature resolutions disagree beyond the requested tolerance."""


class InvalidLattice(LatticeYMError):
    """Lattice parameters outside the supported family (d in {2,3,4}, even L >= 2)."""


class ShapeMismatch(LatticeYMError):
    """Array arguments with inconsistent shapes."""


class UnconvergedChain(LatticeYMError):
    """Independent Markov chains disagree beyond their pooled error."""


class RangeTooNoisy(LatticeYMError):
    """No fit window satisfied the residual requirement."""


class InfraredDivergent(LatticeYMError):
    """Requested a quantity that diverges (massless propagator in d = 2)."""


class NonFiniteResult(LatticeYMError):
    """A value bound for a report is NaN or infinite."""


class ConfigInvalid(LatticeYMError):
    """Run configuration failed schema or cross-field validation."""


class SuiteFailed(LatticeYMError):
    """At least one record in a report suite had a failing verdict."""
