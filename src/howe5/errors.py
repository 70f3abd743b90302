"""Shared exception types for the package."""


class Howe5Error(Exception):
    """Base class for every error this package raises on purpose."""


class CapExceeded(Howe5Error):
    """Requested work lies beyond a documented desk-scale cap."""


class NonResidue(Howe5Error):
    """A square root was requested for a quadratic non-residue."""


class HypothesisViolated(Howe5Error):
    """A predicate was invoked outside the range where it is meaningful."""


class HasseViolation(Howe5Error):
    """A point count lies outside the Hasse-Weil interval for its genus
    (the Hasse interval for an elliptic curve)."""


class ValidationError(Howe5Error):
    """Base class for parameter-validation failures."""


class Degenerate(ValidationError):
    """Coincident branch points or a vanishing twist scalar."""


class CrossRatioFailed(ValidationError):
    """The compatibility condition on the branch-point tuples fails."""


class NonSquareObstruction(ValidationError):
    """A quantity that must be a nonzero square is not one."""


class DegenerateLambda(ValidationError):
    """A derived Legendre parameter landed in {0, 1}, or a twist vanished."""


class ConditionFailed(ValidationError):
    """Six branch points do not satisfy the genus-2 splitting condition."""


class DivisionByZero(ValidationError):
    """A cross-ratio computation hit a degenerate denominator."""


class DecompositionMismatch(Howe5Error):
    """Two independent count formulas disagree; indicates a bug or bad input."""
