"""Exception taxonomy shared across the package."""


class InterlaceError(Exception):
    """Base class for all package-specific failures."""


class NotHermitian(InterlaceError):
    """Input matrix is not hermitian within tolerance (or not square)."""


class EmptyMatrix(InterlaceError):
    """Zero-dimensional matrix input."""


class NumericalFailure(InterlaceError):
    """An underlying eigensolver or root finder did not converge.

    row is the failing polynomial's index in the certified stack, if any.
    """

    def __init__(self, message: str, row: int | None = None) -> None:
        super().__init__(message)
        self.row = row


class NotPSD(InterlaceError):
    """A matrix required to be positive semidefinite is not."""


class NotContraction(InterlaceError):
    """A matrix required to satisfy A <= I is not a contraction."""


class NotMonic(InterlaceError):
    """Polynomial required to be monic is not."""


class NotRealRooted(InterlaceError):
    """Polynomial required to be real-rooted fails the test.

    row is the failing polynomial's index in the certified stack, if any.
    """

    def __init__(self, message: str, row: int | None = None) -> None:
        super().__init__(message)
        self.row = row


class SizeGuard(InterlaceError):
    """Instance exceeds the desk-scale cost guard."""


class ValueNotInSupport(InterlaceError):
    """A fixed value is not in the distribution's support."""


class SumExceedsIdentity(InterlaceError):
    """Ensemble sum exceeds the identity beyond slack."""


class WeightOutOfRange(InterlaceError):
    """Selection weight outside the admissible range."""


class BadProportions(InterlaceError):
    """Partition proportions are not positive or do not sum to one."""


class EpsilonOutOfRange(InterlaceError):
    """Trace cap outside the admissible range of the rank-capped bound."""


class NotAboveRoots(InterlaceError):
    """Barrier evaluation point is not above the roots of the pencil."""


class BadDelta(InterlaceError):
    """Nonpositive shift passed to a barrier condition."""


class QxNormalizationViolated(InterlaceError):
    """Ensemble violates the quadratic-barrier normalization."""


class ParseError(InterlaceError):
    """Malformed input file."""


class ValidationError(InterlaceError):
    """Structurally valid file whose contents violate an invariant."""
