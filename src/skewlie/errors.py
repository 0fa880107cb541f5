"""Exception hierarchy shared across the package."""


class SkewlieError(Exception):
    """Base class for all errors raised by this package."""


class NonSquareError(SkewlieError):
    """A square matrix was required (determinant, inverse)."""


class SingularMapError(SkewlieError):
    """An invertible linear map was required."""


class DimensionMismatchError(SkewlieError):
    """Operands live in spaces of different dimensions."""


class UnsupportedDimError(SkewlieError):
    """The operation is not defined for this algebra dimension."""


class RegularPairNotFoundError(SkewlieError):
    """The regular-pair search exhausted its height bound."""


class ParseError(SkewlieError):
    """An algebra document is malformed."""


class InvariantError(SkewlieError):
    """A structural invariant fails: in a document (i >= j, duplicates) or a normal form."""
