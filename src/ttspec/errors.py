"""Exception hierarchy shared by all ttspec modules."""


class TtspecError(Exception):
    """Base class for all errors raised by this package."""


class EvenCharacteristic(TtspecError):
    """Characteristic 2 is rejected everywhere."""


class NotPrime(TtspecError):
    """The given integer is not prime."""


class InvalidArgument(TtspecError, ValueError):
    """An argument lies outside the values the operation accepts."""


class BoundExceeded(TtspecError):
    """Requested field cardinality exceeds the configured bound."""


class ZeroInput(TtspecError):
    """Operation requires a nonzero field element."""


class FieldMismatch(TtspecError):
    """Operands live over different fields."""


class DegenerateForm(TtspecError):
    """Quadratic form has zero determinant."""


class DegreeMismatch(TtspecError):
    """Graded operands have incompatible degrees."""


class ZeroSymbolEntry(TtspecError):
    """A bracket symbol [a] requires a nonzero a."""


class NegativeDegree(TtspecError):
    """Milnor K-theory is only defined in nonnegative degrees."""


class NotInIdealPower(TtspecError):
    """Witt class does not lie in the requested power of the fundamental ideal."""


class UnknownGenerator(TtspecError):
    """Ideal generator outside the supported alphabet."""


class SpaceMismatch(TtspecError):
    """Chow classes or correspondences over incompatible spaces."""


class UniverseTooSmall(TtspecError):
    """Generator falls outside the configured truncation window."""


class NotSpecializationClosed(TtspecError):
    """Subset is not closed under specialization."""
