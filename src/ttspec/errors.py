"""Exception hierarchy shared by all ttspec modules."""


class TtspecError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgument(TtspecError, ValueError):
    """An argument lies outside the values the operation accepts."""


class BoundExceeded(TtspecError):
    """An input lies past a size bound of the operation."""
