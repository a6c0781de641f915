"""Exception hierarchy shared across the package."""

import numbers


class NedistError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(NedistError):
    """A caller violated a precondition (bad mode, bad flag combination, ...)."""


class EdgeListParseError(NedistError):
    """Malformed edge-list input."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class TreeLiteralError(NedistError):
    """Malformed parenthesis tree literal."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"position {position}: {message}"
        super().__init__(message)
        self.position = position


class InvariantError(NedistError):
    """An internal invariant of the distance computation was violated."""


def check_count(value, what: str):
    """``value`` if it is an integer >= 1 (an int, or another integer type
    such as a numpy integer), else UsageError; a ``bool`` is not a count."""
    if type(value) is int and value >= 1:   # the common case skips the ABC check
        return value
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= 1):
        raise UsageError(f"{what} must be an integer >= 1, got {value!r}")
    return value
