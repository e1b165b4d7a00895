"""Exception types shared across the package, and the integer check."""

from __future__ import annotations

import operator


class BtfactorsError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(BtfactorsError, ValueError):
    """An argument violates a documented precondition or type invariant."""


class InconsistencyError(BtfactorsError, ValueError):
    """Inputs that must agree with each other (index sets, sizes, targets) do not."""


class ConfigError(BtfactorsError, ValueError):
    """A strategy or experiment configuration is malformed."""


class _LineNumberedError(BtfactorsError, ValueError):
    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class ParseError(_LineNumberedError):
    """A text record could not be parsed; carries the offending line number."""


class ValidationError(_LineNumberedError):
    """A parsed record violates a domain invariant."""


class EnumerationTooLargeError(BtfactorsError, ValueError):
    """An exact oracle was asked to enumerate more terms than its guard allows."""


class NumericError(BtfactorsError, RuntimeError):
    """An iterative numeric procedure failed to converge."""


def check_integer(name: str, value, low: int) -> int:
    """``value`` as an int; InvalidInputError unless it is an integer >= ``low``
    and not a bool."""
    try:
        index = operator.index(value)
    except TypeError:
        index = None
    if index is None or isinstance(value, bool):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if index < low:
        raise InvalidInputError(f"{name} must be >= {low}")
    return index
