"""Exception types shared across the package, and the checks of a setting's value."""

import math
import numbers


class ScanppError(Exception):
    pass


class ParseError(ScanppError):
    """Malformed input file. Carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(ScanppError):
    """Input violates a structural invariant (non-monotone onsets, bad box, ...)."""


class UsageError(ScanppError):
    """Caller misuse: unknown strategy, bad argument combination, bad flags."""


class DomainError(ScanppError):
    """Numerical input outside the mathematical domain of an operation."""


def check_number(name: str, value: float, low: float, *, closed: bool = False,
                 finite: bool = True) -> None:
    """Raise a ValidationError unless ``value`` lies above ``low``, or at it if
    ``closed``, and is finite, or may be infinite if ``finite`` is false.

    NaN always fails. The message reads "<name> must be [finite and] > <low>,
    got <value>", with >= for a closed bound.
    """
    above = value >= low if closed else value > low
    if not (above and (not finite or math.isfinite(value))):
        raise ValidationError(f"{name} must be {'finite and ' if finite else ''}"
                              f"{'>=' if closed else '>'} {low:g}, got {value}")


def check_integer(name: str, value, low: int) -> None:
    """Raise a ValidationError unless ``value`` is an integer >= ``low``: a
    ``numbers.Integral`` but not a ``bool``. Even 64.0 fails, on purpose: a
    count or a seed is never rounded."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")


def check_names(name: str, value) -> tuple:
    """``value`` as a tuple of names; a bare string is a ValidationError, not
    a sequence of one-letter names."""
    if isinstance(value, str):
        raise ValidationError(f"{name} must be a sequence of names, not the string {value!r}")
    return tuple(value)
