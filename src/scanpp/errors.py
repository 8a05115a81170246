"""Exception types shared across the package, and the range check of a numeric setting."""

import math


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
