"""Exception types shared across the toolkit, and the one range validator."""

import sys

FLOAT_MAX = sys.float_info.max  # check_range(name, x, -FLOAT_MAX, FLOAT_MAX) rejects inf and NaN


class CQEKitError(Exception):
    """Base class for all toolkit errors."""


class NotSquare(CQEKitError):
    pass


class NotHermitian(CQEKitError):
    pass


class NotPSD(CQEKitError):
    pass


class InvalidState(CQEKitError):
    pass


class UnknownLabel(CQEKitError):
    pass


class DimMismatch(CQEKitError):
    pass


class OutOfRange(CQEKitError):
    pass


class NotTracePreserving(CQEKitError):
    pass


class InvalidRegion(CQEKitError):
    pass


class NegativeRate(CQEKitError):
    pass


class EmptyInput(CQEKitError):
    pass


class NoEnvironmentSplit(CQEKitError):
    pass


class NotValidPOVMElement(CQEKitError):
    pass


class SpecFormatError(CQEKitError):
    """Raised when a channel or ensemble spec file is malformed."""


def check_range(name: str, value: float, lo: float, hi: float, error=OutOfRange) -> float:
    """Return `value` if lo <= value <= hi, else raise `error`; NaN always fails.

    Bounds of +-FLOAT_MAX also reject the infinities.
    """
    if not (lo <= value <= hi):
        raise error(f"{name} = {value} outside [{lo}, {hi}]")
    return value
