"""Exception types shared across the toolkit, the tolerance roots and the range validators."""

import numbers
import sys

import numpy as np

FLOAT_MAX = sys.float_info.max  # check_range(name, x, -FLOAT_MAX, FLOAT_MAX) rejects inf and NaN
NORM_TOL = 1e-10  # tolerance root: the accepted |squared norm - 1| of an input vector
ARITH_TOL = 1e-12  # tolerance root: the rounding of a sum or comparison of a few O(1) floats


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

    Bounds of +-FLOAT_MAX also reject the infinities.  An array `value` is
    checked elementwise and the error names its first bad element.
    """
    try:
        if lo <= value <= hi:
            return value
    except ValueError:  # an array of several elements has no truth value
        pass
    if isinstance(value, np.ndarray):
        bad = ~((lo <= value) & (value <= hi))
        if not bad.any():
            return value
        value = value.flat[bad.argmax()].item()
    raise error(f"{name} = {value} outside [{lo}, {hi}]")


def check_int(name: str, value, lo: int, hi: float, error=OutOfRange) -> int:
    """Return `value` if it is an integer (not a bool) in [lo, hi], else raise `error`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} = {value!r} is not an integer")
    return check_range(name, value, lo, hi, error)


def check_real(name: str, value, lo: float, hi: float, error=OutOfRange) -> float:
    """Return `value` as a float if it is a number (not a bool) in [lo, hi]; a value of
    another type raises SpecFormatError, a number out of range (or NaN) `error`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise SpecFormatError(f"{name} = {value!r} is not a number")
    return float(check_range(name, value, lo, hi, error))


def check_complex(name: str, pair) -> complex:
    """The complex number of an [re, im] pair of finite reals.  A part that is a bool, a
    string, NaN or infinite raises SpecFormatError; a `pair` that is not a pair raises
    ValueError or TypeError."""
    re, im = pair
    return complex(*(check_real(name, x, -FLOAT_MAX, FLOAT_MAX, SpecFormatError) for x in (re, im)))
