"""Exception types shared across the package, and the one check of a point.

The distinction that matters downstream: DomainError and RangeError are
argument problems (the CLI maps them to distinct exit codes), ResourceError
is a refusal to start a computation that would exceed a configured budget,
and PanelBudgetError comes only from stepsum.quadrature, which no route
or test calls: only the benchmark's tracer imports it.

A public route that takes a point refuses a bad one with a StepSumError:
_check_finite_point and _float_point raise DomainError, and a message
renders the point with _int_text, at any size.  A sweep refuses a bad
count of draws the same way, with _check_count's ConfigurationError.  A
count or an int exponent is an int and not a bool (_is_int).
"""

import decimal
import math
from numbers import Rational, Real

__all__ = [
    "StepSumError",
    "DomainError",
    "RangeError",
    "ResourceError",
    "PanelBudgetError",
    "ConfigurationError",
]


class StepSumError(Exception):
    """Base class for errors raised by this package."""


class DomainError(StepSumError, ValueError):
    """An argument violates a mathematical precondition (bad location,
    kernel undefined on the requested interval, unsupported exponent)."""


class RangeError(StepSumError, ValueError):
    """A query point lies outside the range covered by a prepared table."""


class ResourceError(StepSumError, RuntimeError):
    """A request would exceed a configured memory budget."""


class PanelBudgetError(StepSumError, RuntimeError):
    """The reference quadrature, which no route calls, ran out of panels."""


class ConfigurationError(StepSumError, ValueError):
    """A sweep or command was assembled with inconsistent options."""


def _int_text(x):
    """str(x) for a number of any size: str() refuses an int, or a
    rational's terms, past sys.get_int_max_str_digits and Decimal does
    not; the process-wide limit is left alone for library callers."""
    try:
        return str(x)
    except ValueError:
        num, den = (str(decimal.Decimal(int(v))) for v in (x.numerator, x.denominator))
        return num if den == "1" else f"{num}/{den}"


def _check_finite_point(x, what="evaluation point"):
    """Refuse x with DomainError unless it is a finite real number.  The
    exact types tested first cost less than an abstract base class."""
    if isinstance(x, float) or not isinstance(x, (int, Rational)):
        if not isinstance(x, (float, Real)):
            raise DomainError(f"{what} must be real, got {x!r}")
        if not math.isfinite(x):
            raise DomainError(f"{what} must be finite, got {x}")


def _is_int(n):
    """Whether n is an int and not a bool: the one test of every count and
    int exponent, so that True does not run as 1."""
    return isinstance(n, int) and not isinstance(n, bool)


def _check_count(n, what, cap):
    """Refuse n with ConfigurationError unless it is an int from 1 to
    ``cap``: the count of a loop, checked before the loop starts."""
    if not _is_int(n) or not 1 <= n <= cap:
        raise ConfigurationError(
            f"need an int {what} in [1, {cap}], got {_int_text(n)}"
        )


def _float_point(x, what="evaluation point"):
    """float(x) for a finite real x, with DomainError where it overflows."""
    try:
        return float(x)
    except OverflowError:
        raise DomainError(f"{what} {_int_text(x)} is past the float range") from None
