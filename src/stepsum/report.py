"""Verification records shared by the sweep drivers and the analytic checks."""

import math
from enum import Enum
from typing import NamedTuple

__all__ = ["IdentityId", "VerificationReport", "make_report", "error_report"]

# Smallest positive float; keeps "nonzero rational difference" representable
# in a float field instead of rounding to an exact-looking 0.0.
_TINY = 5e-324


class IdentityId(Enum):
    COUNT = "count"
    POWER_SUM = "power_sum"
    RECIPROCAL_POWER_SUM = "reciprocal_power_sum"
    HARMONIC = "harmonic"
    FLOOR = "floor"
    TRIANGULAR = "triangular"
    PRIME_COUNT = "prime_count"
    PRIME_SUM = "prime_sum"
    HP_PRIME_SUMS = "hp_prime_sums"
    HP_FROM_PI = "hp_from_pi"
    PRIME_COUNT_LI = "prime_count_li"
    HP_MERTENS = "hp_mertens"
    HP_INCREMENT = "hp_increment"


class VerificationReport(NamedTuple):
    """One identity evaluation: both routes, errors, and the verdict.

    ``rel_err`` is ``abs_err / max(|rhs|, 1)``; the floor keeps relative
    error meaningful for results near zero.  Interval checks (HP_INCREMENT)
    store the subinterval endpoints in ``x`` and ``k``.
    """

    identity: IdentityId
    x: float
    k: float | None
    lhs: float
    rhs: float
    abs_err: float
    rel_err: float
    tol: float
    passed: bool


def _to_float(value):
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def make_report(identity, x, lhs, rhs, tol, *, k=None, exact=False):
    """Compare two routes and record the outcome.

    In exact mode the comparison is rational equality and the float fields
    are renderings; a nonzero difference too small for floats is clamped to
    the smallest positive float so it cannot masquerade as a pass.
    """
    if exact:
        diff = lhs - rhs
        passed = diff == 0
        if passed:
            abs_err = 0.0
        else:
            abs_err = max(abs(_to_float(diff)), _TINY)
    else:
        lhs = float(lhs)
        rhs = float(rhs)
        if math.isnan(lhs) or math.isnan(rhs):
            abs_err = math.nan
        else:
            abs_err = abs(lhs - rhs)
    rhs_f = _to_float(rhs)
    rel_err = abs_err / max(abs(rhs_f), 1.0)
    if not exact:
        passed = bool(abs_err <= tol or rel_err <= tol)
    return VerificationReport(
        identity=identity,
        x=_to_float(x),
        k=None if k is None else _to_float(k),
        lhs=_to_float(lhs),
        rhs=_to_float(rhs),
        abs_err=abs_err,
        rel_err=rel_err,
        tol=tol,
        passed=passed,
    )


def error_report(identity, x, tol, *, k=None):
    """A failed placeholder for a sample that could not be evaluated."""
    return VerificationReport(
        identity=identity,
        x=_to_float(x),
        k=None if k is None else _to_float(k),
        lhs=math.nan,
        rhs=math.nan,
        abs_err=math.nan,
        rel_err=math.nan,
        tol=tol,
        passed=False,
    )
