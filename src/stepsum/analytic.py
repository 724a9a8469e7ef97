"""The analytic layer: the offset logarithmic integral, the Mertens
remainder, and the identities that connect prime counts to them.

Everything here is float-only; the logarithms rule out exact rationals.
The Mertens remainder R(x), the sum of log(p)/p over p <= x minus log x,
is a step function F plus the smooth term -log x, so dR is point masses
at the primes plus the density -1/y.  F is the "log_weight" staircase of
stepsum.staircases.  The routes integrate g against dF by parts (Abel's
identity; Apostol, Introduction to Analytic Number Theory, ch. 4), as
(F(b) - F(a)) g(b) minus the integral of (F - F(a)) g' over [a, b],
from the terms the staircase prepares once per table, never from the
direct sum's terms g(p) log(p)/p, and write the density's integral out
beside them, as a closed-form antiderivative difference.

The one numerical subtlety worth naming: li and log log differences are
always computed through the same cancellation-safe closed forms the
integrator uses for the 1/log y and 1/(y log y) antiderivatives, so the
pieces that cancel algebraically cancel bitwise here too (the boundary
checks at x = 2 come out exact because of it).
"""

import math
from typing import NamedTuple

from .errors import DomainError, _check_finite_point, _float_point, _int_text
from .jump_series import INV_LOG_MINUS_SQ, INV_Y_LOG, INV_Y_LOG_SQ, _ei_diff, _log_ratio
from .report import IdentityId, make_report
from .staircases import rise_and_integral, step, step_integral

__all__ = [
    "LiValue",
    "li_from_2",
    "mertens_remainder",
    "prime_count_via_li",
    "prime_reciprocal_sum_via_mertens",
    "check_reciprocal_sum_increment",
]


class LiValue(NamedTuple):
    """Value of the logarithmic integral taken from 2, with an error bound."""

    x: float
    value: float
    abs_err_bound: float


def _check_analytic_point(x, what="x"):
    _check_finite_point(x, what)
    fx = _float_point(x, what)
    if fx < 2.0:
        raise DomainError(f"{what} must be at least 2, got {_int_text(x)}")
    return fx


def li_from_2(x):
    """Integral of 1/log t from 2 to x, as Ei(log x) - Ei(log 2).

    Starting at 2 keeps the singularity of 1/log t at t = 1 out of the
    interval, so no principal value is ever involved.  The value and its
    error bound come from the Ei difference INV_LOG's antiderivative sums.
    """
    fx = _check_analytic_point(x)
    value, err = _ei_diff(math.log(2.0), _log_ratio(2.0, fx))
    return LiValue(x=fx, value=value, abs_err_bound=err)


def _remainder(table, fx):
    """R(fx): the step value of the log-weight staircase at fx, minus log fx."""
    return step(table, "log_weight", fx) - math.log(fx)


def mertens_remainder(table, x):
    """R(x) = sum of log(p)/p over p <= x, minus log x.

    Slowly tends to a small negative constant; used on [2, x] as the
    fluctuating part of the prime log-weight sum.
    """
    fx = _check_analytic_point(x)
    return _remainder(table, fx)


def prime_count_via_li(table, x):
    """pi(x) recovered from li and the Mertens remainder measure.

    li_from_2(x) plus the Stieltjes integral of y/log y against dR over
    [2, x], plus 1.  The atom at p = 2 is absorbed into the constant, so
    the step part starts strictly above 2 and the check at x = 2 reduces
    to exactly 1.  Against dF the integral is taken by parts with g =
    y/log y and g' = INV_LOG_MINUS_SQ (Apostol, ch. 4); the density -1/y
    integrates y/log y to -li_from_2(x), computed once, in the paper's
    written shape li + (integral against dR) + 1.
    """
    fx = _check_analytic_point(x)
    rise, integral = rise_and_integral(table, "log_weight", INV_LOG_MINUS_SQ, 2.0, fx)
    by_parts = rise * (fx / math.log(fx)) - integral
    li = li_from_2(fx).value
    return li + (by_parts - li) + 1.0


def prime_reciprocal_sum_via_mertens(table, x):
    """Sum of 1/p over p <= x, reassembled from the Mertens form.

    log log x + 1 - log log 2, plus the integral of R(y)/(y log^2 y) over
    [2, x], plus R(x)/log x.  The integral splits into the step part (in
    closed form against 1/(y log^2 y)) and a -log y part whose integral
    cancels the log log difference exactly.
    """
    fx = _check_analytic_point(x)
    d = INV_Y_LOG.antiderivative_diff(2.0, fx)
    step_part = step_integral(table, "log_weight", INV_Y_LOG_SQ, 2.0, fx)
    return (1.0 + d) + (step_part - d) + _remainder(table, fx) / math.log(fx)


def check_reciprocal_sum_increment(table, a, b, *, tol=1e-10):
    """Check the increment of the prime reciprocal sum over (a, b].

    Direct side: the sum of 1/p over the primes in (a, b]
    (PrimeTable.reciprocal_sum above a).  Identity side: log log b - log
    log a plus the Stieltjes integral of 1/log y against dR over (a, b].
    The density -1/y integrates 1/log y to -(log log b - log log a),
    which cancels the first term.  Against dF the integral is taken by
    parts with g = 1/log y (Apostol, ch. 4), whose -g' is the Mertens
    route's kernel INV_Y_LOG_SQ.
    """
    fa = _check_analytic_point(a, "a")
    fb = _check_analytic_point(b, "b")
    if fa > fb:
        raise DomainError(f"interval out of order: [{_int_text(a)}, {_int_text(b)}]")
    lhs = table.reciprocal_sum(fb, above=fa)
    rise, integral = rise_and_integral(table, "log_weight", INV_Y_LOG_SQ, fa, fb)
    d = INV_Y_LOG.antiderivative_diff(fa, fb)
    rhs = d + ((rise / math.log(fb) + integral) - d)
    return make_report(
        IdentityId.HP_INCREMENT, x=fa, lhs=lhs, rhs=rhs, tol=tol, k=fb
    )
