"""The analytic layer: the offset logarithmic integral, the Mertens
remainder, and the identities that connect prime counts to them.

Everything here is float-only; the logarithms rule out exact rationals.
The Mertens remainder R(x), the sum of log(p)/p over p <= x minus log x,
is a step function F plus the smooth term -log x, so dR is point masses
at the primes plus the density -1/y.  F is the "log_weight" staircase of
stepsum.staircases: the routes read F(x) and the integrals against F from
the terms it prepares once per table (a correctly rounded sum of them is
bit for bit what stieltjes_integrate and integrate_kernel_times_step
return on F), and write the density's integral out beside them, as a
closed-form antiderivative difference.

The one numerical subtlety worth naming: li and log log differences are
always computed through the same cancellation-safe closed forms the
integrator uses for the 1/log y and 1/(y log y) antiderivatives, so the
pieces that cancel algebraically cancel bitwise here too (the boundary
checks at x = 2 come out exact because of it).
"""

import math
from typing import NamedTuple

from .errors import DomainError
from .jump_series import (
    INV_LOG,
    INV_Y_LOG,
    INV_Y_LOG_SQ,
    Y_OVER_LOG,
    _ei_diff,
    _log_ratio,
)
from .report import IdentityId, make_report
from .staircases import atom_sum, step, step_integral

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
    fx = float(x)
    if not math.isfinite(fx):
        raise DomainError(f"{what} must be finite, got {x}")
    if fx < 2.0:
        raise DomainError(f"{what} must be at least 2, got {x}")
    return fx


def li_from_2(x):
    """Integral of 1/log t from 2 to x, as Ei(log x) - Ei(log 2).

    Starting at 2 keeps the singularity of 1/log t at t = 1 out of the
    interval, so no principal value is ever involved.  The value and its
    error bound come from the Ei difference INV_LOG's antiderivative sums,
    so the li terms of prime_count_via_li cancel bitwise.
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
    to exactly 1.  The density -1/y integrates y/log y to -(li(x) - li(2)),
    through the same Ei difference as li_from_2, so the two cancel bitwise.
    """
    fx = _check_analytic_point(x)
    atoms = atom_sum(table, "log_weight", Y_OVER_LOG, 2.0, fx)
    s = atoms - INV_LOG.antiderivative_diff(2.0, fx)
    return li_from_2(fx).value + s + 1.0


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

    Direct side: reciprocal_sum(b) - reciprocal_sum(a).  Identity side:
    log log b - log log a plus the Stieltjes integral of 1/log y against
    dR over the subinterval, the step restricted to primes strictly above
    a so the measure matches the half-open increment.  The density -1/y
    integrates 1/log y to -(log log b - log log a), which cancels the
    first term.
    """
    fa = _check_analytic_point(a, "a")
    fb = _check_analytic_point(b, "b")
    if fa > fb:
        raise DomainError(f"interval out of order: [{a}, {b}]")
    lhs = table.reciprocal_sum(fb) - table.reciprocal_sum(fa)
    d = INV_Y_LOG.antiderivative_diff(fa, fb)
    rhs = d + (atom_sum(table, "log_weight", INV_LOG, fa, fb) - d)
    return make_report(
        IdentityId.HP_INCREMENT, x=fa, lhs=lhs, rhs=rhs, tol=tol, k=fb
    )
