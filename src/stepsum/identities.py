"""Abel-summation identities: sums recovered from integrals of step functions.

Every route here has the same shape.  A finite sum over atoms is rewritten
as a boundary term at x plus an integral of the running step function, and
the integral is evaluated in closed form.  The set routes and the prime
routes are one Abel identity, written once in _abel: over the atoms (q, w)
of a step F, the sum of w * q**m for q <= x is
x**m * F(x) - m * integral of y**(m-1) * F(y); each route picks F and m.
The set routes and the exact routes over the naturals and the primes take
F(x) and the integral from a JumpSeries (jump_series); the float prime
routes read both from the prefix sums that stepsum.staircases prepares
once per table, and the float floor and triangular routes stream the
naturals' staircase in O(1) memory (_naturals_abel).  The naturals'
harmonic route sums the floor function's segments itself.
Each function has a direct-summation counterpart (in primes.PrimeTable or
harmonic_direct) that serves as its oracle in the test suite; the two
sides never share code beyond the input data.

In float mode the step values are plain running sums and each integral
is one correctly rounded sum (math.fsum) of its segment terms, but the
boundary term minus m times the integral is one plain float subtraction:
where the two nearly cancel, the result keeps only their rounding error.
Exact mode accepts any rationals (int, Fraction, gmpy2.mpq) and turns
every check into an equality; jump_series does the exact integrals in
integer arithmetic and hands back ints or Fractions, so no route depends
on a fast rational type.  The exact staircases over the naturals and
the primes are built from ints (jump_series._exact_series): each weight,
1/i, 1/p, p or 1, is a numerator and a denominator, and no Fraction is
made per atom.  Over an exact series at an int or Fraction x, the first
jump included, _exact_abel_over takes F(x) and the integral from one run
tree (jump_series._exact_abel): the boundary term and the integral are
still two terms, combined over one denominator in ints, and left
unreduced.  The exact set checks of stepsum.verify compare that pair
with their oracle's as it is; _abel_over reduces it once, to the
rational, and the type, that _abel gives.  The
exact sums over the primes or the naturals up to x have denominators of
about 1.44 x bits; exact mode refuses x past primes.EXACT_X_CAP with
ResourceError before it loops.
"""

import math
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, repeat
from numbers import Rational, Real
from operator import add, truediv

from . import staircases
from .errors import DomainError, ResourceError, _check_finite_point, _int_text
from .jump_series import (
    JumpSeries,
    Kernel,
    integrate_kernel_times_step,
    _abel_value,
    _balanced,
    _exact_abel,
    _exact_series,
    _rational_pow,
)
from .primes import DEFAULT_LIMIT_CAP, _check_exact_x, _fraction_sum

__all__ = [
    "count_via_abel",
    "power_sum_via_abel",
    "reciprocal_power_sum_via_abel",
    "natural_reciprocal_series",
    "harmonic_direct",
    "harmonic_via_identity",
    "iter_harmonic_identity",
    "floor_via_identity",
    "triangular_via_identity",
    "prime_count_via_identity",
    "prime_sum_via_identity",
    "prime_reciprocal_sum_via_prime_sums",
    "prime_reciprocal_sum_via_pi",
]


# =====================================================================
# General finite sets
# =====================================================================


def _require_point_at_or_after(series, x):
    _check_finite_point(x)
    if len(series) == 0:
        raise DomainError("series has no atoms")
    if x < series.domain_min:
        raise DomainError(
            f"evaluation point {_int_text(x)} is below the first jump at "
            f"{series.domain_min}"
        )


def _abel(x, m, step, integral):
    """x**m * F(x) - m * integral of y**(m-1) * F(y) from the first jump to x,
    from ``step`` = F(x) and ``integral``.

    The one Abel-summation step every set and prime route takes.
    """
    return _rational_pow(x, m) * step - m * integral


def _abel_over(series, x, k, m):
    """_abel over a JumpSeries F, with m = k + 1.  Both exponents are
    passed, so neither is derived from the other in float arithmetic.

    Over an exact series, at an int or Fraction x from the first jump on
    and an int k != -1, the sum is _exact_abel_over's, typed by
    jump_series._abel_value: the same rational, of the same type, as
    _abel of the step value and the integral.  The rest (floats, k = -1,
    other types of x or k) takes _abel.
    """
    if series.is_exact and type(x) in (int, Fraction) and type(k) is int and k != -1:
        return _abel_value(series, x, m, _exact_abel_over(series, x, k, m))
    _require_point_at_or_after(series, x)
    kernel = Kernel.power(k)
    step = series.value(x)
    integral = integrate_kernel_times_step(series, kernel, series.domain_min, x)
    return _abel(x, m, step, integral)


def _exact_abel_over(series, x, k, m):
    """_abel_over's sum over an exact series, for an int or Fraction x and
    an int k != -1, as an unreduced (numerator, denominator) pair.

    It makes _abel_over's point and interval checks, then takes F(x) and
    the integral from one run tree, combined in ints
    (jump_series._exact_abel).  The exact set checks compare the pair with
    their oracle's as it is, so no result of theirs is reduced.
    """
    _require_point_at_or_after(series, x)
    Kernel.power(k).check_interval(series.domain_min, x)
    return _exact_abel(series, x, m)


def count_via_abel(series, x):
    """Number of atoms at or below x, recovered without counting.

    For the reciprocal series h (atoms (q, 1/q)) this is
    x*h(x) - integral of h from the first jump to x.
    """
    return _abel_over(series, x, 0, 1)


def power_sum_via_abel(series, x, k):
    """Sum of q**(k+1) * w over atoms (q, w) at or below x.

    For the reciprocal series this yields the power sum of the set:
    x**(k+1) * h(x) - (k+1) * integral of y**k * h(y).
    """
    if not isinstance(k, Real):
        raise DomainError(f"exponent must be real, got {k!r}")
    return _abel_over(series, x, k, k + 1)


def reciprocal_power_sum_via_abel(cumulative_series, x, k):
    """Sum of q**(-k) over the set whose running total is the given series.

    ``cumulative_series`` must carry atoms (q, q), so its value at y is
    G(y), the sum of the set's elements up to y.  The route is
    G(x)/x**(k+1) + (k+1) * integral of G(y)/y**(k+2).
    """
    if not isinstance(k, Real):
        raise DomainError(f"exponent must be real, got {k!r}")
    if k < 0:
        raise DomainError(f"exponent must be nonnegative, got {_int_text(k)}")
    return _abel_over(cumulative_series, x, -(k + 2), -(k + 1))


# =====================================================================
# The naturals: harmonic numbers, floor, triangular numbers
# =====================================================================


def _check_at_least(x, lower, what, exact=False):
    _check_finite_point(x, what)
    if x < lower:
        raise DomainError(f"{what} must be at least {lower}, got {_int_text(x)}")
    # the routes over the naturals loop once per integer up to x
    if math.floor(x) > DEFAULT_LIMIT_CAP:
        raise ResourceError(
            f"{what} {_int_text(x)} exceeds the configured cap {DEFAULT_LIMIT_CAP}"
        )
    if exact:
        _check_exact_x(x)


def _exact_point(x):
    return x if isinstance(x, Rational) else Fraction(x)


def natural_reciprocal_series(n, *, exact=False):
    """The series with atoms (i, 1/i) for i = 1..n."""
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"need a positive int, got {_int_text(n)}")
    # sorted, distinct, positive and nonzero by construction, so the atoms
    # go straight to the constructor
    ns = range(1, n + 1)
    if exact:
        return _exact_series(1, ns, [1] * n, ns)
    return JumpSeries(map(float, ns), (1.0 / i for i in ns))


def harmonic_direct(x, *, exact=False):
    """H(x): sum of 1/n for n <= x, by direct compensated (or exact) summation.

    The exact sum is the oracle's plain sum of the terms 1/n, added as
    (numerator, denominator) pairs two at a time over their lcm and
    reduced once (primes._fraction_sum); it refuses x past EXACT_X_CAP.
    """
    _check_at_least(x, 1, "harmonic argument", exact)
    n = math.floor(x)
    if exact:
        return _fraction_sum((1, i) for i in range(1, n + 1))
    return math.fsum(1.0 / i for i in range(1, n + 1))


def _add_pairs(left, right):
    """Two (numerator, denominator) pairs of ints as one, over their lcm,
    unreduced."""
    (num1, den1), (num2, den2) = left, right
    g = math.gcd(den1, den2)
    return num1 * (den2 // g) + num2 * (den1 // g), den1 // g * den2


def _segment_sum(n):
    """Sum of the segment terms (2i+1) / (2i(i+1)) for i = 1..n-1, exactly.

    The identity route's own summation: each term enters as an int pair,
    adjacent runs merge two at a time over the lcm of their denominators
    (jump_series._balanced, _add_pairs), and one Fraction is reduced at
    the end.  No term is regrouped.
    """
    if n < 2:
        return Fraction(0)
    terms = [(2 * i + 1, 2 * i * (i + 1)) for i in range(1, n)]
    return Fraction(*_balanced(terms, _add_pairs))


def harmonic_via_identity(x, *, exact=False):
    """H(x) from the floor function: a boundary term plus one short integral.

    H(x) = (floor(x) + floor(x)**2) / (2 x**2) plus the integral from 1 to x
    of (floor(y) + floor(y)**2) / y**3, the integral summed in closed form
    over the unit segments of the floor function.  Float mode streams the
    terms into one math.fsum, so its memory does not grow with x.  Exact
    mode adds the segment terms pairwise over their lcm (_segment_sum),
    with its own code, not the oracle's, and refuses x past EXACT_X_CAP.
    """
    _check_at_least(x, 1, "harmonic argument", exact)
    n = math.floor(x)
    if exact:
        xq = _exact_point(x)
        total = Fraction(n + n * n, 2) / (xq * xq) + _segment_sum(n)
        if xq > n:
            total += (n + n * n) * (xq - n) * (xq + n) / (2 * n * n * xq * xq)
        return total
    fx = float(x)
    head = ((n + n * n) / (2.0 * fx * fx),)
    segments = ((2.0 * i + 1.0) / (2.0 * i * (i + 1.0)) for i in range(1, n))
    tail = ()
    if fx > n:
        tail = ((n + n * n) * (fx - n) * (fx + n) / (2.0 * n * n * fx * fx),)
    return math.fsum(chain(head, segments, tail))


def iter_harmonic_identity(n_max):
    """Yield (n, identity-route H(n)) for n = 1..n_max in exact rationals.

    The segment integrals accumulate incrementally, so sweeping every
    integer up to n_max costs one new term per step instead of a fresh
    O(n) pass per point.
    """
    if not isinstance(n_max, int) or n_max < 1:
        raise DomainError(f"need a positive int, got {_int_text(n_max)}")
    integral = Fraction(0)
    for n in range(1, n_max + 1):
        if n > 1:
            i = n - 1
            integral += Fraction(2 * i + 1, 2 * i * (i + 1))
        yield n, Fraction(n + n * n, 2 * n * n) + integral


def _naturals_abel(x, k, m, exact):
    """_abel over the naturals' reciprocal series h (atoms (i, 1/i) for
    i <= x), with m = k + 1.

    Exact mode takes natural_reciprocal_series and refuses x past
    EXACT_X_CAP.  Float mode streams it, in O(1) memory: the step values
    H(1), ..., H(n) accumulate 1/i from the left, on the unit segments
    from 1 to n and on [n, x] when x > n, and H(n) comes from a plain
    left-to-right float sum (sum compensates from Python 3.12 on), as
    JumpSeries' running sums and _abel_over give them.
    """
    _check_at_least(x, 1, "argument", exact)
    n = math.floor(x)
    if exact:
        series = natural_reciprocal_series(n, exact=True)
        return _abel_over(series, _exact_point(x), k, m)
    fx = float(x)
    past = fx > n
    # _power_diffs reads the lefts twice, so they are a sequence
    lefts = range(1, n + past)
    rights = chain(range(2, n + 1), (fx,) if past else ())
    steps = accumulate(map(truediv, repeat(1.0), range(1, n + 1)))
    integral = math.fsum(Kernel.power(k).segment_terms(steps, lefts, rights))
    step = reduce(add, map(truediv, repeat(1.0), range(1, n + 1)))
    return _abel(fx, m, step, integral)


def floor_via_identity(x, *, exact=False):
    """floor(x) recovered as the atom count of the naturals' reciprocal
    series (_naturals_abel).

    Exact mode refuses x past EXACT_X_CAP.
    """
    return _naturals_abel(x, 0, 1, exact)


def triangular_via_identity(x, *, exact=False):
    """1 + 2 + ... + floor(x) via the power-sum route with k = 1
    (_naturals_abel).

    Exact mode refuses x past EXACT_X_CAP.
    """
    return _naturals_abel(x, 1, 2, exact)


# =====================================================================
# Primes
# =====================================================================


# The float prime staircases are prepared once per table (staircases.py):
# a float route reads F(x) and the integral of y**k * F(y) from 2 to x
# from the table's prepared prefix sums.  The exact staircases are built
# per query, from the ints of the sieve output (jump_series._exact_series),
# which meets the JumpSeries contract: sorted, distinct, positive, no zero
# weight.  Their running sums are kept in runs, each over its own lcm
# (jump_series._IntegerForm), and they stop at EXACT_X_CAP.


def _prime_abel(table, kind, x, k, m, exact):
    """_abel over the prime staircase ``kind`` of ``table``, m = k + 1.

    ``x`` is checked by table.pi (or primes_leq) before it is converted.
    """
    if exact:
        primes = table.primes_leq(x)
        _check_exact_x(x)
        ps = primes.tolist()
        ones = [1] * len(ps)
        # the weight of p, as (numerators, denominators): 1/p, p or 1
        nums, dens = {
            "reciprocal": (ones, ps),
            "prime": (ps, ones),
            "count": (ones, ones),
        }[kind]
        series = _exact_series(1, ps, nums, dens)
        return _abel_over(series, _exact_point(x), k, m)
    step = staircases.step(table, kind, x)
    fx = float(x)
    integral = staircases.step_integral(table, kind, Kernel.power(k), 2.0, fx)
    return _abel(fx, m, step, integral)


def prime_count_via_identity(table, x, *, exact=False):
    """pi(x) = x * h(x) - integral of h from 2 to x, h the prime reciprocal sum."""
    return _prime_abel(table, "reciprocal", x, 0, 1, exact)


def prime_sum_via_identity(table, x, *, exact=False):
    """Sum of primes <= x: x**2 * h(x) - 2 * integral of y * h(y)."""
    return _prime_abel(table, "reciprocal", x, 1, 2, exact)


def prime_reciprocal_sum_via_prime_sums(table, x, *, exact=False):
    """Sum of 1/p via the running sum of primes G(y).

    G(x)/x**2 + 2 * integral of G(y)/y**3 from 2 to x; the reciprocal
    power-sum route with k = 1 over the series with atoms (p, p).
    """
    return _prime_abel(table, "prime", x, -3, -2, exact)


def prime_reciprocal_sum_via_pi(table, x, *, exact=False):
    """Sum of 1/p from the prime counting function.

    pi(x)/x + integral from 2 to x of pi(y)/y**2; the step is the counting
    series with unit weights at the primes.
    """
    return _prime_abel(table, "count", x, -2, -1, exact)
