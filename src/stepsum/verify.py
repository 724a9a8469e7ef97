"""Sweep drivers: run identity routes against their direct oracles.

ROUTES is the one table of ways to compute a function at a point; the
CLI's ``compute`` and the pointwise sweeps both dispatch from it.
run_sweep covers the pointwise identities (one x per report): each
pairs an identity route with the direct route of the same function.
The set-based identities (count, power_sum, reciprocal_power_sum) have
no natural pointwise form; random_set_sweep owns them, generating seeded
random finite sets and checking every requested exponent per set.
increment_sweep covers the subinterval check.

Determinism: all randomness flows from one random.Random(seed), so
reports come back in the same order and with the same content on every
run.  Sweeps run serially: the work holds the interpreter lock, and
threads made no sweep faster.  Their ``jobs`` keyword is accepted for
compatibility and ignored.
"""

import math
import random
from bisect import bisect_right
from fractions import Fraction
from numbers import Real
from typing import Callable, NamedTuple

from . import analytic, identities
from .errors import (
    ConfigurationError,
    DomainError,
    RangeError,
    ResourceError,
    _check_count,
    _float_point,
    _int_text,
    _is_int,
)
from .jump_series import _MAX_POWER_WORK, JumpSeries, _exact_series, _Unreduced
from .report import IdentityId, error_report, make_report

__all__ = [
    "Route",
    "ROUTES",
    "POINTWISE",
    "run_sweep",
    "random_set_sweep",
    "increment_sweep",
    "random_intervals",
    "MIN_PAIRWISE_GAP",
    "MAX_SAMPLES",
    "MAX_SET_SIZE",
    "MAX_EXACT_SET_WORK",
]

MIN_PAIRWISE_GAP = 1e-6
# The most intervals random_intervals draws, the most trials
# random_set_sweep takes, and the most `verify --samples` takes (the
# default is 50).  A sample is one random set or interval drawn and
# checked, or one point of a grid that numpy allocates whole, so the count
# bounds both time and memory.
MAX_SAMPLES = 10**4
# A draw of n points on (1, 1000) has about n**2 * gap / 999 pairs closer than the
# gap and is redrawn unless it has none: 0.1 pairs at n = 10**4, 1000 at 10**6.
MAX_SET_SIZE = 10**4
# The most (k + 1) * (max_size + 1) an exact set check takes for an
# exponent k: its run trees raise up to max_size + 1 points (the atoms from
# the first to x, and x) to the (k + 1)-th power, each of at most 83 bits in
# _run_tree's count (x a raw float in [1, 2)), within jump_series._MAX_POWER_WORK.
# At the cap (CPU time, Python 3.11, 2 vCPU, no gmpy2) one set at the worst
# x took about 1 s at 1 to 200 atoms and 1.8 s at MAX_SET_SIZE atoms.
MAX_EXACT_SET_WORK = _MAX_POWER_WORK // 83


class Route(NamedTuple):
    """One way to compute one function: ``call(table, x, exact)``.

    ``exact``: the route has an exact mode (float-only routes ignore the
    flag).  ``needs_table``: ``call`` reads a prime table sieved to at
    least x; otherwise it gets None.  ``lower``: where the domain starts,
    1 for the naturals and 2 for the primes.  ``compute``: offered by
    ``stepsum compute``.
    """

    call: Callable
    exact: bool = True
    needs_table: bool = True
    lower: float = 2.0
    compute: bool = True


def _naturals(call, *, compute=True):
    return Route(call, needs_table=False, lower=1.0, compute=compute)


def _triangular(x):
    n = math.floor(x)
    return n * (n + 1) // 2


# (function, method) -> Route; a function's default method comes first.
# The entries call the package modules and the table's methods through
# attributes looked up at call time, so wrappers installed after import
# see the calls.
ROUTES = {
    ("harmonic", "direct"): _naturals(
        lambda t, x, e: identities.harmonic_direct(x, exact=e)
    ),
    ("harmonic", "identity"): _naturals(
        lambda t, x, e: identities.harmonic_via_identity(x, exact=e)
    ),
    ("floor", "direct"): _naturals(lambda t, x, e: math.floor(x), compute=False),
    ("floor", "identity"): _naturals(
        lambda t, x, e: identities.floor_via_identity(x, exact=e), compute=False
    ),
    ("triangular", "direct"): _naturals(
        lambda t, x, e: _triangular(x), compute=False
    ),
    ("triangular", "identity"): _naturals(
        lambda t, x, e: identities.triangular_via_identity(x, exact=e), compute=False
    ),
    ("hp", "direct"): Route(lambda t, x, e: t.reciprocal_sum(x, exact=e)),
    ("hp", "prime_sums"): Route(
        lambda t, x, e: identities.prime_reciprocal_sum_via_prime_sums(t, x, exact=e)
    ),
    ("hp", "from_pi"): Route(
        lambda t, x, e: identities.prime_reciprocal_sum_via_pi(t, x, exact=e)
    ),
    ("hp", "mertens"): Route(
        lambda t, x, e: analytic.prime_reciprocal_sum_via_mertens(t, x), exact=False
    ),
    ("pi", "direct"): Route(lambda t, x, e: t.pi(x)),
    ("pi", "identity"): Route(
        lambda t, x, e: identities.prime_count_via_identity(t, x, exact=e)
    ),
    ("pi", "li"): Route(lambda t, x, e: analytic.prime_count_via_li(t, x), exact=False),
    ("prime_sum", "direct"): Route(lambda t, x, e: t.prime_power_sum(x, 1)),
    ("prime_sum", "identity"): Route(
        lambda t, x, e: identities.prime_sum_via_identity(t, x, exact=e)
    ),
    ("li2", "direct"): Route(
        lambda t, x, e: analytic.li_from_2(x).value, exact=False, needs_table=False
    ),
    ("r", "direct"): Route(
        lambda t, x, e: analytic.mertens_remainder(t, x), exact=False
    ),
}
# `compute mertens` is another name for `compute hp --method mertens`
ROUTES["mertens", "direct"] = ROUTES["hp", "mertens"]

# pointwise identity -> the (function, method) of its identity route; the
# function's direct route is its oracle
POINTWISE = {
    IdentityId.HARMONIC: ("harmonic", "identity"),
    IdentityId.FLOOR: ("floor", "identity"),
    IdentityId.TRIANGULAR: ("triangular", "identity"),
    IdentityId.PRIME_COUNT: ("pi", "identity"),
    IdentityId.PRIME_SUM: ("prime_sum", "identity"),
    IdentityId.HP_PRIME_SUMS: ("hp", "prime_sums"),
    IdentityId.HP_FROM_PI: ("hp", "from_pi"),
    IdentityId.PRIME_COUNT_LI: ("pi", "li"),
    IdentityId.HP_MERTENS: ("hp", "mertens"),
}


def run_sweep(identity, table, x_samples, *, tol=1e-9, exact=False, jobs=1):
    """Evaluate a pointwise identity at each sample and report both sides.

    Samples outside a route's domain or table come back as failed error
    reports; the sweep keeps going.  Set-based identities are rejected
    here (use random_set_sweep), and so is the subinterval check (use
    increment_sweep).  ``jobs`` is accepted for compatibility and ignored.
    """
    if identity not in POINTWISE:
        raise ConfigurationError(
            f"{identity.value} is not pointwise; "
            "use random_set_sweep or increment_sweep"
        )
    function, method = POINTWISE[identity]
    lhs_route, rhs_route = ROUTES[function, method], ROUTES[function, "direct"]
    if exact and not lhs_route.exact:
        raise ConfigurationError(f"{identity.value} has no exact mode")
    if table is None and lhs_route.needs_table:
        raise ConfigurationError(f"{identity.value} needs a prime table")

    def evaluate(x):
        try:
            lhs = lhs_route.call(table, x, exact)
            rhs = rhs_route.call(table, x, exact)
        except (DomainError, RangeError):
            return error_report(identity, x, tol)
        return make_report(identity, x, lhs, rhs, tol, exact=exact)

    return [evaluate(x) for x in x_samples]


def increment_sweep(table, intervals, *, tol=1e-10, jobs=1):
    """Run the reciprocal-sum increment check over (a, b) interval pairs.

    ``jobs`` is accepted for compatibility; the sweep runs serially.
    """

    def evaluate(pair):
        a, b = pair
        try:
            return analytic.check_reciprocal_sum_increment(table, a, b, tol=tol)
        except (DomainError, RangeError):
            return error_report(IdentityId.HP_INCREMENT, a, tol, k=b)

    return [evaluate(pair) for pair in intervals]


def random_intervals(seed, count, *, lo=2.0, hi=10**4):
    """Seeded random subintervals [a, b] of [lo, hi], a < b: ``count`` of
    them, an int from 1 to MAX_SAMPLES, for real lo < hi in the float
    range."""
    _check_count(count, "count of intervals", MAX_SAMPLES)
    finite = (
        isinstance(v, Real) and math.isfinite(_float_point(v, "interval bound"))
        for v in (lo, hi)
    )
    if not (all(finite) and lo < hi):
        raise ConfigurationError(
            f"need finite lo < hi, got [{_int_text(lo)}, {_int_text(hi)}]"
        )
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        while True:
            a = rng.uniform(lo, hi)
            b = rng.uniform(a, hi)
            if b > a:
                out.append((a, b))
                break
    return out


# =====================================================================
# Random finite sets
# =====================================================================


_GRID = 2**24
# every drawn atom and evaluation point lies in (1, _TOP)
_TOP = 1000.0


def _draw_set(rng, size):
    """Sorted reals in (1, 1000), pairwise gaps at least MIN_PAIRWISE_GAP.

    Draws are snapped to the 1/2**24 grid: the values stay exact in float64
    and share the location denominator 2**24, so rational mode holds each
    set as ints of at most 34 bits (raw 53-bit mantissas would blow up the
    running-sum denominators and every product built from them).
    """
    while True:
        qs = sorted(round(rng.uniform(1.0, _TOP) * _GRID) / _GRID for _ in range(size))
        if qs[0] <= 1.0:
            continue
        if all(b - a >= MIN_PAIRWISE_GAP for a, b in zip(qs, qs[1:])):
            return qs


def _draw_eval_point(rng, qs):
    """An atom, a midpoint, or a point past the last atom: all three kinds
    of evaluation position get exercised."""
    roll = rng.random()
    if roll < 1 / 3:
        return rng.choice(qs)
    if roll < 2 / 3 and len(qs) > 1:
        i = rng.randrange(len(qs) - 1)
        return 0.5 * (qs[i] + qs[i + 1])
    return rng.uniform(qs[-1], _TOP)


def _direct_power_sum(ratios, k):
    """Sum of q**k over the atoms q = n/d given as (n, d) int pairs, exactly,
    as an unreduced (numerator, denominator) pair of ints.

    The oracle side of the set checks: a plain sum over atoms.  For k >= 0
    every term is put over the lcm of the atom denominators; for k < 0 the
    (numerator, denominator) terms are added two at a time, unreduced.
    Nothing is reduced, not even the sum: make_report compares it with
    the route's unreduced pair by cross-multiplication.
    """
    if k >= 0:
        den = math.lcm(*(d for _, d in ratios))
        total = sum((n * (den // d)) ** k for n, d in ratios)
        return total, den**k
    terms = [(d**-k, n**-k) for n, d in ratios]
    while len(terms) > 1:
        paired = [
            (top1 * bottom2 + top2 * bottom1, bottom1 * bottom2)
            for (top1, bottom1), (top2, bottom2) in zip(terms[::2], terms[1::2])
        ]
        if len(terms) % 2:
            paired.append(terms[-1])
        terms = paired
    return terms[0] if terms else (0, 1)


def _check_one_set(qs, x, k_set, tol, exact):
    """The reports of one drawn set ``qs`` at x: the count, and the power
    and reciprocal power sums for each k in ``k_set``, each route against
    its plain sum over the atoms at or below x.

    Exact mode builds the two staircases from the ints n = q * 2**24
    (_exact_series): h, with weights 1/q = 2**24 / n, and g, with weights
    q = n / 2**24; no Fraction is made per atom.  Each route's sum is the
    unreduced (numerator, denominator) pair of its run tree
    (identities._exact_abel_over), the oracle's is _direct_power_sum's
    unreduced pair, and the count's is (count, 1): make_report
    cross-multiplies them and renders each by int true division, so no
    result is reduced, and every report is the one the reduced public
    routes and a reduced oracle sum give.
    """
    count = bisect_right(qs, x)
    included = qs[:count]
    if exact:
        nums = [int(q * _GRID) for q in qs]
        grid = [_GRID] * len(nums)
        h = _exact_series(_GRID, nums, grid, nums)
        g = _exact_series(_GRID, nums, nums, grid)
        xq = Fraction(x)
        ratios = [q.as_integer_ratio() for q in included]

        def power(k):
            return identities._exact_abel_over(h, xq, k, k + 1)

        def reciprocal(k):
            return identities._exact_abel_over(g, xq, -(k + 2), -(k + 1))

        def direct(k):
            return _Unreduced(*_direct_power_sum(ratios, k))

    else:
        xq = x
        h = JumpSeries(qs, [1 / q for q in qs])
        g = JumpSeries(qs, qs)

        def power(k):
            return identities.power_sum_via_abel(h, xq, k)

        def reciprocal(k):
            return identities.reciprocal_power_sum_via_abel(g, xq, k)

        def direct(k):
            return math.fsum(q**k for q in included)

    # the count is the k = 0 power sum, so one integral serves both
    powers = {k: power(k) for k in {0, *k_set}}
    reciprocals = {k: reciprocal(k) for k in k_set}
    checks = [(IdentityId.COUNT, None, powers[0], count)]
    checks += [(IdentityId.POWER_SUM, k, powers[k], direct(k)) for k in k_set]
    checks += [
        (IdentityId.RECIPROCAL_POWER_SUM, k, reciprocals[k], direct(-k)) for k in k_set
    ]
    return [
        make_report(identity, x, lhs, rhs, tol, k=k, exact=exact)
        for identity, k, lhs, rhs in checks
    ]


def _check_set_work(max_size, k, exact):
    """Refuse an exponent k that a set check cannot take, before any draw.

    In float mode that is every k for which _TOP ** (k + 1), the power
    sum's boundary term at the top of the draws, overflows (k > 101):
    DomainError.  In exact mode it is every k for which some draw would
    pass the run trees' work budget: (k + 1) * (max_size + 1) past
    MAX_EXACT_SET_WORK, ResourceError.
    """
    if not exact:
        try:
            _TOP ** (k + 1)
        except OverflowError:
            raise DomainError(
                f"exponent {_int_text(k)} overflows the float power sums"
            ) from None
    elif (k + 1) * (max_size + 1) > MAX_EXACT_SET_WORK:
        raise ResourceError(
            f"exact sets of up to {max_size} atoms take exponents up to "
            f"{MAX_EXACT_SET_WORK // (max_size + 1) - 1}, got {_int_text(k)}"
        )


def random_set_sweep(
    seed,
    trials,
    *,
    max_size=200,
    k_set=(0, 1, 2, 3),
    tol=1e-10,
    exact=False,
    jobs=1,
):
    """Check the three set identities on seeded random finite sets.

    Each of ``trials`` (at most MAX_SAMPLES) trials draws a set of up to
    ``max_size`` (at most MAX_SET_SIZE) reals in (1, 1000), picks an
    evaluation point (an atom, a midpoint, or beyond the last atom), and
    compares every route against brute-force summation: rational equality
    in exact mode, the given tolerance in float mode.  Reports are ordered
    by (trial, identity, k) and depend only on the seed.  The counts and
    the exponents are checked before the first draw (_check_set_work
    bounds the exponents).  ``jobs`` is accepted for compatibility; the
    sweep runs serially.
    """
    _check_count(trials, "number of trials", MAX_SAMPLES)
    _check_count(max_size, "max_size", MAX_SET_SIZE)
    k_set = tuple(k_set)
    for k in k_set:
        if not _is_int(k) or k < 0:
            raise ConfigurationError(f"exponents must be ints >= 0, got {_int_text(k)}")
        _check_set_work(max_size, k, exact)
    rng = random.Random(seed)
    reports = []
    for _ in range(trials):
        qs = _draw_set(rng, rng.randint(1, max_size))
        x = _draw_eval_point(rng, qs)
        reports += _check_one_set(qs, x, k_set, tol, exact)
    return reports
