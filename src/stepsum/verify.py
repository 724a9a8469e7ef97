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
from typing import Callable, NamedTuple

from . import analytic, identities
from .errors import ConfigurationError, DomainError, RangeError
from .jump_series import JumpSeries
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
    "MAX_SET_SIZE",
]

MIN_PAIRWISE_GAP = 1e-6
# A draw of n points on (1, 1000) has about n**2 * gap / 999 pairs closer than the
# gap and is redrawn unless it has none: 0.1 pairs at n = 10**4, 1000 at 10**6.
MAX_SET_SIZE = 10**4


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
    """Seeded random subintervals [a, b] of [lo, hi], a < b."""
    if count < 1:
        raise ConfigurationError(f"need at least one interval, got {count}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ConfigurationError(f"need finite lo < hi, got [{lo}, {hi}]")
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


def _draw_set(rng, size):
    """Sorted reals in (1, 1000), pairwise gaps at least MIN_PAIRWISE_GAP.

    Draws are snapped to the 1/2**24 grid: the values stay exact in float64
    and share the location denominator 2**24, so rational mode holds each
    set as ints of at most 34 bits (raw 53-bit mantissas would blow up the
    running-sum denominators and every product built from them).
    """
    while True:
        qs = sorted(round(rng.uniform(1.0, 1000.0) * _GRID) / _GRID for _ in range(size))
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
    return rng.uniform(qs[-1], 1000.0)


def _direct_power_sum(ratios, k):
    """Sum of q**k over the atoms q = n/d given as (n, d) int pairs, exactly.

    The oracle side of the set checks: a plain sum over atoms.  For k >= 0
    every term is put over the lcm of the atom denominators; for k < 0 the
    (numerator, denominator) terms are added two at a time, unreduced, so
    no Fraction is renormalised per atom.  One Fraction comes out.
    """
    if k >= 0:
        den = math.lcm(*(d for _, d in ratios))
        total = sum((n * (den // d)) ** k for n, d in ratios)
        return Fraction(total, den**k)
    terms = [(d**-k, n**-k) for n, d in ratios]
    while len(terms) > 1:
        paired = [
            (top1 * bottom2 + top2 * bottom1, bottom1 * bottom2)
            for (top1, bottom1), (top2, bottom2) in zip(terms[::2], terms[1::2])
        ]
        if len(terms) % 2:
            paired.append(terms[-1])
        terms = paired
    return Fraction(*terms[0]) if terms else Fraction(0)


def _check_one_set(qs, x, k_set, tol, exact):
    count = bisect_right(qs, x)
    included = qs[:count]
    if exact:
        locs = [Fraction(q) for q in qs]
        reciprocals = [Fraction(q.denominator, q.numerator) for q in locs]
        xq = Fraction(x)
        ratios = [q.as_integer_ratio() for q in included]

        def direct(k):
            return _direct_power_sum(ratios, k)

    else:
        locs, xq = qs, x
        reciprocals = [1 / q for q in qs]

        def direct(k):
            return math.fsum(q**k for q in included)

    h = JumpSeries(locs, reciprocals)
    g = JumpSeries(locs, locs)
    # the count is the k = 0 power sum, so one integral serves both
    power = {k: identities.power_sum_via_abel(h, xq, k) for k in {0, *k_set}}
    checks = [(IdentityId.COUNT, None, power[0], count)]
    checks += [(IdentityId.POWER_SUM, k, power[k], direct(k)) for k in k_set]
    reciprocal = identities.reciprocal_power_sum_via_abel
    checks += [
        (IdentityId.RECIPROCAL_POWER_SUM, k, reciprocal(g, xq, k), direct(-k))
        for k in k_set
    ]
    return [
        make_report(identity, x, lhs, rhs, tol, k=k, exact=exact)
        for identity, k, lhs, rhs in checks
    ]


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

    Each trial draws a set of up to ``max_size`` (at most MAX_SET_SIZE)
    reals in (1, 1000), picks an evaluation point (an atom, a midpoint, or
    beyond the last atom), and compares every route against brute-force
    summation: rational equality in exact mode, the given tolerance in
    float mode.  Reports are ordered by (trial, identity, k) and depend
    only on the seed.  ``jobs`` is accepted for compatibility; the sweep
    runs serially.
    """
    if trials < 1:
        raise ConfigurationError(f"need at least one trial, got {trials}")
    if not 1 <= max_size <= MAX_SET_SIZE:
        raise ConfigurationError(f"max_size {max_size} is not in [1, {MAX_SET_SIZE}]")
    for k in k_set:
        if not isinstance(k, int) or k < 0:
            raise ConfigurationError(f"exponents must be ints >= 0, got {k!r}")
    rng = random.Random(seed)
    k_set = tuple(k_set)
    reports = []
    for _ in range(trials):
        qs = _draw_set(rng, rng.randint(1, max_size))
        x = _draw_eval_point(rng, qs)
        reports += _check_one_set(qs, x, k_set, tol, exact)
    return reports
