"""Sweep drivers: run identity routes against their direct oracles.

run_sweep covers the pointwise identities (one x per report).  The
set-based identities (count, power_sum, reciprocal_power_sum) have no
natural pointwise form; random_set_sweep owns them, generating seeded
random finite sets and checking every requested exponent per set.
increment_sweep covers the subinterval check.

Determinism: all randomness flows from one random.Random(seed), and
drawing is separated from evaluation, so reports come back in the same
order (and with the same content) regardless of the job count.
"""

import math
import random
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

from . import analytic, identities
from .errors import ConfigurationError, DomainError, PanelBudgetError, RangeError
from .jump_series import JumpSeries
from .report import IdentityId, error_report, make_report

__all__ = [
    "run_sweep",
    "random_set_sweep",
    "increment_sweep",
    "random_intervals",
    "MIN_PAIRWISE_GAP",
]

MIN_PAIRWISE_GAP = 1e-6

_SET_BASED = frozenset(
    {IdentityId.COUNT, IdentityId.POWER_SUM, IdentityId.RECIPROCAL_POWER_SUM}
)
_NATURALS = frozenset(
    {IdentityId.HARMONIC, IdentityId.FLOOR, IdentityId.TRIANGULAR}
)
_FLOAT_ONLY = frozenset({IdentityId.PRIME_COUNT_LI, IdentityId.HP_MERTENS})


def _map_ordered(fn, items, jobs):
    if jobs <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _routes(identity, table, exact):
    """Return (lhs_fn, rhs_fn) for a pointwise identity."""
    if identity is IdentityId.HARMONIC:
        return (
            lambda x: identities.harmonic_via_identity(x, exact=exact),
            lambda x: identities.harmonic_direct(x, exact=exact),
        )
    if identity is IdentityId.FLOOR:
        return (
            lambda x: identities.floor_via_identity(x, exact=exact),
            lambda x: math.floor(x),
        )
    if identity is IdentityId.TRIANGULAR:
        def direct_triangular(x):
            n = math.floor(x)
            return n * (n + 1) // 2
        return (
            lambda x: identities.triangular_via_identity(x, exact=exact),
            direct_triangular,
        )
    if table is None:
        raise ConfigurationError(f"{identity.value} needs a prime table")
    if identity is IdentityId.PRIME_COUNT:
        return (
            lambda x: identities.prime_count_via_identity(table, x, exact=exact),
            table.pi,
        )
    if identity is IdentityId.PRIME_SUM:
        return (
            lambda x: identities.prime_sum_via_identity(table, x, exact=exact),
            lambda x: table.prime_power_sum(x, 1),
        )
    if identity is IdentityId.HP_PRIME_SUMS:
        return (
            lambda x: identities.prime_reciprocal_sum_via_prime_sums(
                table, x, exact=exact
            ),
            lambda x: table.reciprocal_sum(x, exact=exact),
        )
    if identity is IdentityId.HP_FROM_PI:
        return (
            lambda x: identities.prime_reciprocal_sum_via_pi(table, x, exact=exact),
            lambda x: table.reciprocal_sum(x, exact=exact),
        )
    if identity is IdentityId.PRIME_COUNT_LI:
        return (lambda x: analytic.prime_count_via_li(table, x), table.pi)
    if identity is IdentityId.HP_MERTENS:
        return (
            lambda x: analytic.prime_reciprocal_sum_via_mertens(table, x),
            lambda x: table.reciprocal_sum(x),
        )
    raise ConfigurationError(f"no pointwise route for {identity.value}")


def run_sweep(identity, table, x_samples, *, k=None, tol=1e-9, exact=False, jobs=1):
    """Evaluate a pointwise identity at each sample and report both sides.

    Samples that fall outside a route's domain, or whose quadrature runs
    out of panels, come back as failed error reports; the sweep keeps
    going.  ``k`` is recorded in the reports but no pointwise identity
    consumes it.  Set-based identities are rejected here (use
    random_set_sweep) and the subinterval check likewise (use
    increment_sweep).
    """
    if identity in _SET_BASED:
        raise ConfigurationError(
            f"{identity.value} checks random sets; use random_set_sweep"
        )
    if identity is IdentityId.HP_INCREMENT:
        raise ConfigurationError("hp_increment sweeps intervals; use increment_sweep")
    if exact and identity in _FLOAT_ONLY:
        raise ConfigurationError(f"{identity.value} has no exact mode")
    lhs_fn, rhs_fn = _routes(identity, table, exact)

    def evaluate(x):
        try:
            lhs = lhs_fn(x)
            rhs = rhs_fn(x)
        except (DomainError, RangeError, PanelBudgetError):
            return error_report(identity, x, tol, k=k)
        return make_report(identity, x, lhs, rhs, tol, k=k, exact=exact)

    return _map_ordered(evaluate, list(x_samples), jobs)


def increment_sweep(table, intervals, *, tol=1e-10, jobs=1):
    """Run the reciprocal-sum increment check over (a, b) interval pairs."""

    def evaluate(pair):
        a, b = pair
        try:
            return analytic.check_reciprocal_sum_increment(table, a, b, tol=tol)
        except (DomainError, RangeError, PanelBudgetError):
            return error_report(IdentityId.HP_INCREMENT, a, tol, k=b)

    return _map_ordered(evaluate, list(intervals), jobs)


def random_intervals(seed, count, *, lo=2.0, hi=10**4):
    """Seeded random subintervals [a, b] of [lo, hi], a < b."""
    if count < 1:
        raise ConfigurationError(f"need at least one interval, got {count}")
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


def _check_one_set(task, k_set, tol, exact):
    trial, qs, x = task
    reports = []
    count = bisect_right(qs, x)
    included = qs[:count]
    if exact:
        locs = [Fraction(q) for q in qs]
        xq = Fraction(x)
        h = JumpSeries(locs, [1 / q for q in locs])
        g = JumpSeries(locs, locs)
        ratios = [q.as_integer_ratio() for q in included]
        lhs = identities.count_via_abel(h, xq)
        reports.append(make_report(IdentityId.COUNT, x, lhs, count, tol, exact=True))
        for k in k_set:
            lhs = identities.power_sum_via_abel(h, xq, k)
            rhs = _direct_power_sum(ratios, k)
            reports.append(
                make_report(IdentityId.POWER_SUM, x, lhs, rhs, tol, k=k, exact=True)
            )
        for k in k_set:
            lhs = identities.reciprocal_power_sum_via_abel(g, xq, k)
            rhs = _direct_power_sum(ratios, -k)
            reports.append(
                make_report(
                    IdentityId.RECIPROCAL_POWER_SUM, x, lhs, rhs, tol, k=k, exact=True
                )
            )
        return reports
    h = JumpSeries(qs, [1.0 / q for q in qs])
    g = JumpSeries(qs, qs)
    lhs = identities.count_via_abel(h, x)
    reports.append(make_report(IdentityId.COUNT, x, lhs, count, tol))
    for k in k_set:
        lhs = identities.power_sum_via_abel(h, x, k)
        rhs = math.fsum(q**k for q in included)
        reports.append(make_report(IdentityId.POWER_SUM, x, lhs, rhs, tol, k=k))
    for k in k_set:
        lhs = identities.reciprocal_power_sum_via_abel(g, x, k)
        rhs = math.fsum(q ** (-k) for q in included)
        reports.append(
            make_report(IdentityId.RECIPROCAL_POWER_SUM, x, lhs, rhs, tol, k=k)
        )
    return reports


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

    Each trial draws a set of up to ``max_size`` reals in (1, 1000), picks
    an evaluation point (an atom, a midpoint, or beyond the last atom), and
    compares every route against brute-force summation: rational equality
    in exact mode, the given tolerance in float mode.  Reports are ordered
    by (trial, identity, k) and depend only on the seed.
    """
    if trials < 1:
        raise ConfigurationError(f"need at least one trial, got {trials}")
    if max_size < 1:
        raise ConfigurationError(f"need a positive set size, got {max_size}")
    for k in k_set:
        if not isinstance(k, int) or k < 0:
            raise ConfigurationError(f"exponents must be ints >= 0, got {k!r}")
    rng = random.Random(seed)
    tasks = []
    for trial in range(trials):
        qs = _draw_set(rng, rng.randint(1, max_size))
        tasks.append((trial, qs, _draw_eval_point(rng, qs)))
    per_task = _map_ordered(
        lambda task: _check_one_set(task, tuple(k_set), tol, exact), tasks, jobs
    )
    return [report for group in per_task for report in group]
