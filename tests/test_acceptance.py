"""Acceptance gate: one test per shipped criterion, tolerances pinned.

Every test prints a single summary line with the measured figures, so a
verbose run doubles as the acceptance report.  Budgets and tolerances in
this module are contractual; do not loosen them to make a failure go
away.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from stepsum import cli
from stepsum.analytic import (
    prime_count_via_li,
    prime_reciprocal_sum_via_mertens,
)
from stepsum.identities import (
    harmonic_direct,
    harmonic_via_identity,
    iter_harmonic_identity,
    prime_count_via_identity,
    prime_reciprocal_sum_via_pi,
    prime_reciprocal_sum_via_prime_sums,
)
from stepsum.primes import sieve
from stepsum.report import IdentityId
from stepsum.verify import (
    increment_sweep,
    random_intervals,
    random_set_sweep,
    run_sweep,
)

SEED = 20260822


@pytest.fixture(scope="module")
def table_1e4():
    return sieve(10**4)


@pytest.fixture(scope="module")
def table_1e5():
    return sieve(10**5)


def test_criterion_1_random_set_suite():
    """1000 seeded random sets, count / power-sum / reciprocal-power-sum
    with k in {0,1,2,3}: exact equality in rational mode, relative error
    at most 1e-10 in float mode, all inside a 10 s budget."""
    start = time.perf_counter()
    exact_reports = random_set_sweep(SEED, 1000, exact=True)
    float_reports = random_set_sweep(SEED, 1000, tol=1e-10)
    elapsed = time.perf_counter() - start

    assert len(exact_reports) == 9000
    assert len(float_reports) == 9000
    assert all(r.passed for r in exact_reports)
    assert all(r.abs_err == 0.0 for r in exact_reports)
    assert all(r.passed for r in float_reports)
    worst_rel = max(r.rel_err for r in float_reports)
    assert worst_rel <= 1e-10
    assert elapsed <= 10.0
    print(
        f"criterion 1: PASS (9000+9000 reports, exact all zero, "
        f"float max rel {worst_rel:.3e}, {elapsed:.2f}s)"
    )


def test_criterion_2_harmonic_identity():
    """Identity-route harmonic numbers match the running rational sum at
    every integer up to 1e4 and the compensated float sum to 1e-11
    relative at the decade points, inside 5 s."""
    start = time.perf_counter()
    running = Fraction(0)
    for n, via_identity in iter_harmonic_identity(10**4):
        running += Fraction(1, n)
        assert via_identity == running

    worst = 0.0
    for x in (10, 10**2, 10**3, 10**4, 10**5):
        lhs = harmonic_via_identity(x)
        rhs = harmonic_direct(x)
        worst = max(worst, abs(lhs - rhs) / rhs)
    elapsed = time.perf_counter() - start

    assert worst <= 1e-11
    assert elapsed <= 5.0
    print(
        f"criterion 2: PASS (10^4 exact points, float max rel {worst:.3e}, "
        f"{elapsed:.2f}s)"
    )


def test_criterion_3_prime_count_identity(table_1e5):
    """Identity-route prime counting rounds to the sieve count at 200
    log-spaced points, at every prime below 1e3, and at the 1e6 spot
    check, inside 20 s."""
    start = time.perf_counter()
    for x in np.geomspace(2.0, 1e5, 200):
        assert round(prime_count_via_identity(table_1e5, x)) == table_1e5.pi(x)
    for p in table_1e5.primes_leq(10**3):
        assert round(prime_count_via_identity(table_1e5, p)) == table_1e5.pi(p)

    big = sieve(10**6)
    assert big.pi(10**6) == 78498
    assert round(prime_count_via_identity(big, 10**6)) == 78498
    elapsed = time.perf_counter() - start

    assert elapsed <= 20.0
    print(f"criterion 3: PASS (200 grid + 168 prime points + 1e6 spot, {elapsed:.2f}s)")


def test_criterion_4_hp_triangle(table_1e4):
    """The three prime-reciprocal routes agree pairwise to 1e-12 relative
    at every prime below 1e4 and at consecutive-prime midpoints."""
    primes = table_1e4.primes
    points = [float(p) for p in primes]
    points += [0.5 * (p + q) for p, q in zip(primes, primes[1:])]

    worst = 0.0
    for x in points:
        direct = table_1e4.reciprocal_sum(x)
        via_sums = prime_reciprocal_sum_via_prime_sums(table_1e4, x)
        via_pi = prime_reciprocal_sum_via_pi(table_1e4, x)
        for a, b in ((direct, via_sums), (direct, via_pi), (via_sums, via_pi)):
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1.0))
    assert worst <= 1e-12
    print(
        f"criterion 4: PASS ({len(points)} points, three routes, "
        f"max pairwise rel {worst:.3e})"
    )


def test_criterion_5_mertens_route(table_1e5):
    """The asymptotic reciprocal-sum route tracks the direct sum to 1e-10
    absolute on a 200-point log grid, and lands exactly on 1/2 at x=2."""
    assert prime_reciprocal_sum_via_mertens(table_1e5, 2) == 0.5

    worst = 0.0
    for x in np.geomspace(2.0, 1e5, 200):
        lhs = prime_reciprocal_sum_via_mertens(table_1e5, x)
        rhs = table_1e5.reciprocal_sum(x)
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-10
    print(f"criterion 5: PASS (boundary exact, 200 points, max abs {worst:.3e})")


def test_criterion_6_prime_count_via_li(table_1e5):
    """The logarithmic-integral route reproduces the sieve count to 1e-8
    at 20 log-spaced points and equals 1 exactly at x=2, inside 30 s."""
    start = time.perf_counter()
    assert prime_count_via_li(table_1e5, 2) == 1.0

    worst = 0.0
    for x in np.geomspace(2.0, 1e5, 20):
        worst = max(worst, abs(prime_count_via_li(table_1e5, x) - table_1e5.pi(x)))
    elapsed = time.perf_counter() - start

    assert worst <= 1e-8
    assert elapsed <= 30.0
    print(f"criterion 6: PASS (20 points, max abs {worst:.3e}, {elapsed:.2f}s)")


def test_criterion_7_increment_identity(table_1e4):
    """The integrated reciprocal-sum increment matches the direct
    difference to 1e-10 absolute on 100 seeded random subintervals."""
    intervals = random_intervals(SEED, 100, hi=10**4)
    reports = increment_sweep(table_1e4, intervals, tol=1e-10)

    assert len(reports) == 100
    assert all(r.passed for r in reports)
    worst = max(r.abs_err for r in reports)
    assert worst <= 1e-10
    print(f"criterion 7: PASS (100 intervals, max abs {worst:.3e})")


def test_criterion_8_bench_harness(capsys):
    """The bench subcommand completes at x=1e6, emits three well-formed
    rows, and the identity result agrees with the compensated direct sum
    to 1e-10 absolute."""
    code = cli.main(
        ["bench", "--op", "harmonic", "--x", "1000000", "--reps", "5"]
    )
    out = capsys.readouterr().out
    assert code == 0

    lines = out.strip().splitlines()
    assert lines[0] == "op,method,x,reps,median_ns,result"
    rows = [line.split(",") for line in lines[1:4]]
    assert [row[1] for row in rows] == ["direct", "direct_compensated", "identity"]
    results = {}
    for op, method, x, reps, median_ns, result in rows:
        assert op == "harmonic"
        assert float(x) == 1e6
        assert int(reps) == 5
        assert int(median_ns) > 0
        results[method] = float(result)
    gap = abs(results["identity"] - results["direct_compensated"])
    assert gap <= 1e-10
    print(f"criterion 8: PASS (3 rows, |identity - compensated| = {gap:.3e})")


def test_every_identity_is_swept(table_1e4):
    """Completeness: each identity id passes through its own sweep driver."""
    covered = {}

    def absorb(reports):
        for r in reports:
            assert r.passed, (r.identity, r.x, r.abs_err)
            covered[r.identity] = covered.get(r.identity, 0) + 1

    absorb(random_set_sweep(SEED, 30))
    grid = list(np.geomspace(2.0, 5000.0, 25))
    for identity in (
        IdentityId.HARMONIC,
        IdentityId.FLOOR,
        IdentityId.TRIANGULAR,
        IdentityId.PRIME_COUNT,
        IdentityId.PRIME_SUM,
        IdentityId.HP_PRIME_SUMS,
        IdentityId.HP_FROM_PI,
        IdentityId.PRIME_COUNT_LI,
        IdentityId.HP_MERTENS,
    ):
        absorb(run_sweep(identity, table_1e4, grid, tol=1e-8))
    absorb(increment_sweep(table_1e4, random_intervals(SEED, 10, hi=5000)))

    assert set(covered) == set(IdentityId)
    print(f"coverage: PASS ({sum(covered.values())} reports across {len(covered)} ids)")
