"""Prepared prime staircases against staircases built per query."""

import gc
import math
import random
import sys
import threading
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepsum import analytic, identities, staircases
from stepsum.jump_series import (
    JumpSeries,
    Kernel,
    build_jump_series,
    integrate_kernel_times_step,
)
from stepsum.primes import sieve
from stepsum.staircases import prime_staircase

LIMIT = 20000

# the atoms a per-query build makes for each kind, prime by prime
WEIGHT = {
    "reciprocal": lambda p: 1.0 / p,
    "log_weight": lambda p: math.log(p) / p,
    "prime": lambda p: float(p),
    "count": lambda p: 1.0,
}


@pytest.fixture(scope="module")
def table():
    return sieve(LIMIT)


def built(table, kind, x, above=None):
    """The staircase as build_jump_series makes it from the table."""
    ps = table.primes_leq(x).tolist()
    if above is not None:
        ps = [p for p in ps if p > above]
    return build_jump_series((float(p), WEIGHT[kind](p)) for p in ps)


def rebuilt(table, kind, x, *, above=None):
    """A drop-in for prime_staircase that builds the staircase afresh."""
    series = built(table, kind, x, above)
    return series.locations, series.weights


def same_float(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class TestPreparedSlices:
    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(sorted(WEIGHT)),
        x=st.floats(2.0, LIMIT),
        above=st.one_of(st.none(), st.integers(0, LIMIT), st.floats(0.0, LIMIT)),
        fresh=st.booleans(),
    )
    def test_slice_is_the_built_staircase(self, table, kind, x, above, fresh):
        if fresh:
            table = sieve(LIMIT)
        series = JumpSeries(*prime_staircase(table, kind, x, above=above))
        want = built(table, kind, x, above)
        assert series.locations == want.locations
        assert series.weights == want.weights
        for i in range(len(want) + 1):
            assert same_float(series.prefix_value(i), want.prefix_value(i))

    def test_query_prepares_no_atom_above_x(self):
        table = sieve(10**6)
        identities.prime_count_via_identity(table, 10.0)
        assert len(staircases._PREPARED[table].locations) == 4
        analytic.mertens_remainder(table, 100.5)
        assert len(staircases._PREPARED[table].locations) == 25
        identities.prime_count_via_identity(table, 30.0)
        assert len(staircases._PREPARED[table].locations) == 25

    def test_prepared_data_die_with_the_table(self):
        table = sieve(1000)
        identities.prime_sum_via_identity(table, 1000)
        ref = weakref.ref(table)
        assert ref in staircases._PREPARED.keyrefs()
        del table
        gc.collect()
        assert ref() is None
        assert ref not in staircases._PREPARED.keyrefs()

    def test_threads_sharing_a_table_see_whole_staircases(self):
        table = sieve(LIMIT)
        rng = random.Random(11)
        queries = [
            (rng.choice(sorted(WEIGHT)), rng.uniform(2.0, LIMIT)) for _ in range(64)
        ]
        want = {q: built(table, *q) for q in queries}
        got = {}
        failures = []

        def worker(part):
            try:
                for kind, x in part:
                    got[kind, x] = prime_staircase(table, kind, x)
            except Exception as exc:  # reported by the assertion below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(queries[i::8],))
                for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        for q in queries:
            assert got[q] == (want[q].locations, want[q].weights)


# the float prime routes, each as f(table, x)
FLOAT_ROUTES = {
    "prime_count": identities.prime_count_via_identity,
    "prime_sum": identities.prime_sum_via_identity,
    "hp_prime_sums": identities.prime_reciprocal_sum_via_prime_sums,
    "hp_from_pi": identities.prime_reciprocal_sum_via_pi,
    "mertens_remainder": analytic.mertens_remainder,
    "hp_mertens": analytic.prime_reciprocal_sum_via_mertens,
    "pi_li": analytic.prime_count_via_li,
    "hp_increment": lambda table, x: analytic.check_reciprocal_sum_increment(
        table, 2.0 + (x - 2.0) / 3.0, x
    ).rhs,
}


class TestRoutesUnchanged:
    @pytest.mark.parametrize("route", sorted(FLOAT_ROUTES))
    def test_float_route_is_bit_identical(self, table, route, monkeypatch):
        fn = FLOAT_ROUTES[route]
        rng = random.Random(route)
        top = 5000.0 if route == "pi_li" else LIMIT
        xs = [2.0, 3.0, 7.5, 97.0] + [rng.uniform(2.0, top) for _ in range(20)]
        prepared = [fn(table, x) for x in xs]
        monkeypatch.setattr(identities, "prime_staircase", rebuilt)
        monkeypatch.setattr(analytic, "prime_staircase", rebuilt)
        for x, value in zip(xs, prepared):
            assert same_float(value, fn(table, x)), x

    @pytest.mark.parametrize(
        "x", [2, 3, Fraction(15, 2), 100, Fraction(19999, 10), 1999]
    )
    def test_exact_routes_equal_built_staircases(self, table, x):
        ps = table.primes_leq(x).tolist()
        h = build_jump_series((p, Fraction(1, p)) for p in ps)
        g = build_jump_series((p, p) for p in ps)
        count = build_jump_series((p, 1) for p in ps)
        pi_route = count.value(x) / Fraction(x) + integrate_kernel_times_step(
            count, Kernel.power(-2), 2, x
        )
        assert identities.prime_count_via_identity(
            table, x, exact=True
        ) == identities.count_via_abel(h, x)
        assert identities.prime_sum_via_identity(
            table, x, exact=True
        ) == identities.power_sum_via_abel(h, x, 1)
        assert identities.prime_reciprocal_sum_via_prime_sums(
            table, x, exact=True
        ) == identities.reciprocal_power_sum_via_abel(g, x, 1)
        assert identities.prime_reciprocal_sum_via_pi(table, x, exact=True) == pi_route
