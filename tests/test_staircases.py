"""Prepared prime staircases and analytic terms against per-query builds."""

import gc
import math
import random
import sys
import threading
import tracemalloc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepsum import analytic, identities, staircases
from stepsum.jump_series import (
    INV_LOG,
    INV_Y_LOG,
    INV_Y_LOG_SQ,
    Y_OVER_LOG,
    JumpSeries,
    Kernel,
    build_jump_series,
    integrate_kernel_times_step,
    stieltjes_integrate,
)
from stepsum.primes import sieve
from stepsum.staircases import prime_staircase

LIMIT = 20000

# the atoms a per-query build makes for each kind, prime by prime
WEIGHT = {
    "reciprocal": lambda p: 1.0 / p,
    "prime": lambda p: float(p),
    "count": lambda p: 1.0,
}


def log_weight(p):
    return math.log(p) / p


@pytest.fixture(scope="module")
def table():
    return sieve(LIMIT)


def built(table, weight, x, above=None):
    """The staircase of ``weight`` over the primes in (above, x], as
    build_jump_series makes it from the table."""
    ps = table.primes_leq(x).tolist()
    if above is not None:
        ps = [p for p in ps if p > above]
    return build_jump_series((float(p), weight(p)) for p in ps)


def rebuilt(table, kind, x):
    """A drop-in for prime_staircase that builds the staircase afresh."""
    series = built(table, WEIGHT[kind], x)
    return series.locations, series.weights


def same_float(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


# The analytic routes as they were written on a per-query JumpSeries of the
# log-weight atoms, term grouping and all: the prepared sums must match
# them bit for bit.  Each is f(table, x, t); the increment runs over
# (a, x] with a = 2 + (x - 2) * t, or a = x when t is 1.


def _start(x, t):
    return x if t == 1.0 else 2.0 + (x - 2.0) * t


def ref_mertens_remainder(table, x, t):
    return float(built(table, log_weight, x).value(x)) - math.log(x)


def ref_prime_count_via_li(table, x, t):
    series = built(table, log_weight, x, above=2)
    atoms = stieltjes_integrate(Y_OVER_LOG, series, 2.0, x)
    s = atoms - INV_LOG.antiderivative_diff(2.0, x)
    return analytic.li_from_2(x).value + s + 1.0


def ref_prime_reciprocal_sum_via_mertens(table, x, t):
    series = built(table, log_weight, x)
    d = INV_Y_LOG.antiderivative_diff(2.0, x)
    step_part = integrate_kernel_times_step(series, INV_Y_LOG_SQ, 2.0, x)
    remainder = float(series.value(x)) - math.log(x)
    return (1.0 + d) + (step_part - d) + remainder / math.log(x)


def ref_increment_rhs(table, x, t):
    a = _start(x, t)
    series = built(table, log_weight, x, above=a)
    d = INV_Y_LOG.antiderivative_diff(a, x)
    return d + (stieltjes_integrate(INV_LOG, series, a, x) - d)


# name -> (route, reference), each f(table, x, t)
ANALYTIC_ROUTES = {
    "mertens_remainder": (
        lambda table, x, t: analytic.mertens_remainder(table, x),
        ref_mertens_remainder,
    ),
    "pi_li": (
        lambda table, x, t: analytic.prime_count_via_li(table, x),
        ref_prime_count_via_li,
    ),
    "hp_mertens": (
        lambda table, x, t: analytic.prime_reciprocal_sum_via_mertens(table, x),
        ref_prime_reciprocal_sum_via_mertens,
    ),
    "hp_increment": (
        lambda table, x, t: analytic.check_reciprocal_sum_increment(
            table, _start(x, t), x
        ).rhs,
        ref_increment_rhs,
    ),
}

# query points: anywhere, at a prime, at an integer, at the ends
QUERY_POINTS = st.one_of(
    st.floats(2.0, LIMIT),
    st.sampled_from([2.0, 3.0, 97.0, 1999.0, 19997.0, float(LIMIT)]),
    st.integers(2, LIMIT).map(float),
)


class TestPreparedSlices:
    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(sorted(WEIGHT)),
        x=st.floats(2.0, LIMIT),
        fresh=st.booleans(),
    )
    def test_slice_is_the_built_staircase(self, table, kind, x, fresh):
        if fresh:
            table = sieve(LIMIT)
        series = JumpSeries(*prime_staircase(table, kind, x))
        want = built(table, WEIGHT[kind], x)
        assert series.locations == want.locations
        assert series.weights == want.weights
        for i in range(len(want) + 1):
            assert same_float(series.prefix_value(i), want.prefix_value(i))

    def test_query_prepares_no_atom_above_x(self):
        table = sieve(10**6)
        identities.prime_count_via_identity(table, 10.0)
        prepared = staircases._PREPARED[table]
        assert len(prepared.locations) == 4
        analytic.prime_count_via_li(table, 100.5)
        assert len(prepared.atoms[Y_OVER_LOG]) == 25
        analytic.check_reciprocal_sum_increment(table, 20.0, 30.5)
        assert len(prepared.atoms[INV_LOG]) == 10
        analytic.prime_reciprocal_sum_via_mertens(table, 30.0)
        # the steps hold F before the first prime too; the segments run
        # between consecutive primes
        assert len(prepared.steps) == 11
        assert len(prepared.segments[INV_Y_LOG_SQ]) == 9
        analytic.mertens_remainder(table, 20.0)
        identities.prime_count_via_identity(table, 30.0)
        assert len(prepared.locations) == 10
        assert len(prepared.atoms[Y_OVER_LOG]) == 25
        assert len(prepared.steps) == 11

    def test_prepared_data_die_with_the_table(self):
        table = sieve(1000)
        identities.prime_sum_via_identity(table, 1000)
        analytic.prime_reciprocal_sum_via_mertens(table, 1000)
        ref = weakref.ref(table)
        assert ref in staircases._PREPARED.keyrefs()
        del table
        gc.collect()
        assert ref() is None
        assert ref not in staircases._PREPARED.keyrefs()

    def test_analytic_stores_stay_small(self):
        """After every analytic route at the top of sieve(10**5), the
        prepared analytic stores take under 0.5 MB: about 8 bytes per
        prime and store, where tuples of floats or int prefixes would
        take 30 to 50."""
        table = sieve(10**5)
        x = float(10**5)
        tracemalloc.start()
        try:
            analytic.prime_count_via_li(table, x)
            analytic.mertens_remainder(table, x)
            analytic.prime_reciprocal_sum_via_mertens(table, x)
            analytic.check_reciprocal_sum_increment(table, 2.0, x)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        prepared = staircases._PREPARED[table]
        assert len(prepared.steps) == len(table.primes) + 1
        assert prepared.locations == ()
        mine = snapshot.filter_traces([tracemalloc.Filter(True, staircases.__file__)])
        held = sum(stat.size for stat in mine.statistics("filename"))
        assert 0 < held < 0.5 * 2**20

    def test_threads_sharing_a_table_see_whole_staircases(self):
        table = sieve(LIMIT)
        rng = random.Random(11)
        queries = [
            (rng.choice(sorted(ANALYTIC_ROUTES)), rng.uniform(2.0, LIMIT), rng.random())
            for _ in range(48)
        ] + [(kind, rng.uniform(2.0, LIMIT), None) for kind in sorted(WEIGHT) * 6]
        rng.shuffle(queries)
        reference = sieve(LIMIT)
        want = {}
        for name, x, t in queries:
            if name in WEIGHT:
                want[name, x, t] = rebuilt(reference, name, x)
            else:
                want[name, x, t] = ANALYTIC_ROUTES[name][1](reference, x, t)
        got = {}
        failures = []

        def worker(part):
            try:
                for name, x, t in part:
                    if name in WEIGHT:
                        got[name, x, t] = prime_staircase(table, name, x)
                    else:
                        got[name, x, t] = ANALYTIC_ROUTES[name][0](table, x, t)
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
        assert got == want


# the identities' float prime routes, each as f(table, x); their reference
# is the route itself on staircases built per query
IDENTITY_ROUTES = {
    "prime_count": identities.prime_count_via_identity,
    "prime_sum": identities.prime_sum_via_identity,
    "hp_prime_sums": identities.prime_reciprocal_sum_via_prime_sums,
    "hp_from_pi": identities.prime_reciprocal_sum_via_pi,
}


class TestRoutesUnchanged:
    @pytest.mark.parametrize("route", sorted(IDENTITY_ROUTES) + sorted(ANALYTIC_ROUTES))
    def test_float_route_is_bit_identical(self, table, route, monkeypatch):
        if route in IDENTITY_ROUTES:
            fn = reference = lambda table, x, t: IDENTITY_ROUTES[route](table, x)
        else:
            fn, reference = ANALYTIC_ROUTES[route]
        rng = random.Random(route)
        xs = [2.0, 3.0, 7.5, 97.0, float(LIMIT)]
        xs += [rng.uniform(2.0, LIMIT) for _ in range(20)]
        prepared = [fn(table, x, 1 / 3) for x in xs]
        monkeypatch.setattr(identities, "prime_staircase", rebuilt)
        for x, value in zip(xs, prepared):
            assert same_float(value, reference(table, x, 1 / 3)), x

    @settings(max_examples=60, deadline=None)
    @given(
        queries=st.lists(
            st.tuples(
                st.sampled_from(sorted(ANALYTIC_ROUTES)),
                QUERY_POINTS,
                st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])),
            ),
            min_size=1,
            max_size=12,
        ),
        fresh=st.booleans(),
    )
    def test_analytic_queries_in_any_order(self, table, queries, fresh):
        """Whatever has been prepared before, on a fresh table or a warm
        one, every analytic route keeps the bits of its reference."""
        if fresh:
            table = sieve(LIMIT)
        for name, x, t in queries:
            fn, reference = ANALYTIC_ROUTES[name]
            assert same_float(fn(table, x, t), reference(table, x, t)), (name, x, t)

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
