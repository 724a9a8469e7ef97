"""Prepared prime staircase terms against per-query builds."""

import gc
import math
import random
import sys
import threading
import tracemalloc
import weakref
from array import array
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepsum import analytic, identities, staircases
from stepsum.jump_series import (
    INV_LOG_MINUS_SQ,
    INV_Y_LOG,
    INV_Y_LOG_SQ,
    Kernel,
    build_jump_series,
    integrate_kernel_times_step,
)
from stepsum.primes import sieve

LIMIT = 20000

# the weight a per-query build gives the prime p, per kind
WEIGHT = {
    "reciprocal": lambda p: 1.0 / p,
    "prime": lambda p: float(p),
    "count": lambda p: 1.0,
    "log_weight": lambda p: math.log(p) / p,
}
log_weight = WEIGHT["log_weight"]

# the identities' float prime routes: name -> (route, kind, k, m), the
# route taking x**m * F(x) - m * integral of y**k * F(y) over [2, x]
IDENTITY_ROUTES = {
    "prime_count": (identities.prime_count_via_identity, "reciprocal", 0, 1),
    "prime_sum": (identities.prime_sum_via_identity, "reciprocal", 1, 2),
    "hp_prime_sums": (identities.prime_reciprocal_sum_via_prime_sums, "prime", -3, -2),
    "hp_from_pi": (identities.prime_reciprocal_sum_via_pi, "count", -2, -1),
}

# every (kind, kernel) whose integral of kernel(y) * F(y) a route takes
STEP_INTEGRALS = [
    (kind, Kernel.power(k)) for _, kind, k, _ in IDENTITY_ROUTES.values()
] + [("log_weight", INV_Y_LOG_SQ), ("log_weight", INV_LOG_MINUS_SQ)]


@pytest.fixture(scope="module")
def table():
    return sieve(LIMIT)


def built(table, weight, x):
    """The staircase of ``weight`` over the primes up to x, as
    build_jump_series makes it from the table."""
    ps = table.primes_leq(x).tolist()
    return build_jump_series((float(p), weight(p)) for p in ps)


def same_float(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


# The analytic routes written out on a per-query JumpSeries of the
# log-weight atoms, term grouping and all: the prepared sums must match
# them bit for bit.  Each is f(table, x, t); the increment runs over
# (a, x] with a = 2 + (x - 2) * t, or a = x when t is 1.


def _start(x, t):
    return x if t == 1.0 else 2.0 + (x - 2.0) * t


def by_parts(series, kernel, a, x):
    """(F(x) - F(a), integral of kernel(y) * (F(y) - F(a)) over [a, x]) on
    a built staircase F, as rise_and_integral takes them."""
    below = series.value(a)
    integral = integrate_kernel_times_step(series, kernel, a, x)
    return series.value(x) - below, integral - below * kernel.antiderivative_diff(a, x)


def ref_mertens_remainder(table, x, t):
    return float(built(table, log_weight, x).value(x)) - math.log(x)


def ref_prime_count_via_li(table, x, t):
    rise, integral = by_parts(built(table, log_weight, x), INV_LOG_MINUS_SQ, 2.0, x)
    li = analytic.li_from_2(x).value
    return li + ((rise * (x / math.log(x)) - integral) - li) + 1.0


def ref_prime_reciprocal_sum_via_mertens(table, x, t):
    series = built(table, log_weight, x)
    d = INV_Y_LOG.antiderivative_diff(2.0, x)
    step_part = integrate_kernel_times_step(series, INV_Y_LOG_SQ, 2.0, x)
    remainder = float(series.value(x)) - math.log(x)
    return (1.0 + d) + (step_part - d) + remainder / math.log(x)


def ref_increment_rhs(table, x, t):
    a = _start(x, t)
    rise, integral = by_parts(built(table, log_weight, x), INV_Y_LOG_SQ, a, x)
    d = INV_Y_LOG.antiderivative_diff(a, x)
    return d + ((rise / math.log(x) + integral) - d)


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

# The identity routes' reference is the Abel formula written out on a
# staircase built per query, with the route's own (k, m).


def identity_pair(name):
    """(route, reference) of the identity route ``name``, each f(table, x, t)."""
    fn, kind, k, m = IDENTITY_ROUTES[name]

    def reference(table, x, t):
        series = built(table, WEIGHT[kind], x)
        integral = integrate_kernel_times_step(series, Kernel.power(k), 2.0, x)
        return x**m * series.value(x) - m * integral

    return (lambda table, x, t: fn(table, x)), reference


# name -> (route, reference) for every float prime route
ROUTES = {**ANALYTIC_ROUTES, **{name: identity_pair(name) for name in IDENTITY_ROUTES}}

# query points: anywhere, at a prime, at an integer, at the ends
QUERY_POINTS = st.one_of(
    st.floats(2.0, LIMIT),
    st.sampled_from([2.0, 3.0, 97.0, 1999.0, 19997.0, float(LIMIT)]),
    st.integers(2, LIMIT).map(float),
)


class TestPreparedSlices:
    @settings(max_examples=150, deadline=None)
    @given(
        pair=st.sampled_from(STEP_INTEGRALS),
        x=st.floats(2.0, LIMIT),
        t=st.floats(0.0, 1.0),
        fresh=st.booleans(),
    )
    def test_slice_is_the_built_staircase(self, table, pair, x, t, fresh):
        """For every kind and kernel a route takes, F(x) is the step value
        of the staircase built per query, and the integral of
        kernel(y) * F(y) over [a, x] is integrate_kernel_times_step on it,
        bit for bit."""
        kind, kernel = pair
        if fresh:
            table = sieve(LIMIT)
        a = _start(x, t)
        series = built(table, WEIGHT[kind], x)
        assert same_float(staircases.step(table, kind, x), series.value(x))
        got = staircases.step_integral(table, kind, kernel, a, x)
        assert same_float(got, integrate_kernel_times_step(series, kernel, a, x))

    def test_query_prepares_no_atom_above_x(self):
        table = sieve(10**6)
        identities.prime_count_via_identity(table, 10.0)
        prepared = staircases._PREPARED[table]
        # the steps hold F before the first prime too; the segments run
        # between consecutive primes
        assert len(prepared["reciprocal"]) == 5
        assert len(prepared["reciprocal", Kernel.power(0)]) == 3
        analytic.check_reciprocal_sum_increment(table, 20.0, 30.5)
        assert len(prepared["log_weight"]) == 11
        assert len(prepared["log_weight", INV_Y_LOG_SQ]) == 9
        analytic.prime_count_via_li(table, 100.5)
        assert len(prepared["log_weight"]) == 26
        assert len(prepared["log_weight", INV_LOG_MINUS_SQ]) == 24
        analytic.prime_reciprocal_sum_via_mertens(table, 30.0)
        analytic.mertens_remainder(table, 20.0)
        identities.prime_count_via_identity(table, 30.0)
        assert len(prepared["reciprocal"]) == 11
        assert len(prepared["reciprocal", Kernel.power(0)]) == 9
        assert len(prepared["log_weight", INV_Y_LOG_SQ]) == 9
        assert len(prepared["log_weight"]) == 26
        # step stores are keyed by kind, segment stores by (kind, kernel)
        steps = sorted(key for key in prepared if isinstance(key, str))
        assert steps == ["log_weight", "reciprocal"]
        assert sum(isinstance(key, tuple) for key in prepared) == 3

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
        """After every analytic and identity route at the top of
        sieve(10**5), the prepared stores hold about 8 bytes per prime and
        store, where a staircase kept as a tuple of floats takes 32."""
        table = sieve(10**5)
        x = float(10**5)
        tracemalloc.start()
        try:
            analytic.prime_count_via_li(table, x)
            analytic.mertens_remainder(table, x)
            analytic.prime_reciprocal_sum_via_mertens(table, x)
            analytic.check_reciprocal_sum_increment(table, 2.0, x)
            for route, _, _, _ in IDENTITY_ROUTES.values():
                route(table, x)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        prepared = staircases._PREPARED[table]
        n = len(table.primes)
        stores = list(prepared.values())
        # steps of 4 kinds and 6 segment stores
        assert len(stores) == 10
        assert all(n - 1 <= len(store) <= n + 1 for store in stores)
        mine = snapshot.filter_traces([tracemalloc.Filter(True, staircases.__file__)])
        held = sum(stat.size for stat in mine.statistics("filename"))
        assert 0 < held < 9 * n * len(stores)

    @pytest.mark.parametrize("chunk", [None, 2**12])
    def test_stores_grown_in_chunks_equal_one_pass(self, monkeypatch, chunk):
        """Over sieve(10**6), 78498 primes and so two chunks of the stores'
        default 2**16 (and 20 of 2**12), every store grown by two queries
        equals, bit for bit, the store one pass over the whole table makes:
        the running sums carry across chunks."""
        if chunk is not None:
            monkeypatch.setattr(staircases, "_CHUNK", chunk)
        table = sieve(10**6)
        for x in (54321.5, 999999.0):
            for kind, kernel in STEP_INTEGRALS:
                staircases.step_integral(table, kind, kernel, 2.0, x)
        prepared = staircases._PREPARED[table]
        ps = table.primes.tolist()
        locs = list(map(float, ps))
        for kind, kernel in STEP_INTEGRALS:
            steps = array("d", accumulate(map(WEIGHT[kind], ps), initial=0.0))
            terms = array("d", kernel.segment_terms(steps[1:-1], locs, locs[1:]))
            assert prepared[kind].tobytes() == steps.tobytes()
            assert prepared[kind, kernel].tobytes() == terms.tobytes()

    def test_growing_a_store_holds_one_chunk(self, monkeypatch):
        """Growing the stores of one query over all 78498 primes of
        sieve(10**6) holds, besides the stores' doubles, the Python ints
        and floats of one chunk: with chunks of 2**12 primes the traced
        peak is 0.6 MB over what stays allocated, where one pass over the
        whole table held 5.0 MB over it."""
        monkeypatch.setattr(staircases, "_CHUNK", 2**12, raising=False)
        table = sieve(10**6)
        tracemalloc.start()
        try:
            staircases.step_integral(
                table, "reciprocal", Kernel.power(0), 2.0, 999999.0
            )
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - current < 2**20

    def test_threads_sharing_a_table_see_whole_staircases(self):
        table = sieve(LIMIT)
        rng = random.Random(11)
        queries = [
            (rng.choice(sorted(ROUTES)), rng.uniform(2.0, LIMIT), rng.random())
            for _ in range(72)
        ]
        reference = sieve(LIMIT)
        want = {
            (name, x, t): ROUTES[name][1](reference, x, t) for name, x, t in queries
        }
        got = {}
        failures = []

        def worker(part):
            try:
                for name, x, t in part:
                    got[name, x, t] = ROUTES[name][0](table, x, t)
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


class TestRoutesUnchanged:
    @pytest.mark.parametrize("route", sorted(IDENTITY_ROUTES) + sorted(ANALYTIC_ROUTES))
    def test_float_route_is_bit_identical(self, table, route):
        fn, reference = ROUTES[route]
        rng = random.Random(route)
        xs = [2.0, 3.0, 7.5, 97.0, float(LIMIT)]
        xs += [rng.uniform(2.0, LIMIT) for _ in range(20)]
        for x in xs:
            assert same_float(fn(table, x, 1 / 3), reference(table, x, 1 / 3)), x

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
