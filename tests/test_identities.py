"""Identity routes against their direct-summation counterparts."""

import math
import random
import tracemalloc
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepsum.errors import DomainError, RangeError, ResourceError
from stepsum.identities import (
    count_via_abel,
    floor_via_identity,
    harmonic_direct,
    harmonic_via_identity,
    iter_harmonic_identity,
    natural_reciprocal_series,
    power_sum_via_abel,
    prime_count_via_identity,
    prime_reciprocal_sum_via_pi,
    prime_reciprocal_sum_via_prime_sums,
    prime_sum_via_identity,
    reciprocal_power_sum_via_abel,
    triangular_via_identity,
)
from stepsum.jump_series import (
    JumpSeries,
    Kernel,
    build_jump_series,
    integrate_kernel_times_step,
    _rational_pow,
)
from stepsum.primes import EXACT_X_CAP, sieve


@pytest.fixture(scope="module")
def table():
    return sieve(10**4)


# -----------------------------------------------------------------------
# Set-based routes on handmade series
# -----------------------------------------------------------------------


class TestSetRoutes:
    def test_count_single_atom(self):
        """The set {3}: one element at or below any x >= 3."""
        h = build_jump_series([(3, Fraction(1, 3))])
        assert count_via_abel(h, 5) == 1
        assert count_via_abel(h, 3) == 1

    def test_count_rejects_point_before_first_jump(self):
        h = build_jump_series([(3, Fraction(1, 3))])
        with pytest.raises(DomainError, match="below the first jump"):
            count_via_abel(h, 2)

    def test_power_sum_two_atoms(self):
        """{2, 3} with reciprocal weights gives the plain power sums."""
        h = build_jump_series([(2, Fraction(1, 2)), (3, Fraction(1, 3))])
        assert power_sum_via_abel(h, 10, 0) == 2
        assert power_sum_via_abel(h, 10, 1) == 5
        assert power_sum_via_abel(h, 10, 2) == 13

    def test_reciprocal_power_sum_single_atom(self):
        """The set {3} through its running-sum series: sum of 1/q at k = 1."""
        g = build_jump_series([(3, 3)])
        assert reciprocal_power_sum_via_abel(g, 10, 1) == Fraction(1, 3)

    def test_reciprocal_power_sum_exponent_validation(self):
        g = build_jump_series([(3, 3)])
        with pytest.raises(DomainError, match="nonnegative"):
            reciprocal_power_sum_via_abel(g, 10, -1)

    def test_empty_series_rejected(self):
        with pytest.raises(DomainError, match="no atoms"):
            count_via_abel(build_jump_series([]), 5)

    @given(st.sets(st.integers(min_value=2, max_value=400), min_size=1, max_size=25))
    def test_counting_law_on_integer_sets(self, elements):
        """Exact route equals the cardinality for any finite integer set."""
        h = build_jump_series((q, Fraction(1, q)) for q in elements)
        x = max(elements) + 1
        assert count_via_abel(h, x) == len(elements)

    @given(st.sets(st.integers(min_value=2, max_value=60), min_size=1, max_size=12))
    def test_power_sum_law_on_integer_sets(self, elements):
        h = build_jump_series((q, Fraction(1, q)) for q in elements)
        x = max(elements)
        assert power_sum_via_abel(h, x, 2) == sum(q**2 for q in elements)

    # (k + 1) - 1 != k at 0.1 and 1.7 and -(k + 2) + 1 != -(k + 1) at 0.2
    # and 0.7: exponents where deriving one from the other can change bits
    @pytest.mark.parametrize("k", [0.1, 0.2, 0.5, 0.7, 1.7, 3.3])
    def test_non_integer_exponents_match_direct_sums(self, k):
        """Both set routes at a real exponent, against sums over the atoms
        and, bit for bit, against their Abel formula written out."""
        rng = random.Random(f"non-integer exponent {k}")
        for _ in range(20):
            qs = sorted({rng.uniform(1.0, 1000.0) for _ in range(rng.randint(1, 60))})
            x = rng.uniform(qs[0], 1000.0)
            included = [q for q in qs if q <= x]
            h = build_jump_series((q, 1.0 / q) for q in qs)
            g = build_jump_series((q, q) for q in qs)
            got = power_sum_via_abel(h, x, k)
            assert got == pytest.approx(math.fsum(q**k for q in included), rel=1e-12)
            integral = integrate_kernel_times_step(h, Kernel.power(k), qs[0], x)
            assert got == _rational_pow(x, k + 1) * h.value(x) - (k + 1) * integral
            got = reciprocal_power_sum_via_abel(g, x, k)
            assert got == pytest.approx(math.fsum(q**-k for q in included), rel=1e-12)
            integral = integrate_kernel_times_step(g, Kernel.power(-(k + 2)), qs[0], x)
            assert got == g.value(x) * _rational_pow(x, -(k + 1)) + (k + 1) * integral


class TestFirstJump:
    """At the first jump an exact Abel sum follows the type rule: an int
    only for the count over integer data at an int x, a Fraction for
    every k >= 1."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_set_routes(self, k):
        h = JumpSeries([2, 3, 5], [1, 1, 1])
        g = JumpSeries([2, 3, 5], [2, 3, 5])
        for got, want in (
            (power_sum_via_abel(h, 2, k), 2 ** (k + 1)),
            (reciprocal_power_sum_via_abel(g, 2, k), Fraction(1, 2**k)),
        ):
            assert got == want
            assert type(got) is Fraction

    def test_count_stays_an_int(self):
        got = count_via_abel(JumpSeries([2, 3, 5], [1, 1, 1]), 2)
        assert got == 2
        assert type(got) is int

    def test_routes_over_the_primes_and_the_naturals(self, table):
        for got, want in (
            (prime_sum_via_identity(table, 2, exact=True), 2),
            (prime_reciprocal_sum_via_prime_sums(table, 2, exact=True), Fraction(1, 2)),
            (triangular_via_identity(1, exact=True), 1),
        ):
            assert got == want
            assert type(got) is Fraction
        got = floor_via_identity(1, exact=True)
        assert got == 1
        assert type(got) is int


# -----------------------------------------------------------------------
# Harmonic numbers
# -----------------------------------------------------------------------


class TestHarmonic:
    def test_h4_exact(self):
        assert harmonic_direct(4, exact=True) == Fraction(25, 12)
        assert harmonic_via_identity(4, exact=True) == Fraction(25, 12)

    def test_h10_exact(self):
        assert harmonic_via_identity(10, exact=True) == Fraction(7381, 2520)

    def test_value_at_one_is_exactly_one(self):
        assert harmonic_direct(1.0) == 1.0
        assert harmonic_via_identity(1.0) == 1.0
        assert harmonic_via_identity(1, exact=True) == 1

    def test_fractional_argument_exact(self):
        """x between jumps: the partial segment term carries the identity."""
        x = Fraction(7, 2)
        direct = harmonic_direct(x, exact=True)
        assert harmonic_via_identity(x, exact=True) == direct

    @pytest.mark.parametrize("x", [10.5, 99.9, 1234.5, 5e4])
    def test_float_route_matches_compensated_direct(self, x):
        direct = harmonic_direct(x)
        via = harmonic_via_identity(x)
        assert via == pytest.approx(direct, rel=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            st.integers(1, 3000),
            st.builds(Fraction, st.integers(7, 3000 * 7), st.just(7)),
        )
    )
    def test_exact_routes_match_a_fraction_per_term(self, x):
        """Both exact routes equal one Fraction added per integer, and are
        Fractions, at integer and rational x."""
        want = Fraction(0)
        for i in range(1, math.floor(x) + 1):
            want += Fraction(1, i)
        for route in (harmonic_direct, harmonic_via_identity):
            got = route(x, exact=True)
            assert type(got) is Fraction
            assert got == want

    def test_float_identity_streams_its_terms(self):
        """At 10**6 the float identity adds its segment terms without
        holding them (a list of them peaked at about 31 MiB), and keeps
        its pinned bits."""
        tracemalloc.start()
        try:
            value = harmonic_via_identity(10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value.hex() == "0x1.cc9137a1df274p+3"
        assert peak <= 2**20

    def test_iterator_matches_direct_running_sum(self):
        total = Fraction(0)
        for n, via in islice(iter_harmonic_identity(2000), 2000):
            total += Fraction(1, n)
            assert via == total

    def test_iterator_validation(self):
        with pytest.raises(DomainError):
            list(iter_harmonic_identity(0))

    def test_domain_validation(self):
        with pytest.raises(DomainError, match="at least 1"):
            harmonic_direct(0.5)
        with pytest.raises(DomainError):
            harmonic_via_identity(float("inf"))


# -----------------------------------------------------------------------
# Floor and triangular numbers
# -----------------------------------------------------------------------


class TestFloorTriangular:
    def test_floor_exact(self):
        assert floor_via_identity(Fraction(15, 2), exact=True) == 7
        assert floor_via_identity(9, exact=True) == 9

    def test_triangular_exact(self):
        assert triangular_via_identity(6, exact=True) == 21
        assert triangular_via_identity(Fraction(13, 2), exact=True) == 21

    def test_floor_float_recovery(self):
        """round() recovers the integer from the float route everywhere."""
        rng = random.Random(1729)
        for _ in range(300):
            x = rng.uniform(1.0, 10**4)
            raw = floor_via_identity(x)
            assert round(raw) == math.floor(x)
            assert abs(raw - round(raw)) <= 1e-9

    def test_series_validation(self):
        with pytest.raises(DomainError):
            natural_reciprocal_series(0)

    @pytest.mark.parametrize("route", [floor_via_identity, triangular_via_identity])
    def test_memory_at_1e5(self, route):
        """The float routes stream the naturals' staircase: at x = 10**5
        they peak below 1 MiB."""
        tracemalloc.start()
        try:
            route(10**5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    @pytest.mark.parametrize(
        "route, bits",
        [
            (floor_via_identity, "0x1.e847fffffed60p+19"),
            (triangular_via_identity, "0x1.d1a968a47e500p+38"),
        ],
    )
    def test_float_bits_pinned(self, route, bits):
        """At 10**6 + 0.5 the streamed routes give the bits of the series
        built in full."""
        assert route(10**6 + 0.5).hex() == bits


# -----------------------------------------------------------------------
# The exact-mode cap
# -----------------------------------------------------------------------


NATURAL_ROUTES = [
    harmonic_direct, harmonic_via_identity, floor_via_identity, triangular_via_identity
]
PRIME_ROUTES = [
    prime_count_via_identity,
    prime_sum_via_identity,
    prime_reciprocal_sum_via_prime_sums,
    prime_reciprocal_sum_via_pi,
]


class TestExactCap:
    @pytest.mark.parametrize("route", NATURAL_ROUTES)
    def test_naturals_refuse_past_the_cap(self, route):
        for x in (EXACT_X_CAP + 1, Fraction(2 * EXACT_X_CAP + 3, 2), 10**7):
            with pytest.raises(ResourceError, match="exceeds the configured cap"):
                route(x, exact=True)

    def test_harmonic_at_the_cap_is_exact(self):
        """The cap is inclusive: the floor of x is what counts."""
        x = Fraction(2 * EXACT_X_CAP + 1, 2)
        assert harmonic_direct(x, exact=True) == harmonic_via_identity(x, exact=True)

    @pytest.mark.parametrize(
        "route, x, error",
        [
            pytest.param(route, EXACT_X_CAP + 1, None, id=route.__name__)
            for route in PRIME_ROUTES
        ]
        + [
            pytest.param(route, x, error, id=f"{route.__name__}-{name}")
            for route in PRIME_ROUTES
            for name, x, error in [
                ("str", "5", DomainError),
                ("nan", float("nan"), DomainError),
                ("below", 1.5, RangeError),
                ("above", Fraction(2 * EXACT_X_CAP + 3, 2), RangeError),
            ]
        ],
    )
    def test_prime_staircases_refuse_past_the_cap(self, route, x, error):
        """Past the cap, exact mode refuses x and float mode computes.  A
        point the table cannot take (not real, nan, outside the table) is
        refused by table.pi in both modes, before x is converted."""
        table = sieve(EXACT_X_CAP + 1)
        if error is None:
            with pytest.raises(ResourceError, match="exceeds the configured cap"):
                route(table, x, exact=True)
            assert route(table, x) > 0
            return
        for exact in (False, True):
            with pytest.raises(error, match="query point"):
                route(table, x, exact=exact)

    def test_exact_prime_staircase_peak_memory(self):
        """The exact staircase at x = 20000 peaks below 2 MiB (0.9 MiB
        measured): its running sums are kept in runs, each over its own
        lcm; over one lcm of every weight it took 8.9 MiB."""
        tracemalloc.start()
        try:
            prime_count_via_identity(sieve(20000), 20000, exact=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20

    @pytest.mark.parametrize(
        "route, want",
        [
            (floor_via_identity, EXACT_X_CAP),
            (triangular_via_identity, EXACT_X_CAP * (EXACT_X_CAP + 1) // 2),
        ],
    )
    def test_exact_naturals_at_the_cap_peak_memory(self, route, want):
        """The exact staircase of the naturals at the cap peaks below
        16 MiB (9.3 MiB measured); over one lcm of every weight it took
        172.6 MiB."""
        tracemalloc.start()
        try:
            got = route(EXACT_X_CAP, exact=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak <= 16 * 2**20


# -----------------------------------------------------------------------
# Prime routes
# -----------------------------------------------------------------------


class TestPrimeRoutes:
    def test_prime_count_exact(self, table):
        assert prime_count_via_identity(table, 100, exact=True) == 25
        assert prime_count_via_identity(table, 10**4, exact=True) == 1229

    def test_prime_sum_exact(self, table):
        assert prime_sum_via_identity(table, 100, exact=True) == 1060
        want = table.prime_power_sum(10**4, 1)
        assert prime_sum_via_identity(table, 10**4, exact=True) == want

    def test_reciprocal_routes_exact_at_7(self, table):
        want = Fraction(247, 210)
        assert prime_reciprocal_sum_via_prime_sums(table, 7, exact=True) == want
        assert prime_reciprocal_sum_via_pi(table, 7, exact=True) == want

    def test_reciprocal_routes_agree_with_direct(self, table):
        for x in (2.0, 29.0, 97.5, 1000.0, 9973.0):
            direct = table.reciprocal_sum(x)
            a = prime_reciprocal_sum_via_prime_sums(table, x)
            b = prime_reciprocal_sum_via_pi(table, x)
            assert a == pytest.approx(direct, rel=1e-13)
            assert b == pytest.approx(direct, rel=1e-13)

    def test_prime_count_float_midpoints(self, table):
        for x in (2.5, 10.0, 541.5, 7919.0):
            via = prime_count_via_identity(table, x)
            assert round(via) == table.pi(x)


# float.hex of each float prime route on sieve(10**4), frozen from the
# implementation that integrated a JumpSeries of the prime atoms per query;
# the routes now read prepared step values and segment sums and must keep
# every bit
PIN_XS = (2.0, 3.0, 7.5, 97.0, 1999.0, 5000.5, 10**4)
PINNED = {
    prime_count_via_identity: (
        "0x1.0000000000000p+0", "0x1.0000000000000p+1", "0x1.ffffffffffffcp+1",
        "0x1.9000000000000p+4", "0x1.2f00000000020p+8", "0x1.4e80000000010p+9",
        "0x1.3340000000030p+10",
    ),
    prime_sum_via_identity: (
        "0x1.0000000000000p+1", "0x1.3ffffffffffffp+2", "0x1.0fffffffffffcp+4",
        "0x1.0900000000000p+10", "0x1.0e8e800000040p+18", "0x1.79f6800000000p+20",
        "0x1.5e1f300000000p+22",
    ),
    prime_reciprocal_sum_via_prime_sums: (
        "0x1.0000000000000p-1", "0x1.aaaaaaaaaaaabp-1", "0x1.2d1ad1ad1ad1bp+0",
        "0x1.cd856d972bd10p+0", "0x1.256ef3c262a49p+1", "0x1.33dd38d0bede5p+1",
        "0x1.3dd4e889b014ap+1",
    ),
    prime_reciprocal_sum_via_pi: (
        "0x1.0000000000000p-1", "0x1.aaaaaaaaaaaaap-1", "0x1.2d1ad1ad1ad1bp+0",
        "0x1.cd856d972bd10p+0", "0x1.256ef3c262a48p+1", "0x1.33dd38d0bede5p+1",
        "0x1.3dd4e889b014ap+1",
    ),
}


@pytest.mark.parametrize("route", list(PINNED), ids=lambda f: f.__name__)
def test_float_prime_routes_keep_their_pinned_bits(table, route):
    got = [route(table, x) for x in PIN_XS]
    assert got == [float.fromhex(h) for h in PINNED[route]]
