"""Construction, evaluation, and integration of jump series."""

import math
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepsum import identities, jump_series
from stepsum.errors import DomainError
from stepsum.identities import power_sum_via_abel, reciprocal_power_sum_via_abel
from stepsum.primes import sieve
from stepsum.jump_series import (
    INV_LOG,
    INV_LOG_MINUS_SQ,
    INV_Y_LOG,
    POWER_ZERO,
    JumpSeries,
    Kernel,
    build_jump_series,
    integrate_kernel_times_step,
    stieltjes_integrate,
    _rational_pow,
)

# frozen reference: integral of 1/log t from 2 to 10, mpmath.li(10, offset=True)
LI2_10 = 5.12043572466980515


# -----------------------------------------------------------------------
# Construction
# -----------------------------------------------------------------------


class TestBuild:
    def test_atoms_sorted_and_merged(self):
        """Duplicate locations merge by weight; output is location-sorted."""
        s = build_jump_series([(5, 1), (2, 3), (5, 2), (3, 4)])
        assert s.locations == (2, 3, 5)
        assert s.weights == (3, 4, 3)

    def test_zero_weight_dropped(self):
        s = build_jump_series([(2, 1), (3, 0), (4, 5), (4, -5)])
        assert s.locations == (2,)

    def test_empty_series(self):
        s = build_jump_series([])
        assert len(s) == 0
        assert s.domain_min is None
        assert s.value(100.0) == 0

    def test_exactness_follows_the_data(self):
        assert build_jump_series([(2, Fraction(1, 2))]).is_exact
        assert build_jump_series([(2, 1)]).is_exact
        assert not build_jump_series([(2.0, 0.5)]).is_exact
        assert not build_jump_series([(2, 0.5)]).is_exact

    @pytest.mark.parametrize(
        "atom",
        [(0, 1), (-3, 1), (float("nan"), 1), (float("inf"), 1)],
    )
    def test_bad_locations_rejected(self, atom):
        with pytest.raises(DomainError):
            build_jump_series([atom])

    def test_non_real_location_rejected(self):
        with pytest.raises(DomainError, match="location must be a real number"):
            build_jump_series([("2", 1)])

    def test_repr(self):
        assert repr(JumpSeries([], [])) == "JumpSeries(empty)"
        s = JumpSeries([2, Fraction(7, 2), 5], [1, 1, 1])
        assert repr(s) == "JumpSeries(3 atoms on [2, 5])"

    def test_bad_weights_rejected(self):
        with pytest.raises(DomainError, match="weight"):
            build_jump_series([(2, float("nan"))])
        with pytest.raises(DomainError, match="weight"):
            build_jump_series([(2, "x")])
        with pytest.raises(DomainError):
            build_jump_series([(2, True)])

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=60),
                st.integers(min_value=-3, max_value=3),
            ),
            max_size=40,
        )
    )
    def test_total_weight_preserved(self, atoms):
        """Merging and zero-dropping never change the total mass."""
        s = build_jump_series(atoms)
        assert sum(s.weights) == sum(w for _, w in atoms)
        assert s.value(1000) == sum(w for _, w in atoms)


# -----------------------------------------------------------------------
# Evaluation
# -----------------------------------------------------------------------


class TestEvaluate:
    def test_right_inclusive_at_jump(self):
        """F includes the jump at its own location: F(3) = 1/2 + 1/3."""
        s = build_jump_series([(3, Fraction(1, 3)), (2, Fraction(1, 2))])
        assert s.value(3) == Fraction(5, 6)
        assert s.value(2) == Fraction(1, 2)
        assert s.value(2.5) == Fraction(1, 2)
        assert s.value(1.99) == 0

    def test_below_first_jump_is_zero(self):
        s = build_jump_series([(10, 7)])
        assert s.value(9.999999) == 0
        assert s(10) == 7

    def test_non_finite_point_rejected(self):
        s = build_jump_series([(1, 1)])
        with pytest.raises(DomainError, match="finite"):
            s.value(float("inf"))

    def test_non_real_point_rejected(self):
        s = build_jump_series([(1, 1)])
        with pytest.raises(DomainError, match="must be real"):
            s.value(1j)

    @given(st.sets(st.integers(min_value=1, max_value=400), min_size=1, max_size=30))
    def test_jump_size_matches_weight(self, locs):
        """F steps by exactly the atom weight across each location."""
        s = build_jump_series((loc, 2) for loc in locs)
        for loc in locs:
            assert s.value(loc) - s.value(loc - 1) == 2


# -----------------------------------------------------------------------
# Kernels
# -----------------------------------------------------------------------


class TestKernels:
    def test_power_keeps_rationals_rational(self):
        k = Kernel.power(-2)
        assert k(3) == Fraction(1, 9)
        assert k(Fraction(3, 2)) == Fraction(4, 9)

    def test_log_kernels_need_y_above_one(self):
        for kernel in (INV_LOG, INV_Y_LOG):
            with pytest.raises(DomainError, match="undefined"):
                kernel(1.0)
        assert INV_LOG(math.e) == pytest.approx(1.0)

    def test_interval_order_checked(self):
        with pytest.raises(DomainError, match="out of order"):
            POWER_ZERO.check_interval(5, 3)

    def test_every_exported_kernel_has_a_closed_form(self):
        kernels = [
            getattr(jump_series, name)
            for name in jump_series.__all__
            if isinstance(getattr(jump_series, name), Kernel)
        ]
        assert len(kernels) == 5
        assert all(callable(k.antiderivative_diff) for k in kernels)

    @pytest.mark.parametrize(
        "l, r", [(2.0, 10.0), (3.0, 50.0), (99991.0, 100003.0), (2.0, 2.0001)]
    )
    @pytest.mark.parametrize("kernel", [INV_LOG, INV_LOG_MINUS_SQ])
    def test_ei_kernels_match_reference_quadrature(self, kernel, l, r):
        """Against mpmath's quadrature of the kernel at 30 digits."""
        mpmath = pytest.importorskip("mpmath")
        integrand = {
            "inv_log": lambda t: 1 / mpmath.log(t),
            "inv_log_minus_sq": lambda t: (mpmath.log(t) - 1) / mpmath.log(t) ** 2,
        }[kernel.tag]
        with mpmath.workdps(30):
            reference = float(mpmath.quad(integrand, [l, r]))
        assert kernel.antiderivative_diff(l, r) == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize(
        "l, r",
        [(2.0, 3.0), (2.0, 10.0), (3.0, 50.0), (2.0, 1e5), (97.0, 1e8), (1.5, 1e300)]
        + [(l, l * (1 + 2**-40)) for l in (2.0, 2.5, 3.0, 97.0, 99991.0, 1e8, 1e300)],
    )
    def test_y_over_log_derivative_integrates_to_y_over_log(self, l, r):
        """INV_LOG_MINUS_SQ's integral over [l, r] is r/log r - l/log l to
        1e-14 relative, on wide segments and on r within 2**-40 of l, where
        the two quotients agree to about 12 digits (measured: at most 5 ulps,
        at l = 2.5, near the kernel's zero at e)."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            exact = r / mpmath.log(r) - l / mpmath.log(mpmath.mpf(l))
            got = INV_LOG_MINUS_SQ.antiderivative_diff(l, r)
            assert abs(got - exact) <= 1e-14 * abs(exact)

    def test_power_exponent_must_be_real(self):
        with pytest.raises(DomainError, match="must be real"):
            Kernel.power("2")

    def test_power_kernels_equal_by_exponent_only(self):
        assert Kernel.power(2) == Kernel.power(Fraction(2))
        assert Kernel.power(2) != Kernel.power(3)
        assert Kernel.power(0) != INV_LOG
        assert INV_LOG != Kernel.power(0)

    def test_integral_exponents_of_other_types_are_ints(self):
        for k in (np.int64(3), Fraction(6, 2)):
            ki = Kernel.power(k).integer_exponent
            assert (ki, type(ki)) == (3, int)
        assert Kernel.power(Fraction(3, 2)).integer_exponent is None

    def test_power_antiderivative_over_a_point_is_zero(self):
        assert Kernel.power(2).antiderivative_diff(3.0, 3.0) == 0.0
        assert Kernel.power(-3).antiderivative_diff(3.0, 3.0) == 0.0

    def test_negative_power_needs_positive_lower_bound(self):
        with pytest.raises(DomainError, match="exceed"):
            Kernel.power(-2).check_interval(0, 3)


# -----------------------------------------------------------------------
# Integral of kernel * F
# -----------------------------------------------------------------------


class TestIntegrateKernelTimesStep:
    def test_single_atom_constant_piece(self):
        """One atom of weight 1/3 at 3: the integral over [3, 5] is 2/3.

        Regression guard: the result must stay rational, not decay to a
        float through the division by the shifted exponent.
        """
        s = build_jump_series([(3, Fraction(1, 3))])
        out = integrate_kernel_times_step(s, POWER_ZERO, 3, 5)
        assert out == Fraction(2, 3)
        assert isinstance(out, Fraction)

    def test_reciprocal_staircase(self):
        """Atoms (i, 1/i) for i <= 4: the running sums integrate to 13/3."""
        s = build_jump_series((i, Fraction(1, i)) for i in range(1, 5))
        assert integrate_kernel_times_step(s, POWER_ZERO, 1, 4) == Fraction(13, 3)

    def test_degenerate_and_empty(self):
        s = build_jump_series([(2, 1)])
        assert integrate_kernel_times_step(s, POWER_ZERO, 3, 3) == 0
        empty = build_jump_series([])
        assert integrate_kernel_times_step(empty, POWER_ZERO, 1, 9) == 0.0

    def test_exact_empty_range_follows_the_type_rule(self):
        """An empty range takes the exact path: an int only for y**0 over
        integer data, a Fraction otherwise, at an atom or not."""
        ints = JumpSeries([2, 3, 5], [1, 1, 1])
        fractions = JumpSeries([2, 3, 5], [Fraction(1, 2), Fraction(1, 3), 1])
        empty = JumpSeries([], [])
        out = integrate_kernel_times_step(ints, POWER_ZERO, 3, 3)
        assert out == 0
        assert type(out) is int
        for series, k, a, b in (
            (ints, 1, 3, 3),
            (ints, -2, 4, 4),
            (ints, 0, Fraction(7, 2), Fraction(7, 2)),
            (fractions, 0, 3, 3),
            (empty, 1, 3, 3),
            (empty, 1, 1, 9),
        ):
            out = integrate_kernel_times_step(series, Kernel.power(k), a, b)
            assert out == 0
            assert type(out) is Fraction

    def test_bounds_out_of_order(self):
        s = build_jump_series([(2, 1)])
        with pytest.raises(DomainError, match="out of order"):
            integrate_kernel_times_step(s, POWER_ZERO, 5, 3)

    def test_positive_power_exact(self):
        # integral of y * F over [1, 3] with unit jumps at 1 and 2:
        # F is 1 on [1, 2) and 2 on [2, 3], so 1*(4-1)/2 + 2*(9-4)/2
        s = build_jump_series([(1, 1), (2, 1)])
        out = integrate_kernel_times_step(s, Kernel.power(1), 1, 3)
        assert out == Fraction(13, 2)

    def test_negative_power_exact_over_integer_atoms(self):
        s = build_jump_series([(2, 1), (3, 1)])
        out = integrate_kernel_times_step(s, Kernel.power(-2), 2, 4)
        # 1 * (1/2 - 1/3) + 2 * (1/3 - 1/4) = 1/6 + 1/6
        assert out == Fraction(1, 3)

    def test_float_path_matches_exact(self):
        exact = build_jump_series([(2, Fraction(1, 2)), (3, Fraction(1, 3))])
        inexact = build_jump_series([(2.0, 0.5), (3.0, 1 / 3)])
        a = integrate_kernel_times_step(exact, Kernel.power(2), 2, 10)
        b = integrate_kernel_times_step(inexact, Kernel.power(2), 2.0, 10.0)
        assert b == pytest.approx(float(a), rel=1e-14)

    @pytest.mark.parametrize(
        "locations, weights, kernel, a, b, bits",
        [
            # F is 0 on [3, 4), which gives no term
            ([2.0, 3.0, 4.0], [1.0, -1.0, 2.0], Kernel.power(1), 2, 5, (11.5).hex()),
            # F is 0 on [1e-200, 2): its ends are not rounded, and
            # pow(1e-200, -2.0) would overflow
            ([2, 3], [1, 1], Kernel.power(-3), 1e-200, 5, "0x1.1fdb97530eca8p-3"),
            # 3 and 3 + 10**-30 round to one float: that segment is dropped
            (
                [2, 3, 3 + Fraction(1, 10**30), 5],
                [1, 2, 3, 4],
                INV_LOG,
                2,
                6,
                "0x1.fa43b2adde552p+3",
            ),
        ],
    )
    def test_float_path_skips_zero_steps_and_collapsed_segments(
        self, locations, weights, kernel, a, b, bits
    ):
        """The float path drops the segments where F is 0 and those whose
        ends round to one float: pinned bit for bit."""
        s = JumpSeries(locations, weights)
        assert integrate_kernel_times_step(s, kernel, a, b).hex() == bits

    def test_closed_form_inv_log_matches_li(self):
        """A unit step from 2 against 1/log y reproduces the offset li
        through the kernel's closed-form Ei difference."""
        s = build_jump_series([(2.0, 1.0)])
        out = integrate_kernel_times_step(s, INV_LOG, 2.0, 10.0)
        assert out == pytest.approx(LI2_10, abs=1e-10)

    @settings(max_examples=40)
    @given(
        st.sets(st.integers(min_value=1, max_value=50), min_size=1, max_size=12),
        st.integers(min_value=2, max_value=20),
        st.integers(min_value=2, max_value=20),
    )
    def test_additive_over_adjacent_intervals(self, locs, cut, rest):
        """Splitting the interval never changes the exact integral."""
        s = build_jump_series((loc, Fraction(1, loc)) for loc in locs)
        a, b, c = 1, 1 + cut, 1 + cut + rest
        whole = integrate_kernel_times_step(s, Kernel.power(1), a, c)
        split = integrate_kernel_times_step(
            s, Kernel.power(1), a, b
        ) + integrate_kernel_times_step(s, Kernel.power(1), b, c)
        assert whole == split


# -----------------------------------------------------------------------
# The integer path of exact integration, against a Fraction reference
# -----------------------------------------------------------------------

GRID = 2**24
# jumps per run of an exact series' running sums
RUN = jump_series._RUN


def segment_reference(atoms, k, a, b):
    """Integral of y**k * F(y) over [a, b] in plain Fractions, one constancy
    segment at a time: F-value times the antiderivative difference, the
    F-value carried as a running sum of the weights."""
    m = k + 1
    value, total, left = Fraction(0), Fraction(0), a
    for q, w in sorted(atoms):
        if a < q < b:
            total += value * (q**m - left**m) / m
            left = q
        if q < b:
            value += w
    return total + value * (b**m - left**m) / m


@st.composite
def grid_atoms_and_bounds(draw):
    """Locations on the 1/2**24 grid with weight 1/q or q, and bounds that
    are atoms, finer dyadics, or non-dyadic rationals."""
    nums = draw(
        st.lists(st.integers(1, 64 * GRID), min_size=1, max_size=12, unique=True)
    )
    locations = [Fraction(n, GRID) for n in nums]
    reciprocal = draw(st.booleans())
    atoms = [(q, 1 / q if reciprocal else q) for q in locations]
    bound = st.one_of(
        st.sampled_from(locations),
        st.builds(Fraction, st.integers(1, 64 * 2**31), st.just(2**31)),
        st.builds(
            Fraction, st.integers(1, 64 * 3**7), st.sampled_from([3**7, 5 * 7 * 11])
        ),
    )
    a, b = sorted((draw(bound), draw(bound)))
    return atoms, a, b


class TestIntegerPath:
    @settings(max_examples=200, deadline=None)
    @given(grid_atoms_and_bounds(), st.sampled_from([-5, -4, -3, -2, 0, 1, 2, 3]))
    def test_matches_segment_reference(self, case, k):
        """Off-grid bounds would expose a wrong rescaling of the end
        segments; the result stays rational whatever the exponent."""
        atoms, a, b = case
        s = build_jump_series(atoms)
        out = integrate_kernel_times_step(s, Kernel.power(k), a, b)
        assert not isinstance(out, float)
        assert out == segment_reference(atoms, k, a, b)

    def test_integer_data_keeps_int_results(self):
        """k = 0 over integer locations, weights and bounds stays an int."""
        s = build_jump_series([(2, 1), (5, 3)])
        out = integrate_kernel_times_step(s, POWER_ZERO, 1, 7)
        assert out == 3 + 4 * 2
        assert type(out) is int

    def test_constructor_fills_the_integer_form(self):
        """An exact series holds its integer form from construction, and
        its locations and weights are the caller's tuples."""
        locations = (2, Fraction(7, 2), 5)
        weights = (Fraction(1, 2), 3, Fraction(-2, 5))
        s = JumpSeries(locations, weights)
        assert s._integer is not None
        assert (s._integer.loc_den, s._integer.locations) == (2, (4, 7, 10))
        assert s.locations is locations and s.weights is weights
        assert JumpSeries((), ())._integer.runs == ((1, (0,)),)
        assert JumpSeries((2.0,), (1.0,))._integer is None

    @pytest.mark.parametrize(
        "locations, weights",
        [
            # non-coprime denominators: the lcm is 60, not their product
            (
                [Fraction(3, 2), Fraction(7, 3), 4, Fraction(9, 2)],
                [Fraction(1, 4), Fraction(1, 6), Fraction(-1, 10), Fraction(1, 15)],
            ),
            ([2, 3, 5, 7], [1, -2, 3, 5]),
            ([], []),
            # three runs, each over its own lcm
            (
                [Fraction(i, 3) for i in range(1, 2 * RUN + 40)],
                [Fraction((-1) ** i, i) for i in range(1, 2 * RUN + 40)],
            ),
            # integer weights are in runs of RUN too, each over 1
            (
                list(range(1, 2 * RUN + 40)),
                [(-1) ** i * i for i in range(2 * RUN + 39)],
            ),
        ],
    )
    def test_integer_form_keeps_one_lcm_per_run(self, locations, weights):
        """The locations are ints over math.lcm of their denominators; each
        run of RUN weights is math.lcm of its denominators and the running
        sums of a plain loop over it; ``integral`` says every weight is an
        integer."""
        form = JumpSeries(locations, weights)._integer
        loc_den = math.lcm(*(Fraction(v).denominator for v in locations))
        assert form.loc_den == loc_den
        assert form.locations == tuple(Fraction(v) * loc_den for v in locations)
        assert form.integral == all(Fraction(w).denominator == 1 for w in weights)
        runs = []
        for start in range(0, len(weights), RUN):
            run = [Fraction(w) for w in weights[start : start + RUN]]
            den = math.lcm(*(w.denominator for w in run))
            prefix = [0]
            for w in run:
                prefix.append(prefix[-1] + w.numerator * (den // w.denominator))
            runs.append((den, tuple(prefix)))
        assert form.runs == (tuple(runs) or ((1, (0,)),))
        sums = [v for _, prefix in form.runs for v in prefix]
        assert all(type(v) is int for v in (*form.locations, *sums))


@st.composite
def long_exact_series(draw):
    """More than two runs of atoms at rational locations over a drawn
    denominator (mostly not a power of two), with int and Fraction weights
    of both signs (or ints only), and bounds a <= b drawn at atoms, at run
    edges, between atoms, before the first atom and past the last.  Half
    the time the series has four to six runs and both bounds lie from the
    last atom of the third run on, so that whole runs come before a."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    late = draw(st.booleans())
    if late:
        n = draw(st.integers(3 * RUN + 2, 6 * RUN))
    else:
        n = draw(st.integers(2 * RUN + 2, 3 * RUN + 1))
    # the first atom a bound is drawn at or after
    low = 3 * RUN if late else 0
    den = draw(st.sampled_from([1, 3, 7, 10, 12]))
    ints_only = draw(st.booleans())
    position, locations, weights = 0, [], []
    for _ in range(n):
        position += rng.randint(1, 3 * den)
        locations.append(Fraction(position, den))
        w = rng.choice([-1, 1]) * rng.randint(1, 9)
        if not ints_only and rng.random() < 0.5:
            w = Fraction(w, rng.randint(2, 30))
        weights.append(w)

    def bound(kind):
        if kind == "atom":
            return rng.choice(locations[low:])
        if kind == "edge":
            edge = rng.choice(range(max(low, RUN), n - 1, RUN))
            return locations[edge + rng.choice([-1, 0, 1])]
        if kind == "between":
            i = rng.randrange(low, n - 1)
            return (2 * locations[i] + locations[i + 1]) / 3
        if kind == "before":
            return locations[0] / 2
        return locations[-1] + Fraction(rng.randint(1, 20), 7)

    names = ["atom", "edge", "between", "past"] + ([] if late else ["before"])
    kinds = st.sampled_from(names)
    a, b = sorted((bound(draw(kinds)), bound(draw(kinds))))
    return locations, weights, a, b


class TestLongExactSeries:
    @settings(max_examples=150, deadline=None)
    @given(long_exact_series(), st.sampled_from([-5, -4, -3, -2, 0, 1, 2, 3]))
    def test_routes_match_plain_fraction_sums(self, case, k):
        """Across runs, the exact integral and step values equal plain
        Fraction segment and weight sums, in value and type, and so do the
        two Abel power-sum routes against plain sums over the atoms."""
        locations, weights, a, b = case
        s = JumpSeries(locations, weights)
        out = integrate_kernel_times_step(s, Kernel.power(k), a, b)
        assert out == segment_reference(list(zip(locations, weights)), k, a, b)
        ints = all(Fraction(v).denominator == 1 for v in (*locations, *weights, a, b))
        assert type(out) is (int if k == 0 and ints else Fraction)
        int_steps = all(type(w) is int for w in weights)
        for x in (a, b):
            step = s.value(x)
            assert step == sum(w for q, w in zip(locations, weights) if q <= x)
            assert type(step) is (int if int_steps else Fraction)
        if b < locations[0]:
            return
        atoms = [(q, w) for q, w in zip(locations, weights) if q <= b]
        assert power_sum_via_abel(s, b, k) == sum(w * q ** (k + 1) for q, w in atoms)
        if k >= 0:
            want = sum(w / q ** (k + 1) for q, w in atoms)
            assert reciprocal_power_sum_via_abel(s, b, k) == want


@st.composite
def abel_cases(draw):
    """An exact series of one to three runs, with int, Fraction or mixed
    weights of both signs, at int or rational locations, and a point x at
    its first jump, at an atom, at a run edge, between atoms or past the
    last atom; x is an int where its value is one, half the time."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    runs = draw(st.integers(1, 3))
    n = draw(st.integers((runs - 1) * RUN + 1, runs * RUN))
    den = draw(st.sampled_from([1, 3, 7, 2**24]))
    weights_kind = draw(st.sampled_from(["int", "fraction", "mixed"]))
    position, locations, weights = 0, [], []
    for _ in range(n):
        position += rng.randint(1, 3 * den)
        locations.append(position if den == 1 else Fraction(position, den))
        w = rng.choice([-1, 1]) * rng.randint(1, 9)
        mixed = weights_kind == "mixed" and rng.random() < 0.5
        if weights_kind == "fraction" or mixed:
            w = Fraction(w, rng.randint(2, 30))
        weights.append(w)
    kind = draw(st.sampled_from(["first", "atom", "edge", "between", "past"]))
    if kind == "first":
        x = locations[0]
    elif kind == "atom":
        x = rng.choice(locations)
    elif kind == "edge":
        x = locations[min(n - 1, rng.choice([RUN, 2 * RUN]) + rng.choice([-1, 0, 1]))]
    elif kind == "between" and n > 1:
        i = rng.randrange(n - 1)
        x = (2 * Fraction(locations[i]) + locations[i + 1]) / 3
    else:
        x = Fraction(locations[-1]) + Fraction(rng.randint(1, 20), 7)
    x = Fraction(x)
    if x.denominator == 1 and draw(st.booleans()):
        x = int(x)
    return locations, weights, x


class TestExactAbel:
    @settings(max_examples=150, deadline=None)
    @given(abel_cases(), st.sampled_from([-5, -4, -3, -2, 0, 1, 2, 3]))
    def test_one_pass_equals_step_value_and_integral(self, case, k):
        """The exact Abel pass over one run tree gives x**m * F(x) minus m
        times the integral from the first jump, as the step value and the
        integral give it apart: the same rational, of the same type."""
        locations, weights, x = case
        s = JumpSeries(locations, weights)
        m = k + 1
        a = s.domain_min
        want = _rational_pow(x, m) * s.value(x) - m * integrate_kernel_times_step(
            s, Kernel.power(k), a, x
        )
        got = identities._abel_over(s, x, k, m)
        assert got == want
        assert type(got) is type(want)
        ratio = jump_series._exact_abel(s, x, m)
        assert Fraction(*ratio) == want
        typed = jump_series._abel_value(s, x, m, ratio)
        assert typed == want
        assert type(typed) is type(want)

    def test_int_only_where_the_terms_are_ints(self):
        """m = 1 over integer locations and weights at an int x is an int,
        as x * F(x) - integral is, even where they are Fractions of
        denominator 1; a Fraction x, another m, a fractional weight or a
        fractional location gives a Fraction."""
        for weights in ([1, -2, 4], [1, -2, Fraction(4)]):
            out = identities._abel_over(JumpSeries([2, 3, 5], weights), 5, 0, 1)
            assert out == 2 * 1 + 3 * -2 + 5 * 4
            assert type(out) is int
        for x, k, locations, weights in (
            (Fraction(5), 0, [2, 3, 5], [1, -2, 4]),
            (5, 1, [2, 3, 5], [1, -2, 4]),
            (5, 0, [2, 3, 5], [Fraction(1, 2), -2, 4]),
            (5, 0, [2, Fraction(7, 2), 5], [1, -2, 4]),
        ):
            out = identities._abel_over(JumpSeries(locations, weights), x, k, k + 1)
            assert type(out) is Fraction

    @pytest.mark.parametrize("ints", [True, False])
    def test_routes_take_the_type_of_abel(self, ints):
        """Over two runs, with int weights in the first and Fraction weights
        in the second unless ``ints``, the three exact Abel routes give
        the value and type that _abel gives of the step value and the
        integral: ints only where every weight is an integer, even at an x
        in the run of int weights."""
        locations = list(range(1, 2 * RUN + 1))
        weights = [1] * RUN + [q if ints else Fraction(1, q) for q in locations[RUN:]]
        s = JumpSeries(locations, weights)
        for x in (5, RUN, 2 * RUN):
            for got, k in (
                (identities.count_via_abel(s, x), 0),
                (power_sum_via_abel(s, x, 2), 2),
                (reciprocal_power_sum_via_abel(s, x, 1), -3),
            ):
                integral = integrate_kernel_times_step(s, Kernel.power(k), 1, x)
                want = identities._abel(x, k + 1, s.value(x), integral)
                assert got == want
                assert type(got) is type(want)
                if k == 0:
                    assert type(got) is (int if ints else Fraction)


class TestExactSeriesFromInts:
    """jump_series._exact_series: the exact staircases the package builds
    from ints, without a Fraction per atom."""

    @settings(max_examples=100, deadline=None)
    @given(abel_cases(), st.integers(1, 6), st.sampled_from([-4, -2, 0, 1, 3]))
    def test_same_series_as_from_fractions(self, case, c, k):
        """Built from ints, with every non-integer location and weight
        scaled by c out of lowest terms, a series has the locations, the
        weights, the step values, the integrals and the Abel sums of the
        one built from Fractions, the results of the same types; only the
        run denominators may differ.  A location or weight is an int where
        its denominator is 1."""
        locations, weights, x = case
        reference = JumpSeries(locations, weights)
        fracs = [Fraction(q) for q in locations]
        loc_den = math.lcm(*(q.denominator for q in fracs))
        loc_den *= c if loc_den > 1 else 1
        ws = [Fraction(w) for w in weights]
        scale = [c if w.denominator > 1 else 1 for w in ws]
        s = jump_series._exact_series(
            loc_den,
            [int(q * loc_den) for q in fracs],
            [w.numerator * f for w, f in zip(ws, scale)],
            [w.denominator * f for w, f in zip(ws, scale)],
        )
        m = k + 1
        got = identities._abel_over(s, x, k, m)
        want = identities._abel_over(reference, x, k, m)
        assert (got, type(got)) == (want, type(want))
        # the Abel sum reads neither the locations nor the weights
        assert s._locations is None and s._weights is None
        a = reference.domain_min
        got = integrate_kernel_times_step(s, Kernel.power(k), a, x)
        want = integrate_kernel_times_step(reference, Kernel.power(k), a, x)
        assert (got, type(got)) == (want, type(want))
        # the float path over an exact series reads the weights
        minus_one = Kernel.power(-1)
        got = integrate_kernel_times_step(s, minus_one, a, x)
        assert got == integrate_kernel_times_step(reference, minus_one, a, x)
        assert (len(s), s.domain_min, repr(s)) == (
            len(reference), a, repr(reference)
        )
        assert s.value(x) == reference.value(x)
        assert type(s.value(x)) is type(reference.value(x))
        # ints over a location denominator of 1, Fractions otherwise
        assert s.locations == reference.locations
        assert {type(q) for q in s.locations} == {int if loc_den == 1 else Fraction}
        assert s.weights == reference.weights
        assert [type(w) for w in s.weights] == [
            int if w.denominator == 1 else Fraction for w in ws
        ]
        totals = [Fraction(p[-1], d) for d, p in s._integer.runs]
        assert totals == [Fraction(p[-1], d) for d, p in reference._integer.runs]

    def test_empty(self):
        s = jump_series._exact_series(1, [], [], [])
        assert (len(s), s.domain_min, s.locations, s.weights) == (0, None, (), ())
        assert s.prefix_value(0) == 0


class TestFloatOverExactSeries:
    @pytest.fixture(scope="class")
    def reciprocals(self):
        primes = sieve(5000).primes.tolist()
        return JumpSeries(primes, [Fraction(1, p) for p in primes])

    @pytest.mark.parametrize(
        "kernel, a, b, bits",
        [
            (INV_LOG, 2, 5000, "0x1.7e337117fc4bap+10"),
            (Kernel.power(-1), 2, 5000, "0x1.a91b47cd7bf17p+3"),
            (Kernel.power(2), 2.5, 4999.5, "0x1.6ef39fd2eaae9p+36"),
        ],
    )
    def test_bits_pinned(self, reciprocals, kernel, a, b, bits):
        """Log kernels, y**-1 and float bounds take the float path over
        the exact 1/p series (six runs): pinned bit for bit."""
        assert integrate_kernel_times_step(reciprocals, kernel, a, b).hex() == bits

    @settings(max_examples=40, deadline=None)
    @given(long_exact_series())
    def test_step_values_rounded_once(self, case):
        """Accumulating the weights from an exact step value gives every
        step value as the float of its Fraction, from the first value on
        and from the first one that an integral over [a, b] reads."""
        locations, weights, a, b = case
        s = JumpSeries(locations, weights)
        spans = [(0, len(s))]
        if a < b:
            # the values the integral over [a, b] reads
            spans.append((bisect_right(locations, a), bisect_left(locations, b)))
        for i0, i1 in spans:
            values, nonzero = jump_series._float_steps(s, i0, i1)
            exact = [s.prefix_value(i) for i in range(i0, i1 + 1)]
            assert values == [float(v) for v in exact]
            assert [bool(v) for v in nonzero] == [bool(v) for v in exact]


# -----------------------------------------------------------------------
# Stieltjes integration
# -----------------------------------------------------------------------


class TestStieltjes:
    def test_atoms_sampled_inclusively(self):
        s = build_jump_series([(2, Fraction(1, 2)), (3, Fraction(1, 3))])
        # both endpoints inclusive: 2 * 1/2 + 3 * 1/3 = 2, summed in floats
        out = stieltjes_integrate(Kernel.power(1), s, 2, 3)
        assert type(out) is float and out == 2
        # a above the first atom drops it
        assert stieltjes_integrate(Kernel.power(1), s, Fraction(5, 2), 3) == 1

    def test_power_zero_sums_the_weights(self):
        s = build_jump_series([(4, 3)])
        assert stieltjes_integrate(POWER_ZERO, s, 1, 10) == 3
