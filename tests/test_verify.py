"""Sweep drivers: determinism, ordering, error handling, configuration."""

import math
import random
import time
from fractions import Fraction

import pytest

from stepsum import identities, jump_series, verify
from stepsum.errors import ConfigurationError, ResourceError
from stepsum.primes import sieve
from stepsum.report import IdentityId, VerificationReport, make_report
from stepsum.verify import (
    MAX_SET_SIZE,
    increment_sweep,
    random_intervals,
    random_set_sweep,
    run_sweep,
)

# x at which the adaptive quadrature that li once came from ran out of
# panels or took seconds
FORMER_PANEL_BUDGET_POINTS = [28424.42, 57685.85, 93317.26]


@pytest.fixture(scope="module")
def table():
    return sieve(2000)


@pytest.fixture(scope="module")
def table_1e5():
    return sieve(10**5)


def _reduced_float(value):
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def reduced_report(identity, x, lhs, rhs, tol, k):
    """An exact report made from two ints or Fractions in lowest terms,
    through their reduced difference."""
    diff = lhs - rhs
    passed = diff == 0
    abs_err = 0.0 if passed else max(abs(_reduced_float(diff)), 5e-324)
    rhs_f = _reduced_float(rhs)
    return VerificationReport(
        identity=identity,
        x=float(x),
        k=None if k is None else float(k),
        lhs=_reduced_float(lhs),
        rhs=rhs_f,
        abs_err=abs_err,
        rel_err=abs_err / max(abs(rhs_f), 1.0),
        tol=tol,
        passed=passed,
    )


def reduced_set_sweep(seed, trials, *, max_size=200, k_set=(0, 1, 2, 3), tol=1e-10):
    """random_set_sweep(..., exact=True) made from the public exact
    routes, which reduce their results, on JumpSeries built from
    Fractions, against Fraction(*_direct_power_sum(...)); the draws are
    the sweep's own."""
    rng = random.Random(seed)
    reports = []
    for _ in range(trials):
        qs = verify._draw_set(rng, rng.randint(1, max_size))
        x = verify._draw_eval_point(rng, qs)
        exact = [Fraction(q) for q in qs]
        h = jump_series.JumpSeries(exact, [1 / q for q in exact])
        g = jump_series.JumpSeries(exact, exact)
        xq = Fraction(x)
        count = sum(q <= x for q in qs)
        ratios = [q.as_integer_ratio() for q in qs[:count]]

        def direct(k):
            return Fraction(*verify._direct_power_sum(ratios, k))

        checks = [(IdentityId.COUNT, None, identities.count_via_abel(h, xq), count)]
        checks += [
            (
                IdentityId.POWER_SUM,
                k,
                identities.power_sum_via_abel(h, xq, k),
                direct(k),
            )
            for k in k_set
        ]
        checks += [
            (
                IdentityId.RECIPROCAL_POWER_SUM,
                k,
                identities.reciprocal_power_sum_via_abel(g, xq, k),
                direct(-k),
            )
            for k in k_set
        ]
        reports += [reduced_report(i, x, lhs, rhs, tol, k) for i, k, lhs, rhs in checks]
    return reports


# -----------------------------------------------------------------------
# Pointwise sweeps
# -----------------------------------------------------------------------


class TestRunSweep:
    def test_reports_in_sample_order(self, table):
        xs = [97.0, 2.0, 1500.5]
        reports = run_sweep(IdentityId.PRIME_COUNT, table, xs)
        assert [r.x for r in reports] == xs
        assert all(r.passed for r in reports)

    def test_deterministic_across_jobs(self, table):
        xs = [float(x) for x in range(2, 80)]
        serial = run_sweep(IdentityId.HP_FROM_PI, table, xs)
        threaded = run_sweep(IdentityId.HP_FROM_PI, table, xs, jobs=4)
        assert serial == threaded

    def test_out_of_range_sample_becomes_error_report(self, table):
        """A bad sample fails its own report; the sweep keeps going."""
        reports = run_sweep(IdentityId.PRIME_COUNT, table, [10.0, 99999.0, 50.0])
        assert [r.passed for r in reports] == [True, False, True]
        assert math.isnan(reports[1].lhs)

    def test_former_panel_budget_points_pass(self, table_1e5):
        start = time.perf_counter()
        reports = run_sweep(
            IdentityId.PRIME_COUNT_LI, table_1e5, FORMER_PANEL_BUDGET_POINTS
        )
        assert time.perf_counter() - start < 1.0
        assert [r.passed for r in reports] == [True, True, True]

    def test_naturals_identities_need_no_table(self):
        reports = run_sweep(IdentityId.HARMONIC, None, [1.0, 7.5, 100.0])
        assert all(r.passed for r in reports)
        reports = run_sweep(IdentityId.TRIANGULAR, None, [3.0, 9.5], exact=True)
        assert all(r.passed for r in reports)
        assert all(r.abs_err == 0.0 for r in reports)

    def test_exact_floor_sweep(self):
        reports = run_sweep(IdentityId.FLOOR, None, [1, 2, 17], exact=True)
        assert all(r.abs_err == 0.0 for r in reports)

    def test_prime_identity_without_table_rejected(self):
        with pytest.raises(ConfigurationError, match="prime table"):
            run_sweep(IdentityId.PRIME_COUNT, None, [10.0])

    def test_set_based_identities_rejected(self, table):
        with pytest.raises(ConfigurationError, match="random_set_sweep"):
            run_sweep(IdentityId.COUNT, table, [10.0])

    def test_increment_identity_rejected(self, table):
        with pytest.raises(ConfigurationError, match="increment_sweep"):
            run_sweep(IdentityId.HP_INCREMENT, table, [10.0])

    def test_float_only_identities_reject_exact(self, table):
        with pytest.raises(ConfigurationError, match="no exact mode"):
            run_sweep(IdentityId.HP_MERTENS, table, [10.0], exact=True)
        with pytest.raises(ConfigurationError, match="no exact mode"):
            run_sweep(IdentityId.PRIME_COUNT_LI, table, [10.0], exact=True)


# -----------------------------------------------------------------------
# Random set sweeps
# -----------------------------------------------------------------------


class TestRandomSetSweep:
    def test_report_count_and_order(self):
        """Per trial: one count report, then one per k for each power form."""
        reports = random_set_sweep(5, 2, max_size=10, k_set=(0, 1))
        assert len(reports) == 2 * (1 + 2 + 2)
        ids = [r.identity for r in reports[:5]]
        assert ids == [
            IdentityId.COUNT,
            IdentityId.POWER_SUM,
            IdentityId.POWER_SUM,
            IdentityId.RECIPROCAL_POWER_SUM,
            IdentityId.RECIPROCAL_POWER_SUM,
        ]
        assert [r.k for r in reports[:5]] == [None, 0.0, 1.0, 0.0, 1.0]

    def test_same_seed_same_reports(self):
        a = random_set_sweep(11, 5, max_size=25)
        b = random_set_sweep(11, 5, max_size=25)
        assert a == b

    def test_jobs_do_not_change_results(self):
        a = random_set_sweep(11, 5, max_size=25)
        b = random_set_sweep(11, 5, max_size=25, jobs=3)
        assert a == b

    def test_exact_mode_is_rational_equality(self):
        reports = random_set_sweep(7, 10, max_size=40, exact=True)
        assert all(r.passed for r in reports)
        assert all(r.abs_err == 0.0 for r in reports)

    def test_float_mode_within_tolerance(self):
        reports = random_set_sweep(7, 10, max_size=40, tol=1e-10)
        assert all(r.passed for r in reports)

    @pytest.mark.parametrize("exact", [False, True])
    def test_one_set_takes_eight_integrals(self, monkeypatch, exact):
        """Count, four power sums and four reciprocal power sums share the
        k = 0 integral: 8 integrals per set, not 9.  A float set takes
        each through integrate_kernel_times_step; an exact set takes each
        from one run tree (jump_series._run_tree) with its step value."""
        module, name = (jump_series, "_run_tree") if exact else (
            identities, "integrate_kernel_times_step"
        )
        original = getattr(module, name)
        calls = []

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, name, counted)
        reports = random_set_sweep(5, 1, exact=exact)
        assert len(reports) == 9
        assert all(r.passed for r in reports)
        assert len(calls) == 8

    def test_oracle_sums_are_unreduced(self):
        """The atom-sum oracle returns (numerator, denominator) as summed:
        over the lcm of the atom denominators to the kth power for k >= 0,
        over the product of the terms' denominators for k < 0."""
        direct = verify._direct_power_sum
        assert direct([(1, 2), (1, 4)], 1) == (3, 4)
        assert direct([(1, 2), (1, 4)], 2) == (5, 16)
        assert direct([(1, 2), (1, 4)], 0) == (2, 1)
        assert direct([(1, 2), (1, 2)], 1) == (2, 2)
        assert direct([(3, 2), (3, 2)], -1) == (12, 9)
        assert direct([(3, 2), (5, 2)], -2) == (136, 225)
        assert direct([], 2) == direct([], -2) == (0, 1)

    def test_exact_reports_equal_a_reduced_oracle(self, monkeypatch):
        """An oracle sum equal to the route's value reports the route's
        value; a different one is reduced and reported as a failure with
        its own value."""
        reports = random_set_sweep(3, 2, max_size=30, exact=True)
        direct = verify._direct_power_sum

        def off_by_one(ratios, k):
            num, den = direct(ratios, k)
            return num + 1, den

        monkeypatch.setattr(verify, "_direct_power_sum", off_by_one)
        wrong = random_set_sweep(3, 2, max_size=30, exact=True)
        for good, bad in zip(reports, wrong):
            assert good.passed
            assert bad.lhs == good.lhs
            if good.identity is IdentityId.COUNT:
                assert bad == good
                continue
            assert not bad.passed
            assert bad.abs_err > 0.0
            assert bad.rhs >= good.rhs

    def test_exact_reports_equal_the_reduced_routes(self):
        """Every exact report equals the one built from the reduced public
        routes, the reduced oracle sum and a reduced report: 500 seeds of
        the default sweep, and 30 sets of up to 1000 atoms at k = 0, 1,
        5 and 9."""
        for seed, trials, kwargs in [
            *((s, 1, {}) for s in range(500)),
            (99, 30, {"max_size": 1000, "k_set": (0, 1, 5, 9)}),
        ]:
            got = random_set_sweep(seed, trials, exact=True, **kwargs)
            assert got == reduced_set_sweep(seed, trials, **kwargs), seed

    def test_an_exact_set_check_reduces_no_result(self, monkeypatch):
        """No route result of an exact set check goes through the one
        helper that types, and so reduces, an exact result."""

        def refused(*args):
            raise AssertionError("an exact result was reduced")

        monkeypatch.setattr(jump_series, "_exact_value", refused)
        reports = random_set_sweep(5, 1, exact=True)
        assert len(reports) == 9
        assert all(r.passed for r in reports)

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="trial"):
            random_set_sweep(1, 0)
        with pytest.raises(ConfigurationError, match="size"):
            random_set_sweep(1, 1, max_size=0)
        with pytest.raises(ConfigurationError, match="exponents"):
            random_set_sweep(1, 1, k_set=(0, -1))
        with pytest.raises(ConfigurationError, match="exponents"):
            random_set_sweep(1, 1, k_set=(0.5,))

    def test_set_size_cap(self):
        """Past MAX_SET_SIZE a draw almost never meets the gap rule, and the
        rejection loop would run without bound; at the cap it passes."""
        with pytest.raises(ConfigurationError, match="size"):
            random_set_sweep(1, 1, max_size=MAX_SET_SIZE + 1)
        start = time.perf_counter()
        qs = verify._draw_set(random.Random(1), MAX_SET_SIZE)
        assert len(qs) == MAX_SET_SIZE
        reports = random_set_sweep(1, 1, max_size=MAX_SET_SIZE, k_set=(0, 1))
        assert time.perf_counter() - start < 5.0
        assert all(r.passed for r in reports)

    @pytest.mark.parametrize("max_size", [1, 8])
    def test_exact_exponent_cap_covers_every_draw(self, max_size, monkeypatch):
        """The exact exponent cap is derived from the run trees' work
        budget for the worst draw: at the largest k it accepts, max_size
        atoms checked at an 83-bit evaluation point (a raw float in [1, 2))
        past the last atom, and at the last atom, where the run trees end
        in a segment of length zero, pass; and the next k, like k = 49998
        for one atom, is refused before any draw, not by the run tree
        after it."""
        k = verify.MAX_EXACT_SET_WORK // (max_size + 1) - 1
        qs = [1 + i * 2**-20 + 2**-24 for i in range(max_size)]
        for x in (qs[-1] + 2**-30 + 2**-52, qs[-1]):
            reports = verify._check_one_set(qs, x, (k,), 1e-10, True)
            assert len(reports) == 3 and all(r.passed for r in reports)

        def no_draw(*args):
            raise AssertionError("drew a set for a refused exponent")

        monkeypatch.setattr(verify, "_draw_set", no_draw)
        for refused in (k + 1, 49998):
            with pytest.raises(ResourceError, match="exponents up to"):
                random_set_sweep(1, 1, max_size=max_size, k_set=(refused,), exact=True)


# -----------------------------------------------------------------------
# Reports
# -----------------------------------------------------------------------


class TestMakeReport:
    def test_exact_difference_below_float_range_fails(self):
        """A nonzero rational difference that rounds to 0.0 is clamped to
        the smallest float, so it cannot read as a pass."""
        lhs = 1 + Fraction(1, 10**400)
        report = make_report(IdentityId.COUNT, 2, lhs, 1, 1e-9, exact=True)
        assert report.abs_err == 5e-324
        assert not report.passed

    def test_exact_difference_past_float_range_is_inf(self):
        for lhs in (10**400, Fraction(10**400, 3)):
            report = make_report(IdentityId.COUNT, 2, lhs, 0, 1e-9, exact=True)
            assert report.abs_err == math.inf
            assert report.lhs == math.inf
            assert not report.passed

    @pytest.mark.parametrize(
        "lhs, rhs",
        [
            # the _TINY clamp, and the common factor 7 left in
            ((7 * (10**400 + 1), 7 * 10**400), (1, 1)),
            ((3, 3), (7 * (10**400 + 1), 7 * 10**400)),
            # infinite renderings, of either sign
            ((3 * 10**400, 3), (0, 1)),
            ((-3 * 10**400, 3), (2, 2)),
            ((6, 4), (-9 * 10**400, 3)),
            ((6, -4), (3 * 10**400, -3 * 10**80)),
            # equal and unequal ratios in and out of lowest terms
            ((10, 4), (5, 2)),
            ((3 ** 40 * 11, 3 ** 40 * 13), (22, 26)),
            ((2**90 + 1, 2**60), (2**90, 2**60)),
            ((0, 5), (0, 1)),
        ],
    )
    def test_an_unreduced_ratio_reports_as_its_fraction(self, lhs, rhs):
        """A pair with a Fraction's numerator and denominator, not in
        lowest terms, gives bit for bit the report of its Fraction."""
        ratio = jump_series._Unreduced
        for exact_lhs, exact_rhs in [
            (ratio(*lhs), ratio(*rhs)),
            (ratio(*lhs), Fraction(*rhs)),
            (Fraction(*lhs), ratio(*rhs)),
        ]:
            got = make_report(
                IdentityId.POWER_SUM, 2.5, exact_lhs, exact_rhs, 1e-9, k=3, exact=True
            )
            want = reduced_report(
                IdentityId.POWER_SUM, 2.5, Fraction(*lhs), Fraction(*rhs), 1e-9, 3
            )
            # repr tells -0.0 from 0.0 and matches nan with nan
            assert repr(got) == repr(want)

    @pytest.mark.parametrize("lhs, rhs", [(math.nan, 1.0), (1.0, math.nan)])
    def test_nan_float_side_fails(self, lhs, rhs):
        report = make_report(IdentityId.COUNT, 2, lhs, rhs, 1e-9)
        assert math.isnan(report.abs_err)
        assert not report.passed


# -----------------------------------------------------------------------
# Interval sweeps
# -----------------------------------------------------------------------


class TestIncrementSweep:
    def test_random_intervals_shape(self):
        intervals = random_intervals(3, 50, lo=2.0, hi=500.0)
        assert len(intervals) == 50
        assert all(2.0 <= a < b <= 500.0 for a, b in intervals)
        assert intervals == random_intervals(3, 50, lo=2.0, hi=500.0)

    def test_random_intervals_validation(self):
        with pytest.raises(ConfigurationError):
            random_intervals(3, 0)

    @pytest.mark.parametrize(
        "lo, hi", [(10.0, 5.0), (5.0, 5.0), (2.0, math.nan), (2.0, math.inf)]
    )
    def test_random_intervals_need_a_finite_nonempty_range(self, lo, hi):
        """Such a range used to keep the rejection loop drawing forever."""
        with pytest.raises(ConfigurationError, match="lo < hi"):
            random_intervals(1, 1, lo=lo, hi=hi)

    def test_sweep_passes(self, table):
        intervals = random_intervals(9, 20, hi=2000.0)
        reports = increment_sweep(table, intervals, tol=1e-10)
        assert all(r.passed for r in reports)
        assert [r.identity for r in reports] == [IdentityId.HP_INCREMENT] * 20

    def test_sweep_jobs_deterministic(self, table):
        intervals = random_intervals(9, 20, hi=2000.0)
        a = increment_sweep(table, intervals)
        b = increment_sweep(table, intervals, jobs=4)
        assert a == b

    def test_former_panel_budget_interval_passes(self, table_1e5):
        start = time.perf_counter()
        reports = increment_sweep(table_1e5, [(2.0, FORMER_PANEL_BUDGET_POINTS[-1])])
        assert time.perf_counter() - start < 1.0
        assert reports[0].passed

    def test_out_of_range_interval_fails_its_report(self, table):
        reports = increment_sweep(table, [(2.0, 10.0), (2.0, 99999.0)])
        assert [r.passed for r in reports] == [True, False]
