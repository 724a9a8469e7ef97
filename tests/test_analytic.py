"""The offset logarithmic integral, Mertens remainder, and related routes."""

import math
from fractions import Fraction

import pytest

from stepsum.analytic import (
    check_reciprocal_sum_increment,
    li_from_2,
    mertens_remainder,
    prime_count_via_li,
    prime_reciprocal_sum_via_mertens,
)
from stepsum.errors import DomainError
from stepsum.primes import sieve
from stepsum.report import IdentityId

# frozen references: mpmath.li(x, offset=True) at 30 significant digits
LI2_10 = 5.12043572466980515267839286347
LI2_100 = 29.0809778039621371410571524498
LI2_1E5 = 9628.76383727068071224941497169

# frozen reference: log(2)/2 + log(3)/3 + log(5)/5 + log(7)/7 - log(10),
# computed by direct compensated summation
R_10 = -0.989932659853791


@pytest.fixture(scope="module")
def table():
    return sieve(10**4)


# -----------------------------------------------------------------------
# li from 2
# -----------------------------------------------------------------------


class TestLi:
    def test_frozen_values(self):
        assert li_from_2(10).value == pytest.approx(LI2_10, abs=1e-12)
        assert li_from_2(100).value == pytest.approx(LI2_100, abs=1e-11)
        assert li_from_2(10**5).value == pytest.approx(LI2_1E5, abs=2e-10)

    def test_error_bound_reported(self):
        out = li_from_2(1000)
        assert 0 <= out.abs_err_bound < 1e-9

    def test_zero_length(self):
        assert li_from_2(2).value == 0.0

    def test_additive_over_split(self):
        whole = li_from_2(1000).value
        left = li_from_2(300).value
        # the integral of 1/log t over [300, 1000], to 30 digits
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            right = float(mpmath.quad(lambda t: 1 / mpmath.log(t), [300, 1000]))
        assert whole == pytest.approx(left + right, abs=2e-12)

    def test_error_bound_is_true_against_mpmath(self):
        """|value - (li(x) - li(2))| <= abs_err_bound on every decade up to
        1e308, and the value is within 1e-14 relative up to 1e8."""
        mpmath = pytest.importorskip("mpmath")
        xs = [2.0 * (1 + 1e-9), 2.5, 57685.85, 93317.26, 1.7e308]
        xs += [m * 10.0**e for e in range(1, 308) for m in (1.0, 2.2, 4.7)]
        with mpmath.workdps(40):
            li2 = mpmath.li(2)
            for x in xs:
                out = li_from_2(x)
                exact = mpmath.li(x) - li2
                err = abs(mpmath.mpf(out.value) - exact)
                assert err <= out.abs_err_bound, x
                if x <= 1e8:
                    assert err <= 1e-14 * exact, x

    def test_domain(self):
        with pytest.raises(DomainError, match="at least 2"):
            li_from_2(1.5)
        with pytest.raises(DomainError):
            li_from_2(float("nan"))


# -----------------------------------------------------------------------
# Mertens remainder
# -----------------------------------------------------------------------


class TestMertensRemainder:
    def test_at_first_prime(self, table):
        """At x = 2 only the p = 2 atom contributes: log2/2 - log2."""
        assert mertens_remainder(table, 2) == -math.log(2) / 2

    def test_at_10(self, table):
        assert mertens_remainder(table, 10) == pytest.approx(R_10, abs=1e-12)

    def test_tracks_direct_sum(self, table):
        for x in (5.0, 97.0, 1234.5, 9973.0):
            direct = table.log_weight_sum(x) - math.log(x)
            assert mertens_remainder(table, x) == pytest.approx(direct, abs=1e-12)


# -----------------------------------------------------------------------
# Prime count via li
# -----------------------------------------------------------------------


class TestPrimeCountViaLi:
    def test_boundary_is_exactly_one(self, table):
        assert prime_count_via_li(table, 2) == 1.0

    def test_matches_sieve(self, table):
        for x in (10.0, 100.0, 1000.0, 9999.0):
            assert prime_count_via_li(table, x) == pytest.approx(
                table.pi(x), abs=1e-8
            )


# -----------------------------------------------------------------------
# Reciprocal prime sum via the Mertens form
# -----------------------------------------------------------------------


class TestViaMertens:
    def test_boundary_is_exactly_half(self, table):
        assert prime_reciprocal_sum_via_mertens(table, 2) == 0.5

    def test_matches_direct(self, table):
        for x in (3.0, 29.5, 541.0, 9973.0):
            direct = table.reciprocal_sum(x)
            via = prime_reciprocal_sum_via_mertens(table, x)
            assert via == pytest.approx(direct, abs=1e-10)


# -----------------------------------------------------------------------
# Increment check
# -----------------------------------------------------------------------


class TestIncrement:
    def test_2_to_10(self, table):
        """Primes in (2, 10] are 3, 5, 7; the increment is 71/105."""
        report = check_reciprocal_sum_increment(table, 2, 10)
        assert report.passed
        assert report.identity is IdentityId.HP_INCREMENT
        assert (report.x, report.k) == (2.0, 10.0)
        assert report.lhs == pytest.approx(float(Fraction(71, 105)), rel=1e-14)

    def test_empty_increment_is_exactly_zero(self, table):
        """No primes in (13, 16]: both sides must vanish, bitwise."""
        report = check_reciprocal_sum_increment(table, 13, 16)
        assert report.lhs == 0.0
        assert report.rhs == 0.0
        assert report.passed

    def test_degenerate_interval(self, table):
        report = check_reciprocal_sum_increment(table, 50, 50)
        assert report.abs_err == 0.0

    def test_interval_validation(self, table):
        with pytest.raises(DomainError, match="out of order"):
            check_reciprocal_sum_increment(table, 10, 5)
        with pytest.raises(DomainError, match="at least 2"):
            check_reciprocal_sum_increment(table, 1, 5)


# -----------------------------------------------------------------------
# Pinned bits
# -----------------------------------------------------------------------

# float.hex of each route on sieve(10**4).  The Mertens pins are frozen
# from the implementation in which the -1/y density of dR was integrated
# inside stieltjes_integrate; the routes now write that density out and
# keep every bit.  The li and increment pins come from the routes that
# integrate against dF by parts, which land within a few ulps of the count
# and of the direct sum, not on them.
PIN_XS = (2, 2.5, 3, 7.5, 97, 1234.5, 9973, 10**4)
PINNED = {
    prime_count_via_li: (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+1",
        "0x1.ffffffffffffep+1", "0x1.9000000000004p+4", "0x1.93ffffffffffcp+7",
        "0x1.333fffffffff4p+10", "0x1.333fffffffff0p+10",
    ),
    mertens_remainder: (
        "-0x1.62e42fefa39efp-2", "-0x1.23b1f7163c380p-1", "-0x1.8b1839d7dce2ep-2",
        "-0x1.678d6394fa126p-1", "-0x1.348a9d8c6109cp+0", "-0x1.4b599d0771fccp+0",
        "-0x1.51180afdf7020p+0", "-0x1.51c93abd0e6c0p+0",
    ),
    prime_reciprocal_sum_via_mertens: (
        "0x1.0000000000000p-1", "0x1.ffffffffffffep-2", "0x1.aaaaaaaaaaaa9p-1",
        "0x1.2d1ad1ad1ad1bp+0", "0x1.cd856d972bd10p+0", "0x1.1d45927cf232ep+1",
        "0x1.3dd4e889b0149p+1", "0x1.3dd4e889b0149p+1",
    ),
}
# (a, b) -> float.hex of check_reciprocal_sum_increment(table, a, b).rhs
PINNED_INCREMENTS = {
    (2, 2.5): "0x0.0p+0",
    (2.5, 3): "0x1.5555555555556p-2",
    (3, 7.5): "0x1.5f15f15f15f17p-2",
    (7.5, 97): "0x1.40d537d421feap-1",
    (97, 1234.5): "0x1.b416dd8ae2533p-2",
    (1234.5, 9973): "0x1.047ab065ef0d9p-2",
    (9973, 10**4): "0x0.0p+0",
    (2, 10**4): "0x1.fba9d11360292p+0",
    (97, 97): "0x0.0p+0",
}


@pytest.mark.parametrize("route", list(PINNED), ids=lambda f: f.__name__)
def test_routes_keep_their_pinned_bits(table, route):
    got = [route(table, x) for x in PIN_XS]
    assert got == [float.fromhex(h) for h in PINNED[route]]


def test_increment_keeps_its_pinned_bits(table):
    for (a, b), pinned in PINNED_INCREMENTS.items():
        rhs = check_reciprocal_sum_increment(table, a, b).rhs
        assert rhs == float.fromhex(pinned), (a, b)
