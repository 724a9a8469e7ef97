"""Sieve correctness and the direct summation oracles."""

import math
from fractions import Fraction

import pytest

from stepsum.errors import DomainError, RangeError, ResourceError
from stepsum.primes import DEFAULT_LIMIT_CAP, EXACT_X_CAP, sieve


def _trial_division_primes(limit):
    """Independent oracle: primes by trial division, no shared code."""
    out = []
    for n in range(2, limit + 1):
        d = 2
        while d * d <= n:
            if n % d == 0:
                break
            d += 1
        else:
            out.append(n)
    return out


@pytest.fixture(scope="module")
def table():
    return sieve(10**4)


# -----------------------------------------------------------------------
# Sieve
# -----------------------------------------------------------------------


class TestSieve:
    def test_matches_trial_division(self, table):
        assert table.primes.tolist() == _trial_division_primes(10**4)

    def test_every_small_limit_matches_trial_division(self):
        """Limits 2 and 3, even limits and squares of primes all fall in
        [2, 2000]."""
        expected = _trial_division_primes(2000)
        for limit in range(2, 2001):
            primes = sieve(limit).primes.tolist()
            assert primes == [p for p in expected if p <= limit], limit

    def test_large_counts(self):
        assert sieve(10**6).pi(10**6) == 78498
        assert sieve(10**7).pi(10**7) == 664579

    def test_counts(self, table):
        # pi values re-derived by trial division and an independent
        # prime-counting implementation before being frozen here
        assert table.pi(100) == 25
        assert table.pi(10**4) == 1229
        assert sieve(10**5).pi(10**5) == 9592

    def test_limit_validation(self):
        with pytest.raises(DomainError, match="at least 2"):
            sieve(1)
        with pytest.raises(DomainError, match="int"):
            sieve(10.0)
        with pytest.raises(DomainError):
            sieve(True)

    def test_limit_cap(self):
        with pytest.raises(ResourceError, match="cap"):
            sieve(DEFAULT_LIMIT_CAP + 1)

    def test_primes_array_is_read_only(self, table):
        with pytest.raises(TypeError):
            table.primes[0] = 4
        assert table.primes[0] == 2

    def test_primes_are_python_ints(self, table):
        assert all(type(p) is int for p in table.primes[:10])
        assert type(table.primes[-1]) is int
        assert table.prime_power_sum(10**4, 1) == sum(table.primes.tolist())

    def test_repr(self, table):
        assert "1229" in repr(table)

    def test_limit(self, table):
        assert table.limit == 10**4
        assert sieve(2).limit == 2


# -----------------------------------------------------------------------
# Queries
# -----------------------------------------------------------------------


class TestQueries:
    def test_range_checks(self, table):
        with pytest.raises(RangeError, match="outside"):
            table.pi(1.5)
        with pytest.raises(RangeError, match="outside"):
            table.pi(10**4 + 1)
        with pytest.raises(DomainError, match="finite"):
            table.pi(float("nan"))
        with pytest.raises(DomainError, match="real"):
            table.pi("7")

    def test_rational_query_points(self, table):
        """Exact rational x must count like its floor, with no rounding."""
        assert table.pi(Fraction(195, 2)) == table.pi(97)
        assert table.pi(Fraction(7, 1)) == 4

    def test_primes_leq(self, table):
        assert table.primes_leq(10).tolist() == [2, 3, 5, 7]
        assert table.primes_leq(2).tolist() == [2]

    def test_power_sums(self, table):
        assert table.prime_power_sum(10, 0) == table.pi(10)
        assert table.prime_power_sum(10, 1) == 17
        assert table.prime_power_sum(100, 1) == 1060
        assert table.prime_power_sum(10, 2) == 4 + 9 + 25 + 49

    def test_power_sum_exponent_validation(self, table):
        with pytest.raises(DomainError, match=r"\[0, 4\]"):
            table.prime_power_sum(10, 5)
        with pytest.raises(DomainError):
            table.prime_power_sum(10, 1.0)
        with pytest.raises(DomainError):
            table.prime_power_sum(10, True)

    def test_reciprocal_sum(self, table):
        assert table.reciprocal_sum(7, exact=True) == Fraction(247, 210)
        assert table.reciprocal_sum(7.9) == pytest.approx(247 / 210, rel=1e-15)

    @pytest.mark.parametrize(
        "above, x", [(2, 10), (2.5, 97.5), (13, 16), (97, 97), (3, 10**4)]
    )
    def test_reciprocal_sum_above(self, table, above, x):
        """Over the primes in (above, x]: one sum of their terms, in float
        and exact mode, and 0.0 over an interval with no prime."""
        ps = [p for p in _trial_division_primes(math.floor(x)) if p > above]
        assert table.reciprocal_sum(x, above=above) == math.fsum(1.0 / p for p in ps)
        exact = table.reciprocal_sum(x, exact=True, above=above)
        assert exact == sum(Fraction(1, p) for p in ps)
        with pytest.raises(RangeError):
            table.reciprocal_sum(x, above=1)

    def test_exact_reciprocal_sum_at_every_limit_to_3000(self):
        """The pairwise sum equals one Fraction added per prime, as a
        Fraction, on a table sieved to each limit."""
        total = Fraction(0)
        for limit in range(2, 3001):
            if all(limit % d for d in range(2, math.isqrt(limit) + 1)):
                total += Fraction(1, limit)
            got = sieve(limit).reciprocal_sum(limit, exact=True)
            assert type(got) is Fraction
            assert got == total

    def test_exact_reciprocal_sum_past_the_cap_is_refused(self):
        table = sieve(EXACT_X_CAP + 1)
        assert table.reciprocal_sum(EXACT_X_CAP + 0.5, exact=True) > 2
        with pytest.raises(ResourceError, match="exceeds the configured cap"):
            table.reciprocal_sum(EXACT_X_CAP + 1, exact=True)
        assert table.reciprocal_sum(EXACT_X_CAP + 1) > 2

    def test_log_weight_sum(self, table):
        expected = math.log(2) / 2 + math.log(3) / 3
        assert table.log_weight_sum(4) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("x", [2, 3.5, 97, 1000.5, 10**4])
    def test_float_oracles_are_the_plain_loops(self, table, x):
        """The oracles' C-level maps take the terms of a loop over the
        primes, and the same sum, bit for bit."""
        ps = _trial_division_primes(math.floor(x))
        assert table.reciprocal_sum(x) == math.fsum(1.0 / p for p in ps)
        assert table.log_weight_sum(x) == math.fsum(math.log(p) / p for p in ps)
        for k in (2, 3, 4):
            assert table.prime_power_sum(x, k) == sum(p**k for p in ps)
