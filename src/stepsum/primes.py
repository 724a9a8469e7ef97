"""Prime tables: sieve, lookups, and the direct summation oracles.

PrimeTable is immutable once sieved; every query walks the stored prime
array.  The summation methods here are deliberately plain (compensated
float sums, exact Python integers, exact rationals) because they serve as
the direct side of every identity check in this package.  Keep them boring.
"""

import math
from fractions import Fraction
from numbers import Rational, Real

import numpy as np

from .errors import DomainError, RangeError, ResourceError

__all__ = ["PrimeTable", "sieve", "DEFAULT_LIMIT_CAP"]

DEFAULT_LIMIT_CAP = 10**8


def sieve(limit, *, limit_cap=DEFAULT_LIMIT_CAP):
    """Sieve of Eratosthenes up to ``limit`` inclusive.

    ``limit_cap`` bounds the bitset allocation (one byte per integer);
    asking for more raises ResourceError rather than attempting it.
    """
    if not isinstance(limit, int) or isinstance(limit, bool):
        raise DomainError(f"sieve limit must be an int, got {limit!r}")
    if limit < 2:
        raise DomainError(f"sieve limit must be at least 2, got {limit}")
    if limit > limit_cap:
        raise ResourceError(
            f"sieve limit {limit} exceeds the configured cap {limit_cap}"
        )
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    primes = np.flatnonzero(is_prime)
    primes.flags.writeable = False
    return PrimeTable(limit, primes)


class PrimeTable:
    """Primes up to a fixed limit, with query methods used as oracles.

    Weakly referenceable, so that prepared staircases (stepsum.staircases)
    can live exactly as long as their table.
    """

    __slots__ = ("_limit", "_primes", "__weakref__")

    def __init__(self, limit, primes):
        self._limit = limit
        self._primes = primes

    @property
    def limit(self):
        return self._limit

    @property
    def primes(self):
        return self._primes

    def __repr__(self):
        return f"PrimeTable(limit={self._limit}, count={len(self._primes)})"

    def _cut(self, x):
        """Index just past the last prime <= x, after range checks."""
        if not isinstance(x, Real):
            raise DomainError(f"query point must be real, got {x!r}")
        if isinstance(x, float) and not math.isfinite(x):
            raise DomainError(f"query point must be finite, got {x}")
        if x < 2 or x > self._limit:
            raise RangeError(
                f"query point {x} outside the sieved range [2, {self._limit}]"
            )
        # floor first: integer-vs-integer comparison avoids any rounding of
        # exact rational query points.
        return int(np.searchsorted(self._primes, math.floor(x), side="right"))

    def pi(self, x):
        """Number of primes <= x."""
        return self._cut(x)

    def primes_leq(self, x):
        """Read-only array of the primes <= x."""
        return self._primes[: self._cut(x)]

    def prime_power_sum(self, x, k):
        """Sum of p**k over primes p <= x, as an exact int (0 <= k <= 4)."""
        if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k <= 4:
            raise DomainError(f"power sum exponent must be an int in [0, 4], got {k!r}")
        cut = self._cut(x)
        if k == 0:
            return cut
        if k == 1:
            # int64 cannot overflow here: the sum of all primes below the
            # 10^8 cap is under 3e15.
            return int(self._primes[:cut].sum())
        return sum(int(p) ** k for p in self._primes[:cut].tolist())

    def reciprocal_sum(self, x, *, exact=False):
        """Sum of 1/p over primes p <= x: compensated float, or exact Fraction."""
        cut = self._cut(x)
        ps = self._primes[:cut].tolist()
        if exact:
            total = Fraction(0)
            for p in ps:
                total += Fraction(1, p)
            return total
        return math.fsum(1.0 / p for p in ps)

    def log_weight_sum(self, x):
        """Sum of log(p)/p over primes p <= x (compensated float)."""
        cut = self._cut(x)
        return math.fsum(math.log(p) / p for p in self._primes[:cut].tolist())
