"""Prime tables: sieve, lookups, and the direct summation oracles.

PrimeTable is immutable once sieved; every query walks the stored prime
array.  The summation methods here are deliberately plain sums, term by
term (compensated float sums, exact Python integers, exact rationals),
because they serve as the direct side of every identity check in this
package.  Keep them boring.  An exact rational sum adds its terms as
(numerator, denominator) int pairs, merged two at a time over the lcm of
the pair's denominators, and reduces once at the end: the terms a running
Fraction would add, none regrouped, without a reduction per term.
Only the standard library is imported, so a process that sieves and
queries never loads numpy.
"""

import math
from array import array
from bisect import bisect_right
from fractions import Fraction
from itertools import compress, repeat
from operator import truediv

from .errors import (
    DomainError,
    RangeError,
    ResourceError,
    _check_finite_point,
    _int_text,
    _is_int,
)

__all__ = ["PrimeTable", "sieve", "DEFAULT_LIMIT_CAP", "EXACT_X_CAP"]

DEFAULT_LIMIT_CAP = 10**8

# The largest x an exact sum over the primes or the naturals up to x takes.
# Such a sum has a denominator of about 1.44 x bits.  An exact staircase
# keeps its running sums in runs of consecutive jumps, each over its own
# lcm (jump_series._IntegerForm), and an exact Abel route reads F(x) and
# its integral from one tree of runs: at this cap the costliest route, the
# exact floor over the naturals, takes about 0.10 s with a traced peak of
# 7.0 MiB, 5.2 MiB of it the stored runs (2 vCPU, Python 3.11).  Past it
# the exact routes raise ResourceError before they loop.
EXACT_X_CAP = 3 * 10**4


def _check_exact_x(x):
    """Refuse an exact sum up to a finite real x past EXACT_X_CAP."""
    if math.floor(x) > EXACT_X_CAP:
        raise ResourceError(
            f"exact mode at x = {x} exceeds the configured cap {EXACT_X_CAP}"
        )


def _fraction_sum(terms):
    """Sum of the fractions n/d, given as (n, d) int pairs with d > 0.

    Adjacent pairs merge two at a time, so operand sizes stay balanced,
    over b // gcd(b, d) * d, the lcm of the two denominators; nothing is
    reduced until the one Fraction built at the end.
    """
    terms = list(terms)
    while len(terms) > 1:
        merged = []
        for (a, b), (c, d) in zip(terms[::2], terms[1::2]):
            g = math.gcd(b, d)
            merged.append((a * (d // g) + c * (b // g), b // g * d))
        if len(terms) % 2:
            merged.append(terms[-1])
        terms = merged
    return Fraction(*terms[0]) if terms else Fraction(0)


def sieve(limit):
    """Sieve of Eratosthenes up to ``limit`` inclusive, over the odd numbers.

    The flags take one byte per odd integer up to ``limit``, about
    limit/2 bytes; DEFAULT_LIMIT_CAP bounds that allocation, and asking
    for more raises ResourceError rather than attempting it.
    """
    if not _is_int(limit):
        raise DomainError(f"sieve limit must be an int, got {limit!r}")
    if limit < 2:
        raise DomainError(f"sieve limit must be at least 2, got {_int_text(limit)}")
    if limit > DEFAULT_LIMIT_CAP:
        raise ResourceError(
            f"sieve limit {_int_text(limit)} exceeds the configured cap "
            f"{DEFAULT_LIMIT_CAP}"
        )
    # flag i stands for the odd number 2*i + 1; 1 is not prime
    size = (limit + 1) // 2
    is_prime = bytearray(b"\x01") * size
    is_prime[0] = 0
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if is_prime[i]:
            p = 2 * i + 1
            # p*p is the first odd multiple left; odd multiples are 2p apart
            start = p * p // 2
            is_prime[start::p] = bytes((size - 1 - start) // p + 1)
    primes = array("q", [2])
    primes.extend(compress(range(1, limit + 1, 2), is_prime))
    return PrimeTable(limit, memoryview(primes).toreadonly())


class PrimeTable:
    """Primes up to a fixed limit, with query methods used as oracles.

    ``primes`` is a read-only sequence of the primes as Python ints, in
    increasing order: it indexes, slices, iterates, has a length, and
    ``.tolist()`` copies it into a list.

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
        _check_finite_point(x, "query point")
        if x < 2 or x > self._limit:
            raise RangeError(
                f"query point {_int_text(x)} outside the sieved range "
                f"[2, {self._limit}]"
            )
        # floor first: integer-vs-integer comparison avoids any rounding of
        # exact rational query points.
        return bisect_right(self._primes, math.floor(x))

    def pi(self, x):
        """Number of primes <= x."""
        return self._cut(x)

    def primes_leq(self, x):
        """Read-only sequence of the primes <= x, like ``primes``."""
        return self._primes[: self._cut(x)]

    def prime_power_sum(self, x, k):
        """Sum of p**k over primes p <= x, as an exact int (0 <= k <= 4)."""
        if not _is_int(k) or not 0 <= k <= 4:
            raise DomainError(
                f"power sum exponent must be an int in [0, 4], got {_int_text(k)}"
            )
        cut = self._cut(x)
        if k == 0:
            return cut
        if k == 1:
            # Python ints: no overflow, whatever the limit
            return sum(self._primes[:cut])
        return sum(map(pow, self._primes[:cut], repeat(k)))

    def reciprocal_sum(self, x, *, exact=False, above=None):
        """Sum of 1/p over primes p <= x, or over above < p <= x when
        ``above`` is given (range-checked as x is): compensated float, or
        exact Fraction.

        Exact mode refuses x past EXACT_X_CAP with ResourceError.
        """
        cut = self._cut(x)
        start = 0 if above is None else self._cut(above)
        primes = self._primes[start:cut]
        if exact:
            _check_exact_x(x)
            return _fraction_sum((1, p) for p in primes.tolist())
        return math.fsum(map(truediv, repeat(1.0), primes))

    def log_weight_sum(self, x):
        """Sum of log(p)/p over primes p <= x (compensated float)."""
        ps = self._primes[: self._cut(x)]
        return math.fsum(map(truediv, map(math.log, ps), ps))
