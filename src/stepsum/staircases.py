"""Float prime staircases, prepared once per PrimeTable and sliced per query.

The float prime routes integrate against step functions whose jumps sit at
the primes: atoms (p, 1/p), (p, log(p)/p), (p, p) and (p, 1).  Sieve output
is sorted, distinct, positive and finite, and none of these weights is
zero, so the atoms need no validation, sort or merge: a query takes the
primes in (above, x] as one slice of the prepared locations and weights,
and the caller hands the slices straight to the JumpSeries constructor.
Every value is computed with the same expression a per-query build would
use, so a slice is bit for bit the staircase that build_jump_series makes.

Preparation is lazy.  A table's staircases cover the primes up to the
largest x asked of that table so far and grow when a query goes past it,
so no atom above x is prepared on behalf of a query at x.  They hold only
the primes and their weights (no PrimeTable oracle result) and live
exactly as long as the table.  Exact staircases are not kept: the integer
form of an exact series puts its running sums over the common denominator
of its own prefix, so nothing would carry over from one query to the next.
"""

import math
import threading
import weakref
from bisect import bisect_right

__all__ = ["prime_staircase"]


# kind -> weights of the primes ps, whose locations are locs (float(p))
_WEIGHTS = {
    "reciprocal": lambda ps, locs: tuple(1.0 / p for p in ps),
    "log_weight": lambda ps, locs: tuple(math.log(p) / p for p in ps),
    "prime": lambda ps, locs: locs,
    "count": lambda ps, locs: (1.0,) * len(ps),
}


class _Prepared:
    """One table's locations and the weights of each kind asked for so
    far; every weights tuple is as long as the locations tuple."""

    __slots__ = ("locations", "weights")

    def __init__(self):
        self.locations = ()
        self.weights = {}


_PREPARED = weakref.WeakKeyDictionary()
# callers may query one table from several threads
_LOCK = threading.Lock()


def _prepared(table, kind, cut):
    """The table's prepared locations and ``kind`` weights, covering at
    least its first ``cut`` primes."""
    with _LOCK:
        prepared = _PREPARED.get(table)
        if prepared is None:
            prepared = _PREPARED[table] = _Prepared()
        have = len(prepared.locations)
        if cut > have:
            ps = table.primes[have:cut].tolist()
            locs = tuple(float(p) for p in ps)
            prepared.locations += locs
            for name, weights in prepared.weights.items():
                prepared.weights[name] = weights + _WEIGHTS[name](ps, locs)
        weights = prepared.weights.get(kind)
        if weights is None:
            ps = table.primes[: len(prepared.locations)].tolist()
            weights = prepared.weights[kind] = _WEIGHTS[kind](ps, prepared.locations)
        return prepared.locations, weights


def prime_staircase(table, kind, x, *, above=None):
    """Locations and weights of the float staircase ``kind`` over the
    primes p of ``table`` with above < p <= x.

    ``kind`` is "reciprocal" (weights 1/p), "log_weight" (log(p)/p),
    "prime" (p) or "count" (1).  Both are tuples, ready for
    JumpSeries(locations, weights).  ``x`` is range-checked as by
    PrimeTable.pi.
    """
    cut = table.pi(x)
    locations, weights = _prepared(table, kind, cut)
    start = 0 if above is None else bisect_right(locations, above, 0, cut)
    return locations[start:cut], weights[start:cut]
