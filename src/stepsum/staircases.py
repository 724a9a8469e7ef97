"""Float prime staircases, prepared once per PrimeTable as prefix sums.

A float prime staircase F is a step function with a jump of weight w(p)
at every prime p of a table; its kind names the weight
(_WEIGHT_COLUMNS): "reciprocal" 1/p, "prime" p and "count" 1 for the
identities' Abel routes (stepsum.identities), whose exact staircases take
the same int columns, "log_weight" log(p)/p for the analytic routes
(stepsum.analytic).  No route needs the staircase itself, only
sums of terms that depend on the table, the kind and a kernel alone, so
those terms are prepared instead, one array('d') per store:

* step values F(p_k), the running sums of w(p) in prime order, one store
  per kind: ``step`` reads F(x) from it;
* segment terms, F(p_(k+1)) times the kernel's integral over
  [p_k, p_(k+1)], one store per kind and kernel: ``step_integral`` adds
  the segments inside [a, b] and a partial segment at each end, and
  ``rise_and_integral`` reads the same slice with F counted from a, for
  a route that sums against dF by parts.

Sieve output is sorted, distinct, positive and finite, and no weight is
zero, so nothing needs validation, sort or merge.  Every term is computed
with the expression that build_jump_series and integrate_kernel_times_step
use for the same query on a JumpSeries of the atoms (p, w(p)), and each
integral is one math.fsum, which is correctly rounded, over the very
terms they add: its result is theirs bit for bit.

Preparation is lazy.  Each store covers the primes up to the largest x
asked of it so far and grows when a query goes past it, so no term above
x is prepared on behalf of a query at x.  A store grows in chunks of
_CHUNK primes, so the Python ints and floats it makes on the way are
those of one chunk, not of every prime up to x.  The stores hold no
PrimeTable oracle result and live exactly as long as the table.  Exact
staircases are not kept.  Each run of an exact series' running sums is
over its own lcm, so one could be kept and grown like these stores, but
no workload asks one table for exact values twice: the benchmark's exact
prime queries are one-shot CLI calls, each on a new table.
"""

import math
import threading
import weakref
from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain
from operator import truediv

__all__ = ["rise_and_integral", "step", "step_integral"]


# kind -> the weights w(p) of a list of primes, as two columns (numerators,
# denominators): 1/p, p and 1 as ints, which the exact staircases take as
# they are (stepsum.identities), and log(p)/p with float numerators, the
# one kind with no exact staircase.  A float store divides the columns
# (truediv); for p < 2**53 that is 1.0 / p, float(p) and 1.0, bit for bit.
_WEIGHT_COLUMNS = {
    "reciprocal": lambda ps: ([1] * len(ps), ps),
    "prime": lambda ps: (ps, [1] * len(ps)),
    "count": lambda ps: ([1] * len(ps),) * 2,
    "log_weight": lambda ps: (map(math.log, ps), ps),
}

# A store grows by at most this many primes at a time, so the Python ints
# and floats made on the way to its doubles stay few, whatever its length;
# a running sum carries from chunk to chunk as the store's last double.
_CHUNK = 2**16

# table -> its stores, each an array('d') that is a prefix over its primes:
# under a kind, the step values F after no prime and then after each prime;
# under (kind, kernel), segment term k over [p_k, p_(k+1)]
_PREPARED = weakref.WeakKeyDictionary()
# callers may query one table from several threads; stores only grow, and
# each query reads only the part of a store that was there when it asked
_LOCK = threading.Lock()


def _steps(stores, primes, kind, cut):
    """``stores[kind]``, grown to cover the first ``cut`` primes; the
    caller holds _LOCK."""
    steps = stores.setdefault(kind, array("d", [0.0]))
    for lo in range(len(steps) - 1, cut, _CHUNK):
        chunk = primes[lo : min(lo + _CHUNK, cut)].tolist()
        weights = map(truediv, *_WEIGHT_COLUMNS[kind](chunk))
        running = accumulate(weights, initial=steps[-1])
        next(running)
        steps.extend(running)
    return steps


def _segment_terms(table, kind, kernel, cut):
    """The table's step values of ``kind`` and its segment terms of
    ``kind`` and ``kernel``, covering its first ``cut`` primes."""
    with _LOCK:
        stores = _PREPARED.setdefault(table, {})
        steps = _steps(stores, table.primes, kind, cut)
        terms = stores.setdefault((kind, kernel), array("d"))
        for lo in range(len(terms), cut - 1, _CHUNK):
            hi = min(lo + _CHUNK, cut - 1)
            locs = list(map(float, table.primes[lo : hi + 1].tolist()))
            terms.extend(kernel.segment_terms(steps[lo + 1 : hi + 1], locs, locs[1:]))
        return steps, terms


def step(table, kind, x):
    """F(x), the sum of w(p) over the primes p <= x, added in prime order:
    bit for bit the step value of the JumpSeries of those atoms.  ``x`` is
    range-checked as by PrimeTable.pi."""
    cut = table.pi(x)
    with _LOCK:
        return _steps(_PREPARED.setdefault(table, {}), table.primes, kind, cut)[cut]


def _integral(table, kind, kernel, a, b):
    """(F(a), F(b), the integral of kernel(y) * F(y) over [a, b]) for
    floats 2 <= a <= b, the integral as step_integral gives it."""
    kernel.check_interval(a, b)
    cut = table.pi(b)
    primes = table.primes
    # the primes strictly inside (a, b) are those at i0, ..., i1 - 1
    i0 = bisect_right(primes, math.floor(a), 0, cut)
    i1 = bisect_left(primes, math.ceil(b), 0, cut)
    steps, segments = _segment_terms(table, kind, kernel, cut)
    diff = kernel.antiderivative_diff
    if i1 <= i0:
        terms = (steps[i0] * diff(a, b),)
    else:
        head = steps[i0] * diff(a, float(primes[i0]))
        tail = steps[i1] * diff(float(primes[i1 - 1]), b)
        terms = chain((head, tail), segments[i0 : i1 - 1])
    return steps[i0], steps[cut], math.fsum(terms)


def step_integral(table, kind, kernel, a, b):
    """Integral of kernel(y) * F(y) over [a, b], for floats 2 <= a <= b.

    Bit for bit integrate_kernel_times_step(G, kernel, a, b), G the
    JumpSeries of the atoms (p, w(p)) over the primes p <= b: the same
    segment terms, in one correctly rounded sum.
    """
    return _integral(table, kind, kernel, a, b)[2]


def rise_and_integral(table, kind, kernel, a, b):
    """(F(b) - F(a), the integral of kernel(y) * (F(y) - F(a)) over [a, b])
    for floats 2 <= a <= b, the parts of a sum against dF over (a, b] by
    parts, from one look at the stores.  The integral is step_integral's
    minus F(a) times the kernel's integral over [a, b]: exactly 0.0 when
    no prime lies strictly inside (a, b).
    """
    below, top, integral = _integral(table, kind, kernel, a, b)
    return top - below, integral - below * kernel.antiderivative_diff(a, b)
