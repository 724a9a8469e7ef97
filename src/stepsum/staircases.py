"""Float prime staircases and the analytic terms over them, prepared once
per PrimeTable and sliced per query.

The identities' float prime routes integrate against step functions whose
jumps sit at the primes: atoms (p, 1/p), (p, p) and (p, 1).  Sieve output
is sorted, distinct, positive and finite, and none of these weights is
zero, so the atoms need no validation, sort or merge: prime_staircase
takes the primes <= x as one slice of the prepared locations and weights,
and the caller hands the slices straight to the JumpSeries constructor.
Every value is computed with the same expression a per-query build would
use, so a slice is bit for bit the staircase that build_jump_series makes.

The analytic routes (stepsum.analytic) integrate against the log-weight
staircase F(y), the sum of log(p)/p over the primes p <= y.  They need
no staircase, only sums of terms that depend on the table and a kernel
alone, so those terms are prepared instead, one array('d') per store:

* atom terms kernel(p) * log(p)/p, one store per kernel: the integral of
  the kernel against dF over (above, x] is the sum of a slice of them;
* step values F(p_k), the running sums of log(p)/p in prime order;
* segment terms, F(p_(k+1)) times the kernel's integral over
  [p_k, p_(k+1)], one store per kernel: the integral of kernel(y) * F(y)
  over [a, b] is the sum of the segments inside, plus a partial segment
  at each end.

Each query is one math.fsum, which is correctly rounded, over the very
terms that stieltjes_integrate and integrate_kernel_times_step add for
the same query on a JumpSeries of the log-weight atoms, so its result is
theirs bit for bit.

Preparation is lazy.  Each store covers the primes up to the largest x
asked of it so far and grows when a query goes past it, so no atom above
x is prepared on behalf of a query at x.  The stores hold no PrimeTable
oracle result and live exactly as long as the table.  Exact staircases
are not kept: the integer form of an exact series puts its running sums
over the common denominator of its own prefix, so nothing would carry
over from one query to the next.
"""

import math
import threading
import weakref
from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain

__all__ = [
    "prime_staircase",
    "log_weight_atom_sum",
    "log_weight_step",
    "log_weight_step_integral",
]


# kind -> weights of the primes ps, whose locations are locs (float(p))
_WEIGHTS = {
    "reciprocal": lambda ps, locs: tuple(1.0 / p for p in ps),
    "prime": lambda ps, locs: locs,
    "count": lambda ps, locs: (1.0,) * len(ps),
}


class _Prepared:
    """One table's prepared data, each a prefix over its primes.

    ``locations`` and the ``weights`` of each kind asked for so far, every
    weights tuple as long as the locations; ``steps``, F after no prime
    and then after each prime; per kernel asked for so far, the ``atoms``
    (term k at prime k) and the ``segments`` (term k over [p_k, p_(k+1)]).
    """

    __slots__ = ("locations", "weights", "steps", "atoms", "segments")

    def __init__(self):
        self.locations = ()
        self.weights = {}
        self.steps = array("d", [0.0])
        self.atoms = {}
        self.segments = {}


_PREPARED = weakref.WeakKeyDictionary()
# callers may query one table from several threads; stores only grow, and
# each query reads only the part of a store that was there when it asked
_LOCK = threading.Lock()


def _entry(table):
    """The table's _Prepared entry; the caller holds _LOCK."""
    prepared = _PREPARED.get(table)
    if prepared is None:
        prepared = _PREPARED[table] = _Prepared()
    return prepared


def _prepared(table, kind, cut):
    """The table's prepared locations and ``kind`` weights, covering at
    least its first ``cut`` primes."""
    with _LOCK:
        prepared = _entry(table)
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


def prime_staircase(table, kind, x):
    """Locations and weights of the float staircase ``kind`` over the
    primes p <= x of ``table``.

    ``kind`` is "reciprocal" (weights 1/p), "prime" (p) or "count" (1).
    Both are tuples, ready for JumpSeries(locations, weights).  ``x`` is
    range-checked as by PrimeTable.pi.
    """
    cut = table.pi(x)
    locations, weights = _prepared(table, kind, cut)
    return locations[:cut], weights[:cut]


def _log_weight(p):
    return math.log(p) / p


def _steps(prepared, primes, cut):
    """``prepared.steps``, grown to cover the first ``cut`` primes; the
    caller holds _LOCK."""
    steps = prepared.steps
    have = len(steps) - 1
    if cut > have:
        running = accumulate(
            map(_log_weight, primes[have:cut].tolist()), initial=steps[-1]
        )
        next(running)
        steps.extend(running)
    return steps


def _atom_terms(table, kernel, cut):
    """The table's atom terms of ``kernel``, covering its first ``cut`` primes."""
    with _LOCK:
        terms = _entry(table).atoms.setdefault(kernel, array("d"))
        have = len(terms)
        if cut > have:
            terms.extend(
                float(kernel(float(p))) * _log_weight(p)
                for p in table.primes[have:cut].tolist()
            )
        return terms


def _segment_terms(table, kernel, cut):
    """The table's step values and segment terms of ``kernel``, covering
    its first ``cut`` primes."""
    with _LOCK:
        prepared = _entry(table)
        steps = _steps(prepared, table.primes, cut)
        terms = prepared.segments.setdefault(kernel, array("d"))
        have = len(terms)
        if cut - 1 > have:
            locs = [float(p) for p in table.primes[have:cut].tolist()]
            diff = kernel.antiderivative_diff
            terms.extend(
                steps[j] * diff(l, r)
                for j, l, r in zip(range(have + 1, cut), locs, locs[1:])
            )
        return steps, terms


def log_weight_atom_sum(table, kernel, above, x):
    """The sum of kernel(p) * log(p)/p over the primes p of ``table`` with
    above < p <= x: the integral of the kernel against dF over (above, x].

    Bit for bit stieltjes_integrate(kernel, G, above, x), G the JumpSeries
    of the atoms (p, log(p)/p) over those primes.  ``above`` <= ``x`` are
    reals and ``x`` is range-checked as by PrimeTable.pi.
    """
    cut = table.pi(x)
    start = bisect_right(table.primes, math.floor(above), 0, cut)
    return math.fsum(_atom_terms(table, kernel, cut)[start:cut])


def log_weight_step(table, x):
    """F(x), the sum of log(p)/p over the primes p <= x, added in prime
    order: bit for bit the step value of the JumpSeries of those atoms."""
    cut = table.pi(x)
    with _LOCK:
        return _steps(_entry(table), table.primes, cut)[cut]


def log_weight_step_integral(table, kernel, a, b):
    """Integral of kernel(y) * F(y) over [a, b], for floats 2 <= a <= b.

    Bit for bit integrate_kernel_times_step(G, kernel, a, b), G the
    JumpSeries of the atoms (p, log(p)/p) over the primes p <= b: the same
    segment terms, in one correctly rounded sum.
    """
    kernel.check_interval(a, b)
    cut = table.pi(b)
    if a == b:
        return 0.0
    primes = table.primes
    # the primes strictly inside (a, b) are those at i0, ..., i1 - 1
    i0 = bisect_right(primes, math.floor(a), 0, cut)
    i1 = bisect_left(primes, math.ceil(b), 0, cut)
    steps, segments = _segment_terms(table, kernel, cut)
    diff = kernel.antiderivative_diff
    if i1 <= i0:
        return math.fsum((steps[i0] * diff(a, b),))
    head = steps[i0] * diff(a, float(primes[i0]))
    tail = steps[i1] * diff(float(primes[i1 - 1]), b)
    return math.fsum(chain((head, tail), segments[i0 : i1 - 1]))
