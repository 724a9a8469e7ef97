"""Float prime staircases, prepared once per PrimeTable as prefix sums.

A float prime staircase F is a step function with a jump of weight w(p)
at every prime p of a table; its kind names the weight (_WEIGHTS):
"reciprocal" 1/p, "prime" p and "count" 1 for the identities' Abel
routes (stepsum.identities), "log_weight" log(p)/p for the analytic
routes (stepsum.analytic).  No route needs the staircase itself, only
sums of terms that depend on the table, the kind and a kernel alone, so
those terms are prepared instead, one array('d') per store:

* step values F(p_k), the running sums of w(p) in prime order, one store
  per kind: ``step`` reads F(x) from it;
* segment terms, F(p_(k+1)) times the kernel's integral over
  [p_k, p_(k+1)], one store per kind and kernel: ``step_integral`` adds
  the segments inside [a, b] and a partial segment at each end;
* atom terms kernel(p) * w(p), one store per kind and kernel:
  ``atom_sum``, the integral of the kernel against dF over (above, x],
  adds a slice of them.

Sieve output is sorted, distinct, positive and finite, and no weight is
zero, so nothing needs validation, sort or merge.  Every term is computed
with the expression that build_jump_series, integrate_kernel_times_step
and stieltjes_integrate use for the same query on a JumpSeries of the
atoms (p, w(p)), and each query is one math.fsum, which is correctly
rounded, over the very terms they add: its result is theirs bit for bit.

Preparation is lazy.  Each store covers the primes up to the largest x
asked of it so far and grows when a query goes past it, so no term above
x is prepared on behalf of a query at x.  The stores hold no PrimeTable
oracle result and live exactly as long as the table.  Exact staircases
are not kept.  Each run of an exact series' running sums is over its own
lcm, so one could be kept and grown like these stores, but no workload
asks one table for exact values twice: the benchmark's exact prime
queries are one-shot CLI calls, each on a new table.
"""

import math
import threading
import weakref
from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain

__all__ = ["atom_sum", "step", "step_integral"]


# kind -> the float weight of the prime p
_WEIGHTS = {
    "reciprocal": lambda p: 1.0 / p,
    "prime": float,
    "count": lambda p: 1.0,
    "log_weight": lambda p: math.log(p) / p,
}


class _Prepared:
    """One table's prepared terms, each store a prefix over its primes.

    Per kind asked for so far, the ``steps``: F after no prime and then
    after each prime; per (kind, kernel) asked for so far, the ``atoms``
    (term k at prime k) and the ``segments`` (term k over [p_k, p_(k+1)]).
    """

    __slots__ = ("steps", "atoms", "segments")

    def __init__(self):
        self.steps = {}
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


def _steps(prepared, primes, kind, cut):
    """``prepared.steps[kind]``, grown to cover the first ``cut`` primes;
    the caller holds _LOCK."""
    steps = prepared.steps.setdefault(kind, array("d", [0.0]))
    have = len(steps) - 1
    if cut > have:
        running = accumulate(
            map(_WEIGHTS[kind], primes[have:cut].tolist()), initial=steps[-1]
        )
        next(running)
        steps.extend(running)
    return steps


def _atom_terms(table, kind, kernel, cut):
    """The table's atom terms of ``kind`` and ``kernel``, covering its
    first ``cut`` primes."""
    weight = _WEIGHTS[kind]
    with _LOCK:
        terms = _entry(table).atoms.setdefault((kind, kernel), array("d"))
        have = len(terms)
        if cut > have:
            terms.extend(
                float(kernel(float(p))) * weight(p)
                for p in table.primes[have:cut].tolist()
            )
        return terms


def _segment_terms(table, kind, kernel, cut):
    """The table's step values of ``kind`` and its segment terms of
    ``kind`` and ``kernel``, covering its first ``cut`` primes."""
    with _LOCK:
        prepared = _entry(table)
        steps = _steps(prepared, table.primes, kind, cut)
        terms = prepared.segments.setdefault((kind, kernel), array("d"))
        have = len(terms)
        if cut - 1 > have:
            locs = list(map(float, table.primes[have:cut].tolist()))
            terms.extend(
                kernel.segment_terms(steps[have + 1 : cut], locs, locs[1:])
            )
        return steps, terms


def atom_sum(table, kind, kernel, above, x):
    """The sum of kernel(p) * w(p) over the primes p of ``table`` with
    above < p <= x: the integral of the kernel against dF over (above, x].

    Bit for bit stieltjes_integrate(kernel, G, above, x), G the JumpSeries
    of the atoms (p, w(p)) over those primes.  ``above`` <= ``x`` are
    reals and ``x`` is range-checked as by PrimeTable.pi.
    """
    cut = table.pi(x)
    start = bisect_right(table.primes, math.floor(above), 0, cut)
    return math.fsum(_atom_terms(table, kind, kernel, cut)[start:cut])


def step(table, kind, x):
    """F(x), the sum of w(p) over the primes p <= x, added in prime order:
    bit for bit the step value of the JumpSeries of those atoms.  ``x`` is
    range-checked as by PrimeTable.pi."""
    cut = table.pi(x)
    with _LOCK:
        return _steps(_entry(table), table.primes, kind, cut)[cut]


def step_integral(table, kind, kernel, a, b):
    """Integral of kernel(y) * F(y) over [a, b], for floats 2 <= a <= b.

    Bit for bit integrate_kernel_times_step(G, kernel, a, b), G the
    JumpSeries of the atoms (p, w(p)) over the primes p <= b: the same
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
    steps, segments = _segment_terms(table, kind, kernel, cut)
    diff = kernel.antiderivative_diff
    if i1 <= i0:
        return math.fsum((steps[i0] * diff(a, b),))
    head = steps[i0] * diff(a, float(primes[i0]))
    tail = steps[i1] * diff(float(primes[i1 - 1]), b)
    return math.fsum(chain((head, tail), segments[i0 : i1 - 1]))
