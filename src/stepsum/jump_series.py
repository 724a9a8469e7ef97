"""Step functions built from weighted jumps, and integrals against them.

A jump series is the right-inclusive summatory function of a finite atom
set: F(x) = sum of weights at locations <= x.  Everything downstream
(counting identities, prime sums, the Mertens machinery) reduces to two
integrals computed here:

* integrate_kernel_times_step: the ordinary integral of kernel(y) * F(y),
  evaluated segment by segment between jumps, in closed form for every
  kernel;
* stieltjes_integrate: the integral of a kernel against the measure dF,
  the sum of the kernel at each atom times its weight, in floats (the
  routes integrate by parts instead).  A smooth density beside the atoms
  (the -1/y of the Mertens remainder) is integrated by its caller,
  through a kernel's antiderivative_diff.

Arithmetic follows the data.  Rational locations and weights (int,
fractions.Fraction, or any other numbers.Rational such as gmpy2.mpq) flow
through power-kernel integrals without rounding: from construction, an
exact series holds its locations as integer numerators over one location
denominator, and its step values in runs of consecutive jumps, each over
its own denominator (_IntegerForm); the segment sums run in Python ints,
the runs merge pairwise into one run tree (_run_tree), where each run
before the range adds only its total weight.  The Abel identity's two
terms, x**m * F(x) and m times the integral of y**(m-1) * F(y) from the
first jump, both come from one such tree (_exact_abel) and are put over
one denominator as ints, left unreduced (_Unreduced): an exact set check
compares that pair with its oracle's as it is.  One helper (_exact_value)
builds each exact result a public function returns, an int or a
Fraction.  The constructor derives that form from rational data; the
package's own exact staircases are built from their builders' ints
(_exact_series), with no Fraction per atom.  Anything
involving a logarithm is evaluated in floats, with the antiderivative
differences arranged to avoid cancellation between nearby segment
endpoints; a power kernel's segment terms are evaluated in C-level maps
(_power_diffs), with the operations of its scalar antiderivative_diff.
"""

import math
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from fractions import Fraction
from itertools import accumulate, compress, repeat
from operator import floordiv, mul, ne, sub, truediv
from numbers import Integral, Rational, Real
from typing import NamedTuple

from .errors import DomainError, _check_finite_point, _float_point, _int_text

__all__ = [
    "Kernel",
    "POWER_ZERO",
    "INV_Y_LOG_SQ",
    "INV_Y_LOG",
    "INV_LOG",
    "INV_LOG_MINUS_SQ",
    "JumpSeries",
    "build_jump_series",
    "integrate_kernel_times_step",
    "stieltjes_integrate",
]

# =====================================================================
# Kernel catalog
# =====================================================================


class Kernel:
    """An integrand shape with a closed-form integral.

    Every kernel states in one place how to evaluate it, the largest value
    the integration lower bound must stay above (``lower_domain_edge``,
    None for no edge), and its integral over [l, r] for floats l <= r
    (``antiderivative_diff(l, r)``), and the terms F * that integral over
    many segments at once (``segment_terms``).  ``integer_exponent`` is
    the int k of y**k for an integral k, which keeps rational data
    rational; None otherwise.

    Instances of this class are kernels in log y, defined for y > 1 and
    evaluated in floats: the module constants INV_Y_LOG_SQ, INV_Y_LOG,
    INV_LOG and INV_LOG_MINUS_SQ are 1/(y log^2 y), 1/(y log y), 1/log y
    and 1/log y - 1/log^2 y, the derivatives of -1/log y, log log y,
    li(y) = Ei(log y) (_ei_diff) and y/log y.  Kernel.power(k) is y**k.
    """

    lower_domain_edge = 1.0
    integer_exponent = None

    def __init__(self, tag, evaluate, antiderivative_diff):
        self.tag = tag
        self._evaluate = evaluate
        self.antiderivative_diff = antiderivative_diff

    @staticmethod
    def power(k):
        if not isinstance(k, Real):
            raise DomainError(f"power kernel exponent must be real, got {k!r}")
        return _Power(k)

    def __call__(self, y):
        fy = float(y)
        if fy <= 1.0:
            raise DomainError(f"kernel {self.tag} undefined at {y}")
        return self._evaluate(fy)

    def check_interval(self, a, b):
        if a > b:
            raise DomainError(
                f"integration bounds out of order: [{_int_text(a)}, {_int_text(b)}]"
            )
        edge = self.lower_domain_edge
        if edge is not None and a <= edge:
            raise DomainError(
                f"kernel {self.tag} undefined on [{_int_text(a)}, {_int_text(b)}]: "
                f"lower bound must exceed {edge}"
            )

    def segment_terms(self, values, lefts, rights):
        """value * antiderivative_diff(l, r) per segment, lazily, for
        floats l < r."""
        return map(mul, values, map(self.antiderivative_diff, lefts, rights))


class _Power(Kernel):
    """y**k; rational bases stay rational under an integral k.  Power
    kernels are equal when their exponents are."""

    def __init__(self, exponent):
        self.tag = f"y**{exponent}"
        self.exponent = exponent
        self.integer_exponent = ki = _integer_exponent(exponent)
        # the antiderivative is y**m / m, or log y for m = 0
        self._m = (ki + 1) if ki is not None else float(exponent) + 1.0

    def __eq__(self, other):
        if not isinstance(other, _Power):
            return NotImplemented
        return self.exponent == other.exponent

    def __hash__(self):
        return hash(self.exponent)

    def __call__(self, y):
        return _rational_pow(y, self.exponent)

    @property
    def lower_domain_edge(self):
        # negative powers blow up at 0; fractional powers need y > 0
        if self.exponent < 0 or self.integer_exponent is None:
            return 0.0
        return None

    def antiderivative_diff(self, l, r):
        if r == l and self._m != 0:
            return 0.0
        return next(_power_diffs((l,), (r,), self._m))

    def segment_terms(self, values, lefts, rights):
        """As Kernel.segment_terms, in C-level maps (_power_diffs);
        ``lefts`` is a sequence."""
        return map(mul, values, _power_diffs(lefts, rights, self._m))


def _integer_exponent(k):
    if type(k) is int:
        return k
    if isinstance(k, Integral):
        return int(k)
    if isinstance(k, Rational) and k.denominator == 1:
        return int(k)
    return None


def _rational_pow(base, exponent):
    """base ** exponent, keeping integer bases rational under negative powers.

    Plain Python would hand back a float for e.g. 3 ** -2; widening to
    Fraction first preserves exactness for rational pipelines.
    """
    if type(exponent) is int:
        ki = exponent
    else:
        ki = _integer_exponent(exponent)
        if ki is None:
            return base ** exponent
    if ki < 0 and isinstance(base, Integral):
        return Fraction(int(base)) ** ki
    return base ** ki


def _power_diffs(lefts, rights, m):
    """(r**m - l**m) / m, or log(r) - log(l) for m = 0, per pair of floats
    0 < l < r, lazily: l**m * expm1(m * log1p((r - l) / l)) / m, stable
    when r is near l.  ``lefts`` is a sequence, read twice.

    Python converts an int m to a float for each of these operations, so
    converting it once gives the same bits.
    """
    logs = map(math.log1p, map(truediv, map(sub, rights, lefts), lefts))
    if m == 0:
        return logs
    m = float(m)
    rises = map(math.expm1, map(mul, repeat(m), logs))
    return map(truediv, map(mul, map(pow, lefts, repeat(m)), rises), repeat(m))


def _log_ratio(l, r):
    """log(r) - log(l) for 0 < l <= r, stable when r is near l."""
    return math.log1p((r - l) / l)


def _ei_diff(u, d):
    """(Ei(u + d) - Ei(u), an error bound) for u > 0 and d >= 0.

    Ei(u) = gamma + log u + sum of u**n / (n * n!) (Abramowitz and Stegun
    5.1.10); with s = u + d the difference is log1p(d/u) plus the positive
    terms s**n / n! * (1 - (u/s)**n) / n, which past n = s - 1 shrink at
    least by s/(n+1), which bounds the tail.  With u and d within 2 ulps
    (log, log1p), the nth term is within 4n + 7 ulps and summing adds n/2.
    """
    eps = 2.0**-52
    ell, s = math.log1p(d / u), u + d
    total, weighted, a, n, tail = ell, 0.0, 1.0, 0, 0.0
    while ell > 0:
        n += 1
        a *= s / n
        term = a * -math.expm1(-n * ell) / n
        total += term
        weighted += n * term
        if n + 1 > s and (tail := term * s / (n + 1 - s)) <= 0.25 * eps * total:
            break
    return total, (4.0 * eps) * weighted + (n + 16) * eps * total + tail


POWER_ZERO = Kernel.power(0)
INV_Y_LOG_SQ = Kernel(
    "inv_y_log_sq",
    lambda y: 1.0 / (y * math.log(y) ** 2),
    # antiderivative -1/log y
    lambda l, r: _log_ratio(l, r) / (math.log(l) * math.log(r)),
)
INV_Y_LOG = Kernel(
    "inv_y_log",
    lambda y: 1.0 / (y * math.log(y)),
    # antiderivative log log y
    lambda l, r: math.log1p(_log_ratio(l, r) / math.log(l)),
)
INV_LOG = Kernel(
    "inv_log",
    lambda y: 1.0 / math.log(y),
    lambda l, r: _ei_diff(math.log(l), _log_ratio(l, r))[0],  # li(r) - li(l)
)
INV_LOG_MINUS_SQ = Kernel(
    "inv_log_minus_sq",
    lambda y: (math.log(y) - 1.0) / math.log(y) ** 2,
    # antiderivative y/log y, stable when r is near l
    lambda l, r: (
        (r - l) / math.log(r) - l * _log_ratio(l, r) / (math.log(l) * math.log(r))
    ),
)


# =====================================================================
# Jump series
# =====================================================================


# An exact series keeps its running sums in runs of this many consecutive
# jumps (_IntegerForm).  Shorter runs take more merges, longer ones wider
# running sums, and the costs stay flat in between.  Measured for 64, 128
# and 256 (CPU time, best of 7, 2 vCPU, Python 3.11): the exact floor at
# 30000 took 121, 129 and 136 ms with traced peaks of 7.5, 9.2 and
# 12.5 MiB; the exact prime count at 19999 took 12.6, 12.8 and 13.9 ms;
# 20 exact random sets of up to 200 atoms took 66.8, 64.3 and 63.3 ms.
_RUN = 128


class _IntegerForm(NamedTuple):
    """An exact series as Python ints: location i is locations[i] / loc_den,
    weight i is nums[i] / dens[i], and the running sums are kept in
    ``runs`` of _RUN consecutive jumps.

    ``locations``, ``nums`` and ``dens`` are the sequences it was built
    from, uncopied (_exact_series).  A weight need not be in lowest
    terms, but an integer weight has den 1.
    Run r is a pair (den, prefix): den is the lcm of dens[r*_RUN] ..
    dens[(r+1)*_RUN - 1], and prefix[k] / den is the sum of the first k
    of the run's weights, so no running sum is wider than its own run's
    lcm.  Each lcm is taken in a balanced tree of pairwise lcms
    (_balanced), and a run's running sums are accumulated from its scaled
    weights one at a time (_run).  ``integral`` is true when every den is
    1: then every run's den is 1, and step values and the integrals and
    Abel sums that keep ints stay ints.
    """

    loc_den: int
    locations: Sequence
    nums: Sequence
    dens: Sequence
    integral: bool
    runs: tuple

    def run_of(self, index):
        """(r, k): step value ``index`` is runs[r]'s prefix[k], the sum of
        the weights before the run plus prefix[k] / den.  Run r holds the
        step values r*_RUN + 1 .. (r+1)*_RUN, and run 0 also value 0."""
        r = max(index - 1, 0) // _RUN
        return r, index - r * _RUN


def _balanced(nodes, merge):
    """Reduce a nonempty list with merge, pairing neighbours level by
    level, so the operands of each merge stay about the same size."""
    while len(nodes) > 1:
        merged = list(map(merge, nodes[::2], nodes[1::2]))
        if len(nodes) % 2:
            merged.append(nodes[-1])
        nodes = merged
    return nodes[0]


def _run(nums, dens):
    """(den, running sums from 0) of one run of the weights nums[i] /
    dens[i], den the lcm of dens."""
    den = _balanced(dens, math.lcm)
    steps = map(mul, nums, map(floordiv, repeat(den), dens))
    return den, tuple(accumulate(steps, initial=0))


def _form_from_ints(loc_den, locations, nums, dens):
    """The _IntegerForm of the ints of an exact series."""
    runs = tuple(
        _run(nums[i : i + _RUN], dens[i : i + _RUN]) for i in range(0, len(nums), _RUN)
    )
    integral = all(den == 1 for den, _ in runs)
    return _IntegerForm(loc_den, locations, nums, dens, integral, runs or ((1, (0,)),))


def _ratio(num, den):
    """num / den: an int for den 1, a Fraction otherwise."""
    return num if den == 1 else Fraction(num, den)


class JumpSeries:
    """Immutable right-inclusive step function.

    The constructor takes data that are already normalised and checks
    none of it: ``locations`` strictly increasing, positive and finite
    reals, and ``weights`` (one per location) finite and nonzero reals.
    Sieve output and the random-set draws of stepsum.verify meet this by
    construction.  Input from outside the program goes through
    build_jump_series, which validates, sorts, merges and drops zero
    weights.  The package's own exact staircases, whose ints their
    builders know, come from _exact_series, which takes the ints and
    makes no Fraction per atom.

    An exact series (every location and weight rational) holds its integer
    form (_IntegerForm) from construction: the constructor scales the
    locations over the lcm of their denominators, and ``locations`` and
    ``weights`` return the tuples it was given.  Its running sums are not
    added up as Fractions: they are integer numerators, in runs of _RUN
    consecutive jumps, each run over the lcm of its own weights'
    denominators (1 for integer weights), so integration never
    renormalises a Fraction per jump.
    A step value or an integral merges the runs up to its end pairwise,
    and a step value is reduced each time it is asked for, and not kept:
    to an int when every weight is an integer (_IntegerForm.integral), to
    a Fraction otherwise, the rule the exact integrals and Abel sums
    follow too.  So a running sum has the digits of one run's lcm, not of
    the lcm of every weight (about 1.44 x bits over the primes or the
    naturals up to x): at primes.EXACT_X_CAP, the exact floor over the
    naturals builds its series and its run tree, for the step value and
    the integral at once, in about 0.10 s, with a traced peak of about
    6 MiB.
    """

    __slots__ = ("_locations", "_weights", "_prefix", "_is_exact", "_integer")

    def __init__(self, locations, weights):
        self._locations = locations = tuple(locations)
        self._weights = weights = tuple(weights)
        types = set(map(type, locations)) | set(map(type, weights))
        self._is_exact = all(issubclass(t, Rational) for t in types)
        self._prefix = self._integer = None
        if not self._is_exact:
            self._prefix = (0,) + tuple(accumulate(weights))
            return
        dens = [int(q.denominator) for q in locations]
        loc_den = _balanced([1, *dens], math.lcm)
        self._integer = _form_from_ints(
            loc_den,
            tuple(int(q.numerator) * (loc_den // d) for q, d in zip(locations, dens)),
            [int(w.numerator) for w in weights],
            [int(w.denominator) for w in weights],
        )

    @property
    def locations(self):
        if self._locations is None:
            form = self._integer
            self._locations = tuple(map(_ratio, form.locations, repeat(form.loc_den)))
        return self._locations

    @property
    def weights(self):
        if self._weights is None:
            form = self._integer
            self._weights = tuple(map(_ratio, form.nums, form.dens))
        return self._weights

    @property
    def domain_min(self):
        if not len(self):
            return None
        if self._locations is None:
            return _ratio(self._integer.locations[0], self._integer.loc_den)
        return self._locations[0]

    @property
    def is_exact(self):
        return self._is_exact

    def __len__(self):
        if self._locations is None:
            return len(self._integer.locations)
        return len(self._locations)

    def __repr__(self):
        if not len(self):
            return "JumpSeries(empty)"
        locs = self.locations
        return f"JumpSeries({len(locs)} atoms on [{locs[0]}, {locs[-1]}])"

    def value(self, x):
        """F(x): sum of weights at locations <= x (jumps are inclusive)."""
        _check_finite_point(x)
        return self.prefix_value(bisect_right(self.locations, x))

    __call__ = value

    def prefix_value(self, index):
        """Sum of the first ``index`` weights (0 <= index <= len).

        An exact series merges the run totals before the value pairwise
        (_merge), and _exact_value types the sum: an int when every weight
        is an integer, a Fraction otherwise.
        """
        if not self._is_exact:
            return self._prefix[index]
        form = self._integer
        r, k = form.run_of(index)
        den, prefix = form.runs[r]
        nodes = [*_rise_nodes(form.runs[:r], 0), (prefix[k], den, 0, 1, 1, 0, 0)]
        n, d = _balanced(nodes, _merge)[:2]
        return _exact_value(form, n, d, True)


def _exact_series(loc_den, loc_nums, nums, dens):
    """The exact JumpSeries with locations loc_nums[i] / loc_den and
    weights nums[i] / dens[i], built from ints: the package's exact
    staircases, whose ints their builders know, make no Fraction per atom.

    The data meet JumpSeries' contract: the locations strictly increasing
    and positive, and no weight zero.  A ratio need not be in lowest
    terms, but loc_den is 1 when every location is an integer and a den
    is 1 for an integer weight, which the type rule of the results reads
    (_IntegerForm.integral, _exact_value).  The integer form keeps the
    sequences uncopied (the naturals' range, the sieve's list), so they
    must not change.  ``locations`` and ``weights`` are built on first
    read, an int where the denominator is 1 and a Fraction otherwise.  A
    function, not a JumpSeries method: a benchmark tracer may rebind the
    name JumpSeries in the calling modules to a plain function.
    """
    series = JumpSeries.__new__(JumpSeries)
    series._locations = series._weights = series._prefix = None
    series._is_exact = True
    series._integer = _form_from_ints(loc_den, loc_nums, nums, dens)
    return series


def _check_atom(location, weight):
    if not isinstance(location, Real) or isinstance(location, bool):
        raise DomainError(f"atom location must be a real number, got {location!r}")
    if isinstance(location, float) and not math.isfinite(location):
        raise DomainError(f"atom location must be finite, got {location}")
    if location <= 0:
        raise DomainError(f"atom location must be positive, got {_int_text(location)}")
    if not isinstance(weight, Real) or isinstance(weight, bool):
        raise DomainError(f"atom weight must be a real number, got {weight!r}")
    if isinstance(weight, float) and not math.isfinite(weight):
        raise DomainError(f"atom weight must be finite, got {weight}")


def build_jump_series(points):
    """Build a JumpSeries from (location, weight) pairs.

    Locations must be positive and finite; duplicates are merged by adding
    their weights, and atoms whose merged weight is zero are dropped.
    """
    pairs = []
    for location, weight in points:
        _check_atom(location, weight)
        pairs.append((location, weight))
    pairs.sort(key=lambda p: p[0])
    locations = []
    weights = []
    for location, weight in pairs:
        if locations and locations[-1] == location:
            weights[-1] = weights[-1] + weight
        else:
            locations.append(location)
            weights.append(weight)
    kept = [(l, w) for l, w in zip(locations, weights) if w != 0]
    return JumpSeries([l for l, _ in kept], [w for _, w in kept])


# =====================================================================
# Integral of kernel(y) * F(y) dy
# =====================================================================


def _float_steps(series, i0, i1):
    """(values, nonzero): the step values i0, ..., i1 of a series, each
    rounded once to a float, and as many items that are true where the
    exact value is nonzero.

    An exact series' values are its exact step value i0 plus the weights
    after it, added one at a time; the float of each int or Fraction is
    correctly rounded.
    """
    if series.is_exact:
        start = series.prefix_value(i0)
        values = list(accumulate(series.weights[i0:i1], initial=start))
    else:
        values = series._prefix[i0 : i1 + 1]
    return list(map(float, values)), values


def integrate_kernel_times_step(series, kernel, a, b):
    """Integral of kernel(y) * F(y) over [a, b], exact per segment.

    F is constant between jumps, so the integral is the sum over constancy
    segments of the F-value times the kernel's antiderivative difference.
    Power kernels with an integral exponent other than -1 keep rational
    data rational, over an empty range (a == b) too: the segments are
    summed in Python ints (see _exact_power_integral) and the result is a
    Fraction, or an int for k = 0 when the weights, the locations and the
    bounds are integers.  Otherwise each F-value, accumulated from one
    exact step value if the series is exact, is rounded once to a float
    (_float_steps), and the segment terms (Kernel.segment_terms) are
    added in one correctly rounded sum.
    """
    _check_finite_point(a)
    _check_finite_point(b)
    kernel.check_interval(a, b)
    ki = kernel.integer_exponent
    if (
        series.is_exact
        and isinstance(a, Rational)
        and isinstance(b, Rational)
        and ki not in (None, -1)
    ):
        return _exact_power_integral(series, ki + 1, a, b)
    if a == b or len(series) == 0:
        return 0.0

    # F is value i0 + j on segment j, from a through the jumps inside
    # (a, b) to b.  A zero value gives no term, and its segment's ends are
    # not rounded; nor does a segment whose ends round to one float
    # (_power_diffs takes l < r).
    locs = series.locations
    i0 = bisect_right(locs, a)
    i1 = bisect_left(locs, b)
    values, nonzero = _float_steps(series, i0, i1)
    points = (_float_point(a), *locs[i0:i1], _float_point(b))
    if all(nonzero):
        ends = list(map(float, points))
        lefts, rights = ends[:-1], ends[1:]
    else:
        values, lefts, rights = _select(nonzero, values, points[:-1], points[1:])
        lefts, rights = list(map(float, lefts)), list(map(float, rights))
    if not all(map(ne, lefts, rights)):
        wide = list(map(ne, lefts, rights))
        values, lefts, rights = _select(wide, values, lefts, rights)
    return math.fsum(kernel.segment_terms(values, lefts, rights))


def _select(keep, *columns):
    """Each column as a list of its items where ``keep`` is true."""
    return [list(compress(column, keep)) for column in columns]


def _scaled_point(value, loc_den):
    """value * loc_den as a reduced (numerator, denominator) pair of ints."""
    num = int(value.numerator) * loc_den
    den = int(value.denominator)
    g = math.gcd(num, den)
    return num // g, den // g


def _join_stretches(left, right):
    """Two adjacent stretches of segment terms n / (l * r) as one.

    A stretch is an unreduced triple (num, l, f): its sum is num over the
    product of its endpoint denominators, which is l times the last of
    them and the first of them times f.  Stored once without the last
    factor and once without the first, the endpoint two stretches share
    enters their sum once.
    """
    n1, l1, f1 = left
    n2, l2, f2 = right
    return n1 * f2 + n2 * l1, l1 * l2, f1 * f2


def _merge(left, right):
    """Two adjacent nodes of a run tree as one.

    A node covers consecutive segments, or none for a run before the
    range (_rise_nodes), and is (n, den, s, l, f, first, last).  n / den
    is the sum of its weights, the rise of F across it.  With P the
    product of its endpoint denominators, l = P without the last factor
    and f = P without the first, s / (den * P) is the sum of its
    segments' kernel integrals times F counted from the node's start, and
    first and last are the kernel's antiderivative at its ends over their
    own denominators.  So the kernel's integral over the right node's
    span is (last * l - first * f) / P, from its end points alone, and the
    left node's rise times that integral joins the two sums.
    """
    n1, den1, s1, l1, f1, first, _ = left
    n2, den2, s2, l2, f2, first2, last = right
    g = math.gcd(den1, den2)
    c1, c2 = den2 // g, den1 // g
    span2 = last * l2 - first2 * f2
    return (
        n1 * c1 + n2 * c2,
        den1 * c1,
        c1 * (s1 * f2 + n1 * span2 * l1) + c2 * s2 * l1,
        l1 * l2,
        f1 * f2,
        first,
        last,
    )


def _rise_nodes(runs, point):
    """_merge's nodes for whole runs before a span that starts at
    ``point``: each is its run's total weight, a rise that covers no
    segment, so both its ends are ``point``."""
    return [(prefix[-1], den, 0, 1, 1, point, point) for den, prefix in runs]


def _run_tree(form, m, a, b):
    """The run tree of the integral of y**(m-1) * F(y) over [a, b] (a <= b,
    m != 0), for an exact series' integer form: (root, rest, scale, i1,
    bn, bd).

    Segment by segment, F-value times (right**m - left**m) / m, summed in
    integer numerators: the jump locations strictly inside (a, b) are
    ints over the series' location denominator, and the two partial end
    segments at a and b enter as separate rational terms, so nothing is
    rescaled to the denominators of a and b but the final sum.  Each run
    of the integer form that meets [a, b] sums its own segments with its
    own running sums (_power_node, _reciprocal_node), each run before it
    enters as a rise at a (_rise_nodes), and the nodes merge pairwise in
    a balanced tree (_merge), so no running sum is put over the lcm of
    every weight.  An empty range is one segment of length zero.

    ``root`` is _merge's node over [a, b]: its rise n / den is F just
    below b (F(b) if a == b), and m times the integral is s * scale /
    (den * rest).  The first ``i1`` jumps lie below b (at or below it if
    a == b); bn / bd is b * loc_den in lowest terms.  Nothing is reduced.
    """
    an, ad = _scaled_point(a, form.loc_den)
    bn, bd = _scaled_point(b, form.loc_den)
    locs = form.locations
    # the scaled locations are ints: compare them with floor(a), ceil(b)
    i0 = bisect_right(locs, an // ad)
    i1 = max(bisect_left(locs, -(-bn // bd)), i0)
    if m > 0:
        # y**m = (n/d)**m / loc_den**m for a scaled point n/d: over
        # (ad * bd * loc_den)**m, every point is an int
        ad_m, bd_m = ad**m, bd**m
        ends = an**m * bd_m, bn**m * ad_m, ad_m * bd_m
        node, start, rest, scale = _power_node, ends[0], ends[2] * form.loc_den**m, 1
    else:
        # y**m = (d/n)**j * loc_den**j for a scaled point n/d, with j = -m
        j = -m
        ends = (ad**j, an**j), (bd**j, bn**j)
        node, start, rest, scale = _reciprocal_node, ad**j, an**j, form.loc_den**j
    # step values i0 .. i1 hold on [a, b], value i up to location i and
    # value i1 up to b
    r0, k0 = form.run_of(i0)
    r1, k1 = form.run_of(i1)
    nodes = _rise_nodes(form.runs[:r0], start)
    for r in range(r0, r1 + 1):
        den, prefix = form.runs[r]
        base = r * _RUN
        head, tail = r == r0, r == r1
        lo, hi = k0 if head else 1, k1 if tail else _RUN
        inner = locs[i0 if head else base : i1 if tail else base + _RUN + 1]
        nodes.append(node(den, prefix, lo, hi, inner, head, tail, m, ends))
    root = _balanced(nodes, _merge)
    return root, rest * root[4], scale, i1, bn, bd


class _Unreduced(NamedTuple):
    """numerator / denominator as two ints, not reduced, with a Fraction's
    attribute names, so that stepsum.report reads both alike."""

    numerator: int
    denominator: int


def _exact_value(form, num, den, whole):
    """num / den by the type rule of every exact result: an int when den
    is 1, every weight is an integer (_IntegerForm.integral) and the
    finisher's own condition ``whole`` holds; a Fraction otherwise."""
    if whole and form.integral and den == 1:
        return num
    return Fraction(num, den)


def _exact_power_integral(series, m, a, b):
    """Integral of y**(m-1) * F(y) over [a, b] (a <= b, m != 0), exactly,
    from the run tree (_run_tree), typed by _exact_value: an int only for
    m = 1 when every weight, location and bound is an integer."""
    form = series._integer
    root, rest, scale, *_ = _run_tree(form, m, a, b)
    _, den, s = root[:3]
    return _exact_value(form, s * scale, den * rest * m, m == 1)


def _exact_abel(series, x, m):
    """x**m * F(x) - m * (integral of y**(m-1) * F(y) from the first jump
    to x), exactly, from one run tree (_run_tree), as an _Unreduced pair.

    For an exact series, an int or Fraction x from the first jump on and
    an int m != 0.  The tree's root gives both terms: its rise is F just
    below x plus the weight at x for an atom past the first jump, or F(x)
    at the first jump, and its sum is m times the integral.  The two
    terms stay apart until they are put over one denominator as ints, and
    nothing is reduced: an exact set check compares the pair with its
    oracle's by cross-multiplication, and _abel_value types it for a
    public route.
    """
    form = series._integer
    root, rest, scale, i1, bn, bd = _run_tree(form, m, series.domain_min, x)
    n, den, s = root[:3]
    wn, wd = 0, 1
    if bd == 1 and i1 < len(form.locations) and form.locations[i1] == bn:
        wn, wd = form.nums[i1], form.dens[i1]
    if m > 0:
        xn, xd = x.numerator**m, x.denominator**m
    else:
        xn, xd = x.denominator**-m, x.numerator**-m
    # x**m * (n/den + wn/wd) - s * scale / (den * rest)
    num = xn * (n * wd + wn * den) * rest - s * scale * xd * wd
    return _Unreduced(num, xd * wd * den * rest)


def _abel_value(series, x, m, ratio):
    """The exact Abel sum ``ratio`` = _exact_abel(series, x, m), typed by
    _exact_value: an int only for m = 1, an int x, integer locations and
    integer weights, where the step value and the integral are ints too.
    So the type is the one _abel gives of the two, even where the weights
    up to x are integers and later ones are not."""
    return _exact_value(series._integer, *ratio, m == 1 and type(x) is int)


def _power_node(den, prefix, lo, hi, inner, head, tail, m, ends):
    """_merge's node for m > 0 over one run's segments.

    The run's step values prefix[lo], ..., prefix[hi] hold in order: on
    the segment from a to inner[0] if ``head``, on those between the
    locations ``inner``, and on the segment from inner[-1] to b if
    ``tail``.  ``ends`` is (a's point, b's point, ad**m * bd**m), each
    point the int y**m * (ad * bd * loc_den)**m, so a location q's point
    is q**m * ad**m * bd**m.
    """
    a_point, b_point, c = ends
    pw = [q**m * c for q in inner]
    if head:
        pw.insert(0, a_point)
    if tail:
        pw.append(b_point)
    s = sum(v * (r - l) for v, l, r in zip(prefix[lo : hi + 1], pw, pw[1:]))
    return prefix[hi], den, s, 1, 1, pw[0], pw[-1]


def _reciprocal_node(den, prefix, lo, hi, inner, head, tail, m, ends):
    """_merge's node for m < 0 over one run's segments (arguments as in
    _power_node).  Each point enters as (top, bottom), y**m /
    loc_den**-m = top / bottom, ``ends`` holds a's and b's, and the
    segment terms merge pairwise (_join_stretches)."""
    j = -m
    pw = [(1, q**j) for q in inner]
    if head:
        pw.insert(0, ends[0])
    if tail:
        pw.append(ends[1])
    num, l, f = _balanced(
        [
            (v * (rt * lb - lt * rb), lb, rb)
            for v, (lt, lb), (rt, rb) in zip(prefix[lo : hi + 1], pw, pw[1:])
        ],
        _join_stretches,
    )
    return prefix[hi], den, num, l, f, pw[0][0], pw[-1][0]


# =====================================================================
# Stieltjes integration
# =====================================================================


def stieltjes_integrate(kernel, measure, a, b):
    """Integral of the kernel against dF over [a, b], endpoints inclusive.

    ``measure`` is the JumpSeries F: each atom with a <= location <= b
    contributes kernel(location) * weight, in floats, and the float sum
    is correctly rounded (math.fsum).

    Public API, which the benchmark's tracer wraps by name; no route calls
    it, as over the primes its terms are the direct sum's own.
    """
    _check_finite_point(a)
    _check_finite_point(b)
    kernel.check_interval(a, b)
    locs = measure.locations
    weights = measure.weights
    return math.fsum(
        float(kernel(float(locs[i]))) * float(weights[i])
        for i in range(bisect_left(locs, a), bisect_right(locs, b))
    )
