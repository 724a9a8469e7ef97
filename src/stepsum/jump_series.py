"""Step functions built from weighted jumps, and integrals against them.

A jump series is the right-inclusive summatory function of a finite atom
set: F(x) = sum of weights at locations <= x.  Everything downstream
(counting identities, prime sums, the Mertens machinery) reduces to two
integrals computed here:

* integrate_kernel_times_step: the ordinary integral of kernel(y) * F(y),
  evaluated segment by segment between jumps, in closed form for every
  kernel;
* stieltjes_integrate: the integral of a kernel against the measure dF,
  the sum of the kernel at each atom times its weight, in floats.  A
  smooth density beside the atoms (the -1/y of the Mertens remainder) is
  integrated by its caller, through a kernel's antiderivative_diff.

Arithmetic follows the data.  Rational locations and weights (int,
fractions.Fraction, or any other numbers.Rational such as gmpy2.mpq) flow
through power-kernel integrals without rounding: an exact series is held
as integer numerators over one location denominator, with its step values
in runs of consecutive jumps, each over its own denominator; the segment
sums run in Python ints, the runs merge pairwise into one run tree
(_run_tree), and a single Fraction is built per integral.  The Abel
identity's two terms, x**m * F(x) and m times the integral of
y**(m-1) * F(y) from the first jump, both come from one such tree
(_exact_abel): they stay separate terms, are put over one denominator
as ints, and one Fraction is built for their difference.  Anything
involving a logarithm is evaluated in floats, with the antiderivative
differences arranged to avoid cancellation between nearby segment
endpoints; a power kernel's segment terms are evaluated in C-level maps
(_power_diffs), with the operations of its scalar antiderivative_diff.
"""

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate, compress, repeat
from operator import mul, ne, sub, truediv
from numbers import Integral, Rational, Real
from typing import NamedTuple

from .errors import DomainError

__all__ = [
    "Kernel",
    "POWER_ZERO",
    "INV_Y_LOG_SQ",
    "INV_Y_LOG",
    "INV_LOG",
    "Y_OVER_LOG",
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
    INV_LOG and Y_OVER_LOG are 1/(y log^2 y), 1/(y log y), 1/log y and
    y/log y; the last two integrate to li(y) and li(y**2), where li(y) =
    Ei(log y) (_ei_diff).  Kernel.power(k) is y**k.
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
            raise DomainError(f"integration bounds out of order: [{a}, {b}]")
        edge = self.lower_domain_edge
        if edge is not None and a <= edge:
            raise DomainError(
                f"kernel {self.describe()} undefined on [{a}, {b}]: "
                f"lower bound must exceed {edge}"
            )

    def describe(self):
        return self.tag

    def segment_terms(self, values, lefts, rights):
        """value * antiderivative_diff(l, r) per segment, lazily, for
        floats l < r."""
        return map(mul, values, map(self.antiderivative_diff, lefts, rights))


class _Power(Kernel):
    """y**k; rational bases stay rational under an integral k.  Power
    kernels are equal when their exponents are."""

    def __init__(self, exponent):
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

    def describe(self):
        return f"y**{self.exponent}"


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


def _ei_kernel(c):
    """Integral of y**(c-1) / log y over [l, r]: li(r**c) - li(l**c)."""
    return lambda l, r: _ei_diff(c * math.log(l), c * _log_ratio(l, r))[0]


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
INV_LOG = Kernel("inv_log", lambda y: 1.0 / math.log(y), _ei_kernel(1.0))
Y_OVER_LOG = Kernel("y_over_log", lambda y: y / math.log(y), _ei_kernel(2.0))


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
    loc_den the lcm of every location's denominator, and the running sums
    are kept in ``runs`` of ``span`` consecutive jumps.

    Run r is a pair (den, prefix): den is the lcm of the denominators of
    weights r*span .. (r+1)*span - 1, and prefix[k] / den is the sum of
    the first k of them, so no running sum is wider than its own run's
    lcm.  ``span`` is _RUN, or every jump when the weights are integers,
    whose lcm is 1 however many there are.  Each lcm is taken in a
    balanced tree of pairwise lcms (_lcm_tree), and a run's running sums
    are accumulated from its scaled weights one at a time.
    """

    loc_den: int
    locations: tuple
    span: int
    runs: tuple

    def run_of(self, index):
        """(r, k): step value ``index`` is runs[r]'s prefix[k], the sum of
        the weights before the run plus prefix[k] / den.  Run r holds the
        step values r*span + 1 .. (r+1)*span, and run 0 also value 0."""
        r = max(index - 1, 0) // self.span
        return r, index - r * self.span


def _balanced(nodes, merge):
    """Reduce a nonempty list with merge, pairing neighbours level by
    level, so the operands of each merge stay about the same size."""
    while len(nodes) > 1:
        merged = list(map(merge, nodes[::2], nodes[1::2]))
        if len(nodes) % 2:
            merged.append(nodes[-1])
        nodes = merged
    return nodes[0]


def _lcm_tree(ints):
    """lcm of the ints, merged in a balanced tree (1 for none).

    math.lcm(*ints) folds from the left, so every small int meets the
    whole running lcm.
    """
    return _balanced(ints, math.lcm) if ints else 1


def _scale_to_common_denominator(values):
    """(d, the ints v * d for v in values, lazily) with d the lcm of the
    denominators; ints are their own scaled values, over d = 1."""
    if all(type(v) is int for v in values):
        return 1, values
    dens = [int(v.denominator) for v in values]
    d = _lcm_tree(dens)
    return d, (int(v.numerator) * (d // vd) for v, vd in zip(values, dens))


def _run(weights):
    """(den, running sums from 0) of one run of exact weights."""
    den, steps = _scale_to_common_denominator(weights)
    return den, tuple(accumulate(steps, initial=0))


class JumpSeries:
    """Immutable right-inclusive step function.

    The constructor takes data that are already normalised and checks
    none of it: ``locations`` strictly increasing, positive and finite
    reals, and ``weights`` (one per location) finite and nonzero reals.
    Sieve output and the random-set draws of stepsum.verify meet this by
    construction.  Input from outside the program goes through
    build_jump_series, which validates, sorts, merges and drops zero
    weights.

    An exact series (every location and weight rational) does not add up
    its running sums as Fractions: they are integer numerators, in runs of
    _RUN consecutive jumps, each run over the lcm of its own weights'
    denominators, computed once on first use (_IntegerForm), so
    integration never renormalises a Fraction per jump.  A step value or
    an integral merges the runs it spans pairwise, and a step value is
    reduced to a Fraction each time it is asked for, and not kept.  So a
    running sum has the digits of one run's lcm, not of the lcm of every
    weight (about 1.44 x bits over the primes or the naturals up to x):
    at primes.EXACT_X_CAP, the exact floor over the naturals builds its
    series and its run tree, for the step value and the integral at
    once, in about 0.10 s, with a traced peak of about 9 MiB.
    """

    __slots__ = ("_locations", "_weights", "_prefix", "_is_exact", "_integer")

    def __init__(self, locations, weights):
        self._locations = tuple(locations)
        self._weights = tuple(weights)
        types = set(map(type, self._locations)) | set(map(type, self._weights))
        self._is_exact = all(issubclass(t, Rational) for t in types)
        self._prefix = None
        if not self._is_exact:
            self._prefix = (0,) + tuple(accumulate(self._weights))
        self._integer = None

    @property
    def locations(self):
        return self._locations

    @property
    def weights(self):
        return self._weights

    @property
    def domain_min(self):
        return self._locations[0] if self._locations else None

    @property
    def is_exact(self):
        return self._is_exact

    def __len__(self):
        return len(self._locations)

    def __repr__(self):
        n = len(self._locations)
        if n == 0:
            return "JumpSeries(empty)"
        return f"JumpSeries({n} atoms on [{self._locations[0]}, {self._locations[-1]}])"

    def value(self, x):
        """F(x): sum of weights at locations <= x (jumps are inclusive)."""
        _check_finite_point(x)
        return self.prefix_value(bisect_right(self._locations, x))

    __call__ = value

    def prefix_value(self, index):
        """Sum of the first ``index`` weights (0 <= index <= len).

        An exact series returns an int when every weight is an integer,
        a Fraction otherwise; past its first run, the run totals before
        the value are merged pairwise (_merge).
        """
        if not self._is_exact:
            return self._prefix[index]
        form = self._integer_form()
        if len(form.runs) == 1:
            den, prefix = form.runs[0]
            return prefix[index] if den == 1 else Fraction(prefix[index], den)
        r, k = form.run_of(index)
        den, prefix = form.runs[r]
        return Fraction(*_run_sum(form.runs[:r], prefix[k], den))

    def _integer_form(self):
        """An exact series' locations and step values as ints (_IntegerForm)."""
        if self._integer is None:
            loc_den, locs = _scale_to_common_denominator(self._locations)
            weights = self._weights
            span = _RUN
            if all(int(w.denominator) == 1 for w in weights):
                span = max(len(weights), 1)
            runs = tuple(
                _run(weights[i : i + span]) for i in range(0, len(weights), span)
            )
            self._integer = _IntegerForm(
                loc_den, tuple(locs), span, runs or ((1, (0,)),)
            )
        return self._integer


def _check_finite_point(x):
    if isinstance(x, float) and not math.isfinite(x):
        raise DomainError(f"evaluation point must be finite, got {x}")
    if not isinstance(x, Real):
        raise DomainError(f"evaluation point must be real, got {x!r}")


def _check_atom(location, weight):
    if not isinstance(location, Real) or isinstance(location, bool):
        raise DomainError(f"atom location must be a real number, got {location!r}")
    if isinstance(location, float) and not math.isfinite(location):
        raise DomainError(f"atom location must be finite, got {location}")
    if location <= 0:
        raise DomainError(f"atom location must be positive, got {location}")
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

    An exact series' values are walked run by run: run r's values are
    prefix[k] / den over the weights of the runs before it, an offset
    that is carried from run to run, so no run total is merged twice.
    Each value is one int true division of its unreduced numerator and
    denominator, correctly rounded like the float of its Fraction.
    """
    if not series.is_exact:
        values = series._prefix[i0 : i1 + 1]
        return list(map(float, values)), values
    form = series._integer_form()
    span = form.span
    nums, dens = [], []
    top, bottom = 0, 1  # the weights of the runs before run r
    for r, (den, prefix) in enumerate(form.runs):
        base = r * span
        if r and base >= i1:
            break
        g = math.gcd(bottom, den)
        c_den, c_bottom = den // g, bottom // g
        lo, hi = max(i0 - base, r > 0), min(i1 - base, span)
        if lo <= hi:
            shift = top * c_den
            nums.extend([shift + p * c_bottom for p in prefix[lo : hi + 1]])
            dens.extend(repeat(bottom * c_den, hi - lo + 1))
        top, bottom = top * c_den + prefix[-1] * c_bottom, bottom * c_den
    return list(map(truediv, nums, dens)), nums


def integrate_kernel_times_step(series, kernel, a, b):
    """Integral of kernel(y) * F(y) over [a, b], exact per segment.

    F is constant between jumps, so the integral is the sum over constancy
    segments of the F-value times the kernel's antiderivative difference.
    Power kernels with an integral exponent other than -1 keep rational
    data rational: the segments are summed in Python ints (see
    _exact_power_integral) and the result is a Fraction, or an int for
    k = 0 over integer data.  Otherwise each F-value is rounded once to a
    float (_float_steps) and the segment terms (Kernel.segment_terms) are
    added in one correctly rounded sum.
    """
    _check_finite_point(a)
    _check_finite_point(b)
    kernel.check_interval(a, b)
    ki = kernel.integer_exponent
    exact = (
        series.is_exact
        and isinstance(a, Rational)
        and isinstance(b, Rational)
        and ki is not None
        and ki != -1
    )
    if a == b or len(series) == 0:
        return 0 if exact else 0.0

    if exact:
        return _exact_power_integral(series, ki + 1, a, b)

    # F is value i0 + j on segment j, from a through the jumps inside
    # (a, b) to b.  A zero value gives no term, and its segment's ends are
    # not rounded; nor does a segment whose ends round to one float
    # (_power_diffs takes l < r).
    locs = series.locations
    i0 = bisect_right(locs, a)
    i1 = bisect_left(locs, b)
    values, nonzero = _float_steps(series, i0, i1)
    points = (a, *locs[i0:i1], b)
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


def _sum_over_segments(leaves):
    """Sum of consecutive segment terms n / (l * r), as an unreduced
    triple (num, l, f): the sum is num over the product of the endpoint
    denominators, which is l times the last of them and the first of them
    times f.

    ``leaves`` holds (n, l, r) per segment, each segment's r being the
    next one's l.  Adjacent stretches merge pairwise, so operand sizes
    stay balanced.  A stretch keeps its numerator over the product of its
    endpoint denominators, stored once without the last factor and once
    without the first, so an endpoint shared by two stretches enters the
    sum once.
    """
    stretches = leaves
    while len(stretches) > 1:
        merged = [
            (n1 * f2 + n2 * l1, l1 * l2, f1 * f2)
            for (n1, l1, f1), (n2, l2, f2) in zip(stretches[::2], stretches[1::2])
        ]
        if len(stretches) % 2:
            merged.append(stretches[-1])
        stretches = merged
    return stretches[0]


def _merge(left, right):
    """Two adjacent nodes of a run tree as one.

    A node covers consecutive segments and is (n, den, s, l, f, first,
    last).  n / den is the sum of its weights, the rise of F across it.
    With P the product of its endpoint denominators, l = P without the
    last factor and f = P without the first, s / (den * P) is the sum of
    its segments' kernel integrals times F counted from the node's start,
    and first and last are the kernel's antiderivative at its ends over
    their own denominators.  So the kernel's integral over the right
    node's span is (last * l - first * f) / P, from its end points alone,
    and the left node's rise times that integral joins the two sums.
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


def _run_sum(runs, num, den):
    """(n, den): the weights of ``runs`` plus num / den, unreduced."""
    nodes = [(prefix[-1], d, 0, 1, 1, 0, 0) for d, prefix in runs]
    return _balanced([*nodes, (num, den, 0, 1, 1, 0, 0)], _merge)[:2]


def _run_tree(form, m, a, b):
    """The run tree of the integral of y**(m-1) * F(y) over [a, b] (a < b,
    m != 0), for an exact series' integer form: (root, rest, scale, r0,
    i1, bn, bd).

    Segment by segment, F-value times (right**m - left**m) / m, summed in
    integer numerators: the jump locations strictly inside (a, b) are
    ints over the series' location denominator, and the two partial end
    segments at a and b enter as separate rational terms, so nothing is
    rescaled to the denominators of a and b but the final sum.  Each run
    of the integer form sums its own segments with its own running sums
    (_power_node, _reciprocal_node), and the runs merge pairwise in a
    balanced tree (_merge), so no running sum is put over the lcm of
    every weight.

    ``root`` is _merge's node over [a, b], with F counted from the start
    of run ``r0``: its rise n / den is F just below b less the weights
    before run r0, and m times the integral is s * scale / (den * rest)
    plus, past run 0, those weights times the kernel's integral.  The
    first ``i1`` jumps lie below b, and bn / bd is b * loc_den in lowest
    terms.  Nothing is reduced here: the finishers
    (_exact_power_integral, _exact_abel) build one Fraction each.
    """
    an, ad = _scaled_point(a, form.loc_den)
    bn, bd = _scaled_point(b, form.loc_den)
    locs = form.locations
    # the scaled locations are ints: compare them with floor(a), ceil(b)
    i0 = bisect_right(locs, an // ad)
    i1 = bisect_left(locs, -(-bn // bd))
    if m > 0:
        ends = an**m, ad**m, bn**m, bd**m
        node, first_den, scale = _power_node, 1, 1
    else:
        # y**m = (d/n)**j * loc_den**j for a scaled point n/d, with j = -m
        j = -m
        ends = (ad**j, an**j), (bd**j, bn**j)
        node, first_den, scale = _reciprocal_node, an**j, form.loc_den**j
    # step values i0 .. i1 hold on [a, b], value i up to location i and
    # value i1 up to b
    if len(form.runs) == 1:
        r0 = 0
        root = node(*form.runs[0], i0, i1, locs[i0:i1], True, True, m, ends)
    else:
        r0, k0 = form.run_of(i0)
        r1, k1 = form.run_of(i1)
        span = form.span
        nodes = []
        for r in range(r0, r1 + 1):
            den, prefix = form.runs[r]
            base = r * span
            head, tail = r == r0, r == r1
            lo, hi = k0 if head else 1, k1 if tail else span
            inner = locs[i0 if head else base : i1 if tail else base + span + 1]
            nodes.append(node(den, prefix, lo, hi, inner, head, tail, m, ends))
        root = _balanced(nodes, _merge)
    rest = first_den * root[4]
    if m > 0:
        rest *= ends[1] * ends[3] * form.loc_den**m
    return root, rest, scale, r0, i1, bn, bd


def _exact_power_integral(series, m, a, b):
    """Integral of y**(m-1) * F(y) over [a, b] (a < b, m != 0), exactly,
    from the run tree (_run_tree): one Fraction, or an int for m = 1 over
    integer data."""
    form = series._integer_form()
    root, rest, scale, r0, *_ = _run_tree(form, m, a, b)
    _, den, s, l, f, first, last = root
    units = den * rest
    if len(form.runs) == 1 and m == 1 and units == 1:
        return s
    result = Fraction(s * scale, units * m)
    if r0:
        # the nodes count F from the start of run r0
        rise = (last * l - first * f) * scale
        result += series.prefix_value(r0 * form.span) * Fraction(rise, rest * m)
    return result


def _exact_abel(series, x, m):
    """x**m * F(x) - m * (integral of y**(m-1) * F(y) from the first jump
    to x), exactly, from one run tree (_run_tree).

    For an exact series, an int or Fraction x past the first jump and an
    int m != 0.  The tree's root gives both terms: its rise is F just
    below x, to which the weight at x is added when x is an atom, and
    its sum is m times the integral.  The first jump is in run 0, so no
    weights come before the tree.  The two terms stay apart until they
    are put over one denominator as ints, and one Fraction is built; an
    int only for m = 1, an int x and integer locations and weights, as
    x**m * F(x) - m * integral gives in ints.
    """
    form = series._integer_form()
    root, rest, scale, _, i1, bn, bd = _run_tree(form, m, series.domain_min, x)
    n, den, s = root[:3]
    wn, wd = 0, 1
    if bd == 1 and i1 < len(form.locations) and form.locations[i1] == bn:
        w = series.weights[i1]
        wn, wd = int(w.numerator), int(w.denominator)
    if m > 0:
        xn, xd = x.numerator**m, x.denominator**m
    else:
        xn, xd = x.denominator**-m, x.numerator**-m
    # x**m * (n/den + wn/wd) - s * scale / (den * rest)
    num = xn * (n * wd + wn * den) * rest - s * scale * xd * wd
    units = xd * wd * den * rest
    if units == 1 and m == 1 and type(x) is int:
        return num
    return Fraction(num, units)


def _power_node(den, prefix, lo, hi, inner, head, tail, m, ends):
    """_merge's node for m > 0 over one run's segments.

    The run's step values prefix[lo], ..., prefix[hi] hold in order: on
    the segment from a to inner[0] if ``head``, on those between the
    locations ``inner``, and on the segment from inner[-1] to b if
    ``tail``.  Every term is over ad**m * bd**m * loc_den**m, and the
    segments between locations are summed before they are scaled.
    """
    an_m, ad_m, bn_m, bd_m = ends
    if not inner:
        s = prefix[lo] * (bn_m * ad_m - an_m * bd_m)
        return prefix[lo], den, s, 1, 1, an_m * bd_m, bn_m * ad_m
    pw = inner if m == 1 else [q**m for q in inner]
    start = lo + 1 if head else lo
    between = prefix[start : start + len(pw) - 1]
    s = sum(v * (r - l) for v, l, r in zip(between, pw, pw[1:])) * ad_m
    if head:
        s += prefix[lo] * (pw[0] * ad_m - an_m)
        first = an_m * bd_m
    else:
        first = pw[0] * ad_m * bd_m
    s *= bd_m
    if tail:
        s += prefix[hi] * (bn_m - pw[-1] * bd_m) * ad_m
        last = bn_m * ad_m
    else:
        last = pw[-1] * ad_m * bd_m
    return prefix[hi], den, s, 1, 1, first, last


def _reciprocal_node(den, prefix, lo, hi, inner, head, tail, m, ends):
    """_merge's node for m < 0 over one run's segments (arguments as in
    _power_node).  Each end point enters as (top, bottom), y**m /
    loc_den**-m = top / bottom, and the segments are summed by
    _sum_over_segments."""
    j = -m
    pw = [(1, q**j) for q in inner]
    if head:
        pw.insert(0, ends[0])
    if tail:
        pw.append(ends[1])
    num, l, f = _sum_over_segments(
        [
            (v * (rt * lb - lt * rb), lb, rb)
            for v, (lt, lb), (rt, rb) in zip(prefix[lo : hi + 1], pw, pw[1:])
        ]
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
