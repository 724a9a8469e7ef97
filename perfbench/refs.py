"""Reference values for the ops of a run, computed apart from the program
under test, and the check of the run's outputs against them.

    python3 perfbench/refs.py WORKLOAD SEED OUTCOMES.jsonl

reads the outputs worker.py wrote, one JSON line per round, remakes each
round's ops (plan.py), computes one reference per op, checks every op
(checks.py) and prints one JSON object: ops attempted, ops failed, and the
first few failures that are not known faults.  Primes come from
``sympy.primerange``, reciprocal and log-weight sums from ``mpmath`` at 40
digits, exact sums from ``fractions.Fraction`` over a common denominator,
and the logarithmic integral from ``mpmath.li(x) - mpmath.li(2)``.
Importing sympy alone takes about a second, which is why none of this runs
in the timed process.
"""

import functools
import hashlib
import json
import math
import sys
from bisect import bisect_right
from fractions import Fraction

import mpmath
import numpy as np
import sympy

from checks import (
    CLI_TOL,
    check_round,
    HARMONIC_REL,
    HP_REL,
    IDENTITY_REL,
    LI2_REL,
    LI_COUNT_ABS,
    MERTENS_ABS,
)
from plan import TABLE_LIMIT, make_round

mpmath.mp.dps = 40

NATURALS = ("harmonic", "floor", "triangular")


def _fmt_exact(value):
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{value.numerator}/{value.denominator}"
    return str(int(value))


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Reference:
    """Prime data up to a limit, and the sums the checks compare against."""

    def __init__(self, limit):
        self.primes = list(sympy.primerange(2, limit + 1))
        self._psum = [0]
        self._hp = [mpmath.mpf(0)]
        self._logw = [mpmath.mpf(0)]
        for p in self.primes:
            self._psum.append(self._psum[-1] + p)
            self._hp.append(self._hp[-1] + mpmath.mpf(1) / p)
            self._logw.append(self._logw[-1] + mpmath.log(p) / p)

    def pi(self, x):
        return bisect_right(self.primes, math.floor(x))

    def prime_sum(self, x):
        return self._psum[self.pi(x)]

    def hp(self, x):
        return float(self._hp[self.pi(x)])

    def hp_between(self, a, b):
        """Sum of 1/p over a < p <= b."""
        return float(self._hp[self.pi(b)] - self._hp[self.pi(a)])

    def hp_exact(self, x):
        return self._hp_exact(self.pi(x))

    @functools.cache
    def _hp_exact(self, n):
        ps = self.primes[:n]
        product = math.prod(ps)
        return Fraction(sum(product // p for p in ps), product)

    def mertens_remainder(self, x):
        return float(self._logw[self.pi(x)] - mpmath.log(x))

    def primes_stdout(self, limit):
        ps = self.primes[: self.pi(limit)]
        return "".join(f"{p}\n" for p in ps) + f"# pi({limit})={len(ps)}\n"


def li_from_2(x):
    return float(mpmath.li(x) - mpmath.li(2))


def harmonic_float(n):
    return float(mpmath.harmonic(n))


@functools.cache
def harmonic_exact(n):
    den = math.lcm(*range(1, n + 1))
    return Fraction(sum(den // i for i in range(1, n + 1)), den)


# =====================================================================
# cli_oneshot expectations
# =====================================================================


def _compute_expectation(ref, argv):
    function, x_arg, method = argv[1], argv[3], argv[5]
    exact = "--exact" in argv
    x = float(x_arg)
    head = f"{function} {method} {x:.17g} "
    n = math.floor(x)
    if function == "harmonic":
        if exact:
            return {"stdout_sha256": sha256(head + _fmt_exact(harmonic_exact(n)) + "\n")}
        return {"line_prefix": head, "value": harmonic_float(n), "abs": 0.0, "rel": HARMONIC_REL}
    if function == "hp" and method != "mertens":
        if exact:
            return {"stdout_sha256": sha256(head + _fmt_exact(ref.hp_exact(x)) + "\n")}
        return {"line_prefix": head, "value": ref.hp(x), "abs": 0.0, "rel": HP_REL}
    if function in ("hp", "mertens"):
        return {"line_prefix": head, "value": ref.hp(x), "abs": MERTENS_ABS, "rel": 0.0}
    if function == "pi":
        if method == "li":
            return {"line_prefix": head, "value": ref.pi(x), "abs": LI_COUNT_ABS, "rel": 0.0}
        if exact or method == "direct":
            return {"stdout_sha256": sha256(head + str(ref.pi(x)) + "\n")}
        return {"line_prefix": head, "value": ref.pi(x), "abs": 0.0, "rel": IDENTITY_REL}
    if function == "prime_sum":
        if exact or method == "direct":
            return {"stdout_sha256": sha256(head + str(ref.prime_sum(x)) + "\n")}
        return {"line_prefix": head, "value": ref.prime_sum(x), "abs": 0.0, "rel": IDENTITY_REL}
    if function == "li2":
        return {"line_prefix": head, "value": li_from_2(x), "abs": 0.0, "rel": LI2_REL}
    if function == "r":
        return {"line_prefix": head, "value": ref.mertens_remainder(x), "abs": MERTENS_ABS, "rel": 0.0}
    raise ValueError(f"no reference for {argv}")


def _pointwise_value(ref, identity, x):
    n = math.floor(x)
    if identity == "harmonic":
        return harmonic_float(n)
    if identity == "floor":
        return n
    if identity == "triangular":
        return n * (n + 1) // 2
    if identity == "prime_count":
        return ref.pi(x)
    if identity == "hp_from_pi":
        return ref.hp(x)
    raise ValueError(f"no reference for {identity}")


def _verify_expectation(ref, argv):
    opts = dict(zip(argv[1::2], argv[2::2]))
    identity = opts["--identity"]
    samples = int(opts["--samples"])
    if identity == "count":
        return {"verify": {"identity": identity, "n": 9 * samples, "rows": None}}
    if identity == "hp_increment":
        return {"verify": {"identity": identity, "n": samples, "rows": None}}
    # the documented grid: log-spaced up to --xmax plus every atom below
    # min(xmax, 100)
    xmax = float(opts["--xmax"])
    lower = 1.0 if identity in NATURALS else 2.0
    xs = [float(v) for v in np.geomspace(lower, xmax, samples)]
    cut = min(xmax, 100.0)
    if identity in NATURALS:
        xs += [float(i) for i in range(1, math.floor(cut) + 1)]
    else:
        xs += [float(p) for p in ref.primes[: ref.pi(cut)]]
    rows = [[x, _pointwise_value(ref, identity, x)] for x in xs]
    return {"verify": {"identity": identity, "n": len(rows), "rows": rows, "tol": CLI_TOL}}


def cli_expectation(ref, argv):
    """What one CLI call must print: exit code plus stdout (and CSV) checks."""
    if argv[0] == "compute":
        expect = _compute_expectation(ref, argv)
    elif argv[0] == "verify":
        expect = _verify_expectation(ref, argv)
    else:
        expect = {"stdout_sha256": sha256(ref.primes_stdout(int(argv[2])))}
    expect["exit"] = 0
    return expect


# =====================================================================
# per-op references
# =====================================================================


def op_reference(ref, op):
    kind = op["kind"]
    if kind == "set":
        return None  # random sets are checked against properties
    if kind == "li_point":
        x = op["x"]
        return {"pi": ref.pi(x), "hp": ref.hp(x), "li": li_from_2(x)}
    if kind == "interval":
        return {"inc": ref.hp_between(op["a"], op["b"])}
    return cli_expectation(ref, op["argv"])


def check_run(workload, seed, outcomes_path):
    # the exact reference strings of the known-fault ops are ~8700 digits
    sys.set_int_max_str_digits(0)
    ref = Reference(TABLE_LIMIT)
    attempted = failed = 0
    unexpected = []
    with open(outcomes_path) as fh:
        for r, line in enumerate(fh):
            ops = make_round(workload, seed, r)
            outcomes = json.loads(line)
            if len(outcomes) != len(ops):
                raise ValueError(f"round {r} has {len(outcomes)} outputs for {len(ops)} ops")
            refs = [op_reference(ref, op) for op in ops]
            for op, verdict in zip(ops, check_round(ops, refs, outcomes)):
                if verdict is None:
                    continue
                failed += 1
                if not op.get("known_fault"):
                    unexpected.append(f"round {r}, {op}: {verdict}")
            attempted += len(ops)
    return {"attempted": attempted, "failed": failed, "unexpected": unexpected[:5]}


def main(argv=None):
    workload, seed, outcomes_path = argv or sys.argv[1:]
    json.dump(check_run(workload, int(seed), outcomes_path), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
