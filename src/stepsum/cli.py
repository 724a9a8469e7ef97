"""Command line interface.

Four subcommands: primes (sieve listing), compute (one value by one
method), verify (sweep an identity against its oracle, optionally writing
CSV), bench (time the harmonic routes).  Exit codes: 0 success / all pass,
1 verification failure, 2 usage error, 3 range or resource error (such as
an x past a cap, or a bench past its work budget).
"""

import argparse
import csv
import functools
import math
import statistics
import sys
import time
from numbers import Rational
from typing import NamedTuple

from . import identities, verify
from .errors import (
    ConfigurationError,
    DomainError,
    RangeError,
    ResourceError,
    _check_finite_point,
    _int_text,
)
from .primes import DEFAULT_LIMIT_CAP, _check_exact_x, sieve
from .report import IdentityId

__all__ = ["main", "build_parser", "BenchReport", "run_bench", "write_csv"]

CSV_HEADER = ["identity", "x", "k", "lhs", "rhs", "abs_err", "rel_err", "tol", "pass"]

MAX_SAMPLES = verify.MAX_SAMPLES


def _fmt(value):
    """Render a number: 17 significant digits for floats, num/den for rationals."""
    if isinstance(value, Rational):
        return _int_text(value)
    return f"{float(value):.17g}"


def _fmt_float(value):
    return f"{float(value):.17g}"


# =====================================================================
# compute
# =====================================================================


def _sieve_to(option, x):
    """A prime table sieved to ceil(x), for a finite x.  An x past the
    sieve's cap is refused under its option's name, before the ceiling
    turns it into a limit of up to 309 digits."""
    if x > DEFAULT_LIMIT_CAP:
        raise ResourceError(
            f"{option} {x} exceeds the configured cap {DEFAULT_LIMIT_CAP}"
        )
    return sieve(max(2, math.ceil(x)))


def _compute_value(function, method, x, exact):
    # --exact refuses x past the exact cap on every method, before the sieve
    if exact:
        _check_exact_x(x)
    route = verify.ROUTES[function, method]
    table = None
    if route.needs_table:
        table = _sieve_to("--x", x)
    return route.call(table, x, exact)


def command_compute(args):
    function = args.function
    # a function's default method is listed first
    methods = [m for f, m in verify.ROUTES if f == function]
    method = args.method if args.method is not None else methods[0]
    if method not in methods:
        raise ConfigurationError(
            f"function {function} supports methods {', '.join(methods)}; got {method}"
        )
    if args.exact and not verify.ROUTES[function, method].exact:
        raise ConfigurationError(f"{function} {method} has no exact mode")
    _check_finite_point(args.x, "--x")
    value = _compute_value(function, method, args.x, args.exact)
    print(f"{function} {method} {_fmt_float(args.x)} {_fmt(value)}")
    return 0


# =====================================================================
# primes
# =====================================================================


def command_primes(args):
    if args.limit < 2:
        raise ConfigurationError(f"--limit must be at least 2, got {args.limit}")
    table = sieve(args.limit)
    out = sys.stdout
    for p in table.primes.tolist():
        out.write(f"{p}\n")
    out.write(f"# pi({args.limit})={len(table.primes)}\n")
    return 0


# =====================================================================
# verify
# =====================================================================


def write_csv(path, reports):
    """Write reports with the fixed header; floats at 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in reports:
            writer.writerow(
                [
                    r.identity.value,
                    _fmt_float(r.x),
                    "" if r.k is None else _fmt_float(r.k),
                    _fmt_float(r.lhs),
                    _fmt_float(r.rhs),
                    _fmt_float(r.abs_err),
                    _fmt_float(r.rel_err),
                    _fmt_float(r.tol),
                    "true" if r.passed else "false",
                ]
            )


def _sample_grid(lower, xmax, samples, table):
    """Log-spaced samples from ``lower`` plus every atom below min(xmax, 100):
    the naturals without a table, its primes with one."""
    # imported here, so that only a pointwise sweep loads numpy; the grid
    # is np.geomspace's, bit for bit, as the benchmark's checks expect
    import numpy as np

    grid = [float(v) for v in np.geomspace(lower, xmax, samples)]
    atom_cut = min(xmax, 100.0)
    if table is None:
        grid.extend(float(i) for i in range(1, math.floor(atom_cut) + 1))
    else:
        grid.extend(float(p) for p in table.primes_leq(atom_cut).tolist())
    return grid


def command_verify(args):
    identity = IdentityId(args.identity)
    if not 1 <= args.samples <= MAX_SAMPLES:
        raise ConfigurationError(
            f"--samples must be in [1, {MAX_SAMPLES}], got {args.samples}"
        )
    if args.jobs < 1:
        raise ConfigurationError(f"--jobs must be at least 1, got {args.jobs}")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ConfigurationError(f"--tol must be finite and at least 0, got {args.tol}")
    if identity is IdentityId.HP_INCREMENT:
        _check_finite_point(args.xmax, "--xmax")
        if args.xmax <= 2.0:
            raise ConfigurationError(f"--xmax must exceed 2, got {args.xmax}")
        table = _sieve_to("--xmax", args.xmax)
        intervals = verify.random_intervals(args.seed, args.samples, hi=args.xmax)
        reports = verify.increment_sweep(table, intervals, tol=args.tol)
    elif identity in verify.POINTWISE:
        _check_finite_point(args.xmax, "--xmax")
        route = verify.ROUTES[verify.POINTWISE[identity]]
        if args.xmax < route.lower:
            raise ConfigurationError(
                f"--xmax must be at least {route.lower} for {identity.value}"
            )
        table = None
        if route.needs_table:
            table = _sieve_to("--xmax", args.xmax)
        elif math.floor(args.xmax) > DEFAULT_LIMIT_CAP:
            # the naturals' routes loop once per integer: the sieve's cap
            raise ResourceError(
                f"--xmax {args.xmax} exceeds the configured cap {DEFAULT_LIMIT_CAP}"
            )
        grid = _sample_grid(route.lower, args.xmax, args.samples, table)
        reports = verify.run_sweep(identity, table, grid, tol=args.tol)
    else:
        reports = verify.random_set_sweep(args.seed, args.samples, tol=args.tol)
    if args.csv:
        write_csv(args.csv, reports)
    passed = sum(1 for r in reports if r.passed)
    for r in reports:
        if not r.passed:
            where = f"x={_fmt_float(r.x)}"
            if r.k is not None:
                where += f" k={_fmt_float(r.k)}"
            print(
                f"FAIL {r.identity.value} {where} lhs={_fmt_float(r.lhs)} "
                f"rhs={_fmt_float(r.rhs)} abs_err={_fmt_float(r.abs_err)}"
            )
    print(f"{identity.value}: {passed}/{len(reports)} pass")
    return 0 if passed == len(reports) else 1


# =====================================================================
# bench
# =====================================================================

# The most loop steps one bench may take.  Each call of a harmonic route
# loops once per integer up to x, and its fixed cost is about that of
# _CALL_STEPS more integers: a call of all three routes took about 8.5 us
# at x = 1.5 and 0.5 us per integer at x = 10**5 (Python 3.11), so the
# budget is about 10 s.  run_bench refuses reps past it before any loop.
BENCH_WORK_CAP = 2 * 10**7
_CALL_STEPS = 16


class BenchReport(NamedTuple):
    op: str
    method: str
    x: float
    reps: int
    median_ns: int
    result: float


def _naive_harmonic(n):
    total = 0.0
    for i in range(1, n + 1):
        total += 1.0 / i
    return total


def run_bench(x, reps):
    """Time the three harmonic routes; one warm-up call each is discarded.

    Refuses x past the naturals' cap, and reps whose calls would take
    more than BENCH_WORK_CAP loop steps, with ResourceError before any
    loop.
    """
    if reps < 3:
        raise ConfigurationError(f"reps must be at least 3, got {reps}")
    # before any loop: the naive route runs once per integer up to x
    identities._check_at_least(x, 1, "bench argument")
    n = math.floor(x)
    if (reps + 1) * (n + _CALL_STEPS) > BENCH_WORK_CAP:
        raise ResourceError(
            f"bench of {reps} reps at x = {x} exceeds the work budget of "
            f"{BENCH_WORK_CAP} loop steps"
        )
    routes = [
        ("direct", lambda: _naive_harmonic(n)),
        ("direct_compensated", lambda: identities.harmonic_direct(x)),
        ("identity", lambda: identities.harmonic_via_identity(x)),
    ]
    rows = []
    for method, fn in routes:
        fn()
        times = []
        result = None
        for _ in range(reps):
            t0 = time.perf_counter_ns()
            result = fn()
            times.append(time.perf_counter_ns() - t0)
        rows.append(
            BenchReport(
                op="harmonic",
                method=method,
                x=float(x),
                reps=reps,
                median_ns=int(statistics.median(times)),
                result=result,
            )
        )
    return rows


def command_bench(args):
    rows = run_bench(args.x, args.reps)
    print("op,method,x,reps,median_ns,result")
    for row in rows:
        print(
            f"{row.op},{row.method},{_fmt_float(row.x)},{row.reps},"
            f"{row.median_ns},{_fmt_float(row.result)}"
        )
    by_method = {row.method: row.result for row in rows}
    gap = abs(by_method["identity"] - by_method["direct_compensated"])
    print(f"# |identity - direct_compensated| = {_fmt_float(gap)}")
    return 0


# =====================================================================
# parser and entry point
# =====================================================================


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stepsum",
        description="Summatory identities for step functions over the "
        "naturals and the primes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("primes", help="list primes up to a limit")
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(func=command_primes)

    p = sub.add_parser("compute", help="compute one value by one method")
    p.add_argument(
        "function",
        choices=sorted({f for (f, _), route in verify.ROUTES.items() if route.compute}),
    )
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--method", default=None)
    p.add_argument("--exact", action="store_true")
    p.set_defaults(func=command_compute)

    p = sub.add_parser("verify", help="sweep an identity against its oracle")
    p.add_argument(
        "--identity", required=True, choices=[i.value for i in IdentityId]
    )
    p.add_argument("--xmax", type=float, default=1000.0)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--csv", default=None, help="write all reports to this path")
    # accepted for compatibility: sweeps run serially
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=command_verify)

    p = sub.add_parser("bench", help="time the harmonic routes")
    p.add_argument("--op", choices=["harmonic"], required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.set_defaults(func=command_bench)

    return parser


@functools.cache
def _parser():
    """The parser of this process, built on first use: building one costs
    more than parsing a short argv."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, RangeError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
