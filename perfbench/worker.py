"""The measured process of one run: set up, then run whole rounds.

    python3 perfbench/worker.py --workload NAME --seed N --spawned-at T
                                [--seconds S --outcomes PATH] [--trace]
                                [--setup-only]

``T`` is ``time.monotonic()`` in the parent just before it started this
process, so set-up time counts interpreter start, importing stepsum and
building the workload's tables.  With --setup-only the process stops
there.  Otherwise it runs rounds of ops (plan.py; every round is drawn
afresh) closed loop and one op at a time, until S seconds have passed,
and after each round, outside any timed region, appends the round's
outputs as one JSON line to PATH for refs.py to check.  It prints one
JSON object as its last line.  Nothing but the ops runs inside a timed
region.
"""

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from plan import make_round  # noqa: E402

OUT_DIR = HERE / "out"
KEPT_SHARE = 0.1  # share of a run's rounds its figures are taken from
MIN_SAMPLES = 100


class Workload:
    """The program calls of one workload; tables are built in __init__."""

    def __init__(self, name, tmp_dir):
        from stepsum import analytic, cli, verify
        from stepsum.primes import sieve
        from stepsum.report import IdentityId

        from plan import TABLE_LIMIT

        self.analytic, self.cli, self.verify = analytic, cli, verify
        self.ids = IdentityId
        self.tmp_dir = tmp_dir
        self.output_bytes = 0
        self.table = sieve(TABLE_LIMIT) if name == "pi_li" else None

    def run(self, op, index):
        """One op; returns its outputs, or the exception it raised."""
        kind = op["kind"]
        if kind == "cli":
            return self._cli(op, index)
        try:
            if kind == "set":
                return self.verify.random_set_sweep(
                    op["seed"], 1, max_size=200, k_set=(0, 1, 2, 3), tol=1e-10,
                    exact=op["exact"], jobs=1,
                )
            if kind == "li_point":
                x = op["x"]
                count = self.verify.run_sweep(
                    self.ids.PRIME_COUNT_LI, self.table, [x], tol=1e-8, jobs=1
                )[0]
                mertens = self.verify.run_sweep(
                    self.ids.HP_MERTENS, self.table, [x], tol=1e-10, jobs=1
                )[0]
                return count, mertens, self.analytic.li_from_2(x)
            return self.verify.increment_sweep(
                self.table, [(op["a"], op["b"])], tol=1e-10, jobs=1
            )[0]
        except Exception as exc:  # a failed op is counted, not fatal
            return exc

    def _cli(self, op, index):
        argv = list(op["argv"])
        csv_path = None
        if op["csv"]:
            csv_path = self.tmp_dir / f"op{index}.csv"
            argv += ["--csv", str(csv_path)]
        stdout, stderr = io.StringIO(), io.StringIO()
        code, error = None, None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # e.g. the cli._fmt digit-limit fault
                error = f"{type(exc).__name__}: {exc}"
        return {"exit": code, "error": error, "stdout": stdout.getvalue(), "csv": csv_path}

    def record(self, op, outcome):
        """One op's outputs as plain JSON, for the checks."""
        if isinstance(outcome, BaseException):
            return {"raised": f"{type(outcome).__name__}: {outcome}"}
        kind = op["kind"]
        if kind == "set":
            return [_report(r) for r in outcome]
        if kind == "li_point":
            count, mertens, li = outcome
            return {"count": _report(count), "mertens": _report(mertens), "li": li.value}
        if kind == "interval":
            return _report(outcome)
        return outcome

    def collect(self, outcomes):
        """Read and remove the round's CSV files; count CLI output bytes."""
        for out in outcomes:
            if not isinstance(out, dict):
                continue
            path = out["csv"]
            if path is not None:
                try:
                    out["csv"] = path.read_text()
                    path.unlink()
                except FileNotFoundError:
                    out["csv"] = None
            self.output_bytes += len(out["stdout"].encode())
            if out["csv"] is not None:
                self.output_bytes += len(out["csv"].encode())


def _report(r):
    return {
        "identity": r.identity.value,
        "x": float(r.x),
        "k": r.k,
        "lhs": float(r.lhs),
        "rhs": float(r.rhs),
        "abs_err": float(r.abs_err),
        "passed": bool(r.passed),
    }


def summarize(rounds):
    """End-to-end figures from the slowest tenth of the rounds (at least
    100 ops' worth, or every round when the run has fewer).

    ``rounds`` holds one list of op durations (seconds) per round.  The
    machine this was tuned on runs at a steady base speed, with bursts of
    varying length and height (up to 1.9 times the base) that come and go
    by themselves; every round has the same make-up, so the slowest rounds
    are the ones run at base speed, and their figures repeat from run to
    run.  In one 600 s run of pi_li cut into 35 s windows, the op figures
    of the slowest tenth of each window's rounds spread 0.05-0.07 from
    window to window, those of the fastest quarter 0.32-0.35.
    """
    ranked = sorted(rounds, key=sum)
    # at least MIN_SAMPLES ops, so that ten or more lie past the 90th percentile
    count = max(round(len(ranked) * KEPT_SHARE), math.ceil(MIN_SAMPLES / len(ranked[0])))
    kept = ranked[-count:]
    durations = [d for r in kept for d in r]
    return {
        "ops_per_s": statistics.median(len(r) / sum(r) for r in kept),
        "op_p50_ms": statistics.median(durations) * 1e3,
        "op_p90_ms": statistics.quantiles(durations, n=10)[-1] * 1e3,
        "rounds": len(rounds),
        "rounds_kept": len(kept),
    }


def measure(workload, name, seed, seconds, tracer, outcomes_path):
    rounds = []
    attempted = 0
    clock = time.perf_counter
    started = clock()
    with open(outcomes_path, "w") as sink:
        for r in itertools.count():
            ops = make_round(name, seed, r)
            outcomes = []
            durations = []
            for i, op in enumerate(ops):
                if tracer is not None:
                    tracer.op_id = attempted + i
                t0 = clock()
                out = workload.run(op, i)
                durations.append(clock() - t0)
                outcomes.append(out)
                if tracer is not None:
                    tracer.end_op()
            rounds.append(durations)
            workload.collect(outcomes)
            records = [workload.record(op, out) for op, out in zip(ops, outcomes)]
            sink.write(json.dumps(records) + "\n")
            attempted += len(ops)
            if clock() - started >= seconds:
                break
    result = summarize(rounds)
    result["attempted"] = attempted
    return result


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--outcomes")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    tmp_dir = OUT_DIR / f"tmp-{os.getpid()}"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = Workload(args.workload, tmp_dir)
        setup_s = time.monotonic() - args.spawned_at
        result = {"setup_s": setup_s}
        if not args.setup_only:
            result.update(
                measure(workload, args.workload, args.seed, args.seconds, tracer,
                        args.outcomes)
            )
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if tracer is not None:
                result["per_layer"] = tracer.metrics(
                    result["attempted"], result["ops_per_s"], workload.output_bytes
                )
                spans = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
                tracer.write_spans(spans)
                result["spans"] = str(spans.relative_to(HERE.parent))
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
