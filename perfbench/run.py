"""The stepsum benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (it imports the package from ./src).
Workloads: random_sets, pi_li, cli_oneshot (README.md says
what each stresses and why).  A run:

1. with --trace 0, times set-up in SETUP_PROBES processes that only set up;
2. starts the measured process (worker.py), which runs whole rounds of ops,
   each drawn afresh from the seed (plan.py), for S seconds and writes
   their outputs to a file;
3. with --trace 0, times set-up in SETUP_PROBES more processes;
4. checks every output of every round in a separate process, against
   references computed there (refs.py: sympy, mpmath).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics untraced, the
per-layer metrics traced).  A failed op is one whose outputs did not
check; ``correct`` is false when any op other than the known-fault ones
failed.  Exit code 0 on a completed run, 1 when a step of it did not
complete, 2 on a usage error or a checkout without the package.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from plan import WORKLOADS  # noqa: E402

# set-up is timed in this many probe processes before the measured one and
# as many after it, so that the samples span the run
SETUP_PROBES = 5
DEADLINE_S = 170.0  # the whole run, children included, ends before 180 s


class RunError(Exception):
    pass


def _child(script, args, deadline):
    """Run one of the benchmark's scripts to its end; its last stdout line,
    parsed."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError(f"no time left to run {script}")
    cmd = [sys.executable, str(HERE / script)] + args
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=HERE.parent)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunError(f"{script} did not finish in time") from None
    if proc.returncode != 0:
        raise RunError(f"{script} exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RunError(f"{script} printed nothing")
    return json.loads(lines[-1])


def _worker(workload, seed, deadline, extra):
    args = ["--workload", workload, "--seed", str(seed)]
    args += ["--spawned-at", repr(time.monotonic())] + extra
    return _child("worker.py", args, deadline)


def run(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    outcomes = out_dir / f"outcomes-{os.getpid()}.jsonl"
    probes = 0 if trace else SETUP_PROBES
    try:
        setups = [
            _worker(workload, seed, deadline, ["--setup-only"])["setup_s"]
            for _ in range(probes)
        ]
        extra = ["--seconds", str(seconds), "--outcomes", str(outcomes)]
        result = _worker(workload, seed, deadline, extra + (["--trace"] if trace else []))
        setups += [
            _worker(workload, seed, deadline, ["--setup-only"])["setup_s"]
            for _ in range(probes)
        ]
        checked = _child("refs.py", [workload, str(seed), str(outcomes)], deadline)
    finally:
        outcomes.unlink(missing_ok=True)
    if checked["attempted"] != result["attempted"]:
        raise RunError(
            f"{checked['attempted']} ops checked of {result['attempted']} attempted"
        )
    setups.append(result["setup_s"])
    for reason in checked["unexpected"]:
        print(f"FAILED {reason}", file=sys.stderr)
    if trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            "ops_per_s": {"value": result["ops_per_s"], "unit": "ops/s"},
            "op_p50_ms": {"value": result["op_p50_ms"], "unit": "ms"},
            "op_p90_ms": {"value": result["op_p90_ms"], "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(
        f"# {workload} seed {seed}: {result['attempted']} ops in {result['rounds']} "
        f"rounds, {checked['failed']} failed; figures from the slowest "
        f"{result['rounds_kept']} rounds"
        + (f", spans in {result['spans']}" if trace else "")
    )
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    return {
        "correct": not checked["unexpected"],
        "attempted": result["attempted"],
        "failed": checked["failed"],
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (HERE.parent / "src" / "stepsum" / "__init__.py").is_file():
        print("error: no src/stepsum beside the benchmark; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
