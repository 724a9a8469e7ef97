"""The golden output corpus of the `stepsum` command line, and its recorder.

Each entry is one argv run in-process through stepsum.cli.main, with its
exit code, stdout, stderr and CSV bytes.  A text of at most SHORT
characters is stored as it is; a longer one (an exact `hp` near 2e4, a
long prime listing) as "sha256:" and its digest.  What is left out:

* a pointwise `verify` keeps no CSV: its sample grid is numpy's
  geomspace, whose last bits depend on the CPU's SIMD class, so its CSV
  `x` column does not hold from one machine to the next;
* a `bench` keeps its exit code and its result column: the timings vary.

Beside the corpus, set_checks.json holds the sha256 of the repr of
random_set_sweep(seed, 1, exact=...) for each seed below SET_SEEDS, in
float and in exact mode: the set reports, exact ones included, which no
argv reaches (`verify --identity count` runs in floats only).

tests/test_golden.py replays every entry and every sweep.  A change that
alters an output reruns this script and names the changed rows:

    PYTHONPATH=src python tests/golden/regenerate.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from stepsum import cli, verify
from stepsum.report import IdentityId

CORPUS = Path(__file__).resolve().parent / "corpus.json"
SET_CHECKS = CORPUS.with_name("set_checks.json")
SHORT = 2048
SET_SEEDS = 200

COMPUTE_X = ["2", "3.5", "10", "97", "1000.5", "4096.25", "19999", "29999.5"]
VERIFY_XMAX = ["150", "3000"]
PRIMES_LIMITS = ["2", "100", "10000"]
# exit 2 (configuration) and exit 3 (domain, range, resource) refusals that
# the package raises itself; argparse's own messages vary between Pythons
REFUSALS = [
    ["compute", "pi", "--x", "10", "--method", "nope"],
    ["primes", "--limit", "1"],
    ["verify", "--identity", "count", "--samples", "0"],
    ["verify", "--identity", "hp_increment", "--xmax", "2"],
    ["verify", "--identity", "floor", "--xmax", "0.5"],
    ["verify", "--identity", "harmonic", "--tol", "nan"],
    ["bench", "--op", "harmonic", "--x", "10", "--reps", "2"],
    ["compute", "pi", "--x", "30001", "--exact"],
    ["compute", "harmonic", "--x", "30001", "--method", "identity", "--exact"],
    ["compute", "pi", "--x", "1e9"],
    ["compute", "pi", "--x", "1.5"],
    ["compute", "pi", "--x", "nan"],
    ["compute", "li2", "--x", "inf"],
    ["compute", "harmonic", "--x", "0.5"],
    ["verify", "--identity", "harmonic", "--xmax", "1e9"],
    ["bench", "--op", "harmonic", "--x", "1e6", "--reps", "100"],
]
BENCH = [["bench", "--op", "harmonic", "--x", "1000.5", "--reps", "3"]]


def argvs():
    """Every argv of the corpus, in its order."""
    out = []
    for (function, method), route in verify.ROUTES.items():
        if not route.compute:
            continue
        for x in COMPUTE_X:
            argv = ["compute", function, "--x", x, "--method", method]
            out += [argv, argv + ["--exact"]]
    for identity in IdentityId:
        for xmax in VERIFY_XMAX:
            out.append(
                ["verify", "--identity", identity.value, "--xmax", xmax,
                 "--samples", "20", "--csv", "{csv}"]
            )
    out += [["primes", "--limit", limit] for limit in PRIMES_LIMITS]
    return out + REFUSALS + BENCH


def _pinned(text):
    if len(text) <= SHORT:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def _bench_results(stdout):
    """The result column of a bench table, and its closing gap line."""
    lines = stdout.splitlines()
    return [line.rsplit(",", 1)[-1] for line in lines[:-1]] + lines[-1:]


def record(argv):
    """The corpus entry of one argv: {"argv", "exit", "stdout", "stderr",
    "csv"}, with the parts a run does not pin left out."""
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "out.csv"
        args = [csv_path.as_posix() if a == "{csv}" else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(args)
        csv_text = csv_path.read_text() if csv_path.exists() else None
    entry = {"argv": argv, "exit": code}
    if argv[0] == "bench":
        stdout = out.getvalue()
        entry["stdout"] = _bench_results(stdout) if code == 0 else stdout
        entry["stderr"] = err.getvalue()
        return entry
    entry["stdout"] = _pinned(out.getvalue())
    entry["stderr"] = _pinned(err.getvalue())
    pointwise = argv[0] == "verify" and IdentityId(argv[2]) in verify.POINTWISE
    if not pointwise:
        entry["csv"] = None if csv_text is None else _pinned(csv_text)
    return entry


def set_check_digests(exact):
    """The sha256 of repr(random_set_sweep(seed, 1, exact=exact)), one per
    seed below SET_SEEDS."""
    return [
        hashlib.sha256(repr(verify.random_set_sweep(seed, 1, exact=exact)).encode())
        .hexdigest()
        for seed in range(SET_SEEDS)
    ]


def main():
    corpus = [record(argv) for argv in argvs()]
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")
    print(f"{len(corpus)} entries -> {CORPUS}", file=sys.stderr)
    digests = {mode: set_check_digests(mode == "exact") for mode in ("float", "exact")}
    SET_CHECKS.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"{SET_SEEDS} seeds in each mode -> {SET_CHECKS}", file=sys.stderr)


if __name__ == "__main__":
    main()
