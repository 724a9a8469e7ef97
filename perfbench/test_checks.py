"""The benchmark's output checks catch wrong outputs as failed ops.

Real outputs of the program are taken through the benchmark's own op
runner and recorded as the measured process records them, then broken one
way at a time: a perturbed value, a wrong exit code, a missing CSV row.
Each broken outcome must get a failure verdict, and each intact one none.

    python -m pytest perfbench/test_checks.py
"""

import pytest

pytest.importorskip("sympy")
pytest.importorskip("mpmath")

import checks  # noqa: E402
import plan  # noqa: E402
import refs  # noqa: E402
from plan import TABLE_LIMIT  # noqa: E402
from worker import Workload  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    return refs.Reference(TABLE_LIMIT)


def _cli(tmp_path, reference, argv, csv=False):
    op = {"kind": "cli", "argv": argv, "csv": csv, "known_fault": False}
    workload = Workload("cli_oneshot", tmp_path)
    outcome = workload.run(op, 0)
    workload.collect([outcome])
    return op, refs.op_reference(reference, op), workload.record(op, outcome)


def test_compute_value_perturbed(tmp_path, reference):
    op, expect, outcome = _cli(
        tmp_path, reference, ["compute", "pi", "--x", "1000", "--method", "identity"]
    )
    assert checks.check_round([op], [expect], [outcome]) == [None]
    head, value = outcome["stdout"].rsplit(" ", 1)
    outcome["stdout"] = f"{head} {float(value) + 1e-5!r}\n"
    assert checks.check_round([op], [expect], [outcome])[0] is not None


def test_exact_value_perturbed(tmp_path, reference):
    op, expect, outcome = _cli(
        tmp_path, reference,
        ["compute", "hp", "--x", "300", "--method", "from_pi", "--exact"],
    )
    assert checks.check_cli(outcome, expect) is None
    outcome["stdout"] = outcome["stdout"].replace("/", "1/", 1)
    assert checks.check_cli(outcome, expect) is not None


def test_wrong_exit_code(tmp_path, reference):
    op, expect, outcome = _cli(tmp_path, reference, ["primes", "--limit", "500"])
    assert checks.check_cli(outcome, expect) is None
    assert checks.check_cli(dict(outcome, exit=3), expect) is not None
    assert checks.check_cli(dict(outcome, exit=None, error="ValueError: x"), expect)


def test_missing_csv_row(tmp_path, reference):
    op, expect, outcome = _cli(
        tmp_path, reference,
        ["verify", "--identity", "harmonic", "--xmax", "300", "--samples", "5",
         "--jobs", "1"],
        csv=True,
    )
    assert checks.check_cli(outcome, expect) is None
    lines = outcome["csv"].splitlines(keepends=True)
    assert checks.check_cli(dict(outcome, csv="".join(lines[:-1])), expect) is not None
    assert checks.check_cli(dict(outcome, csv=None), expect) is not None
    bad = lines[1].replace(",true", ",false")
    assert checks.check_cli(dict(outcome, csv=lines[0] + bad + "".join(lines[2:])), expect)


def test_random_set_perturbed(tmp_path):
    workload = Workload("random_sets", tmp_path)
    ops = [{"kind": "set", "seed": 11, "exact": e} for e in (True, False)]
    outcomes = [workload.record(op, workload.run(op, i)) for i, op in enumerate(ops)]
    assert checks.check_round(ops, [None, None], outcomes) == [None, None]
    # a float power sum moved by 1e-6 relative, its report still marked
    # passed: the pairing with the exact run of the same seed catches it
    reports = list(outcomes[1])
    reports[3] = dict(reports[3], lhs=reports[3]["lhs"] * (1 + 1e-6))
    verdicts = checks.check_round(ops, [None, None], [outcomes[0], reports])
    assert verdicts[0] is None and verdicts[1] is not None


def test_known_fault_set_fails(tmp_path):
    # the float run of a seed from FLOAT_FAULT_SET_SEEDS fails its own check
    workload = Workload("random_sets", tmp_path)
    op = {"kind": "set", "seed": plan.FLOAT_FAULT_SET_SEEDS[0], "exact": False}
    outcome = workload.record(op, workload.run(op, 0))
    assert checks.check_round([op], [None], [outcome])[0] is not None


def test_pi_li_perturbed(tmp_path, reference):
    workload = Workload("pi_li", tmp_path)
    ops = [{"kind": "li_point", "x": 2048.5}, {"kind": "interval", "a": 100.5, "b": 7919.5}]
    ref = [refs.op_reference(reference, op) for op in ops]
    outcomes = [workload.record(op, workload.run(op, i)) for i, op in enumerate(ops)]
    assert checks.check_round(ops, ref, outcomes) == [None, None]
    wrong = [dict(ref[0], pi=ref[0]["pi"] + 1), dict(ref[1], inc=ref[1]["inc"] + 1e-9)]
    assert all(checks.check_round(ops, wrong, outcomes))
    li = dict(outcomes[0], li=outcomes[0]["li"] * (1 + 1e-9))
    assert checks.check_round(ops[:1], ref[:1], [li])[0] is not None
