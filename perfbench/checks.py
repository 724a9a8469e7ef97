"""Output checks: every op of a round against its reference or properties.

``check_round`` returns one verdict per op: None when the op's outputs are
right, else a short reason.  An op with a reason counts as failed.  The
checks read only the op's outputs, as the plain JSON records worker.py
writes (a report is a dict of its fields), and the references made by
refs.py; they never call back into the program.
"""

import csv
import hashlib
import io
import math

CSV_HEADER = ["identity", "x", "k", "lhs", "rhs", "abs_err", "rel_err", "tol", "pass"]

# `verify --identity count` reports all three set identities
SET_IDS = ("count", "power_sum", "reciprocal_power_sum")
SET_REL = 1e-10  # float against exact lhs of the same random set
# the tolerances of the acceptance criteria (tests/test_acceptance.py)
IDENTITY_REL = 1e-9  # prime count and prime sum routes
HP_REL = 1e-12  # prime reciprocal sums
MERTENS_ABS = 1e-10
LI_COUNT_ABS = 1e-8
HARMONIC_REL = 1e-11
LI2_REL = 1e-12
INCREMENT_ABS = 1e-10
CLI_TOL = 1e-9  # the default --tol of `stepsum verify`



def _off(value, ref, rel=0.0, abs_=0.0):
    """True when value misses ref by more than abs_ + rel * max(|ref|, 1)."""
    return not (abs(value - ref) <= abs_ + rel * max(abs(ref), 1.0))


# =====================================================================
# random_sets: properties of the nine reports of one set
# =====================================================================


def check_set(reports, exact):
    if len(reports) != 9:
        return f"expected 9 reports, got {len(reports)}"
    if not all(r["passed"] for r in reports):
        return "a report did not pass"
    if exact and any(r["abs_err"] != 0.0 for r in reports):
        return "exact abs_err is not 0"
    count, power, recip = reports[0], reports[1:5], reports[5:9]
    ids = [r["identity"] for r in reports]
    if ids != ["count"] + ["power_sum"] * 4 + ["reciprocal_power_sum"] * 4:
        return f"unexpected identities {ids}"
    if [r["k"] for r in power] != [0, 1, 2, 3] or [r["k"] for r in recip] != [0, 1, 2, 3]:
        return "unexpected exponents"
    n = count["rhs"]
    if n < 1 or n != math.floor(n):
        return f"count {n} is not a positive integer"
    for r in (power[0], recip[0]):
        if r["rhs"] != n or _off(r["lhs"], n, rel=SET_REL):
            return "a k = 0 sum differs from the count"
    if _off(count["lhs"], n, rel=SET_REL):
        return "count lhs differs from the count"
    for a, b in zip(power, power[1:]):
        if not (b["rhs"] > a["rhs"] and b["lhs"] > a["lhs"]):
            return "power sums do not increase in k"
    for a, b in zip(recip, recip[1:]):
        if not (b["rhs"] < a["rhs"] and b["lhs"] < a["lhs"]):
            return "reciprocal sums do not decrease in k"
    return None


def check_set_pair(exact_reports, float_reports):
    """Float and exact routes on the same seed agree to SET_REL."""
    for e, f in zip(exact_reports, float_reports):
        if e["x"] != f["x"] or _off(f["lhs"], e["lhs"], rel=SET_REL):
            return "float and exact lhs disagree"
    return None


# =====================================================================
# pi_li: against the sympy / mpmath references
# =====================================================================


def check_li_point(outcome, ref):
    count, mertens = outcome["count"], outcome["mertens"]
    if count["identity"] != "prime_count_li" or mertens["identity"] != "hp_mertens":
        return "unexpected identities"
    if not (count["passed"] and mertens["passed"]):
        return "a report did not pass"
    if count["rhs"] != ref["pi"] or _off(count["lhs"], ref["pi"], abs_=LI_COUNT_ABS):
        return f"prime_count_li misses pi = {ref['pi']}"
    if _off(mertens["lhs"], ref["hp"], abs_=MERTENS_ABS):
        return "hp_mertens misses the reciprocal sum"
    if _off(outcome["li"], ref["li"], rel=LI2_REL):
        return "li_from_2 misses mpmath.li(x) - li(2)"
    return None


def check_interval(report, ref):
    if report["identity"] != "hp_increment" or not report["passed"]:
        return "increment report did not pass"
    inc = ref["inc"]
    if _off(report["lhs"], inc, abs_=INCREMENT_ABS) or _off(report["rhs"], inc, abs_=INCREMENT_ABS):
        return f"increment misses the reference {inc}"
    return None


# =====================================================================
# cli_oneshot: exit code, stdout and CSV of one cli.main call
# =====================================================================


def _check_verify_output(stdout, csv_text, expect):
    identity, n = expect["identity"], expect["n"]
    lines = stdout.splitlines()
    if not lines or lines[-1] != f"{identity}: {n}/{n} pass":
        return "verify summary line is wrong"
    if csv_text is None:
        return "no CSV written"
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or rows[0] != CSV_HEADER:
        return "CSV header is wrong"
    rows = rows[1:]
    ids = SET_IDS if identity == "count" else (identity,)
    if len(rows) != n:
        return f"CSV has {len(rows)} rows, expected {n}"
    for i, row in enumerate(rows):
        if len(row) != len(CSV_HEADER) or row[0] not in ids or row[8] != "true":
            return f"CSV row {i} is malformed or failed"
        lhs, rhs = float(row[3]), float(row[4])
        if expect["rows"] is None:
            if _off(lhs, rhs, rel=float(row[7])):
                return f"CSV row {i}: lhs and rhs disagree"
            continue
        x, value = expect["rows"][i]
        tol = expect["tol"]
        if float(row[1]) != x:
            return f"CSV row {i} has x = {row[1]}, expected {x!r}"
        if _off(lhs, value, rel=tol) or _off(rhs, value, rel=tol):
            return f"CSV row {i} misses the reference {value}"
    return None


def check_cli(outcome, expect):
    if outcome["error"] is not None:
        return f"raised {outcome['error']}"
    if outcome["exit"] != expect["exit"]:
        return f"exit code {outcome['exit']}, expected {expect['exit']}"
    stdout = outcome["stdout"]
    if "stdout_sha256" in expect:
        if hashlib.sha256(stdout.encode()).hexdigest() != expect["stdout_sha256"]:
            return "stdout differs from the reference"
        return None
    if "verify" in expect:
        return _check_verify_output(stdout, outcome["csv"], expect["verify"])
    prefix = expect["line_prefix"]
    if not (stdout.startswith(prefix) and stdout.endswith("\n")) or stdout.count("\n") != 1:
        return "compute output is malformed"
    try:
        value = float(stdout[len(prefix) :])
    except ValueError:
        return "compute value is not a number"
    if _off(value, expect["value"], rel=expect["rel"], abs_=expect["abs"]):
        return f"compute value {value!r} misses the reference {expect['value']!r}"
    return None


# =====================================================================
# one round
# =====================================================================


def check_round(ops, refs, outcomes):
    """One verdict per op: None when right, else the reason it failed."""
    verdicts = []
    for op, ref, out in zip(ops, refs, outcomes):
        kind = op["kind"]
        if isinstance(out, dict) and "raised" in out:
            verdicts.append(f"raised {out['raised']}")
        elif kind == "set":
            verdicts.append(check_set(out, op["exact"]))
        elif kind == "li_point":
            verdicts.append(check_li_point(out, ref))
        elif kind == "interval":
            verdicts.append(check_interval(out, ref))
        else:
            verdicts.append(check_cli(out, ref))
    # pair the exact and float runs of each random-set seed
    exact_by_seed = {}
    for i, op in enumerate(ops):
        if op["kind"] == "set" and op["exact"] and verdicts[i] is None:
            exact_by_seed[op["seed"]] = i
    for i, op in enumerate(ops):
        if op["kind"] == "set" and not op["exact"] and verdicts[i] is None:
            j = exact_by_seed.get(op["seed"])
            if j is not None:
                verdicts[i] = check_set_pair(outcomes[j], outcomes[i])
    return verdicts
