"""End-to-end CLI behavior: output formats, CSV stability, exit codes."""

import contextlib
import csv
import decimal
import io
import json
import math
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stepsum
from stepsum import cli, verify
from stepsum.cli import main, run_bench
from stepsum.errors import ResourceError
from stepsum.primes import sieve
from stepsum.report import IdentityId


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(code):
    """Run ``code`` in a fresh interpreter that imports this package; its
    last stdout line, parsed as JSON."""
    src = str(Path(stepsum.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n{code}"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# -----------------------------------------------------------------------
# primes
# -----------------------------------------------------------------------


class TestPrimes:
    def test_listing_with_trailer(self, capsys):
        code, out, _ = run_cli(capsys, "primes", "--limit", "10")
        assert code == 0
        assert out.splitlines() == ["2", "3", "5", "7", "# pi(10)=4"]

    def test_limit_below_two_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "primes", "--limit", "1")
        assert code == 2
        assert "at least 2" in err

    def test_limit_past_the_cap_is_refused_before_the_sieve(self, capsys):
        """The sieve's cap of 10**8 refuses a larger limit at once, with the
        resource exit code, so the argv property may draw one."""
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "primes", "--limit", "100000001")
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert "exceeds the configured cap" in err


# -----------------------------------------------------------------------
# compute
# -----------------------------------------------------------------------


class TestCompute:
    def test_exact_value_renders_as_fraction(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "harmonic", "--x", "10", "--method", "identity",
            "--exact",
        )
        assert code == 0
        assert out.strip() == "harmonic identity 10 7381/2520"

    def test_float_value_renders_17_digits(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "harmonic", "--x", "10")
        assert code == 0
        name, method, x, value = out.split()
        assert (name, method, x) == ("harmonic", "direct", "10")
        assert float(value) == pytest.approx(2.9289682539682538, rel=1e-16)

    def test_integer_functions_print_integers(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "pi", "--x", "100")
        assert code == 0
        assert out.strip() == "pi direct 100 25"

    def test_default_method_is_first_listed(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "li2", "--x", "10")
        assert code == 0
        assert out.startswith("li2 direct 10 ")

    def test_li2_is_fast_and_true_where_quadrature_was_not(self, capsys):
        """x = 93317.26 once took the adaptive quadrature seconds."""
        mpmath = pytest.importorskip("mpmath")
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "compute", "li2", "--x", "93317.26")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        with mpmath.workdps(30):
            exact = float(mpmath.li(93317.26) - mpmath.li(2))
        assert float(out.split()[-1]) == pytest.approx(exact, rel=1e-12)

    def test_method_pairing_enforced(self, capsys):
        code, _, err = run_cli(
            capsys, "compute", "li2", "--x", "10", "--method", "identity"
        )
        assert code == 2
        assert "supports methods" in err

    def test_exact_rejected_for_float_only_route(self, capsys):
        code, _, err = run_cli(
            capsys, "compute", "hp", "--x", "10", "--method", "mertens", "--exact"
        )
        assert code == 2
        assert "no exact mode" in err

    def test_below_domain_is_range_error(self, capsys):
        code, _, err = run_cli(capsys, "compute", "hp", "--x", "1.5")
        assert code == 3

    def test_unknown_function_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "compute", "totient", "--x", "10")
        assert code == 2

    def test_exact_value_past_the_int_digit_limit(self, capsys):
        """A numerator and denominator of 8600 digits print in full."""
        limit = sys.get_int_max_str_digits()
        code, out, _ = run_cli(
            capsys, "compute", "hp", "--x", "20000", "--method", "from_pi",
            "--exact",
        )
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        ps = sieve(20000).primes.tolist()
        den = math.prod(ps)
        want = Fraction(sum(den // p for p in ps), den)
        num_text, den_text = out.split()[3].split("/")
        assert len(den_text) > 4300
        assert num_text == str(decimal.Decimal(want.numerator))
        assert den_text == str(decimal.Decimal(want.denominator))

    @pytest.mark.parametrize(
        "argv",
        [
            ("compute", "pi", "--x", "nan"),
            ("compute", "pi", "--x", "inf"),
            ("verify", "--identity", "prime_count", "--xmax", "nan"),
            ("verify", "--identity", "prime_count", "--xmax", "inf"),
        ],
    )
    def test_non_finite_argument_is_domain_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "must be finite" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("compute", "harmonic", "--x", "1e12"),
            ("verify", "--identity", "floor", "--xmax", "1e12", "--samples", "1"),
        ],
    )
    def test_naturals_past_the_cap_is_resource_error(self, capsys, argv):
        """The naturals' routes loop once per integer: past the sieve's cap
        they refuse at once instead of running for hours."""
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert "exceeds the configured cap" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("compute", "pi", "--x", "1e6", "--method", "identity", "--exact"),
            ("compute", "harmonic", "--x", "1e7", "--exact"),
            ("compute", "harmonic", "--x", "1e7", "--method", "identity", "--exact"),
            ("compute", "hp", "--x", "1e6", "--exact"),
            # the cap applies to every method and comes before the sieve
            ("compute", "hp", "--x", "5e7", "--exact"),
            ("compute", "pi", "--x", "5e4", "--method", "direct", "--exact"),
            ("compute", "pi", "--x", "1e8", "--method", "identity", "--exact"),
            ("compute", "prime_sum", "--x", "5e4", "--exact"),
        ],
    )
    def test_exact_past_the_exact_cap_is_resource_error(self, capsys, argv):
        """Exact sums cost about x**2 in time and memory: past the exact
        cap they refuse at once instead of running out of memory."""
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert "exceeds the configured cap" in err


# -----------------------------------------------------------------------
# verify
# -----------------------------------------------------------------------


class TestVerify:
    def test_pointwise_pass_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--identity", "harmonic", "--xmax", "100",
            "--samples", "10",
        )
        assert code == 0
        # 10 log-spaced samples plus the 100 integer atoms below the cutoff
        assert out.strip().splitlines()[-1] == "harmonic: 110/110 pass"

    def test_impossible_tolerance_fails_with_exit_1(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--identity", "hp_mertens", "--xmax", "1000",
            "--samples", "20", "--tol", "0",
        )
        assert code == 1
        assert "FAIL" in out

    def test_failed_set_check_names_its_exponent(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--identity", "count", "--samples", "2", "--tol", "0",
        )
        assert code == 1
        assert any(
            line.startswith("FAIL power_sum ") and " k=" in line
            for line in out.splitlines()
        )

    def test_set_identity_routes_to_random_sets(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--identity", "power_sum", "--samples", "4",
            "--seed", "9",
        )
        assert code == 0
        assert out.strip().splitlines()[-1] == "power_sum: 36/36 pass"

    def test_increment_identity(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--identity", "hp_increment", "--xmax", "500",
            "--samples", "5",
        )
        assert code == 0
        assert "hp_increment: 5/5 pass" in out

    def test_samples_validation(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--identity", "harmonic", "--samples", "0"
        )
        assert code == 2

    @pytest.mark.parametrize("identity", ["count", "harmonic", "hp_increment"])
    def test_samples_past_the_bound_is_usage_error(self, capsys, monkeypatch, identity):
        """A huge --samples is refused before any set, interval or grid."""

        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("random_set_sweep", "random_intervals", "run_sweep"):
            monkeypatch.setattr(verify, name, no_work)
        monkeypatch.setattr(cli, "sieve", no_work)
        code, out, err = run_cli(
            capsys, "verify", "--identity", identity, "--samples", "1000000000"
        )
        assert code == 2
        assert out == ""
        assert f"--samples must be in [1, {cli.MAX_SAMPLES}]" in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, capsys, jobs):
        code, out, err = run_cli(
            capsys, "verify", "--identity", "harmonic", "--xmax", "100",
            "--samples", "5", "--jobs", jobs,
        )
        assert code == 2
        assert out == ""
        assert "--jobs must be at least 1" in err

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_tolerance_no_check_can_use_is_usage_error(self, capsys, tol):
        code, out, err = run_cli(
            capsys, "verify", "--identity", "harmonic", "--xmax", "10",
            "--samples", "2", "--tol", tol,
        )
        assert code == 2
        assert out == ""
        assert "--tol must be finite and at least 0" in err

    def test_unknown_identity_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--identity", "zeta")
        assert code == 2

    def test_csv_written_and_byte_stable(self, capsys, tmp_path):
        """Identical invocations must produce identical bytes."""
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code, _, _ = run_cli(
                capsys, "verify", "--identity", "count", "--samples", "3",
                "--seed", "3", "--csv", str(p),
            )
            assert code == 0
        first, second = (p.read_bytes() for p in paths)
        assert first == second

    def test_csv_schema(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        run_cli(
            capsys, "verify", "--identity", "count", "--samples", "2",
            "--seed", "3", "--csv", str(path),
        )
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "identity", "x", "k", "lhs", "rhs", "abs_err", "rel_err", "tol", "pass",
        ]
        body = rows[1:]
        assert all(len(row) == 9 for row in body)
        count_rows = [row for row in body if row[0] == "count"]
        assert count_rows and all(row[2] == "" for row in count_rows)
        assert all(row[8] in ("true", "false") for row in body)
        # floats are written with 17 significant digits and round-trip
        x = float(body[0][1])
        assert f"{x:.17g}" == body[0][1]

    def test_jobs_flag_keeps_output_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["verify", "--identity", "hp_from_pi", "--xmax", "300",
                "--samples", "5"]
        run_cli(capsys, *base, "--csv", str(a))
        run_cli(capsys, *base, "--jobs", "4", "--csv", str(b))
        assert a.read_bytes() == b.read_bytes()


# -----------------------------------------------------------------------
# bench
# -----------------------------------------------------------------------


class TestBench:
    def test_rows_well_formed(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--op", "harmonic", "--x", "1000", "--reps", "3"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "op,method,x,reps,median_ns,result"
        assert len(lines) == 5
        methods = []
        for line in lines[1:4]:
            op, method, x, reps, median_ns, result = line.split(",")
            assert op == "harmonic"
            assert float(x) == 1000.0
            assert int(reps) == 3
            assert int(median_ns) > 0
            float(result)
            methods.append(method)
        assert methods == ["direct", "direct_compensated", "identity"]
        assert lines[4].startswith("# |identity - direct_compensated| = ")

    def test_run_bench_results_agree(self):
        rows = run_bench(1000, 3)
        by_method = {row.method: row.result for row in rows}
        gap = abs(by_method["identity"] - by_method["direct_compensated"])
        assert gap <= 1e-12

    def test_reps_validation(self, capsys):
        code, _, err = run_cli(
            capsys, "bench", "--op", "harmonic", "--x", "1000", "--reps", "2"
        )
        assert code == 2
        assert "at least 3" in err

    def test_unknown_op_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "bench", "--op", "zeta", "--x", "10", "--reps", "3"
        )
        assert code == 2

    @pytest.mark.parametrize("x", ["nan", "inf", "1e12"])
    def test_argument_checked_before_any_loop(self, capsys, x):
        """Non-finite or past-the-cap x is refused before any timed or
        warm-up call, with the naturals' domain/resource exit code."""
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "bench", "--op", "harmonic", "--x", x, "--reps", "3"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert err.startswith("error: bench argument")

    @pytest.mark.parametrize(
        "x, reps", [("1.5", "1176471"), ("2", "100000000"), ("1e6", "19")]
    )
    def test_reps_past_the_work_budget_are_refused_at_once(self, capsys, x, reps):
        """(reps + 1) * (floor(x) + 16) past BENCH_WORK_CAP exits 3 before
        any timed or warm-up call."""
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "bench", "--op", "harmonic", "--x", x, "--reps", reps
        )
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert "work budget" in err

    def test_work_budget_edge(self, monkeypatch):
        """At x = 1.5 a call counts 17 steps: 3 reps and the warm-up fit a
        budget of 68, and 4 reps do not."""
        monkeypatch.setattr(cli, "BENCH_WORK_CAP", 68)
        assert [row.reps for row in run_bench(1.5, 3)] == [3, 3, 3]
        with pytest.raises(ResourceError, match="work budget"):
            run_bench(1.5, 4)


# -----------------------------------------------------------------------
# robustness: every argv exits 0-3
# -----------------------------------------------------------------------

# numeric strings for --x and --xmax: non-finite, signed zero, subnormal,
# at the exact cap, past the sieve's cap, negative.  No value under the
# caps lies above 3e4, so no draw starts a long loop; past the caps the
# checks must refuse at once.
NUMBERS = [
    "nan", "inf", "-inf", "-0", "0", "1e-320", "1.5", "2", "97", "1e4",
    "3e4", "30000.5", "1e9", "1e308", "-5",
]
METHODS = sorted({m for _, m in verify.ROUTES}) + ["bogus"]


def _option(name, value, joined):
    """``name value`` as one token or two; a value such as "-inf" as its own
    token reads as an option, which argparse refuses with exit 2."""
    return [f"{name}={value}"] if joined else [name, value]


COMPUTE_ARGVS = st.builds(
    lambda function, x, method, exact, limit, joined: [
        "compute", function, *_option("--x", x, joined), "--method", method,
        *(["--exact"] if exact else []),
        *([] if limit is None else _option("--limit", limit, joined)),
    ],
    st.sampled_from(sorted({f for f, _ in verify.ROUTES})),
    st.sampled_from(NUMBERS),
    st.sampled_from(METHODS),
    st.booleans(),
    st.sampled_from([None, "-5", "0", "2", "97", "30001", "1000000000", "1e4"]),
    st.booleans(),
)
VERIFY_ARGVS = st.builds(
    lambda identity, xmax, samples, tol, joined: [
        "verify", "--identity", identity, *_option("--xmax", xmax, joined),
        "--samples", samples, *_option("--tol", tol, joined),
    ],
    st.sampled_from([i.value for i in IdentityId]),
    st.sampled_from(NUMBERS),
    st.sampled_from(["-1", "0", "1", "3", "10001", "nan"]),
    st.sampled_from(["nan", "inf", "-1", "0", "1e-9", "1"]),
    st.booleans(),
)

# --limit past the sieve's cap of 10**8 is refused before the sieve; no
# drawn limit under it is above 30001.  bench's --x comes from NUMBERS
# like the others, and its --reps are small or, for every x >= 1, past
# the work budget (cli.BENCH_WORK_CAP), which refuses them at once.
PRIMES_ARGVS = st.builds(
    lambda limit, joined: ["primes", *_option("--limit", limit, joined)],
    st.sampled_from(
        ["-5", "0", "1", "2", "97", "1e4", "30001", "100000001", "1000000000", "nan"]
    ),
    st.booleans(),
)
BENCH_ARGVS = st.builds(
    lambda op, x, reps, joined: [
        "bench", "--op", op, *_option("--x", x, joined),
        *_option("--reps", reps, joined),
    ],
    st.sampled_from(["harmonic", "bogus"]),
    st.sampled_from(NUMBERS),
    st.sampled_from(
        ["-1", "0", "2", "3", "4", "1.5", "nan", "1e9", "1176471", "100000000"]
    ),
    st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(argv=st.one_of(COMPUTE_ARGVS, VERIFY_ARGVS, PRIMES_ARGVS, BENCH_ARGVS))
def test_every_argv_exits_with_a_documented_code(argv):
    """cli.main returns 0-3 on any such argv and never raises; exit 1, a
    failed check, comes only from a zero tolerance."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert "--tol=0" in argv or argv[-2:] == ["--tol", "0"]


# -----------------------------------------------------------------------
# one process: start-up imports and repeated calls
# -----------------------------------------------------------------------

# Runs cli.main on each argv of ARGVS in turn, in one process; prints the
# exit code, stdout and CSV text (None without --csv) of each as JSON.
_CALLS = """
import contextlib, io, json, pathlib
from stepsum import cli

def call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    csv = pathlib.Path(argv[-1]).read_text() if "--csv" in argv else None
    return [code, out.getvalue(), csv]

print(json.dumps([call(argv) for argv in ARGVS]))
"""


def run_calls(argvs, prelude=""):
    return run_python(prelude + f"\nARGVS = {argvs!r}\n" + _CALLS)


class TestOneProcess:
    def test_import_loads_no_numpy(self):
        assert run_python(
            "import json, stepsum, stepsum.cli\n"
            "print(json.dumps('numpy' in sys.modules))"
        ) is False

    def test_compute_and_primes_run_without_numpy(self):
        """With numpy unimportable, compute and primes print what they
        always printed; a pointwise verify sweep loads numpy once it is
        importable again."""
        calls = run_calls(
            [["compute", "pi", "--x", "100"], ["primes", "--limit", "30"]],
            prelude='sys.modules["numpy"] = None  # import numpy raises ImportError',
        )
        primes = "".join(f"{p}\n" for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29))
        assert calls == [
            [0, "pi direct 100 25\n", None],
            [0, primes + "# pi(30)=10\n", None],
        ]
        sweep = ["verify", "--identity", "prime_count", "--xmax", "150", "--samples", "5"]
        assert run_python(
            'sys.modules["numpy"] = None\n'
            "import json\nfrom stepsum import cli\n"
            'del sys.modules["numpy"]\n'
            f"code = cli.main({sweep!r})\n"
            'print(json.dumps([code, "numpy" in sys.modules]))'
        ) == [0, True]

    def test_repeated_calls_match_calls_made_alone(self, capsys, tmp_path):
        """One parser serves every call of a process: no option of one
        call leaks into the next."""
        sweep = ["verify", "--identity", "prime_count", "--xmax", "150", "--samples", "5"]

        def argvs(csv_path):
            return [
                ["compute", "pi", "--x", "abc"],
                ["compute", "hp", "--x", "100", "--exact"],
                ["compute", "hp", "--x", "100"],
                ["compute", "hp", "--x", "100", "--method", "from_pi"],
                ["compute", "hp", "--x", "100"],
                sweep + ["--csv", str(csv_path)],
                sweep,
            ]

        alone = [run_calls([argv])[0] for argv in argvs(tmp_path / "alone.csv")]
        in_turn = []
        for argv in argvs(tmp_path / "in_turn.csv"):
            code = main(argv)
            out = capsys.readouterr().out
            csv_text = Path(argv[-1]).read_text() if "--csv" in argv else None
            in_turn.append([code, out, csv_text])
        assert in_turn == alone
        assert [c[0] for c in alone] == [2, 0, 0, 0, 0, 0, 0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["alone.csv", "in_turn.csv"]
