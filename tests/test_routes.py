"""The route table: the `compute` surface, the pointwise identity pairs,
and the names the benchmark's tracer wraps."""

import ast
import importlib
import importlib.util
import inspect
import math
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import stepsum
from stepsum import analytic, cli, identities, jump_series, verify
from stepsum.errors import StepSumError
from stepsum.jump_series import INV_LOG, JumpSeries, Kernel
from stepsum.primes import PrimeTable, sieve
from stepsum.report import IdentityId
from stepsum.verify import POINTWISE, ROUTES

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# function -> its methods, default first, and the methods that reject --exact.
# The README's "Functions and methods" paragraph says the same.
COMPUTE_SURFACE = [
    ("harmonic", ["direct", "identity"], []),
    ("hp", ["direct", "prime_sums", "from_pi", "mertens"], ["mertens"]),
    ("li2", ["direct"], ["direct"]),
    ("mertens", ["direct"], ["direct"]),
    ("pi", ["direct", "identity", "li"], ["li"]),
    ("prime_sum", ["direct", "identity"], []),
    ("r", ["direct"], ["direct"]),
]


def _load(name):
    """A perfbench module, loaded from its file without touching sys.path."""
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestComputeSurface:
    def test_table_matches_the_pinned_surface(self):
        functions = sorted({f for (f, _), route in ROUTES.items() if route.compute})
        assert functions == [f for f, _, _ in COMPUTE_SURFACE]
        for function, methods, float_only in COMPUTE_SURFACE:
            assert [m for f, m in ROUTES if f == function] == methods
            assert [m for m in methods if not ROUTES[function, m].exact] == float_only

    def test_benchmark_plan_lists_the_same_routes(self):
        routes = [
            (function, method, method not in float_only)
            for function, methods, float_only in COMPUTE_SURFACE
            for method in methods
        ]
        assert sorted(routes) == sorted(_load("plan").COMPUTE_ROUTES)

    @pytest.mark.parametrize("function, methods, float_only", COMPUTE_SURFACE)
    def test_cli_offers_the_pinned_surface(self, capsys, function, methods, float_only):
        code, _, err = run_cli(capsys, "compute", function, "--x", "10", "--method", "?")
        assert code == 2
        assert f"supports methods {', '.join(methods)};" in err
        code, out, _ = run_cli(capsys, "compute", function, "--x", "10")
        assert (code, out.split()[:2]) == (0, [function, methods[0]])
        for method in methods:
            argv = ["compute", function, "--x", "10", "--method", method, "--exact"]
            code, _, err = run_cli(capsys, *argv)
            if method in float_only:
                assert (code, "no exact mode" in err) == (2, True)
            else:
                assert code == 0

    @pytest.mark.parametrize("function", ["floor", "triangular"])
    def test_verify_only_functions_are_not_computed(self, capsys, function):
        code, _, err = run_cli(capsys, "compute", function, "--x", "10")
        assert code == 2
        assert "invalid choice" in err


def test_every_pointwise_identity_has_a_route_pair():
    not_pointwise = {
        IdentityId.COUNT,
        IdentityId.POWER_SUM,
        IdentityId.RECIPROCAL_POWER_SUM,
        IdentityId.HP_INCREMENT,
    }
    assert set(POINTWISE) == set(IdentityId) - not_pointwise
    for function, method in POINTWISE.values():
        identity_route = ROUTES[function, method]
        direct_route = ROUTES[function, "direct"]
        assert method != "direct"
        assert identity_route.needs_table == direct_route.needs_table
        assert identity_route.lower == direct_route.lower


def _oracle(*args, **kwargs):
    raise AssertionError("an identity route called a direct oracle")


def _scaled(values):
    return (v * (1 + 2**-20) for v in values)


def test_identity_routes_rest_on_their_integrals_not_their_oracles(monkeypatch):
    """The identity routes and their oracles share only input data.

    With every summing oracle made to raise, each identity route of
    ROUTES and each set identity still returns, in float and exact mode.
    PrimeTable.pi is not poisoned: it is the count oracle, and the prime
    routes share it as input data, through table.pi and table.primes_leq,
    to find the primes up to x.  Then each route's integral machinery is
    perturbed: the power kernels' segment integrals (_power_diffs) and the
    log kernels' segment terms scaled by 1 + 2**-20, and 1 added to the
    sum of the exact run tree's root and to the exact harmonic segment
    sum; every result moves, the li route's among them.  The float
    harmonic route sums its unit segments in closed form inside
    harmonic_via_identity, so it is only poisoned.  Last, with the oracles
    back, the same scaling moves the increment check's identity side,
    which rests on the Mertens route's segment terms.
    """
    for name in ("prime_power_sum", "reciprocal_sum", "log_weight_sum"):
        monkeypatch.setattr(PrimeTable, name, _oracle)
    monkeypatch.setattr(identities, "harmonic_direct", _oracle)
    monkeypatch.setattr(verify, "_direct_power_sum", _oracle)

    routes = [
        (key, exact)
        for key in POINTWISE.values()
        for exact in (False, True)
        if ROUTES[key].exact or not exact
    ]
    xs = (97, 1000.5)
    locs = [Fraction(3 + i, 3) for i in range(300)]

    def set_calls(exact):
        q = locs if exact else list(map(float, locs))
        h = JumpSeries(q, [1 / v for v in q])
        g = JumpSeries(q, q)
        x = q[-1] if exact else float(q[-1])
        mid = Fraction(401, 3) if exact else 401 / 3
        return [
            identities.count_via_abel(h, x),
            identities.power_sum_via_abel(h, mid, 2),
            identities.reciprocal_power_sum_via_abel(g, x, 1),
        ]

    def results():
        # a fresh table each time, so no prepared store outlives a patch
        out = {}
        for (function, method), exact in routes:
            for x in xs:
                out[function, method, exact, x] = ROUTES[function, method].call(
                    sieve(1001), x, exact
                )
        for exact in (False, True):
            for i, value in enumerate(set_calls(exact)):
                out["set identity", i, exact] = value
        return out

    base = results()
    assert len(base) == len(routes) * len(xs) + 6

    power_diffs = jump_series._power_diffs
    segment_terms = Kernel.segment_terms
    run_tree = jump_series._run_tree
    segment_sum = identities._segment_sum

    def shifted_run_tree(*args):
        root, *rest = run_tree(*args)
        return (*root[:2], root[2] + 1, *root[3:]), *rest

    with monkeypatch.context() as perturbed:
        perturbed.setattr(
            jump_series, "_power_diffs", lambda *a: _scaled(power_diffs(*a))
        )
        perturbed.setattr(
            Kernel, "segment_terms", lambda *a: _scaled(segment_terms(*a))
        )
        perturbed.setattr(jump_series, "_run_tree", shifted_run_tree)
        perturbed.setattr(identities, "_segment_sum", lambda n: segment_sum(n) + 1)
        moved = results()
    for key, value in base.items():
        if key[:3] == ("harmonic", "identity", False):
            continue
        assert moved[key] != value, key

    monkeypatch.undo()
    intervals = [(2.0, 97.0), (7.5, 1000.5), (500.0, 1000.0)]

    def increments():
        table = sieve(1001)
        check = analytic.check_reciprocal_sum_increment
        return [check(table, a, b).rhs for a, b in intervals]

    base = increments()
    with monkeypatch.context() as perturbed:
        perturbed.setattr(
            Kernel, "segment_terms", lambda *a: _scaled(segment_terms(*a))
        )
        moved = increments()
    assert all(m != b for m, b in zip(moved, base)), (base, moved)


# Points that some route cannot take: not real numbers, not finite, past
# the float range, or with more digits than str() renders
# (sys.get_int_max_str_digits)
BAD_POINTS = [
    1j, None, "100", math.nan, math.inf, -math.inf, 10**400, Fraction(10**400, 3),
    10**5000, -10**5000, Fraction(10**5000, 3),
]
_H = {
    True: JumpSeries((2, 3, 5), (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))),
    False: JumpSeries((2.0, 3.0, 5.0), (0.5, 1 / 3, 0.2)),
}
_G = {
    True: JumpSeries((2, 3, 5), (2, 3, 5)),
    False: JumpSeries((2.0, 3.0, 5.0), (2.0, 3.0, 5.0)),
}
# name -> the route at x over a prime table t, exact or float (e); the
# analytic routes are float only and ignore e
POINT_ROUTES = {
    "count_via_abel": lambda t, e, x: identities.count_via_abel(_H[e], x),
    "power_sum_via_abel": lambda t, e, x: identities.power_sum_via_abel(_H[e], x, 2),
    "reciprocal_power_sum_via_abel": (
        lambda t, e, x: identities.reciprocal_power_sum_via_abel(_G[e], x, 1)
    ),
    **{
        name: lambda t, e, x, f=getattr(identities, name): f(x, exact=e)
        for name in (
            "harmonic_direct", "harmonic_via_identity", "floor_via_identity",
            "triangular_via_identity",
        )
    },
    **{
        name: lambda t, e, x, f=getattr(identities, name): f(t, x, exact=e)
        for name in (
            "prime_count_via_identity", "prime_sum_via_identity",
            "prime_reciprocal_sum_via_prime_sums", "prime_reciprocal_sum_via_pi",
        )
    },
    "li_from_2": lambda t, e, x: analytic.li_from_2(x),
    "mertens_remainder": lambda t, e, x: analytic.mertens_remainder(t, x),
    "prime_count_via_li": lambda t, e, x: analytic.prime_count_via_li(t, x),
    "prime_reciprocal_sum_via_mertens": (
        lambda t, e, x: analytic.prime_reciprocal_sum_via_mertens(t, x)
    ),
    "check_reciprocal_sum_increment": (
        lambda t, e, x: analytic.check_reciprocal_sum_increment(t, 3, x)
    ),
    "PrimeTable.pi": lambda t, e, x: t.pi(x),
    "JumpSeries.value": lambda t, e, x: _H[e].value(x),
    "build_jump_series": lambda t, e, x: jump_series.build_jump_series([(x, 1)]),
    "integrate_kernel_times_step": (
        lambda t, e, x: jump_series.integrate_kernel_times_step(
            _H[e], jump_series.POWER_ZERO, 2, x
        )
    ),
    "integrate_kernel_times_step inv_log": (
        lambda t, e, x: jump_series.integrate_kernel_times_step(_H[e], INV_LOG, 2, x)
    ),
    "stieltjes_integrate": (
        lambda t, e, x: jump_series.stieltjes_integrate(INV_LOG, _H[e], 2, x)
    ),
}


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("route", POINT_ROUTES)
def test_every_public_route_refuses_a_bad_point_with_a_stepsum_error(route, exact):
    """Each route returns or raises a StepSumError at every bad point: no
    TypeError from comparing it, no OverflowError from its float, and no
    ValueError from a message that renders it."""
    table = sieve(1000)
    for x in BAD_POINTS:
        try:
            POINT_ROUTES[route](table, exact, x)
        except StepSumError:
            pass


# Arguments other than points that a public function refuses: ints past
# the interpreter's str() limit, and random_intervals' count and bounds
BAD_ARGUMENTS = {
    "natural_reciprocal_series": (
        lambda: identities.natural_reciprocal_series(-10**5000)
    ),
    "iter_harmonic_identity": (
        lambda: next(identities.iter_harmonic_identity(-10**5000))
    ),
    "prime_power_sum": lambda: sieve(10).prime_power_sum(10, 10**5000),
    **{
        f"random_intervals count={label}": (
            lambda count=count: verify.random_intervals(1, count)
        )
        for label, count in [
            ("None", None), ("'5'", "5"), ("2.5", 2.5), ("nan", math.nan),
            ("cap + 1", cli.MAX_SAMPLES + 1), ("-10**5000", -10**5000),
        ]
    },
    "random_intervals lo=-10**5000": (
        lambda: verify.random_intervals(1, 1, lo=-10**5000)
    ),
    "random_intervals hi='100'": lambda: verify.random_intervals(1, 1, hi="100"),
    **{
        f"random_set_sweep trials={label}": (
            lambda trials=trials: verify.random_set_sweep(1, trials, max_size=1)
        )
        for label, trials in [
            ("None", None), ("'5'", "5"), ("2.5", 2.5), ("nan", math.nan),
            ("cap + 1", cli.MAX_SAMPLES + 1), ("-10**5000", -10**5000),
        ]
    },
    **{
        f"random_set_sweep max_size={label}": (
            lambda size=size: verify.random_set_sweep(1, 1, max_size=size)
        )
        for label, size in [("2.5", 2.5), ("None", None), ("-10**5000", -10**5000)]
    },
    "random_set_sweep k=-10**5000": (
        lambda: verify.random_set_sweep(1, 1, k_set=(-10**5000,))
    ),
    # 1000.0 ** 103 overflows: the float boundary term at the top of the draws
    "random_set_sweep float k=102": (
        lambda: verify.random_set_sweep(1, 1, max_size=1, k_set=(1, 102))
    ),
    # one atom at k = 5 * 10**4 is past MAX_EXACT_SET_WORK = 5 * 10**4
    "random_set_sweep exact k=5*10**4": (
        lambda: verify.random_set_sweep(
            1, 1, max_size=1, k_set=(0, 5 * 10**4), exact=True
        )
    ),
}


@pytest.mark.parametrize("call", BAD_ARGUMENTS)
def test_a_bad_argument_is_refused_with_a_stepsum_error(call):
    """Refused before any loop, with no TypeError, OverflowError or
    ValueError from the check or from a message that renders the
    argument; MAX_SAMPLES + 1 intervals, or one-atom sets, would draw
    quickly, and so would one exact atom past the exponent budget, so a
    missing cap shows as a missing refusal, not as a run without end."""
    with pytest.raises(StepSumError):
        BAD_ARGUMENTS[call]()


def test_every_exported_name_resolves():
    """A name removed from a module must leave its __all__ too."""
    modules = [stepsum] + [
        importlib.import_module(f"stepsum.{info.name}")
        for info in pkgutil.iter_modules(stepsum.__path__)
    ]
    for module in modules:
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_every_name_the_tracer_wraps_exists():
    """`run.py --trace 1` ends in AttributeError if a wrapped name is gone."""
    tracer = _load("tracer")
    for module_name, names in tracer.LAYER_FUNCTIONS.values():
        module = importlib.import_module(module_name)
        if names is None:
            names = module.__all__
            assert any(inspect.isfunction(getattr(module, n)) for n in names)
        for name in names:
            assert hasattr(module, name), f"{module_name}.{name}"
    for name in tracer.ORACLE_METHODS:
        assert hasattr(PrimeTable, name)
    assert hasattr(importlib.import_module("stepsum.jump_series"), "JumpSeries")


_UNDER_THE_TRACER = """
import contextlib, importlib.util, io, sys
from fractions import Fraction
from stepsum import cli, identities, verify

def calls():
    out = []
    for seed in range(4):
        for exact in (False, True):
            out.append(verify.random_set_sweep(seed, 1, exact=exact))
    for function, methods in (
        ("pi", ("direct", "identity")),
        ("prime_sum", ("direct", "identity")),
        ("hp", ("direct", "prime_sums", "from_pi")),
    ):
        for method in methods:
            argv = ["compute", function, "--x", "1000.5", "--method", method, "--exact"]
            with contextlib.redirect_stdout(io.StringIO()) as text:
                code = cli.main(argv)
            out.append((code, text.getvalue()))
    for x in (1, Fraction(15, 2), 1000):
        value = identities.floor_via_identity(x, exact=True)
        out.append((value, type(value)))
    return out

untraced = calls()
spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)
tracer = tracer_module.Tracer()
tracer.install()
traced = calls()
assert tracer.totals["setup"]["verify.calls"] > 0
assert tracer.totals["setup"]["cli.calls"] > 0
print(traced == untraced)
"""


def test_the_package_runs_under_the_benchmark_tracer():
    """The tracer rebinds the package's public names, JumpSeries among
    them, to plain wrapper functions: the exact and float set sweeps, the
    exact prime computes and the exact floor return what they return
    untraced."""
    src = str(Path(stepsum.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _UNDER_THE_TRACER, str(PERFBENCH / "tracer.py")],
        env=env,
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "True"


def test_import_loads_neither_dataclasses_nor_inspect():
    """The package and its CLI stay off dataclasses and inspect, which pull
    in ast, dis and tokenize: about a megabyte a process for nothing."""
    src = str(Path(stepsum.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, stepsum, stepsum.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def _unused_imports(path):
    """'file:line name' for each name a module imports and never loads.

    A name counts as used when it appears as a bare name anywhere in the
    module, or is listed in its ``__all__`` (a re-export)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [
        f"{path.name}:{line} {name}"
        for name, line in imported.items()
        if name not in used
    ]


def test_no_module_imports_a_name_it_never_uses():
    root = Path(__file__).resolve().parent.parent
    paths = sorted((root / "src" / "stepsum").glob("*.py"))
    paths += sorted((root / "tests").glob("*.py"))
    assert [line for path in paths for line in _unused_imports(path)] == []


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _loaded(node):
    """The names a node loads, as bare names or as attributes."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    }


def _defined(node):
    """The names a module or class body statement defines: a function or
    class, the targets of an assignment, and the entries of __slots__."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        if names == ["__slots__"]:
            names += ast.literal_eval(node.value)
        return names
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _orphaned_private_definitions(paths):
    """'file:line name' for each private definition that no module in
    ``paths`` loads outside the definition itself, as a bare name or as
    an attribute: a module-level function, class or constant (an
    assignment target such as _RUN), and a class's private methods,
    class-level names and __slots__ entries.  A name that is only
    stored, such as a slot assigned and never read, counts as unused."""
    defined, used = {}, set()
    for path in paths:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            units = [(node, [node])]
            if isinstance(node, ast.ClassDef):
                # each member is a unit of its own, so that its uses
                # elsewhere in the class count
                header = node.bases + node.keywords + node.decorator_list
                units = [(node, header)] + [(member, [member]) for member in node.body]
            for unit, parts in units:
                names = set().union(*map(_loaded, parts))
                for name in filter(_private, _defined(unit)):
                    defined[name] = f"{path.name}:{unit.lineno}"
                    names.discard(name)
                used |= names
    return [f"{line} {name}" for name, line in defined.items() if name not in used]


def test_no_private_helper_is_left_unused():
    """A refactor that leaves a private helper or constant behind fails
    here: names that only tests or the benchmark use do not count."""
    root = Path(__file__).resolve().parent.parent
    paths = sorted((root / "src" / "stepsum").glob("*.py"))
    assert _orphaned_private_definitions(paths) == []


def test_unused_class_members_are_reported(tmp_path):
    """A private method, class-level name or slot that nothing loads is
    reported; one that another member or module loads is not."""
    (tmp_path / "a.py").write_text(
        "class _Used:\n"
        "    __slots__ = ('_read', '_stored')\n"
        "    _LIMIT = 3\n"
        "    _SPARE = 4\n"
        "    def __init__(self):\n"
        "        self._read = self._stored = self._LIMIT\n"
        "    def value(self):\n"
        "        return self._read + self._helper()\n"
        "    def _helper(self):\n"
        "        return 1\n"
        "    def _stray(self):\n"
        "        return 2\n"
    )
    (tmp_path / "b.py").write_text("from a import _Used\n\nprint(_Used().value())\n")
    assert sorted(_orphaned_private_definitions(sorted(tmp_path.glob("*.py")))) == [
        "a.py:11 _stray", "a.py:2 _stored", "a.py:4 _SPARE"
    ]
