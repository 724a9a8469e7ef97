"""The route table: the `compute` surface, the pointwise identity pairs,
and the names the benchmark's tracer wraps."""

import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import stepsum
from stepsum import cli
from stepsum.primes import PrimeTable
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


def _orphaned_private_definitions(paths):
    """'file:line name' for each private module-level function or class
    that no module in ``paths`` loads outside the definition itself, as a
    bare name or as an attribute."""
    defined, used = {}, set()
    for path in paths:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and (
                node.name.startswith("_") and not node.name.startswith("__")
            ):
                defined[node.name] = f"{path.name}:{node.lineno}"
                names.discard(node.name)
            used |= names
    return [f"{line} {name}" for name, line in defined.items() if name not in used]


def test_no_private_helper_is_left_unused():
    """A refactor that leaves a private helper behind fails here: helpers
    that only tests or the benchmark call do not count as used."""
    root = Path(__file__).resolve().parent.parent
    paths = sorted((root / "src" / "stepsum").glob("*.py"))
    assert _orphaned_private_definitions(paths) == []
