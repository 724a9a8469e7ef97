"""Spans around the calls into each layer of stepsum, from outside it.

``Tracer.install`` replaces each public function of the package's modules,
in every module namespace that binds it, with a wrapper that records a span
(name, start, end, parent, op id) and the layer's counters, and wraps the
PrimeTable query methods the same way.  Calls inside a module go through
its globals, so they are caught too.  Self time is a span's duration minus
the wrapped durations of its children; the wrappers' own bookkeeping after
a call is charged to no layer.

The ``/op`` metrics are op-phase totals divided by the ops attempted; the
work of set-up is reported apart, under ``primes.setup_*`` (building the
workload's tables is the only traced work in set-up).  Counts repeat
closely from run to run, because a run is made of whole rounds of one
make-up.
"""

import importlib
import inspect
import json
from bisect import bisect_left, bisect_right
from collections import defaultdict
from fractions import Fraction
from time import perf_counter_ns

MODULES = (
    "stepsum",
    "stepsum.primes",
    "stepsum.jump_series",
    "stepsum.quadrature",
    "stepsum.identities",
    "stepsum.analytic",
    "stepsum.verify",
    "stepsum.report",
    "stepsum.cli",
)

# layer -> (module, public names).  verify's private draws and atom-sum
# oracle and cli's private dispatch and formatting are part of those layers.
LAYER_FUNCTIONS = {
    "sieve": ("stepsum.primes", ("sieve",)),
    "build": ("stepsum.jump_series", ("build_jump_series",)),
    "integrate": ("stepsum.jump_series", ("integrate_kernel_times_step",)),
    "stieltjes": ("stepsum.jump_series", ("stieltjes_integrate",)),
    "quadrature": ("stepsum.quadrature", ("integrate",)),
    "identities": ("stepsum.identities", None),
    "analytic": ("stepsum.analytic", None),
    "verify": (
        "stepsum.verify",
        ("run_sweep", "random_set_sweep", "increment_sweep", "random_intervals",
         "_draw_set", "_draw_eval_point", "_direct_power_sum", "_check_one_set"),
    ),
    "report": ("stepsum.report", ("make_report", "error_report")),
    "cli": (
        "stepsum.cli",
        ("main", "build_parser", "command_compute", "command_primes",
         "command_verify", "command_bench", "_compute_value", "_fmt",
         "_fmt_float", "write_csv", "_sample_grid", "run_bench"),
    ),
}
ORACLE_METHODS = ("pi", "primes_leq", "prime_power_sum", "reciprocal_sum", "log_weight_sum")

# (metric, unit) in report order; units are per op unless noted
PER_LAYER = (
    ("primes.sieve_calls", "1/op"),
    ("primes.sieve_ms", "ms/op"),
    ("primes.sieve_numbers", "1/op"),
    ("primes.oracle_calls", "1/op"),
    ("primes.oracle_ms", "ms/op"),
    ("jump_series.build_calls", "1/op"),
    ("jump_series.build_ms", "ms/op"),
    ("jump_series.build_atoms", "1/op"),
    ("jump_series.integrate_calls", "1/op"),
    ("jump_series.integrate_exact_calls", "1/op"),
    ("jump_series.integrate_ms", "ms/op"),
    ("jump_series.integrate_segments", "1/op"),
    ("jump_series.integrate_result_bits", "bits"),
    ("jump_series.integrate_distinct_ratio", "ratio"),
    ("jump_series.stieltjes_calls", "1/op"),
    ("jump_series.stieltjes_ms", "ms/op"),
    ("jump_series.stieltjes_atoms", "1/op"),
    ("quadrature.calls", "1/op"),
    ("quadrature.ms", "ms/op"),
    ("quadrature.kernel_evals", "1/op"),
    ("identities.calls", "1/op"),
    ("identities.self_ms", "ms/op"),
    ("analytic.calls", "1/op"),
    ("analytic.self_ms", "ms/op"),
    ("verify.calls", "1/op"),
    ("verify.self_ms", "ms/op"),
    ("report.calls", "1/op"),
    ("report.ms", "ms/op"),
    ("cli.calls", "1/op"),
    ("cli.self_ms", "ms/op"),
    ("cli.output_bytes", "B/op"),
    ("primes.setup_sieve_ms", "ms"),
    ("primes.setup_sieve_numbers", "count"),
)

# span layer -> the metrics of its call count and self time
_CALLS_AND_MS = {
    "sieve": ("primes.sieve_calls", "primes.sieve_ms"),
    "oracle": ("primes.oracle_calls", "primes.oracle_ms"),
    "build": ("jump_series.build_calls", "jump_series.build_ms"),
    "integrate": ("jump_series.integrate_calls", "jump_series.integrate_ms"),
    "stieltjes": ("jump_series.stieltjes_calls", "jump_series.stieltjes_ms"),
    "quadrature": ("quadrature.calls", "quadrature.ms"),
    "identities": ("identities.calls", "identities.self_ms"),
    "analytic": ("analytic.calls", "analytic.self_ms"),
    "verify": ("verify.calls", "verify.self_ms"),
    "report": ("report.calls", "report.ms"),
    "cli": ("cli.calls", "cli.self_ms"),
}


def _bind(names, args, kwargs):
    """The values of the named leading parameters of one call."""
    bound = dict(zip(names, args))
    bound.update(kwargs)
    return [bound[name] for name in names]


def _bits(value):
    if isinstance(value, Fraction):
        return value.numerator.bit_length() + value.denominator.bit_length()
    return abs(value).bit_length()


class Tracer:
    """Spans and counters of one traced process; ``op_id`` is -1 in set-up."""

    def __init__(self):
        self.spans = []  # (name, start_ns, end_ns, parent index, op id)
        self.op_id = -1
        self._stack = []  # [span index, child wall ns]
        # phase ("setup" or "ops") -> metric -> total
        self.totals = {"setup": defaultdict(float), "ops": defaultdict(float)}
        self._exact_results = 0
        self._distinct = set()
        self._distinct_total = 0

    def _phase(self):
        return self.totals["setup" if self.op_id < 0 else "ops"]

    def _wrap(self, layer, name, fn, after=None):
        calls, self_ms = _CALLS_AND_MS[layer]
        tracer = self

        def traced(*args, **kwargs):
            entered = perf_counter_ns()
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, 0]
            stack.append(frame)
            returned = False
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                end = perf_counter_ns()
                stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.op_id)
                totals = tracer._phase()
                totals[calls] += 1
                totals[self_ms] += (end - start - frame[1]) / 1e6
                if returned and after is not None:
                    after(totals, args, kwargs, result)
                if stack:
                    stack[-1][1] += perf_counter_ns() - entered
            return result

        traced.__wrapped__ = fn
        return traced

    # ---- per-call counters, run after the span has ended ----

    def _after_sieve(self, totals, args, kwargs, result):
        totals["primes.sieve_numbers"] += result.limit

    def _after_build(self, totals, args, kwargs, result):
        totals["jump_series.build_atoms"] += len(result)

    def _after_integrate(self, totals, args, kwargs, result):
        series, kernel, a, b = _bind(("series", "kernel", "a", "b"), args, kwargs)
        locs = series.locations
        if a != b and len(locs):
            totals["jump_series.integrate_segments"] += (
                bisect_left(locs, b) - bisect_right(locs, a) + 1
            )
        if not isinstance(result, float):
            totals["jump_series.integrate_exact_calls"] += 1
            totals["jump_series.integrate_result_bits"] += _bits(result)
            if self.op_id >= 0:
                self._exact_results += 1
        self._distinct.add((series, kernel, a, b))

    def _after_stieltjes(self, totals, args, kwargs, result):
        kernel, measure, a, b = _bind(("kernel", "measure", "a", "b"), args, kwargs)
        locs = getattr(measure, "step", measure).locations
        totals["jump_series.stieltjes_atoms"] += bisect_right(locs, b) - bisect_left(locs, a)

    def _counted_integrate(self, fn):
        """quadrature.integrate with its integrand wrapped to count evaluations."""
        tracer = self

        def integrate(f, a, b, **kwargs):
            totals = tracer._phase()

            def counted(y):
                totals["quadrature.kernel_evals"] += 1
                return f(y)

            return fn(counted, a, b, **kwargs)

        return integrate

    def end_op(self):
        """Close the current op's set of distinct integrals."""
        self._distinct_total += len(self._distinct)
        self._distinct.clear()

    def install(self):
        """Wrap every layer function in each stepsum namespace that binds it."""
        modules = [importlib.import_module(m) for m in MODULES]
        after = {
            "sieve": self._after_sieve,
            "build": self._after_build,
            "integrate": self._after_integrate,
            "stieltjes": self._after_stieltjes,
        }
        replace = {}
        for layer, (module_name, names) in LAYER_FUNCTIONS.items():
            module = importlib.import_module(module_name)
            if names is None:
                names = [n for n in module.__all__ if inspect.isfunction(getattr(module, n))]
            for name in names:
                fn = getattr(module, name)
                if layer == "quadrature":
                    fn = self._counted_integrate(fn)
                replace[id(getattr(module, name))] = self._wrap(
                    layer, name, fn, after.get(layer)
                )
        # verify builds its random-set staircases with the JumpSeries
        # constructor rather than build_jump_series: count those as builds
        jump_series = importlib.import_module("stepsum.jump_series")
        replace[id(jump_series.JumpSeries)] = self._wrap(
            "build", "JumpSeries", jump_series.JumpSeries, self._after_build
        )
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = replace.get(id(value))
                if wrapper is None:
                    continue
                # the class itself stays bound where it is defined, so
                # isinstance checks and build_jump_series are unaffected
                if module is jump_series and attr == "JumpSeries":
                    continue
                setattr(module, attr, wrapper)
        table_cls = importlib.import_module("stepsum.primes").PrimeTable
        for name in ORACLE_METHODS:
            setattr(table_cls, name, self._wrap("oracle", name, getattr(table_cls, name)))

    def metrics(self, attempted, ops_per_s, output_bytes):
        """Every per-layer metric: op-phase totals per op, set-up apart."""
        setup, ops = self.totals["setup"], self.totals["ops"]
        ops["cli.output_bytes"] = output_bytes
        out = {}
        for name, unit in PER_LAYER:
            out[name] = {"value": ops[name] / attempted, "unit": unit}
        out["primes.setup_sieve_ms"]["value"] = setup["primes.sieve_ms"]
        out["primes.setup_sieve_numbers"]["value"] = setup["primes.sieve_numbers"]
        out["jump_series.integrate_result_bits"]["value"] = (
            ops["jump_series.integrate_result_bits"] / self._exact_results
            if self._exact_results
            else 0.0
        )
        out["jump_series.integrate_distinct_ratio"]["value"] = (
            self._distinct_total / ops["jump_series.integrate_calls"]
            if ops["jump_series.integrate_calls"]
            else 1.0
        )
        out["trace.ops_per_s"] = {"value": ops_per_s, "unit": "ops/s"}
        return out

    def write_spans(self, path):
        """One JSON array per line: name, start_ns, end_ns, parent, op id."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
