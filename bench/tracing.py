"""Per-layer tracing from outside the program.

The tracer replaces the public functions of each skewplane module, and
the arithmetic operators of the three scalar classes, with wrappers that
record a span (name, start, end, parent) and per-function counts.  It
changes no file of the program: ``install`` patches the loaded modules
and ``uninstall`` restores every original.  Spans are kept in memory
(up to SPAN_CAP of them; scalar operators are only aggregated, and the
aggregates cover every call) and written out when the run ends.

A layer's self time is the time of its spans minus the time of their
child spans, whatever layer the children belong to.  Counts and times
are kept both for every call and for the calls that are outermost in
their layer, so that, say, geometric_add -> trace_addition is one
construction, while every evaluate inside a verify_* runner still counts.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from collections import defaultdict

SPAN_CAP = 200_000

#: Modules whose public functions are wrapped, with the layer they form.
MODULE_LAYERS = ("plane", "constructions", "ratios", "maps", "expressions",
                 "cli", "svg", "selftest")
#: Scalar operator -> counted operation ("add" covers sub and neg).
SCALAR_OPS = {"__add__": "add", "__radd__": "add", "__sub__": "add",
              "__rsub__": "add", "__neg__": "add", "__mul__": "mul",
              "__rmul__": "mul", "inverse": "inverse"}
SCALAR_CLASSES = {"RationalQuaternion": "quaternion", "Rational": "rational",
                  "PrimeFieldElement": "gfp"}


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []
        self.dropped = 0
        self.calls = defaultdict(int)        # (layer, name) -> every call
        self.time_all = defaultdict(float)   # (layer, name) -> inclusive s, every call
        self.outer = defaultdict(int)        # (layer, name) -> outermost-in-layer calls
        self.time_outer = defaultdict(float)
        self.self_time = defaultdict(float)  # layer -> exclusive s
        self.evaluated = set()               # distinct (base, X) given to maps.evaluate
        self.preimage_status = defaultdict(int)
        self.max_coeff_bits = 0
        self._stack = []
        self._depth = defaultdict(int)
        self._next_id = 0
        self._patches = []

    # -- recording --------------------------------------------------------

    def wrap(self, layer, name, fn, on_call=None, on_result=None):
        """``fn`` recorded as a span of ``layer`` while the tracer is active."""
        tracer = self
        perf = time.perf_counter
        key = (layer, name)
        label = f"{layer}.{name}"
        keep_spans = not layer.startswith("scalars.")  # too many; aggregated only

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            outermost = tracer._depth[layer] == 0
            tracer._depth[layer] += 1
            frame = [0.0, span_id]  # time covered by child spans, own id
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                tracer._depth[layer] -= 1
                duration = end - start
                tracer.calls[key] += 1
                tracer.time_all[key] += duration
                if outermost:
                    tracer.outer[key] += 1
                    tracer.time_outer[key] += duration
                tracer.self_time[layer] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if keep_spans:
                    if len(tracer.spans) < SPAN_CAP:
                        tracer.spans.append((span_id, parent[1] if parent else None,
                                             label, start, end))
                    else:
                        tracer.dropped += 1
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def paused(self):
        """Run program code (checks) without recording it."""
        was = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = was

    # -- hooks ------------------------------------------------------------

    def _on_evaluate(self, args):
        self.evaluated.add((args[0], args[1]))

    def _on_preimage(self, result):
        self.preimage_status[result[0]] += 1

    def _on_quaternion(self, result):
        if not hasattr(result, "components"):
            return
        for component in result.components():
            bits = max(int(component.numerator).bit_length(),
                       int(component.denominator).bit_length())
            if bits > self.max_coeff_bits:
                self.max_coeff_bits = bits

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and scalar operator of skewplane."""
        import skewplane.scalars as scalars

        for class_name, backend in SCALAR_CLASSES.items():
            cls = getattr(scalars, class_name)
            on_result = self._on_quaternion if backend == "quaternion" else None
            for attr, op in SCALAR_OPS.items():
                original = cls.__dict__.get(attr, getattr(cls, attr))
                self._patches.append((cls, attr, cls.__dict__.get(attr)))
                setattr(cls, attr, self.wrap(f"scalars.{backend}", attr, original,
                                             on_result=on_result))

        # every name bound to a function anywhere in the package, so that
        # re-exports and aliases (expressions.map_evaluate) are wrapped too
        bindings = defaultdict(list)
        for module_name, holder in list(sys.modules.items()):
            if holder is None or not (module_name == "skewplane"
                                      or module_name.startswith("skewplane.")):
                continue
            for attr, value in vars(holder).items():
                if inspect.isfunction(value):
                    bindings[id(value)].append((holder, attr))
        for layer in MODULE_LAYERS:
            module = sys.modules[f"skewplane.{layer}"]
            for name, fn in vars(module).copy().items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                hooks = {}
                if (layer, name) == ("maps", "evaluate"):
                    hooks["on_call"] = self._on_evaluate
                elif (layer, name) == ("maps", "preimage"):
                    hooks["on_result"] = self._on_preimage
                traced = self.wrap(layer, name, fn, **hooks)
                for holder, attr in bindings[id(fn)]:
                    self._patches.append((holder, attr, fn))
                    setattr(holder, attr, traced)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._patches):
            if original is None:
                delattr(holder, name)
            else:
                setattr(holder, name, original)
        self._patches = []

    # -- results ----------------------------------------------------------

    def _sum(self, table, layer, names):
        return sum(table[(layer, name)] for name in names)

    def metrics(self, scale: float) -> dict:
        """Per-layer metrics; ``scale`` converts raw seconds to calibrated."""
        ms = 1000.0 * scale
        out = {}
        for backend in SCALAR_CLASSES.values():
            layer = f"scalars.{backend}"
            for op in ("mul", "add", "inverse"):
                attrs = [a for a, o in SCALAR_OPS.items() if o == op]
                out[f"{layer}.{op}_calls"] = (self._sum(self.outer, layer, attrs), "count")
            out[f"{layer}.self_ms"] = (self.self_time[layer] * ms, "ms")
        out["scalars.quaternion.max_coeff_bits"] = (self.max_coeff_bits, "bits")

        def mean_us(layer, names, table_n, table_t):
            n = self._sum(table_n, layer, names)
            return self._sum(table_t, layer, names) * 1000.0 * ms / n if n else 0.0

        out["plane.intersect_calls"] = (self.calls[("plane", "intersect")], "count")
        out["plane.intersect_us"] = (
            mean_us("plane", ["intersect"], self.calls, self.time_all), "us")
        out["plane.line_calls"] = (
            self._sum(self.calls, "plane", ["line_through", "parallel_through"]), "count")
        out["plane.self_ms"] = (self.self_time["plane"] * ms, "ms")

        ops = ["geometric_add", "geometric_mul", "trace_addition", "trace_multiplication"]
        desargues = ["check_desargues", "generate_desargues_config",
                     "validate_desargues_config"]
        out["constructions.op_calls"] = (self._sum(self.outer, "constructions", ops), "count")
        out["constructions.op_us"] = (
            mean_us("constructions", ops, self.outer, self.time_outer), "us")
        out["constructions.desargues_calls"] = (
            self._sum(self.outer, "constructions", desargues), "count")
        out["constructions.desargues_us"] = (
            mean_us("constructions", desargues, self.outer, self.time_outer), "us")
        out["constructions.self_ms"] = (self.self_time["constructions"] * ms, "ms")

        out["ratios.cross_ratio_calls"] = (self.calls[("ratios", "cross_ratio")], "count")
        out["ratios.self_ms"] = (self.self_time["ratios"] * ms, "ms")

        evaluations = self.calls[("maps", "evaluate")]
        verifiers = ["verify_addition_structure", "verify_multiplicative_group",
                     "verify_distributive"]
        out["maps.evaluate_calls"] = (evaluations, "count")
        out["maps.evaluate_useful_ratio"] = (
            len(self.evaluated) / evaluations if evaluations else 0.0, "ratio")
        out["maps.preimage_calls"] = (self.calls[("maps", "preimage")], "count")
        out["maps.preimage_attained"] = (self.preimage_status["attained"], "count")
        out["maps.preimage_undecided"] = (self.preimage_status["undecided"], "count")
        out["maps.verify_ms"] = (self._sum(self.time_outer, "maps", verifiers) * ms, "ms")
        out["maps.self_ms"] = (self.self_time["maps"] * ms, "ms")

        parsers = ["parse_expression", "parse_scalar", "parse_point", "parse_scalar_list"]
        out["expressions.parse_calls"] = (self._sum(self.outer, "expressions", parsers), "count")
        out["expressions.parse_ms"] = (
            self._sum(self.time_outer, "expressions", parsers) * ms, "ms")
        out["expressions.eval_ms"] = (
            self.time_outer[("expressions", "evaluate_expression")] * ms, "ms")

        commands = self.outer[("cli", "main")]
        out["cli.handler_ms"] = (
            self.time_outer[("cli", "main")] * ms / commands if commands else 0.0, "ms")
        out["svg.emit_ms"] = (self.time_outer[("svg", "emit_svg")] * ms, "ms")
        out["selftest.run_ms"] = (self.time_outer[("selftest", "run_selftest")] * ms, "ms")
        return out

    def dump(self) -> dict:
        """Spans and raw aggregates, for the trace file."""
        return {
            "spans_fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": self.spans,
            "spans_dropped": self.dropped,
            "calls": {f"{l}.{n}": c for (l, n), c in sorted(self.calls.items())},
            "self_s": dict(sorted(self.self_time.items())),
        }
