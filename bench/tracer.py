"""Per-layer tracing from outside the library.

The tracer wraps public callables of densitas's layer modules and the read
methods of the set backends, in every `densitas.*` namespace that binds them,
and unwraps them again on `uninstall()`. Nothing under `src/` is edited and
an untraced run installs nothing.

Each wrapped call is a span: name, start, end, parent span and op id. The hot
leaves (the backend read methods and `exhaust.faulhaber`) are not stored one
by one; each keeps a call count, a total time and a self time per parent
span, so millions of calls do not fill memory. A span's self time is its
duration minus the time covered by its wrapped children. Direct recursion
(`reports.to_payload` calls itself per element) folds into the outer span.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("cli", "natset", "density", "exhaust", "metric", "limits", "witness",
          "bounds", "reports")

# Public callables wrapped per layer. Every function a layer exports is
# listed, except natset.round_half_up (one line of arithmetic per block).
WRAPPED = {
    "cli": ("main", "parse_set_literal", "format_set_literal", "emit_report"),
    "natset": ("parse_set", "format_set", "boolean_op", "transform",
               "normalize_periodic", "complement", "drop_below"),
    "density": ("eventual_density", "upper_asymptotic", "lower_asymptotic",
                "upper_banach", "upper_buck", "weighted_upper",
                "weighted_prefix_profile", "lower_dual", "dom_membership",
                "prefix_profile", "window_profile", "counting_measure",
                "geometric_measure", "get_weight", "validate_weight",
                "check_upper_density_axioms", "check_submeasure_axioms",
                "get_functional"),
    "exhaust": ("get_lscsm", "lscsm_eval", "tail_value", "exhaustive_norm",
                "exh_member", "phi_infty_eval", "faulhaber", "check_lscsm_axioms"),
    "metric": ("evaluate_measure", "dist", "check_pseudometric", "cauchy_profile",
               "metric_equivalence_probe", "topological_coconvergence_probe"),
    "limits": ("sigma_limit", "lscsm_limit", "cauchy_to_limit", "sigma_union_oracle"),
    "witness": ("derive_params", "validate_params", "build_witness",
                "check_witness_invariants", "divergence_certificate",
                "banach_gap_certificate", "increment_tail_bound", "witness_sequence",
                "stage_density"),
    "bounds": ("exp_bounds", "log_bounds", "decide_less"),
    "reports": ("to_payload",),
}
# The functions whose calls and self time are reported by name; the rest
# count toward their layer's self time only.
REPORTED = {
    "cli": ("main", "parse_set_literal"),
    "natset": ("parse_set", "boolean_op"),
    "density": ("upper_asymptotic", "upper_banach", "upper_buck",
                "check_upper_density_axioms", "check_submeasure_axioms"),
    "exhaust": ("exhaustive_norm", "tail_value", "lscsm_eval", "faulhaber"),
    "metric": ("dist", "evaluate_measure", "check_pseudometric"),
    "limits": ("lscsm_limit", "sigma_limit"),
    "witness": ("derive_params", "build_witness", "check_witness_invariants",
                "divergence_certificate", "banach_gap_certificate"),
    "bounds": ("decide_less",),
    "reports": ("to_payload",),
}
# Leaves called too often to keep one span per call.
HOT_FUNCTIONS = {"exhaust.faulhaber"}
READ_METHODS = ("member", "count_range", "elements_in")
BACKENDS = ("FiniteSet", "HorizonSet", "PeriodicSet", "APUnionSet", "DyadicBlockSet")
BACKEND_KINDS = ("finite", "horizon", "periodic", "ap-union", "dyadic-block")

OP_SPAN = "bench.op"


class Tracer:
    """Spans and leaf aggregates of one traced pass.

    `spans[i]` is `(name, start_ns, end_ns, parent_index, op_id, self_ns)`;
    `leaves[(span_index, name)]` is `[calls, total_ns, self_ns]`.
    """

    def __init__(self, error_type: type):
        self.error_type = error_type
        self.stack: list[list] = []
        self.spans: list = []
        self.leaves: dict = defaultdict(lambda: [0, 0, 0])
        self.raised: dict = defaultdict(int)
        self.op_id = None
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, names in WRAPPED.items():
            mod = sys.modules[f"densitas.{layer}"]
            for fname in names:
                fn = getattr(mod, fname)
                if not inspect.isfunction(fn):
                    raise TypeError(f"densitas.{layer}.{fname} is not a function")
                name = f"{layer}.{fname}"
                wrapper = (self._leaf(fn, name, layer) if name in HOT_FUNCTIONS
                           else self._span(fn, name, layer))
                for holder in _namespaces():
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, attr, wrapper)
        natset = sys.modules["densitas.natset"]
        for cls_name in BACKENDS:
            cls = getattr(natset, cls_name)
            for meth in READ_METHODS:
                fn = cls.__dict__[meth]
                self._patch(cls, meth, self._leaf(fn, f"natset.{meth}.{cls.kind}", "natset"))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def _patch(self, holder, attr, wrapper) -> None:
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, wrapper)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def patched_targets(self) -> list[tuple[object, str, object]]:
        return list(self._patches)

    # -- ops ----------------------------------------------------------------

    def run_op(self, op_id: int, fn):
        """Run one op under a root span, so every layer call has a parent."""
        self.op_id = op_id
        return self._span(fn, OP_SPAN, "bench")()

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, name: str, layer: str):
        stack, spans, raised, error_type = self.stack, self.spans, self.raised, self.error_type

        def wrapper(*args, **kw):
            if stack and stack[-1][0] == name:
                return fn(*args, **kw)
            parent = stack[-1] if stack else None
            idx = len(spans)
            spans.append(None)
            frame = [name, layer, idx, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kw)
            except error_type:
                if parent is None or parent[1] != layer:
                    raised[layer] += 1
                raise
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                if parent is not None:
                    parent[3] += t1 - t0
                spans[idx] = (name, t0, t1, parent[2] if parent else None, self.op_id,
                              t1 - t0 - frame[3])
        wrapper.__wrapped__ = fn
        wrapper.bench_trace = name
        return wrapper

    def _leaf(self, fn, name: str, layer: str):
        stack, leaves, raised, error_type = self.stack, self.leaves, self.raised, self.error_type

        def wrapper(*args, **kw):
            parent = stack[-1] if stack else None
            frame = [name, layer, parent[2] if parent else None, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kw)
            except error_type:
                if parent is None or parent[1] != layer:
                    raised[layer] += 1
                raise
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                if parent is not None:
                    parent[3] += t1 - t0
                rec = leaves[(frame[2], name)]
                rec[0] += 1
                rec[1] += t1 - t0
                rec[2] += t1 - t0 - frame[3]
        wrapper.__wrapped__ = fn
        wrapper.bench_trace = name
        return wrapper

    # -- aggregation ----------------------------------------------------------

    def totals(self, scale=None) -> dict[str, list]:
        """name -> [calls, self_ns] over spans and leaf aggregates.
        `scale(op_id)`, if given, multiplies the self time of each op's spans."""
        out: dict[str, list] = defaultdict(lambda: [0, 0])
        factor = {}
        for span in self.spans:
            op = span[4]
            if op not in factor:
                factor[op] = scale(op) if scale else 1
            rec = out[span[0]]
            rec[0] += 1
            rec[1] += span[5] * factor[op]
        for (parent, name), (calls, _, self_ns) in self.leaves.items():
            op = self.spans[parent][4] if parent is not None else None
            rec = out[name]
            rec[0] += calls
            rec[1] += self_ns * factor.get(op, 1)
        return dict(out)


def _namespaces():
    """The densitas package and every loaded densitas submodule."""
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "densitas" or n.startswith("densitas."))]


def layer_metrics(tracer: Tracer, ops: int, scale=None) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass over `ops` ops; `scale` as in
    Tracer.totals."""
    totals = tracer.totals(scale)
    metrics: dict[str, tuple[float, str]] = {}

    def get(name):
        return totals.get(name, [0, 0])

    for layer, names in REPORTED.items():
        for fname in names:
            calls, self_ns = get(f"{layer}.{fname}")
            metrics[f"{layer}.{fname}.calls"] = (calls, "count")
            metrics[f"{layer}.{fname}.self_s"] = (self_ns / 1e9, "s")
    reads = 0
    for meth in READ_METHODS:
        calls_all = self_all = 0
        for kind in BACKEND_KINDS:
            calls, self_ns = get(f"natset.{meth}.{kind}")
            metrics[f"natset.{meth}.{kind}.calls"] = (calls, "count")
            metrics[f"natset.{meth}.{kind}.self_s"] = (self_ns / 1e9, "s")
            calls_all += calls
            self_all += self_ns
        metrics[f"natset.{meth}.calls"] = (calls_all, "count")
        metrics[f"natset.{meth}.self_s"] = (self_all / 1e9, "s")
        reads += calls_all
    layer_self = dict.fromkeys(LAYERS, 0)
    for name, (_, self_ns) in totals.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += self_ns
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self[layer] / 1e9, "s")
        metrics[f"{layer}.raised"] = (tracer.raised.get(layer, 0), "count")
    norms = get("exhaust.exhaustive_norm")[0]
    faul = get("exhaust.faulhaber")[0]
    metrics["exhaust.faulhaber_per_norm"] = (faul / norms if norms else 0.0, "ratio")
    metrics["natset.reads_per_op"] = (reads / ops if ops else 0.0, "ratio")
    return metrics
