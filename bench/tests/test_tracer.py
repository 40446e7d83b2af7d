"""Tests of the benchmark's tracer.

Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import run  # noqa: E402
import tracer as tracing  # noqa: E402


def _bindings():
    """Every (holder, attribute) -> value binding the tracer may patch."""
    out = {}
    for mod in tracing._namespaces():
        for attr, value in vars(mod).items():
            if callable(value):
                out[(mod.__name__, attr)] = value
    natset = sys.modules["densitas.natset"]
    for cls_name in tracing.BACKENDS:
        cls = getattr(natset, cls_name)
        for meth in tracing.READ_METHODS:
            out[(cls_name, meth)] = cls.__dict__[meth]
    return out


def _wrapped(bindings):
    return sorted(k for k, v in bindings.items() if hasattr(v, "bench_trace"))


def _traced_calls(workload, seed, max_ops=None):
    _, ops = run.setup(workload, seed)
    ops = ops[:max_ops]
    tr, outputs = run.traced_pass(ops)
    calls = {k: v for k, (v, unit) in tracing.layer_metrics(tr, len(ops)).items()
             if unit == "count"}
    return tr, outputs, calls


@pytest.mark.parametrize("workload", ["queries", "axioms", "agreement"])
def test_wrappers_removed_after_traced_run(workload):
    _, ops = run.setup(workload, 3)
    before = _bindings()
    assert _wrapped(before) == []
    tr, _ = run.traced_pass(ops[:40])
    assert not tr.installed
    after = _bindings()
    assert _wrapped(after) == []
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_wrappers_cover_every_target():
    run.setup("agreement", 3)
    tr = tracing.Tracer(Exception)
    tr.install()
    try:
        names = {getattr(new, "bench_trace", None) for _, _, new in
                 ((h, a, getattr(h, a)) for h, a, _ in tr.patched_targets())}
    finally:
        tr.uninstall()
    for layer, fns in tracing.WRAPPED.items():
        for fn in fns:
            assert f"{layer}.{fn}" in names
    for kind in tracing.BACKEND_KINDS:
        for meth in tracing.READ_METHODS:
            assert f"natset.{meth}.{kind}" in names


def test_untraced_run_makes_no_wrapped_calls():
    tr, _, _ = _traced_calls("agreement", 5, max_ops=20)
    spans, leaves = len(tr.spans), dict((k, list(v)) for k, v in tr.leaves.items())
    _, ops = run.setup("agreement", 5)
    assert _wrapped(_bindings()) == []
    result = run.Run()
    run.run_ops(ops[:20], result)
    assert result.failed == 0
    assert len(tr.spans) == spans
    assert {k: list(v) for k, v in tr.leaves.items()} == leaves


@pytest.mark.parametrize("workload,max_ops", [("queries", 120), ("axioms", 40),
                                              ("agreement", 60)])
def test_layer_calls_repeat_exactly(workload, max_ops):
    _, out1, first = _traced_calls(workload, 9, max_ops)
    _, out2, second = _traced_calls(workload, 9, max_ops)
    assert first == second
    assert all(err is None for _, _, err, _ in out1 + out2)
    assert sum(v for k, v in first.items() if k.endswith(".calls")) > 0


@pytest.mark.parametrize("workload", ["axioms", "agreement"])
def test_faulhaber_untouched_outside_queries(workload):
    _, outputs, calls = _traced_calls(workload, 4)
    assert len(outputs) > 0
    assert calls["exhaust.faulhaber.calls"] == 0


def test_queries_reach_faulhaber():
    _, ops = run.setup("queries", 4)
    heavy = [op for op in ops if op.label == "norm-blocks-alpha2"][:1]
    tr, _ = run.traced_pass(heavy)
    assert tr.totals()["exhaust.faulhaber"][0] > 0


def test_self_time_excludes_children():
    tr = tracing.Tracer(Exception)
    spans = tr._span(lambda: tr._span(lambda: None, "inner", "b")(), "outer", "a")
    tr.run_op(0, spans)
    by_name = {s[0]: s for s in tr.spans}
    outer, inner = by_name["outer"], by_name["inner"]
    assert inner[3] == tr.spans.index(outer)
    assert outer[5] == (outer[2] - outer[1]) - (inner[2] - inner[1])
