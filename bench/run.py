"""densitas benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload queries --seed 1 --seconds 25 --trace 0

Run from the repository root; the library is imported from `src/` next to
this directory. Workloads (see workloads.py):

- queries    the interactive CLI user (argv through densitas.cli.main)
- axioms     the battery user (density and pseudometric axiom batteries)
- agreement  the cross-checking user (exact values against brute reads)

`--trace 0` sets up SETUP_REPS times (each a fresh import of densitas and
mpmath, input generation and a warm-up) and then runs whole rounds of the
workload, closed loop, until `--seconds` have passed and at least MIN_OPS
ops are done. It prints `setup_s`, `ops_per_s`, `op_p50_ms`, `op_p99_ms`,
`fail_ratio` and `peak_rss_mb` with units and sample counts. Times are
scaled to a reference machine speed measured between ops (speed.py); the
raw wall-clock values are printed next to them.

`--trace 1` runs round 0 once untraced and once with the tracer installed,
and prints the per-layer calls and self times, the tracing overhead (traced
minus untraced op time), the largest self-time layer and function, and
whether that function is the one the workload was chosen to stress. The
spans themselves go to bench/.work/spans-<workload>-<seed>.jsonl.

Every op's output is checked against the benchmark's own oracle. Round 0's
rendered outputs are also compared, op by op, with the digests recorded in
expected.json for the recorded seed. A failed op or a digest mismatch counts
in `failed` and makes the command exit 1. The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(BENCH_DIR, ".work")
EXPECTED = os.path.join(BENCH_DIR, "expected.json")

SETUP_REPS = 5
MIN_OPS = 1000
WARM_SEED = 0
# gauge samples taken back to back at each edge of a timed stretch; a set-up
# is short, so its speed comes from the edge samples alone
GAUGE_EDGE = 25

import speed  # noqa: E402  (sibling modules of this script)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class Run:
    """Outcome of running a list of ops: latencies, failures and digests."""

    def __init__(self):
        self.latency_ns: list[int] = []
        self.ok: list[bool] = []
        self.failed = 0
        self.failures: list[str] = []
        self.digests: list[str] = []

    def record(self, op, ok: bool, rendered: bytes, dt_ns: int):
        self.latency_ns.append(dt_ns)
        self.ok.append(ok)
        self.digests.append(hashlib.sha256(rendered).hexdigest()[:12])
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{op.label}: {rendered[:200]!r}")

    @property
    def attempted(self) -> int:
        return len(self.latency_ns)


def _check(op, out, err) -> tuple[bool, bytes]:
    if err is not None:
        return False, f"{type(err).__name__}: {err}".encode()
    try:
        return op.check(out)
    except Exception as e:  # a malformed output is a failed op, not a crash
        return False, f"check raised {type(e).__name__}: {e}".encode()


def run_ops(ops, result: Run, tracer=None, gauge=None):
    """Time each op; check outputs after the op (or after the pass, traced).
    With a gauge, take a machine-speed sample between ops now and then."""
    outputs = []
    for i, op in enumerate(ops):
        err = out = None
        t0 = time.perf_counter_ns()
        try:
            out = op.run() if tracer is None else tracer.run_op(i, op.run)
        except Exception as e:  # counted as a failed op
            err = e
        dt = time.perf_counter_ns() - t0
        if tracer is None:
            result.record(op, *_check(op, out, err), dt)
        else:
            outputs.append((op, out, err, dt))
        if gauge is not None:
            gauge.sample(len(outputs) if tracer else result.attempted)
    return outputs


def _purge_modules():
    for name in list(sys.modules):
        if name.split(".")[0] in ("densitas", "mpmath"):
            del sys.modules[name]


def setup(workload: str, seed: int):
    """Import densitas, build the workload, generate round 0 and warm up by
    running, once, the first generated op of every stratum of a round drawn
    for WARM_SEED (so the warm-up cost does not depend on the run's seed)."""
    _purge_modules()
    importlib.import_module("densitas")
    wl = workloads.load(workload, seed, WORKDIR)
    wl.setup()
    ops = wl.round(0)
    for op in wl.round(0, seed=WARM_SEED):
        if op.warm:
            op.run()
    return wl, ops


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import mpmath
    from densitas.config import load_config
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_implementation() + " " + platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "densitas_commit": _git_commit(),
        "config": dataclasses.asdict(load_config()),
    }


def _expected(workload: str, seed: int):
    with open(EXPECTED) as fh:
        doc = json.load(fh)
    if doc["seed"] != seed:
        return None
    return doc["workloads"].get(workload)


def compare_digests(result: Run, want, n: int) -> int:
    """Count round-0 ops that passed their oracle but whose rendered output
    differs from the record (ops that failed are counted once, already)."""
    if want is None:
        return 0
    if len(want["ops"]) != n:
        return sum(result.ok[:n])
    return sum(1 for ok, got, w in zip(result.ok, result.digests, want["ops"])
               if ok and got != w)


def _pct(values, q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


def measure(args) -> tuple[dict, dict]:
    setups, raw_setups = [], []
    for _ in range(SETUP_REPS):
        g = speed.Gauge()
        _edge(g, 0)
        t0 = time.perf_counter_ns()
        wl, ops = setup(args.workload, args.seed)
        dt = time.perf_counter_ns() - t0
        _edge(g, 1)
        raw_setups.append(dt / 1e9)
        setups.append(dt * speed.REF_NS / statistics.median(g.samples) / 1e9)
    result = Run()
    gauge = speed.Gauge()
    round_ops = len(ops)
    rounds = threads = 0
    _edge(gauge, 0)
    start = time.perf_counter()
    while True:
        run_ops(ops if rounds == 0 else wl.round(rounds), result, gauge=gauge)
        rounds += 1
        threads = max(threads, threading.active_count() - 1)
        if time.perf_counter() - start >= args.seconds and result.attempted >= MIN_OPS:
            break
    _edge(gauge, result.attempted)
    wall = time.perf_counter() - start
    mismatched = compare_digests(result, _expected(args.workload, args.seed), round_ops)
    raw = result.latency_ns
    lat = gauge.scaled(raw)
    n = len(lat)
    failed = result.failed + mismatched + (1 if threads else 0)
    if threads:
        result.failures.append(f"{threads} extra thread(s) left running; timings are not scaled reliably")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (n / (sum(lat) / 1e9), "1/s"),
        "op_p50_ms": (statistics.median(lat) / 1e6, "ms"),
        "op_p99_ms": (_pct(lat, 99) / 1e6, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {
        "samples": {"setup_s": len(setups), "ops_per_s": n, "op_p50_ms": n, "op_p99_ms": n},
        "raw": {"setup_s": statistics.median(raw_setups), "ops_per_s": n / (sum(raw) / 1e9),
                "op_p50_ms": statistics.median(raw) / 1e6, "op_p99_ms": _pct(raw, 99) / 1e6},
        "gauge": {"samples": len(gauge.samples), "median_ns": statistics.median(gauge.samples),
                  "ref_ns": speed.REF_NS},
        "fail_ratio": failed / n,
        "rounds": rounds, "round_ops": round_ops, "wall_s": wall, "busy_s": sum(raw) / 1e9,
        "digest_mismatches": mismatched, "failures": result.failures,
        "attempted": n, "failed": failed,
        "round0_ops": result.digests[:round_ops],
    }
    return metrics, info


def _edge(gauge, position):
    for _ in range(GAUGE_EDGE):
        gauge.sample(position, force=True)


def traced_pass(ops, gauge=None):
    """Run `ops` with the tracer installed; returns the tracer and the
    unchecked outputs. The wrappers are removed even if an op raises."""
    from densitas.exceptions import DensitasError
    tr = tracing.Tracer(DensitasError)
    tr.install()
    try:
        outputs = run_ops(ops, None, tr, gauge)
    finally:
        tr.uninstall()
    return tr, outputs


def trace(args) -> tuple[dict, dict]:
    wl, ops = setup(args.workload, args.seed)
    untraced, g_untraced = Run(), speed.Gauge()
    _edge(g_untraced, 0)
    run_ops(ops, untraced, gauge=g_untraced)
    _edge(g_untraced, untraced.attempted)
    ops = wl.round(0)
    g_traced = speed.Gauge()
    _edge(g_traced, 0)
    tr, outputs = traced_pass(ops, g_traced)
    _edge(g_traced, len(outputs))
    traced = Run()
    for op, out, err, dt in outputs:
        traced.record(op, *_check(op, out, err), dt)
    n = traced.attempted
    want = _expected(args.workload, args.seed)
    failed = (untraced.failed + compare_digests(untraced, want, n)
              + traced.failed + compare_digests(traced, want, n))
    t_untraced = sum(g_untraced.scaled(untraced.latency_ns)) / 1e9
    t_traced = sum(g_traced.scaled(traced.latency_ns)) / 1e9
    scale = lambda i: speed.REF_NS / g_traced.speed_at(i + 1)  # noqa: E731
    metrics = tracing.layer_metrics(tr, n, scale)
    metrics["trace.overhead_s"] = (t_traced - t_untraced, "s")
    layer_self = {layer: metrics[f"{layer}.self_s"][0] for layer in tracing.LAYERS}
    functions = {k: v[1] for k, v in tr.totals(scale).items() if k != tracing.OP_SPAN}
    hottest = max(functions, key=functions.get)
    info = {
        "attempted": n, "failed": failed,
        "untraced_s": t_untraced, "traced_s": t_traced, "spans": len(tr.spans),
        "largest_self_layer": max(layer_self, key=layer_self.get),
        "largest_self_function": hottest,
        "stress_confirmed": hottest.startswith(wl.HOTSPOT),
        "layer_self_s": layer_self, "failures": untraced.failures + traced.failures,
        "fail_ratio": failed / (2 * n),
    }
    os.makedirs(WORKDIR, exist_ok=True)
    info["spans_file"] = os.path.join(WORKDIR, f"spans-{args.workload}-{args.seed}.jsonl")
    _write_spans(tr, info["spans_file"])
    return metrics, info


def _write_spans(tr, path: str):
    with open(path, "w") as fh:
        for i, (name, t0, t1, parent, op, self_ns) in enumerate(tr.spans):
            fh.write(json.dumps({"id": i, "name": name, "start_ns": t0, "end_ns": t1,
                                 "parent": parent, "op": op, "self_ns": self_ns}) + "\n")
        for (parent, name), (calls, total, self_ns) in tr.leaves.items():
            fh.write(json.dumps({"leaf": name, "parent": parent, "calls": calls,
                                 "total_ns": total, "self_ns": self_ns}) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json-out", default=None, metavar="PATH",
                    help="also write the full result record (metrics, sample "
                         "counts, environment) here")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "densitas", "__init__.py")):
        print(f"densitas sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ.pop("DENSITAS_CONFIG", None)

    metrics, info = (trace if args.trace else measure)(args)
    env = environment()
    correct = info["failed"] == 0
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        samples = info.get("samples", {}).get(name)
        print(f"  {name:44s} {value:>16.6f} {unit}" + (f"  (n={samples})" if samples else ""))
    for name, value in info.get("raw", {}).items():
        print(f"  raw {name:40s} {value:>16.6f} {metrics[name][1]}  (wall clock, not scaled)")
    for key in ("fail_ratio", "gauge", "rounds", "round_ops", "wall_s", "busy_s", "untraced_s",
                "traced_s", "spans", "largest_self_layer", "largest_self_function",
                "stress_confirmed", "spans_file", "digest_mismatches"):
        if key in info:
            print(f"  {key} = {info[key]}")
    for line in info["failures"]:
        print(f"  FAILED {line}")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                       "env": env, "info": info,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
                      fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": correct,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
