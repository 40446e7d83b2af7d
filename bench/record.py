"""Record the benchmark baseline of the current commit.

    python3 bench/record.py [--digests]

Runs every workload once untraced and once traced (one process each, one
after another) for the seed recorded in expected.json and the run length in
BENCHMARK.json, and writes bench/baseline.json: the end-to-end metrics with
their sample counts and raw wall-clock values, the per-layer metrics, and for
each workload the layer with the largest self time. With --digests it also
stores the round-0 output digests of that seed in expected.json; do that
only when a change to the benchmark itself changes its outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("queries", "axioms", "agreement")


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    os.makedirs(os.path.join(BENCH_DIR, ".work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(BENCH_DIR, ".work")) as tmp:
        out = os.path.join(tmp, "result.json")
        cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--json-out", out]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stdout}\n{proc.stderr}")
        with open(out) as fh:
            return json.load(fh)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--digests", action="store_true",
                    help="also store the round-0 output digests in expected.json")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    path = os.path.join(BENCH_DIR, "expected.json")
    with open(path) as fh:
        expected = json.load(fh)
    seed = expected["seed"]

    baseline = {"seed": seed, "seconds": seconds, "workloads": {}}
    digests = {}
    for workload in WORKLOADS:
        plain = _run(workload, seed, seconds, 0)
        traced = _run(workload, seed, seconds, 1)
        info = plain["info"]
        ranking = sorted(traced["info"]["layer_self_s"].items(), key=lambda kv: -kv[1])
        baseline["env"] = plain["env"]
        baseline["workloads"][workload] = {
            "end_to_end": plain["metrics"],
            "samples": info["samples"],
            "raw": info["raw"],
            "fail_ratio": info["fail_ratio"],
            "rounds": info["rounds"],
            "round_ops": info["round_ops"],
            "traced": {
                "largest_self_layer": traced["info"]["largest_self_layer"],
                "largest_self_function": traced["info"]["largest_self_function"],
                "stress_confirmed": traced["info"]["stress_confirmed"],
                "layer_self_s": dict(ranking),
                "untraced_s": traced["info"]["untraced_s"],
                "traced_s": traced["info"]["traced_s"],
                "per_layer": traced["metrics"],
            },
        }
        digests[workload] = {"ops": info["round0_ops"]}
        print(f"{workload}: largest self-time layer {ranking[0][0]} "
              f"({ranking[0][1]:.3f} s of {traced['info']['traced_s']:.3f} s traced), "
              f"function {traced['info']['largest_self_function']}")
    with open(os.path.join(BENCH_DIR, "baseline.json"), "w") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if args.digests:
        expected["workloads"] = digests
        with open(path, "w") as fh:
            json.dump(expected, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
