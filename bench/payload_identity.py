"""Acceptance-payload identity check (untimed; run once per check, not per run).

    python3 bench/payload_identity.py

Recomputes the acceptance battery's payload, `_as_bytes` of the payloads of
`_run_all(7)` from tests/test_acceptance.py, and compares its sha256 and byte
length with the values recorded in expected.json. A speed-up counts only if
this payload stays byte-identical across commits. One pass takes minutes (the
whole acceptance battery runs once). Exits 0 on a match and 1 otherwise.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main() -> int:
    with open(os.path.join(BENCH_DIR, "expected.json")) as fh:
        want = json.load(fh)["acceptance_payload"]
    os.environ.pop("DENSITAS_CONFIG", None)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    import test_acceptance

    t0 = time.perf_counter()
    payloads, _timings = test_acceptance._run_all(want["seed"])
    data = test_acceptance._as_bytes(payloads)
    got = {"seed": want["seed"], "bytes": len(data),
           "sha256": hashlib.sha256(data).hexdigest()}
    print(json.dumps({"want": want, "got": got,
                      "seconds": round(time.perf_counter() - t0, 1)}))
    if got != want:
        print("acceptance payload changed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
