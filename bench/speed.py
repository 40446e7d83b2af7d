"""Machine-speed gauge for timings on shared, noisy hosts.

On a shared 2-core VM the same pure-Python work can take anywhere between
1x and 2x its best time, in phases lasting from a fraction of a second to a
minute, and the slowdown hits all interpreter work alike: a 0.3 ms kernel run
between ops tracks the op times with a correlation of about 0.96. A run of
the benchmark therefore interleaves this fixed kernel with its ops and scales
every op latency by the local speed, the median kernel time of the nearest
gauge samples, to the reference speed at which the kernel takes REF_NS.
Scaled times read "ms (or s) at the reference speed"; raw wall-clock values
are reported next to them.

The kernel uses only the standard library and never touches densitas, so no
change to the library can change it. The scaling assumes the library does
its work on the calling thread; the benchmark fails a run in which the
library leaves extra threads behind, since work on another thread would slow
the gauge as much as the ops.
"""

from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from time import perf_counter_ns

# kernel time at the reference speed (about the median on a 2-core Xeon VM
# running CPython 3.11)
REF_NS = 300_000
# least time between two gauge samples
EVERY_NS = 20_000_000
# gauge samples around an op whose median gives its local speed
WINDOW = 7


def kernel() -> int:
    """Fixed interpreter work: small- and big-int arithmetic, Fractions,
    a dict and string formatting. Returns its run time in ns."""
    t0 = perf_counter_ns()
    acc = 0
    q = Fraction(0)
    table = {}
    big = 3 ** 200
    for k in range(1, 600):
        acc += (k * k) % 7
        if k % 25 == 0:
            q += Fraction(k, k + 1)
            big = (big * k) // (k + 1)
        table[k] = str(k)
    if acc < 0 or q < 0 or big < 0 or not table:
        raise AssertionError("unreachable")
    return perf_counter_ns() - t0


class Gauge:
    """Gauge samples taken between ops, indexed by the number of ops done."""

    def __init__(self):
        self.positions: list[int] = []
        self.samples: list[int] = []
        self._last = 0

    def sample(self, position: int, force: bool = False) -> None:
        now = perf_counter_ns()
        if force or now - self._last >= EVERY_NS:
            self.positions.append(position)
            self.samples.append(kernel())
            self._last = perf_counter_ns()

    def speed_at(self, position: int) -> float:
        """Median kernel time of the WINDOW samples nearest `position`."""
        if not self.samples:
            raise ValueError("no gauge samples")
        j = bisect.bisect_left(self.positions, position)
        lo = max(0, min(j - WINDOW // 2, len(self.samples) - WINDOW))
        return statistics.median(self.samples[lo:lo + WINDOW])

    def scaled(self, latencies_ns: list[int]) -> list[float]:
        """Latencies at the reference speed. Op i ran between the samples
        taken at positions <= i and those taken at positions > i."""
        return [dt * REF_NS / self.speed_at(i + 1) for i, dt in enumerate(latencies_ns)]
