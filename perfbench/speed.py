"""Machine-speed normalisation against a fixed reference probe.

On a shared 2-CPU Xeon virtual machine the same interpreter work took from
34 to 58 ms depending on what other tenants did, in phases of tens of
seconds, with almost no steal time to show for it.  Wall times measured
minutes apart then differ by more than any useful regression bound.

The slow phases show in CPU time as well as in wall time, so a probe timed
by its own CPU time tracks them, while the steal bursts a vCPU sees after
idling (probe wall time up to three times its CPU time) do not disturb it.
Every timed figure, wall or CPU, is scaled by REFERENCE_PROBE_S / (the
median CPU time of the latest probes).  A scaled time reads as seconds on
a machine where the probe takes exactly REFERENCE_PROBE_S of CPU.  Probes
run between operations, never inside one, and the raw times are recorded
next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

# Median probe CPU time on the 2-CPU Xeon virtual machine the benchmark was
# tuned on.
REFERENCE_PROBE_S = 0.005
PROBE_EVERY_S = 0.25  # one probe per this much wall time, ~2% overhead
WINDOW = 12  # probes in the median: the last ~3 s
MAX_BURST = 8


def probe() -> float:
    """CPU seconds taken by fixed interpreter work: dicts, sets, tuples,
    small and big integers, the same kinds of work jesma does."""
    t0 = time.thread_time()
    table: dict[int, int] = {}
    acc = 0
    for i in range(8000):
        k = i * 7919 % 1013
        table[k] = table.get(k, 0) + i
        acc += pow(i, 3, 1009)
    cells = {(i, i % 7, acc % (i + 1)) for i in range(3000)}
    x = 3**3000
    for i in range(160):
        x = x * 3 + i
    del table, cells, x
    return time.thread_time() - t0


class Speedometer:
    """Scale factor from measured to reference seconds, smoothed over the
    last WINDOW probes."""

    def __init__(self) -> None:
        self._probes: deque[float] = deque(maxlen=WINDOW)
        self._last = 0.0

    def sample(self, n: int = 1) -> None:
        self._probes.extend(probe() for _ in range(n))
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Take one probe per PROBE_EVERY_S passed since the last probes, so
        long operations are followed by as many probes as short ones."""
        if not self._probes:
            self.sample(WINDOW)
            return
        due = int((time.perf_counter() - self._last) / PROBE_EVERY_S)
        if due:
            self.sample(min(due, MAX_BURST))

    def scale(self) -> float:
        return REFERENCE_PROBE_S / statistics.median(self._probes)
