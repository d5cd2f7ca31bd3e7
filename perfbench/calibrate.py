"""Host-speed calibration: a fixed pure-Python kernel timed between passes.

On the 2-core VM this benchmark was built on, the host's speed changes in
episodes of about ten seconds, by up to a quarter either way, and CPU
time moves with wall time: the cause is the host, not scheduling.  Over
5.5 minutes of back-to-back kv-read passes, the median of each group of
ten passes varied by 11-13% (quartile spread over median) in wall time,
and by 6-7% after each pass was scaled by ``REFERENCE_S`` over the mean
of the kernel times just before and just after it.  A fleet-chaos pass
lasts about as long as an episode, so kernel samples at its ends do not
track it (over ten runs: 8% spread raw, 22-25% scaled), and that
workload is not scaled.

The kernel times two loops of fixed work and takes their geometric mean.
One loop stays in cache (allocation, attribute and dict traffic).  The
other walks a ~10 MB object graph in a seeded random order.  In a trial
with an earlier version of the kernel, the geometric mean tracked kv-read
better than either loop alone (3% against 8% spread).  The kernel is
benchmark code, so a change to the simulator cannot speed it up or slow
it down.
"""

from __future__ import annotations

import math
import random
import statistics
import time

#: kernel seconds that count as reference speed: about the kernel's
#: median time on the 2-core Xeon VM the benchmark was built on
REFERENCE_S = 0.05

#: kernel runs per calibration point; their mean is the point's reading
REPEATS = 4

_NODES = 100_000
_PROBES = 60_000
_SMALL_ITERATIONS = 120_000


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key: str, value: int):
        self.key = key
        self.value = value

    def touch(self, x: int) -> int:
        return (self.value ^ x) & 0xFFFF


class _Cell:
    __slots__ = ("a", "b")


class HostSpeed:
    """Times the fixed kernel; :meth:`scale` converts wall seconds to
    reference seconds."""

    def __init__(self, seed: int = 5):
        rng = random.Random(seed)
        self._nodes = [_Node(f"k{i:07d}", i) for i in range(_NODES)]
        self._order = [rng.randrange(_NODES) for _ in range(_PROBES)]
        self._table = {node.key: node for node in self._nodes[::3]}

    def small(self) -> int:
        cells = {}
        acc = 0
        for i in range(_SMALL_ITERATIONS):
            cell = _Cell()
            cell.a = i
            cell.b = i & 7
            cells[i & 1023] = cell.a + cell.b
            acc += cells.get((i * 7) & 1023, 0)
        return acc

    def large(self) -> int:
        acc = 0
        nodes, table = self._nodes, self._table
        for j, i in enumerate(self._order):
            node = nodes[i]
            acc += node.touch(j)
            other = table.get(node.key)
            if other is not None:
                acc ^= other.value
            if j % 7 == 0:
                acc += len(f"{node.key}:{j}")
        return acc

    def once(self) -> float:
        """Wall seconds of one kernel run (geometric mean of both loops)."""
        start = time.perf_counter()
        self.small()
        middle = time.perf_counter()
        self.large()
        end = time.perf_counter()
        return math.sqrt((middle - start) * (end - middle))

    def seconds(self) -> float:
        """Mean of ``REPEATS`` kernel runs: a single run is jittery."""
        return statistics.fmean(self.once() for _ in range(REPEATS))


def scale(kernel_s: float) -> float:
    """Factor that turns wall seconds at this host speed into reference
    seconds."""
    return REFERENCE_S / kernel_s
