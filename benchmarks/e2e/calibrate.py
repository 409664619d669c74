"""Host-speed calibration: a fixed kernel timed around and inside each horizon.

The reference host is a shared two-core VM whose speed shifts by up to
30 % for minutes at a time and by ±15 % from one second to the next, and
CPU time shifts with wall time.  Medians of raw wall time over the rounds
of a run still spread by 15–30 % of their median across ten runs.  So each
round also times a small fixed kernel — before the horizon, after it, and
at evenly spaced simulated instants inside it, through scheduled simulator
callbacks — and reports its times divided by ``mean(kernel) /
KERNEL_REF_S``: seconds on a host that runs the kernel at the reference
speed.  Measured on 48 rounds of ``fleet_1k_batched``: single-round
coefficient of variation 0.129 raw, 0.102 with the two outer samples,
0.058 with the inner ones as well.  One calibration sample is as noisy as
the thing it corrects, hence several per round, and hence the division is
per round and the median over rounds, never the reverse.

The kernel is frozen: changing it changes every recorded number.  Its mix
— dict and tuple traffic, heap pushes and pops, small SHA-256 digests, all
driven from a Python loop — is the program's own (see the ledger).  The
collector is off while it runs, so its time does not depend on how many
objects the program under test keeps alive.
"""

import gc
import hashlib
import heapq
import time
from typing import List

#: kernel time on the reference host when it is quiet
KERNEL_REF_S = 0.05
#: kernel samples per round: one before, one after, the rest inside
PROBES = 8


def kernel(rounds: int = 60_000) -> int:
    heap: list = []
    table: dict = {}
    total = 0
    push, pop, sha256 = heapq.heappush, heapq.heappop, hashlib.sha256
    for i in range(rounds):
        key = (i & 1023, "k")
        table[key] = table.get(key, 0) + 1
        push(heap, (i * 7919 % 10007, i))
        if i & 3 == 3:
            total += pop(heap)[0]
        if i & 15 == 0:
            total += sha256(b"x" * 64 + i.to_bytes(4, "big")).digest()[0]
    return total


class HostSpeed:
    """The kernel timings of one round."""

    def __init__(self, inside: bool) -> None:
        #: False in a traced round: the profiler would tax the kernel's
        #: calls, so the inside callbacks still fire (the event count must
        #: not depend on tracing) but time nothing
        self.inside = inside
        self.samples: List[float] = []
        #: kernel seconds spent inside the horizon, to be subtracted
        self.inside_s = 0.0

    def probe(self) -> float:
        was_enabled = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - started
        if was_enabled:
            gc.enable()
        self.samples.append(elapsed)
        return elapsed

    def _probe_inside(self) -> None:
        if self.inside:
            self.inside_s += self.probe()

    def spread_over(self, simulator, start_ms: float, duration_ms: float) -> None:
        """Schedule the inside samples evenly over a simulated interval."""
        for index in range(1, PROBES - 1):
            simulator.schedule_at(
                start_ms + duration_ms * index / (PROBES - 1), self._probe_inside
            )
