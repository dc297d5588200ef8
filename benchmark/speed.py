"""The machine's speed, gauged by a fixed loop of the benchmark's own.

The test machine (a 2-core x86 virtual machine on a shared host) switches
between speed states about twice apart that last seconds to minutes.  One
clique-split input took 0.15 s in one 35 s window of a process and 0.27 s
in the next; the program did not change, the machine did.  So the benchmark
times a fixed pure-Python loop, which does not touch the program, about
every `EVERY_S` seconds between calls, and scales each call's time by
`REFERENCE_S` over the mean of the readings taken just before and just
after it.  A scaled time is what the call would take on a machine on which
the loop takes `REFERENCE_S`.  A change to the program moves the call
times and not the loop, so it shows in full; a change of machine state
moves both.

In five 25 s runs of clique-split, the spread (quartile distance over
median) of the median per-input time was 3 % scaled this way; taking each
input's fastest call instead, with no gauge, left 55 % over 25 s windows of
one process.  `benchmark/README.md` has the measurements.
"""

from __future__ import annotations

import gc
import time

REFERENCE_S = 0.002  # what the loop takes in the machine's fast state
LOOP_ITERATIONS = 6000
READS = 3  # times the loop runs per reading
EVERY_S = 0.2  # wall seconds between readings, at the first call boundary past it


def _loop(iterations: int) -> int:
    """Dictionary updates, tuple hashing and integer arithmetic, like the program's."""
    acc = 0
    table: dict[int, int] = {}
    for i in range(iterations):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        acc ^= hash((i, acc & 7))
    return acc


def reading() -> float:
    """Seconds the loop takes now, in processor time of this thread.

    Processor time leaves out the time the thread waits to be scheduled,
    so a reading measures how fast the machine executes, not how often
    it preempts; a preempted call is still counted in full.
    """
    gc.collect()
    start = time.thread_time()
    for _ in range(READS):
        _loop(LOOP_ITERATIONS)
    return (time.thread_time() - start) / READS


class Timed:
    """A measured time and, once the gauge has read past it, its scaled value."""

    __slots__ = ("seconds", "scaled")

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.scaled = None


class Gauge:
    """Scales timed items (anything with `.seconds`) to the reference speed.

    `add` queues an item and reads the gauge when `EVERY_S` has passed since
    the last reading; `read` sets `.scaled` on every queued item from the
    readings either side of it.  Call `read` once more after the last item.
    """

    def __init__(self):
        self.readings = [reading()]
        self.read_at = time.perf_counter()
        self.pending: list = []

    def add(self, item) -> None:
        self.pending.append(item)
        if time.perf_counter() - self.read_at >= EVERY_S:
            self.read()

    def read(self) -> None:
        now = reading()
        factor = REFERENCE_S / ((self.readings[-1] + now) / 2)
        for item in self.pending:
            item.scaled = item.seconds * factor
        self.pending.clear()
        self.readings.append(now)
        self.read_at = time.perf_counter()
