"""Machine-speed probe, to take the shared host's speed out of op times.

A shared machine runs the same code at very different speeds from one second
to the next and from one minute to the next: a fixed loop can take twice as
long now as a few seconds ago, in CPU time as in wall time.  The benchmark
therefore runs this fixed probe right before and right after every timed
piece of work, and every INTERVAL_S while it runs, and scales the work's
host seconds by how much slower the probe ran than its reference time:

    seconds = host_seconds * REFERENCE_S / mean(probe times)

The result is in host seconds at the speed at which the probe takes
REFERENCE_S.  The probe is interpreter work of the kinds the package does
(hashing and formatting short strings, making small objects, reading memory)
and it never changes with the package, so two versions of the package are
compared on one scale.
"""

from __future__ import annotations

import gc
import hashlib
import signal
import statistics
from array import array
from dataclasses import dataclass
from time import perf_counter

# host seconds one probe takes at the reference speed (a little under its
# median on a 2-vCPU Xeon host running CPython 3.11)
REFERENCE_S = 0.002
INTERVAL_S = 0.1

# a single cycle through 2^20 slots (a full-period linear congruential map),
# 4 MiB: following it reads memory in an order no prefetcher can guess
_SLOTS = 1 << 20
_NEXT = array("I", ((5 * i + 1) & (_SLOTS - 1) for i in range(_SLOTS)))


@dataclass(frozen=True)
class Mix:
    """Rounds of each part of the probe."""
    strings: int  # hash and format short strings
    objects: int  # make small objects and containers
    chase: int  # follow a chain through memory larger than a core's caches


# Shares of probe time that predicted op times best on a 2-vCPU host: about
# 45/20/35% for bridge runs, which build large object graphs, and an even
# split of strings and objects for trace building, which is mostly hashing
# short strings and slows more than a memory chase in a slow spell.
BRIDGE_RUNS = Mix(strings=500, objects=370, chase=4000)
TRACE_BUILDING = Mix(strings=500, objects=800, chase=0)


class _Cell:
    __slots__ = ("n", "name", "pair")

    def __init__(self, n: int, name: str, pair: tuple):
        self.n = n
        self.name = name
        self.pair = pair


def probe(mix: Mix) -> float:
    """Host seconds of one fixed run of interpreter work, with the garbage
    collector paused so that only the machine's speed shows.

    A slow spell on a shared host slows string hashing, object making and
    memory reads by different amounts, so the probe mixes them in the
    shares of the work it stands for."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        seen: dict[str, int] = {}
        h = "probe"
        for i in range(mix.strings):
            h = hashlib.sha256(f"{h}:{i}".encode()).hexdigest()
            seen[h[:6]] = seen.get(h[:6], 0) + i
        cells = []
        index: dict[tuple, list] = {}
        for i in range(mix.objects):
            cell = _Cell(i, str(i), (i, i + 1))
            cells.append(cell)
            index[(cell.name, i % 7)] = [cell.n, cell.pair]
        sorted(index, key=lambda key: key[1])
        slot = 0
        for _ in range(mix.chase):
            slot = _NEXT[slot]
        return perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class Meter:
    """Times calls between probes.  While a call runs, a wall-clock timer
    also interrupts it every INTERVAL_S to run the probe, so that a long
    call is scaled by the host's speed all through it, not only at its
    ends; the time those probes take is left out of the call's time."""

    def __init__(self, mix: Mix, interval_s: float = INTERVAL_S):
        self.mix = mix
        self.interval_s = interval_s
        self.before = probe(mix)
        self.host_s = 0.0  # of the last call
        self.seconds = 0.0  # of the last call, at reference speed

    def call(self, fn, *args):
        """Return fn(*args); an exception from it propagates, after the
        call has been timed."""
        ticks: list[tuple[float, float]] = []  # (probe seconds, end)

        def tick(signum, frame):
            seconds = probe(self.mix)
            ticks.append((seconds, perf_counter()))

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = perf_counter()
            signal.signal(signal.SIGALRM, previous)
            # a tick can run after the timer stops; only those that ended
            # inside the timed interval belong to the call
            inside = [seconds for seconds, end in ticks if end <= t1]
            samples = [self.before, *inside]
            self.before = probe(self.mix)
            samples.append(self.before)
            self.host_s = t1 - t0 - sum(inside)
            self.seconds = self.host_s * REFERENCE_S / statistics.fmean(samples)
