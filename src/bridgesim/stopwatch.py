"""Accumulated-time stop watch for dispute timeouts.

Instead of a per-step timelock, each party carries one watch that runs while
it is their turn to respond.  Elapsed intervals are committed write-once
(modeling one-time signatures) and summed; when the total exceeds the
censorship-resistance threshold the party's enablers become burnable.

Interval marker outputs use power-of-two denominations, so any elapsed time
in an open interval is provable with at most log2(t) markers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import AlreadyRunning, NotRunning


def power_of_two_markers(elapsed: int) -> list[int]:
    """Marker durations 1, 2, 4, ... that fit in `elapsed` ticks."""
    out, d = [], 1
    while d <= elapsed:
        out.append(d)
        d *= 2
    return out


@dataclass
class StopWatch:
    party: str
    threshold: int
    intervals: tuple[int, ...] = ()
    running_since: Optional[int] = None

    @property
    def running(self) -> bool:
        return self.running_since is not None

    def accumulated(self, now: Optional[int] = None) -> int:
        total = sum(self.intervals)
        if self.running:
            if now is None:
                raise ValueError("now required while running")
            total += now - self.running_since
        return total

    def start(self, now: int) -> None:
        if self.running:
            raise AlreadyRunning(self.party)
        self.running_since = now

    def stop(self, now: int) -> None:
        if not self.running:
            raise NotRunning(self.party)
        # write-once: committed intervals are one-time-signed, so appending
        # is the only mutation
        self.intervals = self.intervals + (now - self.running_since,)
        self.running_since = None

    def aggregate_timeout(self, now: Optional[int] = None) -> bool:
        """True once total measured time exceeds the threshold."""
        return self.accumulated(now) > self.threshold
