"""Accumulated-time stop watch for dispute timeouts.

Instead of a per-step timelock, each party carries one watch that runs while
it is their turn to respond.  Each elapsed interval is committed write-once
(modeling one-time signatures) by adding it to the watch's total, read in
O(1); when the total exceeds the censorship-resistance threshold the party's
enablers become burnable.

Interval marker outputs use power-of-two denominations, so any elapsed time
in an open interval is provable with at most log2(t) markers.
"""

from __future__ import annotations

from typing import Optional

from .errors import AlreadyRunning, MalformedInput, NotRunning


def power_of_two_markers(elapsed: int) -> list[int]:
    """Marker durations 1, 2, 4, ... that fit in `elapsed` ticks."""
    out, d = [], 1
    while d <= elapsed:
        out.append(d)
        d *= 2
    return out


class StopWatch:
    __slots__ = ("party", "threshold", "total", "running_since")

    def __init__(self, party: str, threshold: int):
        self.party = party
        self.threshold = threshold
        self.total = 0
        self.running_since: Optional[int] = None

    def accumulated(self, now: int) -> int:
        if self.running_since is None:
            return self.total
        return self.total + now - self.running_since

    def start(self, now: int) -> None:
        if self.running_since is not None:
            raise AlreadyRunning(self.party)
        self.running_since = now

    def stop(self, now: int) -> int:
        """Commit the interval since ``start`` and return the new total."""
        if self.running_since is None:
            raise NotRunning(self.party)
        interval = now - self.running_since
        if interval < 0:
            raise MalformedInput(f"{self.party}: stop {now} before start")
        # write-once: a committed interval is one-time-signed, so adding it
        # to the total is the only mutation
        self.total += interval
        self.running_since = None
        return self.total

    def aggregate_timeout(self, now: int) -> bool:
        """True once total measured time exceeds the threshold."""
        return self.accumulated(now) > self.threshold
