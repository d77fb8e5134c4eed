import pytest

from bridgesim.errors import AlreadyRunning, BridgeSimError, NotRunning
from bridgesim.stopwatch import StopWatch, power_of_two_markers


def watch_with(total, threshold=100):
    """An idle watch that has committed one interval of ``total`` ticks."""
    w = StopWatch("f1", threshold)
    w.start(0)
    w.stop(total)
    return w


def test_start_records_time():
    w = StopWatch("f1", threshold=100)
    w.start(10)
    assert w.running_since == 10


def test_double_start_rejected():
    w = StopWatch("f1", threshold=100)
    w.start(10)
    with pytest.raises(AlreadyRunning):
        w.start(11)


def test_stop_commits_interval():
    w = StopWatch("f1", threshold=100)
    w.start(10)
    w.stop(12)
    assert w.total == 2
    assert w.running_since is None


def test_stop_idle_rejected():
    w = StopWatch("f1", threshold=100)
    with pytest.raises(NotRunning):
        w.stop(5)


def test_accumulated_sum():
    w = StopWatch("f1", threshold=100)
    for start, dur in ((0, 2), (10, 3), (20, 1)):
        w.start(start)
        w.stop(start + dur)
    # idle, the watch reads its total at any tick
    assert w.accumulated(21) == w.accumulated(99) == 6


def test_markers_maturity():
    # a marker matures once the interval has run for its duration
    assert power_of_two_markers(3) == [1, 2]
    assert 4 not in power_of_two_markers(3)


def test_markers_none_at_zero_elapsed():
    assert power_of_two_markers(0) == []


def test_markers_monotone_while_running():
    seen: set[int] = set()
    for elapsed in range(0, 20):
        cur = set(power_of_two_markers(elapsed))
        assert seen <= cur
        seen = cur


def test_aggregate_timeout_cases():
    assert not watch_with(6, threshold=7).aggregate_timeout(6)
    assert watch_with(8, threshold=7).aggregate_timeout(8)
    w = watch_with(3, threshold=7)
    w.start(100)
    assert w.aggregate_timeout(105)  # 3 + 5 > 7


def test_running_overage_without_stop():
    w = StopWatch("f1", threshold=5)
    w.start(10)
    assert w.aggregate_timeout(16)


def test_bounded_by_per_turn_budget():
    # k turns of at most r ticks each accumulate at most k*r and never trip
    # a threshold >= k*r
    k, r = 8, 3
    w = StopWatch("f1", threshold=k * r)
    t = 0
    for _ in range(k):
        w.start(t)
        t += r
        w.stop(t)
        assert not w.aggregate_timeout(t)
    assert w.accumulated(t) == k * r


def test_total_is_the_sum_of_committed_intervals():
    w = watch_with(5)
    w.start(10)
    assert w.stop(13) == w.total == 8
    # a zero interval is legal: a counter-proof's watch stops where it began
    w.start(20)
    assert w.stop(20) == w.total == 8
    assert w.running_since is None


def test_stop_before_start_refused():
    w = watch_with(2)
    w.start(10)
    with pytest.raises(BridgeSimError):
        w.stop(9)
    # nothing was committed and the watch still runs
    assert (w.total, w.running_since) == (2, 10)
    assert w.stop(11) == 3
