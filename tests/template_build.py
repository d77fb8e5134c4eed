"""Template-graph build timer: the median time to build, from a cleared
recipe cache, the seven templates a committee run builds, at the paper's
committee sizes and at N = 100, with V = 4.  Pytest does not collect this
file.  Run it from the repository root:

    PYTHONPATH=src python tests/template_build.py

It prints one line per N with the median and the interquartile range, in
microseconds, of ``REPEAT`` cold builds, and the function calls one more
cold build makes as cProfile counts them, taken in a separate untimed pass:
a count of the build's work that host load does not move, though it does
differ between Python versions.  A cold build looks up two Unlocking
templates on a fresh graph, which builds them and the two Locking, two
Kick-off and one EnablerCreate templates they spend from; making the graph
itself is neither timed nor counted.
"""

import cProfile
import pstats
import statistics
from time import perf_counter_ns

from bridgesim import txgraph
from bridgesim.txgraph import TxKind, build_packet_templates

SIZES = (10, 25, 50, 100)
VMXOS = 4
REPEAT = 301


def cold_graph(functionaries: list[str]) -> txgraph.PacketGraph:
    """A fresh graph on a cleared recipe cache."""
    txgraph._TEMPLATE_CACHE.clear()
    return build_packet_templates(functionaries, VMXOS, 100_000)


def cold_build_ns(functionaries: list[str]) -> int:
    """Nanoseconds to build a committee run's seven templates on a cleared
    cache."""
    g = cold_graph(functionaries)
    start = perf_counter_ns()
    for v in g.vmxo_ids[:2]:
        g.template(TxKind.UNLOCKING, v, functionaries[0])
    elapsed = perf_counter_ns() - start
    assert len(txgraph._TEMPLATE_CACHE) == 7
    return elapsed


def cold_build_calls(functionaries: list[str]) -> int:
    """Function calls, as cProfile counts them, that building a committee
    run's seven templates on a cleared cache makes."""
    g = cold_graph(functionaries)
    profile = cProfile.Profile()
    profile.enable()
    for v in g.vmxo_ids[:2]:
        g.template(TxKind.UNLOCKING, v, functionaries[0])
    profile.disable()
    assert len(txgraph._TEMPLATE_CACHE) == 7
    return pstats.Stats(profile).total_calls


def main() -> None:
    for n in SIZES:
        functionaries = [f"f{i}" for i in range(n)]
        calls = cold_build_calls(functionaries)
        times = [cold_build_ns(functionaries) / 1e3 for _ in range(REPEAT)]
        q1, median, q3 = statistics.quantiles(times, n=4)
        print(f"N={n} V={VMXOS} templates=7 median_us={median:.1f} "
              f"iqr_us={q3 - q1:.1f} calls={calls}")


if __name__ == "__main__":
    main()
