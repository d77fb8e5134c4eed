"""Template-graph build timer: the median time to build, from a cleared
recipe cache, the seven templates a committee run builds, at the paper's
committee sizes and at N = 100, with V = 4.  Pytest does not collect this
file.  Run it from the repository root:

    PYTHONPATH=src python tests/template_build.py

It prints one line per N with the median and the interquartile range, in
microseconds, of ``REPEAT`` cold builds.  A cold build looks up two
Unlocking templates on a fresh graph, which builds them and the two
Locking, two Kick-off and one EnablerCreate templates they spend from;
making the graph itself is not timed.
"""

import statistics
from time import perf_counter_ns

from bridgesim import txgraph
from bridgesim.txgraph import TxKind, build_packet_templates

SIZES = (10, 25, 50, 100)
VMXOS = 4
REPEAT = 301


def cold_build_ns(functionaries: list[str]) -> int:
    """Nanoseconds to build a committee run's seven templates on a cleared
    cache."""
    txgraph._TEMPLATE_CACHE.clear()
    g = build_packet_templates(functionaries, VMXOS, 100_000)
    start = perf_counter_ns()
    for v in g.vmxo_ids[:2]:
        g.template(TxKind.UNLOCKING, v, functionaries[0])
    elapsed = perf_counter_ns() - start
    assert len(txgraph._TEMPLATE_CACHE) == 7
    return elapsed


def main() -> None:
    for n in SIZES:
        functionaries = [f"f{i}" for i in range(n)]
        times = [cold_build_ns(functionaries) / 1e3 for _ in range(REPEAT)]
        q1, median, q3 = statistics.quantiles(times, n=4)
        print(f"N={n} V={VMXOS} templates=7 median_us={median:.1f} "
              f"iqr_us={q3 - q1:.1f}")


if __name__ == "__main__":
    main()
