"""The full off-default space pin: sha256 over the logs of every run of a
small scenario space, in order, against its pinned value.

The space is that of ``test_harness.OFF_DEFAULT_LOGS`` made whole: every
N 2-3, V 1-2, strategy and adversary, peg-ins 1 to V and peg-outs 0 to
peg-ins, at each challenge window 0/1/20, watch threshold 6/12/70 and
``t_sep`` 0/5/30/60; a threshold with a censorship budget runs once
uncensored and once per party and start tick 5 or 15, censored for the
whole budget.  That is 35,952 runs, too many for tier-1, which does not
collect this file.  Run it from the repository root:

    PYTHONPATH=src python tests/full_space_pin.py

It prints the run count and the digest, and exits 1 unless both are the
pinned ones.
"""

import hashlib
import itertools
import sys

from bridgesim.chain import CensorSpec
from bridgesim.harness import _MINIMUMS, Scenario, Strategy, run_scenario

RUNS = 35952
FULL_SPACE_LOGS = "e610af71a8941a54"


def full_space_scenarios():
    i = 0
    for n, strategy, v, window, threshold, t_sep in itertools.product(
            (2, 3), Strategy, (1, 2), (0, 1, 20), (6, 12, 70),
            (0, 5, 30, 60)):
        budget = threshold - _MINIMUMS["watch_threshold"]
        censors = [[]] + [[CensorSpec(f"f{p}", start, budget)]
                          for start in (5, 15) for p in range(n)
                          if budget > 0]
        for adversary in [None] if strategy == Strategy.HONEST else range(n):
            for pegins in range(1, v + 1):
                for pegouts in range(pegins + 1):
                    for censor in censors:
                        i += 1
                        yield Scenario(
                            name=f"full-space-{i}", seed=i,
                            n_functionaries=n, vmxo_count=v,
                            n_pegins=pegins, n_pegouts=pegouts,
                            challenge_window=window,
                            watch_threshold=threshold, t_sep=t_sep,
                            adversary=adversary, strategy=strategy,
                            censor=censor)


def main() -> int:
    h, runs = hashlib.sha256(), 0
    for sc in full_space_scenarios():
        h.update("\n".join(run_scenario(sc).log).encode())
        runs += 1
    digest = h.hexdigest()[:16]
    print(f"runs {runs} digest {digest}")
    return 0 if (runs, digest) == (RUNS, FULL_SPACE_LOGS) else 1


if __name__ == "__main__":
    sys.exit(main())
