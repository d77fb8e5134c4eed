"""Behaviour digest over a fixed scenario set.

The digest is SHA-256 over `"\\n".join(report.log)` of every run, in order,
for `generate_adversarial_scenarios(60) + scenario_corpus()`, truncated to 16
hex characters.  Run as a script, it prints the digest computed in a fresh
interpreter, so a caller can compare digests across PYTHONHASHSEED values:

    PYTHONHASHSEED=7 python3 perfbench/digest.py
"""

from __future__ import annotations

import hashlib

import source


def digest_scenarios(harness) -> list:
    return harness.generate_adversarial_scenarios(60) + harness.scenario_corpus()


def behaviour_digest(harness) -> tuple[str, list]:
    """Return the digest and the (scenario, report) pairs it was taken over."""
    h = hashlib.sha256()
    runs = []
    for scenario in digest_scenarios(harness):
        report = harness.run_scenario(scenario)
        h.update("\n".join(report.log).encode())
        runs.append((scenario, report))
    return h.hexdigest()[:16], runs


def deposit_headroom(runs: list) -> float:
    """Smallest ratio of deposit to the largest honest dispute cost in one
    run, over the digest runs that charged an honest party anything.

    Simulated satoshis only, so it must not move under a change that only
    makes the simulator faster."""
    ratios = []
    for scenario, report in runs:
        honest = [] if scenario.leak_all else [
            f for f in scenario.functionary_ids if f != scenario.adversary_id]
        cost = max((report.dispute_costs.get(f, 0) for f in honest), default=0)
        if cost > 0:
            ratios.append(report.deposit_sats / cost)
    return min(ratios) if ratios else 0.0


if __name__ == "__main__":
    print(behaviour_digest(source.load().harness)[0])
