"""Every pinned digest of the tests, with its count of runs, in one table,
beside the scenario sets it is taken over and the one routine that takes
it.  A change that moves log bytes on purpose updates this table and
``perfbench/layers.json``'s copy of ``BEHAVIOUR_DIGEST``, as README's
"Moving log bytes" says.  pytest does not collect this module.
"""

import hashlib
import itertools

from bridgesim.chain import CensorSpec
from bridgesim.harness import _MINIMUMS, Scenario, Strategy, run_scenario

# -- the table ----------------------------------------------------------------

# perfbench/digest.py's runs, generate_adversarial_scenarios(60) +
# scenario_corpus(), which the bench compares with its copy in layers.json
BEHAVIOUR_DIGEST = ("f5fac45da8130da9", 68)
# generate_adversarial_scenarios(500): far more slashes (417) than the
# digest's set, so it pins the enabler and refund lines too
SWEEP_LOGS = ("b959755e5f3cb08c", 500)
# off_default_scenarios(): the digest and the sweep run only at the default
# window, threshold and t_sep, where an expiry, stall or separation off by
# one tick changed no byte
OFF_DEFAULT_LOGS = ("f36ee238e1129eda", 6048)
# leak_all_scenarios(): the only traffic with no honest party, so the only
# runs whose raw kick-off of a double operator unlocks, whose operator pick
# falls back to the whole committee, and whose peg-out finds no VMXO to link
LEAK_ALL_LOGS = ("92372075d3d2301e", 490)
# full_space_scenarios(), too many runs for tier-1: full_space_pin.py
FULL_SPACE_LOGS = ("e610af71a8941a54", 35952)
# n100_scenario(strategy), as an eager build of the whole graph gave it
N100_LOGS = {Strategy.HONEST: "dfbd9e5e8bb23837",
             Strategy.SILENT_PROVER: "849c45b5de93c016",
             Strategy.FAKE_PROOF_PROVER: "24517749ef1192c5",
             Strategy.FORK_PROVER: "ed0e1abede88c484",
             Strategy.GRIEFING_VERIFIER: "acee05344aa67323",
             Strategy.DOUBLE_OPERATOR: "dbcfa7e25a7473e6",
             Strategy.KEY_LEAKER: "acf7e5a29102e76a"}
# horizon_scenario(strategy): many peg-outs one after another, past the
# point where the template cache evicts
HORIZON_LOGS = {Strategy.HONEST: "edda0ce17c943891",
                Strategy.SILENT_PROVER: "507d099a0e4e1676",
                Strategy.FAKE_PROOF_PROVER: "b11dc291117d134e",
                Strategy.FORK_PROVER: "4ea47ad195b3828d",
                Strategy.GRIEFING_VERIFIER: "71b5310df78ad1ad",
                Strategy.DOUBLE_OPERATOR: "5c194d44bd0b3da2",
                Strategy.KEY_LEAKER: "3df08689a5bcd739"}
# repr(game_state(g)) of each of test_dispute.paper_depth_games, arity 2
# then 4, the same at the commit before the search kept its divergence: the
# behaviour digest plays only 16-step traces
PAPER_DEPTH_GAMES = ("be79a491b5c1e007", 102)
# the sorted (key, id) lines of every template of
# test_id_caches.full_graph(7_777), joined by newlines, recorded at 191ddbb
PINNED_IDS = "5403c7da5cb9674d"


def digest(logs) -> tuple[str, int]:
    """sha256 over ``logs`` in order, each a list of lines joined by
    newlines, cut to 16 hex characters, and the count of logs."""
    h, count = hashlib.sha256(), 0
    for log in logs:
        h.update("\n".join(log).encode())
        count += 1
    return h.hexdigest()[:16], count


def log_digest(scenarios) -> tuple[str, int]:
    """The digest of the logs of ``scenarios``' runs, and the count of
    runs."""
    return digest(run_scenario(sc).log for sc in scenarios)


# -- the scenario sets --------------------------------------------------------

def _space(prefix, t_seps, censors):
    """Every N 2-3, strategy, V 1-2, challenge window 0/1/20, watch
    threshold 6/12/70 and t_sep of ``t_seps``, each adversary (none if
    honest), peg-ins 1 to V and peg-outs 0 to peg-ins, once per window list
    of ``censors(i, n, budget)``, where i numbers the next scenario."""
    i = 0
    for n, strategy, v, window, threshold, t_sep in itertools.product(
            (2, 3), Strategy, (1, 2), (0, 1, 20), (6, 12, 70), t_seps):
        budget = threshold - _MINIMUMS["watch_threshold"]
        for adversary in [None] if strategy == Strategy.HONEST else range(n):
            for pegins, pegouts in [(ins, outs) for ins in range(1, v + 1)
                                    for outs in range(ins + 1)]:
                for censor in censors(i + 1, n, budget):
                    i += 1
                    yield Scenario(
                        name=f"{prefix}-{i}", seed=i, n_functionaries=n,
                        vmxo_count=v, n_pegins=pegins, n_pegouts=pegouts,
                        challenge_window=window, watch_threshold=threshold,
                        t_sep=t_sep, adversary=adversary, strategy=strategy,
                        censor=censor)


def off_default_scenarios():
    """t_sep 0/5/30; every second scenario with a censorship budget has one
    window of the whole budget, its party and start (5 or 15) in turn."""
    return _space("off-default", (0, 5, 30), lambda i, n, budget: [
        [CensorSpec(f"f{i // 2 % n}", 5 + i // (2 * n) % 2 * 10, budget)]
        if i % 2 and budget else []])


def full_space_scenarios():
    """t_sep 0/5/30/60; a threshold with a censorship budget runs once
    uncensored and once per party and start tick 5 or 15, censored for the
    whole budget."""
    return _space("full-space", (0, 5, 30, 60), lambda i, n, budget: [[]] + [
        [CensorSpec(f"f{p}", start, budget)]
        for start in (5, 15) for p in range(n) if budget])


def leak_all_scenarios():
    """Every ``leak_all`` run with N 2-3, V 1-3, peg-ins 1 to V, peg-outs 1
    to peg-ins, each strategy and adversary, none included."""
    i = 0
    for n, strategy, v in itertools.product((2, 3), Strategy, (1, 2, 3)):
        for adversary in [None, *range(n)]:
            for pegins in range(1, v + 1):
                for pegouts in range(1, pegins + 1):
                    i += 1
                    yield Scenario(
                        name=f"leak-all-{i}", seed=i, n_functionaries=n,
                        vmxo_count=v, n_pegins=pegins, n_pegouts=pegouts,
                        adversary=adversary, strategy=strategy,
                        leak_all=True)


def n100_scenario(strategy):
    """The N = 100, V = 4 run of ``strategy``, two peg-ins and peg-outs."""
    return Scenario(name=f"n100-{strategy.value}", seed=1,
                    n_functionaries=100, vmxo_count=4, n_pegins=2,
                    n_pegouts=2,
                    adversary=None if strategy == Strategy.HONEST else 1,
                    strategy=strategy)


def horizon_scenario(strategy):
    """The N = 10 run of ``strategy`` over 512 VMXOs, peg-ins and
    peg-outs."""
    return Scenario(name=f"horizon-{strategy.value}", seed=3,
                    n_functionaries=10, vmxo_count=512, n_pegins=512,
                    n_pegouts=512,
                    adversary=None if strategy == Strategy.HONEST else 1,
                    strategy=strategy)
