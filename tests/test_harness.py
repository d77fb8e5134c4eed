import itertools
import random

import pytest

from bridgesim import harness, txgraph
from bridgesim.chain import SimClock
from bridgesim.econ import DISPUTE_ACTION_VBYTES
from bridgesim.errors import InvalidScenario
from bridgesim.harness import (_MINIMUMS, INT_KEYS, LIVENESS_BOUND,
                              RESERVE_TICKS, TRACE_LENGTH, CensorSpec, Runner,
                              RunReport, Scenario, Strategy, check_invariants,
                              generate_adversarial_scenarios, parse_scenario,
                              run_scenario, scenario_corpus)
from bridgesim.lightclient import check_chain
from bridgesim.protocol import EVENT_SCHEMA, Bridge, dispute_fees, read_log
from bridgesim.txgraph import TxKind

import pins


def replace(sc: Scenario, **changes) -> Scenario:
    """A new scenario with ``sc``'s fields but ``changes``."""
    return Scenario(**{**vars(sc), **changes})


def test_happy_path_all_invariants():
    report = run_scenario(Scenario(name="h", seed=3))
    assert report.all_passed
    assert any("unlocked" in o for o in report.outcomes)


def test_every_corpus_scenario_runs():
    for sc in scenario_corpus():
        report = run_scenario(sc)
        assert check_invariants(read_log(report.log)) == report.verdicts
        if sc.leak_all:
            # negative control: theft must surface as a safety failure
            failed = {v.name for v in report.verdicts if not v.passed}
            assert failed == {"safety"}
        else:
            assert report.all_passed, (sc.name, report.verdicts)


@pytest.mark.parametrize("strategy", [
    Strategy.SILENT_PROVER, Strategy.FAKE_PROOF_PROVER, Strategy.FORK_PROVER])
def test_fraudulent_prover_is_slashed_and_pegout_served(strategy):
    sc = Scenario(name="x", seed=11, n_functionaries=3, vmxo_count=3,
                  n_pegins=3, n_pegouts=2, adversary=0, strategy=strategy)
    report = run_scenario(sc)
    assert report.all_passed
    assert any("ev=slashed loser=f0" in line for line in report.log)
    # the victim peg-out still completes through an honest operator
    assert sum("ev=unlocked" in line for line in report.log) == 2


def test_griefing_verifier_pays():
    sc = Scenario(name="g", seed=5, n_functionaries=3, adversary=2,
                  strategy=Strategy.GRIEFING_VERIFIER)
    report = run_scenario(sc)
    assert report.all_passed
    assert any("ev=slashed loser=f2" in line for line in report.log)
    assert any("kind=VerifierLoses" in line for line in report.log)


def test_double_operator_force_closed():
    sc = Scenario(name="d", seed=5, n_functionaries=3, vmxo_count=3,
                  n_pegins=2, n_pegouts=1, adversary=1,
                  strategy=Strategy.DOUBLE_OPERATOR)
    report = run_scenario(sc)
    assert report.all_passed
    assert any("ev=force_close" in line for line in report.log)
    assert any("ev=slashed loser=f1" in line for line in report.log)


def test_key_leaker_theft_rejected():
    sc = Scenario(name="k", seed=5, n_functionaries=3, adversary=1,
                  strategy=Strategy.KEY_LEAKER)
    report = run_scenario(sc)
    assert report.all_passed
    assert any("ev=theft_rejected" in line for line in report.log)


def test_all_keys_leaked_theft_succeeds():
    sc = Scenario(name="leak", seed=5, n_functionaries=3, leak_all=True,
                  n_pegouts=0)
    report = run_scenario(sc)
    safety = next(v for v in report.verdicts if v.name == "safety")
    assert not safety.passed and "theft" in safety.detail
    conservation = next(v for v in report.verdicts
                        if v.name == "conservation")
    assert conservation.passed  # stolen sats move, they do not vanish


def _run_with_policy(policy: dict, **fields) -> RunReport:
    """A run at N = 3, with ``fields`` changed, whose runner is given
    ``policy`` and the parties it leaves out as honest, so that several
    parties are dishonest, which no Scenario expresses yet."""
    runner = Runner(replace(Scenario(name="policy", seed=5,
                                     n_functionaries=3), **fields))
    runner.policy = policy
    runner.honest = [f for f in runner.functionaries if f not in policy]
    runner.setup()
    runner.run_pegins()
    runner.run_theft_attempts()
    runner.run_pegouts()
    return runner.finish()


@pytest.mark.parametrize("leakers, stolen", [
    (("f1", "f2"), False), (("f0", "f1", "f2"), True)])
def test_key_leakers_steal_only_when_no_party_deletes(leakers, stolen):
    # the 1-of-n claim for key deletion: one honest party that deletes its
    # keys is enough to refuse the thief, the first party in the policy map;
    # with every party leaking the theft goes through and safety fails
    report = _run_with_policy(dict.fromkeys(leakers, Strategy.KEY_LEAKER))
    assert {values[0] for _, key, values in report.rows
            if key == "keys_leaked"} == set(leakers)
    # the thief is the second last field of both kinds
    assert [(key, values[-2]) for _, key, values in report.rows
            if key in ("theft", "theft_rejected")] == [
        ("theft" if stolen else "theft_rejected", leakers[0])]
    assert [v.name for v in report.verdicts if not v.passed] == (
        ["safety"] if stolen else [])


@pytest.mark.parametrize("first, second", itertools.product(
    harness.ALL_STRATEGIES, repeat=2), ids=lambda s: s.value)
def test_two_dishonest_parties_against_one_honest_pass_every_verdict(
        first, second):
    # f1 and f2 dishonest, f0 the one honest party: a prover flow plays on
    # peg-out 0 only while it is linked, so a second prover after a
    # DoubleOperator, whose force-close invalidated it, does not play
    report = _run_with_policy({"f1": first, "f2": second}, seed=3,
                              vmxo_count=3, n_pegins=3, n_pegouts=2)
    assert report.all_passed, report.verdicts


def test_determinism_byte_identical_logs():
    sc = Scenario(name="det", seed=42, n_functionaries=4, vmxo_count=3,
                  n_pegins=3, n_pegouts=2, adversary=2,
                  strategy=Strategy.FAKE_PROOF_PROVER,
                  censor=[CensorSpec("f0", 10, 5)])
    assert run_scenario(sc).log == run_scenario(sc).log


def test_censored_party_within_budget_still_wins():
    sc = Scenario(name="c", seed=9, n_functionaries=3, adversary=0,
                  strategy=Strategy.FAKE_PROOF_PROVER,
                  censor=[CensorSpec("f1", 5, 8)])
    report = run_scenario(sc)
    assert report.all_passed
    assert any("ev=slashed loser=f0" in line for line in report.log)


def test_censored_verifier_alt_chain_timeout_refused():
    # the honest verifier censored from the fork kick-off for the whole
    # threshold lost its alt-chain game by Timeout; 64 ticks are past the
    # budget of 64 - 6 that leaves its watch the ticks of its own replies
    sc = Scenario(seed=1, n_functionaries=3, vmxo_count=2, n_pegins=1,
                  n_pegouts=1, adversary=0, strategy=Strategy.FORK_PROVER,
                  censor=[CensorSpec("f1", 8, 64)])
    with pytest.raises(InvalidScenario):
        sc.validate()


# A ForkProver whose honest verifier is censored through the nested game:
# its alt-chain counter-proof was defeated and the outer prover won.
COUNTER_PROOF_DEFEATED = Scenario(
    name="counter-proof-defeated", seed=1948531827, n_functionaries=3,
    vmxo_count=3, n_pegins=2, n_pegouts=1, adversary=0,
    strategy=Strategy.FORK_PROVER, censor=[CensorSpec("f1", 21, 61)])


def test_defeated_counter_proof_scenario_refused():
    # only a censored honest verifier can lose the canonical chain's
    # counter-proof, and 61 ticks are past the budget
    with pytest.raises(InvalidScenario):
        COUNTER_PROOF_DEFEATED.validate()


# Found by drawing valid scenarios: the honest operator f0, censored 35 ticks
# against a threshold of 37, lost the griefing game by Timeout.
GRIEFED = """
name griefed
seed 57608
functionaries 8
vmxos 4
pegins 1
pegouts 1
fee_rate 2
challenge_window 21
watch_threshold 37
t_sep 5
adversary 1 GriefingVerifier
censor f4 41 33
censor f0 17 35
"""


def test_griefed_scenario_refused():
    with pytest.raises(InvalidScenario, match="f0 censored > 31 ticks"):
        parse_scenario(GRIEFED)


@pytest.mark.parametrize("case, safety, last_outcomes", [
    # the honest operator f0 lost its game, so its fronted peg-out is
    # invalidated, not unlocked
    ("griefed", "honest f0 slashed", [
        "ev=dispute_outcome kind=ProverLoses loser=f0 prover=f0 "
        "reason=Timeout verifier=f1 winner=f1",
        "ev=slashed loser=f0 pot=3784648 reimbursed=2126 winner=f1",
        "ev=pegout_invalidated operator=f0 vmxo=pkt0:vmxo0"]),
    # f1's alt-chain counter-proof was defeated: f1 loses and is slashed,
    # and f0's fork kick-off stands and unlocks
    ("counter-proof-defeated", "unlock of pkt0:vmxo0 without canonical burn", [
        "ev=dispute_outcome kind=VerifierLoses loser=f1 prover=f0 "
        "reason=CounterProofDefeated verifier=f1 winner=f0",
        "ev=slashed loser=f1 pot=1081328 reimbursed=10174 winner=f0",
        "ev=unlocked amount=100000000 operator=f0 vmxo=pkt0:vmxo0"]),
], ids=["griefed", "counter-proof-defeated"])
def test_run_past_the_budget_ends_in_a_report(case, safety, last_outcomes,
                                              monkeypatch):
    # the contest decides the kick-off whoever loses: run anyway, the
    # honest party that lost is slashed and the run still ends in a report
    monkeypatch.setattr(Scenario, "validate", lambda self: None)
    sc = parse_scenario(GRIEFED) if case == "griefed" \
        else COUNTER_PROOF_DEFEATED
    report = run_scenario(sc)
    assert isinstance(report, RunReport)
    assert {v.name: v.detail for v in report.verdicts}["safety"] == safety
    assert [line.split(" ", 2)[2]
            for line in report.outcomes[-3:]] == last_outcomes


def _fake_proof_censoring_f1(length):
    """A FakeProofProver f0 whose one honest challenger f1 is censored
    ``length`` ticks from tick 12."""
    return Scenario(name=f"censored-{length}", seed=1, n_functionaries=3,
                    vmxo_count=2, adversary=0,
                    strategy=Strategy.FAKE_PROOF_PROVER,
                    censor=[CensorSpec("f1", 12, length)])


# the longest censorship of f1 that the budget admits: 64 - 6 ticks
CENSORED_TO_BUDGET = _fake_proof_censoring_f1(58)


def test_challenger_censored_to_the_budget_wins(monkeypatch):
    report = run_scenario(CENSORED_TO_BUDGET)
    assert report.all_passed
    slashes = [line for line in report.outcomes if " ev=slashed " in line]
    assert len(slashes) == 1
    assert " loser=f0 " in slashes[0] and slashes[0].endswith(" winner=f1")
    # one tick more is refused; run anyway, f1 loses by Timeout and is
    # slashed, f0's fraudulent kick-off stands and unlocks, and safety
    # fails on that unlock
    over = _fake_proof_censoring_f1(59)
    with pytest.raises(InvalidScenario):
        over.validate()
    monkeypatch.setattr(Scenario, "validate", lambda self: None)
    report = run_scenario(over)
    verdicts = {v.name: v for v in report.verdicts}
    assert verdicts["safety"].detail == \
        "unlock of pkt0:vmxo0 without canonical burn"
    assert any(" ev=slashed loser=f1 " in line for line in report.log)
    assert any(" ev=unlocked " in line and
               line.endswith(" operator=f0 vmxo=pkt0:vmxo0")
               for line in report.log)


def test_report_is_read_from_the_rows_alone(run_with_bridge, monkeypatch):
    # a saved log reads back as the same report, and what the report reads
    # from the rows is what the bridge's calls paid while the run went on.
    # Each party's lifetime sum of dispute and force-close fees is kept
    # beside the run, and each refund is checked against it: the sum capped
    # at what is left of the pot, in every slash a run makes.  The fees of
    # each contest, since its VMXO's kick-off or the slash before if later,
    # are kept too: the deposit suffices if each slash's pot covers the
    # honest parties' fees in its contest
    lifetime, refunds, covered, honest = {}, [], [], []
    since_slash, since_kickoff = {}, {}
    pay_fee, slash, kick = (Bridge.pay_fee, Bridge.slash,
                            Bridge.publish_kickoff)

    def paying(self, party, vbytes, why):
        fee = pay_fee(self, party, vbytes, why)
        if why.startswith("dispute:") or why == "force-close":
            for fees in (lifetime, since_slash, *since_kickoff.values()):
                fees[party] = fees.get(party, 0) + fee
        return fee

    def kicking(self, vmxo_id, operator):
        since_kickoff[vmxo_id] = {}
        kick(self, vmxo_id, operator)

    def slashing(self, loser, winner, challengers, vmxo_id):
        first, start = loser not in self.slashed, len(self.rows)
        pot = self.ledger.balances[f"deposit:{loser}"]
        if first:
            contest = since_kickoff.get(vmxo_id, since_slash)
            covered.append(sum(contest.get(f, 0) for f in honest) <= pot)
            since_slash.clear()
            since_kickoff.clear()
        slash(self, loser, winner, challengers, vmxo_id)
        expected, paid = [], 0
        for ch in sorted(set(challengers)) if first else ():
            refund = min(lifetime.get(ch, 0), pot - paid)
            if refund > 0:
                expected.append((f"wallet:{ch}", refund))
                paid += refund
        logged = [(values[1], values[0])
                  for _, key, values in self.rows[start:]
                  if key == "transfer" and values[3] == "cost-reimbursement"]
        assert logged == expected, (loser, vmxo_id)
        refunds.extend(logged)

    monkeypatch.setattr(Bridge, "pay_fee", paying)
    monkeypatch.setattr(Bridge, "slash", slashing)
    monkeypatch.setattr(Bridge, "publish_kickoff", kicking)
    for sc in scenario_corpus() + generate_adversarial_scenarios(500) + [
            CENSORED_TO_BUDGET]:
        for kept in (lifetime, covered, since_slash, since_kickoff):
            kept.clear()
        honest[:] = [] if sc.leak_all else [
            f for f in sc.functionary_ids if f != sc.adversary_id]
        report, b = run_with_bridge(sc)
        assert RunReport(read_log(report.log)).to_text() == report.to_text()
        assert (report.scenario, report.seed) == (sc.name, sc.seed)
        assert report.deposit_sats == b.deposit_per_functionary
        assert report.dispute_costs == {
            **dict.fromkeys(sc.functionary_ids, 0), **lifetime}, sc.name
        assert report.deposit_sufficient == all(covered), sc.name
    assert len(refunds) == 895


def test_deposit_sufficient_at_exact_equality():
    # one slash: a pot of exactly the honest parties' fees in the contest
    # it settles covers them, and one sat less does not.  The honest
    # kick-offs after the slash are no part of that contest
    report = run_scenario(Scenario(
        name="x", seed=11, n_functionaries=3, vmxo_count=3, n_pegins=3,
        n_pegouts=2, adversary=0, strategy=Strategy.FAKE_PROOF_PROVER))
    slashes = [i for i, (_, key, _) in enumerate(report.rows)
               if key == "slashed"]
    assert len(slashes) == 1
    # the adversary's kick-off opens the run's first contest
    fees = dispute_fees(report.rows[:slashes[0]])
    paid = fees["f1"] + fees["f2"]
    assert report.dispute_costs["f1"] > fees["f1"]
    at = EVENT_SCHEMA["slashed"].index("pot")

    def with_pot(pot):
        return RunReport([
            (t, key, values[:at] + (pot,) + values[at + 1:])
            if key == "slashed" else (t, key, values)
            for t, key, values in report.rows])

    assert 0 < paid < report.deposit_sats
    assert with_pot(paid).deposit_sufficient
    assert not with_pot(paid - 1).deposit_sufficient


def test_deposit_sufficient_leaves_out_uncontested_kickoffs():
    # N = 2, V = 110: f1's fraudulent kick-off is contested and slashed,
    # then honest f0 kicks off 110 times unchallenged.  Those commit-proof
    # fees exceed the deposit, yet the pot covered the one contest's fees
    report = run_scenario(Scenario(
        name="uncontested", seed=3, n_functionaries=2, vmxo_count=110,
        n_pegins=110, n_pegouts=110, adversary=1,
        strategy=Strategy.FAKE_PROOF_PROVER))
    assert report.all_passed
    assert sum(key == "slashed" for _, key, _ in report.rows) == 1
    assert report.dispute_costs["f0"] > report.deposit_sats
    assert report.deposit_sufficient
    assert "sufficient=True" in report.to_text()


def test_outcomes_are_the_log_lines_of_the_outcome_kinds():
    report = run_scenario(CENSORED_TO_BUDGET)
    assert report.outcomes == [
        line for line in report.log
        if line.split(" ", 3)[2].removeprefix("ev=") in harness.OUTCOME_KINDS]
    assert {line.split(" ", 3)[2] for line in report.outcomes} == {
        "ev=minted", "ev=pegout_burn", "ev=pegout_linked",
        "ev=dispute_outcome", "ev=slashed", "ev=challenge_window_expired",
        "ev=unlocked"}


def test_fork_kickoff_proof_passes_check_chain(monkeypatch):
    # the fork chain itself checks out, so only the alt-chain counter-proof
    # can show the fraud: every ForkProver kick-off's main input must pass
    main_inputs = []
    contest = Runner._contest_kickoff

    def recording(self, *args, **kwargs):
        # every kick-off is contested here; only a fork's carries main_input
        if "main_input" in kwargs:
            main_inputs.append(kwargs["main_input"])
        return contest(self, *args, **kwargs)

    monkeypatch.setattr(Runner, "_contest_kickoff", recording)
    forks = 0
    for sc in generate_adversarial_scenarios(500) + scenario_corpus():
        if sc.strategy == Strategy.FORK_PROVER:
            report = run_scenario(sc)
            forks += sum(" ev=fork_mined " in line for line in report.log)
    assert forks > 0 and len(main_inputs) == forks
    assert all(check_chain(inp) for inp in main_inputs)


def test_checker_flags_tampered_log():
    report = run_scenario(Scenario(name="t", seed=3))
    # inflate one final balance: conservation must catch it
    tampered = [l.replace("ev=final_balance account=fees amount=",
                          "ev=final_balance account=fees amount=9")
                for l in report.log]
    verdicts = {v.name: v.passed for v in check_invariants(tampered)}
    assert not verdicts["conservation"]


def test_checker_flags_a_total_that_drifts_with_every_final_matching():
    # each final balance matches its own account, but an opened account has
    # no final line, so its sats left the ledger unaccounted
    rows = [(0, "balance", ("a", 10)), (0, "balance", ("b", 5)),
            (1, "final_balance", ("a", 10))]
    assert check_invariants(rows)[0] == harness.Verdict(
        "conservation", False, "total drifted")


def test_checker_flags_duplicate_spend():
    report = run_scenario(Scenario(name="t", seed=3))
    spend = next(l for l in report.log if " ev=spend " in l)
    # replay the spend as the log's next line, so the log stays in order
    event = spend.split(" ", 2)[2]
    replay = f"{report.log[-1].split()[0]} seq={len(report.log) + 1} {event}"
    verdicts = {v.name: v.passed
                for v in check_invariants(report.log + [replay])}
    assert not verdicts["single_spend"]


def test_scenario_validation():
    with pytest.raises(InvalidScenario):
        Scenario(n_functionaries=1).validate()
    with pytest.raises(InvalidScenario):
        Scenario(n_pegins=1, n_pegouts=2).validate()
    with pytest.raises(InvalidScenario):
        Scenario(adversary=7).validate()
    with pytest.raises(InvalidScenario):
        Scenario(strategy=Strategy.SILENT_PROVER).validate()
    with pytest.raises(InvalidScenario):
        Scenario(censor=[CensorSpec("f0", 0, 1000)]).validate()
    # adding challenge_window + 1 to the clock would turn it back
    with pytest.raises(InvalidScenario):
        Scenario(challenge_window=-5).validate()


@pytest.mark.parametrize("window", [
    CensorSpec("f9", 10, 20), CensorSpec("f1", 10, 0),
    CensorSpec("f1", 10, -5), CensorSpec("f1", -30, 20)],
    ids=["unknown-party", "zero-length", "negative-length", "negative-start"])
def test_censor_window_that_censors_nobody_as_written_rejected(window):
    # each validated and ran with nobody censored, so a typo tested nothing
    with pytest.raises(InvalidScenario):
        Scenario(seed=1, censor=[window]).validate()


@pytest.mark.parametrize("changes", [
    {"adversary": True}, {"adversary": 1.0},
    {"strategy": "FakeProofProver"}, {"n_functionaries": 3.0},
    {"seed": 1.5}, {"fee_rate": 2.5}, {"watch_threshold": 64.5},
    {"denomination": 1.5}, {"challenge_window": True},
    {"censor": [CensorSpec("f1", 12.5, 3)]}, {"leak_all": "no"},
    {"leak_all": 0}, {"name": 7}, {"name": None},
    {"censor": [("f0", 1)]}, {"censor": "f0 1 2"}, {"censor": None},
    {"censor": [("f1", 12, 3)]},
], ids=["adversary-bool", "adversary-float", "strategy-str",
        "n_functionaries-float", "seed-float", "fee_rate-float",
        "watch_threshold-float", "denomination-float", "challenge_window-bool",
        "censor-start-float", "leak_all-str", "leak_all-int", "name-int",
        "name-none", "censor-two-fields", "censor-str", "censor-none",
        "censor-plain-tuple"])
def test_field_of_the_wrong_type_rejected(changes):
    # each passed validate, then its run raised (UnknownId for f1.0,
    # AttributeError, TypeError) or wrote a log that read_log refuses
    # ("non-integer deposit", "at: '17.5'"); leak_all="no" ran with every
    # key leaked, since the string is true.  A malformed censor list raised
    # ValueError, TypeError or AttributeError from validate itself
    with pytest.raises(InvalidScenario):
        replace(CENSORED_TO_BUDGET, **changes).validate()


@pytest.mark.parametrize("windows, admitted", [
    ([("f1", 0, 30), ("f1", 100, 28)], True),
    ([("f1", 0, 30), ("f1", 100, 29)], False),
    ([("f1", 10, 30), ("f1", 40, 28)], True),
    ([("f1", 10, 30), ("f1", 40, 29)], False),
    ([("f1", 10, 40), ("f1", 20, 48)], True),
    ([("f1", 10, 40), ("f1", 20, 49)], False),
    ([("f1", 10, 58), ("f1", 20, 10)], True),
    ([("f0", 0, 58), ("f1", 0, 58), ("f2", 5, 58)], True),
], ids=["disjoint-58", "disjoint-59", "adjacent-58", "adjacent-59",
        "overlapping-58", "overlapping-59", "nested-58", "one-budget-each"])
def test_censorship_budget_counts_each_partys_ticks_once(windows, admitted):
    # threshold 64 leaves a budget of 58 ticks per party, summed over its
    # windows; the ticks two windows share, or a tick censored_until
    # carries across from one to the next, count once
    sc = Scenario(seed=1, censor=[CensorSpec(*w) for w in windows])
    budget = sc.watch_threshold - _MINIMUMS["watch_threshold"]
    clock = SimClock(sc.censor)
    ticks = {p: sum(clock.censored_until(p, t) is not None
                    for t in range(200)) for p, _, _ in windows}
    assert budget == 58 and (max(ticks.values()) <= budget) == admitted
    if admitted:
        sc.validate()
    else:
        with pytest.raises(InvalidScenario, match="f1 censored > 58"):
            sc.validate()


# perfbench's sweep op valid-161 at seed 6: each window alone is within the
# threshold, but together they censor the one honest challenger f0 from
# tick 4 to tick 91, 87 ticks
VALID_161 = Scenario(
    name="valid-161", seed=1205295393, n_functionaries=2, vmxo_count=2,
    n_pegins=1, n_pegouts=1, adversary=1,
    strategy=Strategy.FAKE_PROOF_PROVER,
    censor=[CensorSpec("f0", 28, 63), CensorSpec("f0", 4, 47)])


def test_bench_op_censored_past_the_budget_refused(monkeypatch):
    assert all(w.length <= VALID_161.watch_threshold
               for w in VALID_161.censor)
    with pytest.raises(InvalidScenario, match="f0 censored > 58"):
        VALID_161.validate()
    # run anyway: f0 loses its game and is slashed, f1's fraudulent
    # kick-off stands and unlocks, and safety fails on that unlock
    monkeypatch.setattr(Scenario, "validate", lambda self: None)
    report = run_scenario(VALID_161)
    verdicts = {v.name: v for v in report.verdicts}
    assert verdicts["safety"].detail == \
        "unlock of pkt0:vmxo0 without canonical burn"
    assert any(" ev=slashed loser=f0 " in line for line in report.log)
    assert any(" ev=unlocked " in line and
               line.endswith(" operator=f1 vmxo=pkt0:vmxo0")
               for line in report.log)


def test_watch_threshold_keeps_a_stalled_pegout_live(monkeypatch):
    # a silent prover stalls the first peg-out for threshold + 1 ticks; the
    # re-serve fronts RESERVE_TICKS later than that after the burn, so the
    # largest threshold validate admits meets the bound exactly
    limit = LIVENESS_BOUND - 1 - RESERVE_TICKS
    assert limit == 494
    sc = Scenario(seed=1, n_functionaries=3, vmxo_count=2, n_pegins=2,
                  n_pegouts=1, adversary=0, strategy=Strategy.SILENT_PROVER,
                  watch_threshold=limit)
    report = run_scenario(sc)
    assert report.all_passed
    burn = next(t for t, key, _ in report.rows if key == "pegout_burn")
    assert _fronts(report)[0][0] - burn == LIVENESS_BOUND
    # one more is refused, and a run of it misses the bound
    over = replace(sc, watch_threshold=limit + 1)
    with pytest.raises(InvalidScenario):
        over.validate()
    monkeypatch.setattr(Scenario, "validate", lambda self: None)
    liveness = {v.name: v for v in run_scenario(over).verdicts}["liveness"]
    assert liveness.detail == "burn burn:u0:1 not fronted in time"


@pytest.mark.parametrize("threshold, length", [(400, 100), (300, 200)])
def test_censored_challengers_keep_a_stalled_pegout_live(monkeypatch,
                                                         threshold, length):
    # the honest challengers f1 and f2 wait out their censor windows before
    # the silent prover's stall; each window is within the budget, but the
    # wait and the stall together missed the bound by 6 ticks, so validate
    # counts the longest censorship too
    sc = Scenario(seed=1, n_functionaries=3, vmxo_count=2, n_pegins=2,
                  n_pegouts=1, adversary=0, strategy=Strategy.SILENT_PROVER,
                  watch_threshold=threshold,
                  censor=[CensorSpec("f1", 12, length),
                          CensorSpec("f2", 12, length)])
    with pytest.raises(InvalidScenario, match="past the liveness bound$"):
        sc.validate()
    # the largest threshold it admits with these windows meets the bound
    fit = replace(sc, watch_threshold=LIVENESS_BOUND - 1 - RESERVE_TICKS
                  - length)
    report = run_scenario(fit)
    assert report.all_passed
    burn = next(t for t, key, _ in report.rows if key == "pegout_burn")
    assert _fronts(report)[0][0] - burn == LIVENESS_BOUND
    with pytest.raises(InvalidScenario):
        replace(fit, watch_threshold=fit.watch_threshold + 1).validate()
    monkeypatch.setattr(Scenario, "validate", lambda self: None)
    liveness = {v.name: v for v in run_scenario(sc).verdicts}["liveness"]
    assert liveness.detail == "burn burn:u0:1 not fronted in time"


@pytest.mark.parametrize("field, least", sorted(_MINIMUMS.items()))
def test_least_value_of_each_field_runs_to_a_wellformed_log(field, least):
    # one below the least is refused: challenge_window=-5 used to validate,
    # then turned the clock back, and read_log refused the run's log; a
    # negative n_pegouts or t_sep, which used to run as 0, is refused too
    with pytest.raises(InvalidScenario, match=f"^{field} must be at least "
                       f"{least}$"):
        Scenario(**{field: least - 1}).validate()
    # one peg-in and one peg-out, or none when there are no peg-ins
    counts = {"n_pegins": 1, "n_pegouts": 1, field: least}
    counts["n_pegouts"] = min(counts["n_pegouts"], counts["n_pegins"])
    for strategy in Strategy:
        sc = Scenario(name=f"least-{field}", seed=3,
                      adversary=None if strategy == Strategy.HONEST else 1,
                      strategy=strategy, **counts)
        assert read_log(run_scenario(sc).log), strategy


def _honest_timeouts(threshold):
    """Games an honest, uncensored party lost by timeout, over ten seeds
    of each strategy."""
    lost = []
    for strategy in Strategy:
        for seed in range(10):
            adversary = None if strategy == Strategy.HONEST else seed % 3
            sc = Scenario(seed=seed, vmxo_count=2, n_pegins=2, n_pegouts=2,
                          adversary=adversary, strategy=strategy,
                          watch_threshold=threshold)
            # a dispute_outcome's values: kind, loser, prover, reason, ...
            lost += [(strategy, seed)
                     for _, key, values in run_scenario(sc).rows
                     if key == "dispute_outcome" and values[3] == "Timeout"
                     and values[1] != f"f{adversary}"]
    return lost


def test_least_watch_threshold_fits_every_honest_reply(monkeypatch):
    least = _MINIMUMS["watch_threshold"]
    assert _honest_timeouts(least) == []
    # one below, an honest party runs out its budget
    monkeypatch.setattr(Scenario, "validate", lambda self: None)
    assert _honest_timeouts(least - 1) != []


@pytest.mark.parametrize("name", ["x ev=theft thief=f0 vmxo=v0", "a b",
                                  "tab\there", "new\nline", "trailing "])
def test_scenario_name_with_whitespace_rejected(name):
    # the name is one field of the log's meta kind=scenario line: with a
    # space in it, "x ev=theft ..." made an honest run's log report a theft
    with pytest.raises(InvalidScenario):
        Scenario(name=name).validate()


def test_parse_scenario_roundtrip():
    sc = parse_scenario("""
        name parsed
        seed 17
        functionaries 4
        vmxos 3
        pegins 3
        pegouts 2
        fee_rate 5
        adversary 2 SilentProver
        censor f1 10 4
        censor f0 3 1
    """)
    assert sc.name == "parsed" and sc.seed == 17
    assert sc.n_functionaries == 4 and sc.adversary == 2
    assert sc.strategy == Strategy.SILENT_PROVER
    # censor is the one key that may repeat
    assert sc.censor == [CensorSpec("f1", 10, 4), CensorSpec("f0", 3, 1)]
    assert type(sc.censor[0]) is CensorSpec  # == holds for a plain tuple too


# pegout_limit, deleted as it changed no run, is an unknown key: refused
BOUNDARY_SCENARIOS = [
    f"{key} {value}\n" + ("" if strategy == "Honest"
                          else f"adversary 1 {strategy}\n")
    for key in [*INT_KEYS, "pegout_limit"] if key != "adversary"
    for value in (-1, 0)
    for strategy in ("Honest", "FakeProofProver", "SilentProver",
                     "DoubleOperator", "GriefingVerifier")
] + ["vmxos 0\npegins 0\npegouts 0\n"]


@pytest.mark.parametrize("text", BOUNDARY_SCENARIOS, ids=[
    t.strip().replace("\n", "; ") for t in BOUNDARY_SCENARIOS])
def test_valid_boundary_scenario_runs(text):
    # every scenario that validates ends in a report, never a traceback
    try:
        sc = parse_scenario(text)
    except InvalidScenario:
        return
    assert isinstance(run_scenario(sc), RunReport)


def _fronts(report: RunReport) -> list[tuple[int, str]]:
    """(tick, operator) of every front, in log order."""
    out = []
    for line in report.log:
        if " ev=fronted " in line:
            fields = dict(part.split("=", 1) for part in line.split())
            out.append((int(fields["t"]), fields["operator"]))
    return out


@pytest.mark.parametrize("t_sep, failing", [(100, set()),
                                             (1000, {"liveness"})])
def test_operator_waits_out_t_sep(t_sep, failing):
    # the one honest operator waits before each later front; past the
    # liveness bound that wait shows as a failing verdict, not a traceback,
    # and the verdict names every late burn
    report = run_scenario(Scenario(n_functionaries=2, vmxo_count=3,
                                   n_pegins=3, n_pegouts=3, t_sep=t_sep,
                                   adversary=1, strategy=Strategy.KEY_LEAKER))
    assert {v.name for v in report.verdicts if not v.passed} == failing
    fronts = [t for t, _ in _fronts(report)]
    assert fronts == {100: [16, 120, 224], 1000: [16, 1020, 2024]}[t_sep]
    assert all(b - a >= t_sep for a, b in zip(fronts, fronts[1:]))
    liveness = next(v for v in report.verdicts if v.name == "liveness")
    assert liveness.detail == {
        100: "", 1000: "burn burn:u1:2 not fronted in time; "
                       "burn burn:u2:3 not fronted in time"}[t_sep]


def test_idle_operators_front_under_t_sep():
    # an operator still inside t_sep is passed over for one who can front now
    report = run_scenario(Scenario(n_functionaries=3, vmxo_count=3,
                                   n_pegins=3, n_pegouts=3, t_sep=1000))
    assert report.all_passed
    assert sorted(op for _, op in _fronts(report)) == ["f0", "f1", "f2"]


def _fuzz_scenarios(count: int):
    rng = random.Random(2025)
    while count:
        n = rng.randint(2, 5)
        sc = Scenario(
            name=f"fuzz-{count}", seed=rng.randrange(2 ** 31),
            n_functionaries=n, vmxo_count=rng.randint(1, 4),
            n_pegins=rng.randint(0, 4), n_pegouts=rng.randint(0, 4),
            adversary=rng.randrange(n) if rng.random() < 0.8 else None,
            strategy=rng.choice(list(Strategy)),
            leak_all=rng.random() < 0.1, t_sep=rng.randint(0, 200),
            censor=[CensorSpec(f"f{rng.randrange(n)}", rng.randint(0, 60),
                               rng.randint(1, 80))
                    for _ in range(rng.choice((0, 0, 1, 2)))])
        try:
            sc.validate()
        except InvalidScenario:
            continue
        count -= 1
        yield sc


def _wide_scenarios(count: int, seed: int):
    """Scenarios drawn over every ``Scenario`` field, threshold 6 to 494
    and up to three censor windows as long as the threshold, kept when
    ``validate`` admits them."""
    rng = random.Random(seed)
    while count:
        n, threshold = rng.randint(2, 8), rng.randint(6, 494)
        vmxos = rng.randint(1, 6)
        pegins = rng.randint(0, vmxos)
        sc = Scenario(
            name=f"wide-{count}", seed=rng.randrange(2 ** 31),
            n_functionaries=n, denomination=rng.choice((0, 10 ** 5, 10 ** 8)),
            vmxo_count=vmxos, n_pegins=pegins,
            n_pegouts=rng.randint(0, pegins), fee_rate=rng.choice((1, 2, 5)),
            challenge_window=rng.randint(0, 60), watch_threshold=threshold,
            adversary=rng.randrange(n) if rng.random() < 0.9 else None,
            strategy=rng.choice(list(Strategy)),
            leak_all=rng.random() < 0.05,
            censor=[CensorSpec(f"f{rng.randrange(n)}", rng.randint(0, 80),
                               rng.randint(1, threshold))
                    for _ in range(rng.randint(0, 3))])
        # the draw that set the deleted pegout_limit, which changed no run,
        # so that the same scenarios are drawn
        rng.randint(1, 3)
        sc.t_sep = rng.choice((0, 5, 30))
        try:
            sc.validate()
        except InvalidScenario:
            continue
        count -= 1
        yield sc


def _game_faults(rows) -> list[str]:
    """Games an honest party lost, and slashes that do not name the loser
    and winner of the game just played."""
    faults, game = [], None
    for _, key, values in rows:
        if key == ("meta", "parties"):
            honest = set(values[2].split(","))
        elif key == "dispute_outcome":
            _, loser, _, _, _, winner = values
            if loser in honest:
                faults.append(f"honest {loser} lost a game")
            game = (loser, winner)
        elif key == "force_close":
            game = None
        elif key == "slashed":
            if values[0] == values[3] or game not in (None, (values[0],
                                                             values[3])):
                faults.append(f"slashed {values[0]} for {values[3]} "
                              f"after game {game}")
            game = None
    return faults


def test_wide_draw_honest_parties_win_every_game_they_play():
    # under the censorship budget no admitted scenario has an honest party
    # lose a game, and every slash follows its game's outcome; every one
    # but a leak of every key also keeps each peg-out live
    for sc in _wide_scenarios(2000, 18):
        report = run_scenario(sc)
        assert _game_faults(report.rows) == [], sc
        failed = {v.name for v in report.verdicts if not v.passed}
        assert failed <= ({"safety", "liveness"} if sc.leak_all
                          else set()), sc


class AskEveryOperatorRunner(Runner):
    """``_pick_operator`` as it was when it asked ``separation_left`` of
    every operator in the pool, frozen as the reference for the picks."""

    def _pick_operator(self) -> str:
        b = self.bridge
        pool = [f for f in self.honest if f not in b.slashed]
        if not pool:
            pool = [f for f in self.functionaries if f not in b.slashed]
        return min(pool, key=lambda f: (b.separation_left(f), f))


def test_operator_pick_matches_asking_every_operator(monkeypatch):
    # an operator that never kicked off waits 0 ticks, so the pick asks
    # only the others; over 300 fuzz scenarios (t_sep 0 to 200) and the
    # t_sep runs above, every log equals the reference's
    scenarios = list(_fuzz_scenarios(300)) + [
        Scenario(n_functionaries=n, vmxo_count=3, n_pegins=3, n_pegouts=3,
                 t_sep=t_sep, adversary=1, strategy=strategy)
        for n, strategy in ((2, Strategy.KEY_LEAKER), (3, Strategy.HONEST))
        for t_sep in (100, 1000)]
    reports = [run_scenario(sc) for sc in scenarios]
    monkeypatch.setattr(harness, "Runner", AskEveryOperatorRunner)
    for sc, report in zip(scenarios, reports):
        assert run_scenario(sc).rows == report.rows, sc


def test_rng_is_seeded_on_first_draw():
    # a run that draws nothing builds no RNG; a FakeProofProver run draws
    # one corruption position from the stream random.Random(seed) gives
    def played(sc):
        runner = Runner(sc)
        runner.setup()
        runner.run_pegins()
        runner.run_theft_attempts()
        runner.run_pegouts()
        return runner

    assert "rng" not in vars(played(Scenario(seed=3)))
    fake = played(Scenario(seed=3, adversary=1,
                           strategy=Strategy.FAKE_PROOF_PROVER))
    reference = random.Random(3)
    reference.randint(1, TRACE_LENGTH)
    assert fake.rng.getstate() == reference.getstate()


def test_fuzz_valid_scenarios_end_in_wellformed_reports(run_with_bridge):
    # every scenario that validates, leak_all and t_sep included, ends in a
    # report whose log the checker accepts as whole, and the rows the
    # checker read give the verdicts that log gives
    for sc in _fuzz_scenarios(300):
        report, b = run_with_bridge(sc)
        assert report.rows is b.rows
        assert check_invariants(read_log(b.events)) == report.verdicts, sc


def test_parse_scenario_reads_a_strategy_without_an_adversary():
    # every scenario validate admits can be written as a file: this one
    # sets its strategy by the strategy key, with no adversary line
    sc = parse_scenario("name leaked\nseed 99\nfunctionaries 3\n"
                        "strategy KeyLeaker\nleak_all yes\npegouts 0\n")
    assert sc == Scenario(name="leaked", seed=99, n_functionaries=3,
                          leak_all=True, strategy=Strategy.KEY_LEAKER,
                          n_pegouts=0)


@pytest.mark.parametrize("text,message", [
    ("seed 1\nseed 2\n", "line 2: seed sets seed again"),
    ("name a\n\nname b\n", "line 3: name sets name again"),
    ("functionaries 3\n# N\nfunctionaries 4\n",
     "line 3: functionaries sets n_functionaries again"),
    ("strategy KeyLeaker\nadversary 1 KeyLeaker\n",
     "line 2: adversary sets strategy again"),
    ("adversary 1 KeyLeaker\nstrategy KeyLeaker\n",
     "line 2: strategy sets strategy again"),
    ("adversary 1 KeyLeaker\nadversary 0 SilentProver\n",
     "line 2: adversary sets adversary again")])
def test_parse_scenario_refuses_a_field_set_twice(text, message):
    # a later line would override an earlier one without a word
    with pytest.raises(InvalidScenario) as exc:
        parse_scenario(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("text,message", [
    ("seed 1 2\nseed 3\n", "grid line 2: seed sets seed again"),
    ("functionaries 3\nfunctionaries 4\n",
     "grid line 2: functionaries sets n_functionaries again")])
def test_parse_grid_refuses_a_field_set_twice(text, message):
    # "seed 1 2 / seed 3" would run sweep-1-3 and sweep-2-3, both at
    # seed 3
    with pytest.raises(InvalidScenario) as exc:
        harness.parse_grid(text)
    assert str(exc.value) == message


def test_parse_scenario_rejects_unknown_key():
    with pytest.raises(InvalidScenario):
        parse_scenario("frobnicate 3")


@pytest.mark.parametrize("line", ["seed 1 2", "leak_all maybe"])
def test_parse_scenario_rejects_malformed_line(line):
    # a wrong number of values, or a boolean that is not one, is an error
    # rather than a silent first value or False
    with pytest.raises(InvalidScenario):
        parse_scenario(line)


def test_generator_covers_all_strategies():
    scs = generate_adversarial_scenarios(24)
    assert {sc.strategy for sc in scs} == {
        Strategy.SILENT_PROVER, Strategy.FAKE_PROOF_PROVER,
        Strategy.FORK_PROVER, Strategy.GRIEFING_VERIFIER,
        Strategy.DOUBLE_OPERATOR, Strategy.KEY_LEAKER}
    for sc in scs:
        sc.validate()


def test_dispute_fees_logged_match_cost_table():
    sc = Scenario(name="fees", seed=11, n_functionaries=3, vmxo_count=3,
                  n_pegins=3, n_pegouts=2, adversary=0,
                  strategy=Strategy.FAKE_PROOF_PROVER)
    report = run_scenario(sc)
    # every dispute publication (except the outer commit-proof, fee-paid at
    # kick-off) has a matching fee transfer right next to it
    pubs = sum(1 for l in report.log if " ev=dispute_pub " in l)
    fee_transfers = sum(1 for l in report.log if "why=dispute:" in l)
    kickoffs = sum(1 for l in report.log if " ev=kickoff " in l)
    assert fee_transfers == pubs + kickoffs
    # each fee is the run's fee rate times its price: the price table's for
    # a dispute publication, the template's vbytes for the two templates a
    # run executes with a fee
    g = txgraph.build_packet_templates(["f0", "f1"], 2, 100)
    va, vb = g.vmxo_ids
    prices = {f"dispute:{action}": vbytes
              for action, vbytes in DISPUTE_ACTION_VBYTES.items()}
    prices["unlocking"] = g.template(TxKind.UNLOCKING, va, "f0").vbytes
    prices["force-close"] = g.template(TxKind.FORCE_CLOSE, "f0",
                                       va, vb).vbytes
    at = EVENT_SCHEMA[("meta", "params")].index("fee_rate")
    priced = set()
    for sc in scenario_corpus() + generate_adversarial_scenarios(500):
        rows = run_scenario(sc).rows
        fee_rate = next(values[at] for _, key, values in rows
                        if key == ("meta", "params"))
        for _, key, values in rows:
            if key == "transfer" and values[1] == "fees":
                amount, _, _, why = values
                assert amount == fee_rate * prices[why], (sc.name, why)
                priced.add(why)
    assert priced == set(prices)


def test_run_builds_no_unused_loser_terminal():
    # the loser terminals are 6,960 of the 7,474 templates at N = 30, V = 4;
    # a run builds only those it spends, yet reports the whole graph
    sc = Scenario(name="lazy", seed=1, n_functionaries=30, vmxo_count=4,
                  n_pegins=2, n_pegouts=2, adversary=0,
                  strategy=Strategy.FAKE_PROOF_PROVER)
    runner = Runner(sc)
    runner.setup()
    runner.run_pegins()
    runner.run_theft_attempts()
    runner.run_pegouts()
    report = runner.finish()
    assert report.all_passed
    setup_done = next(l for l in report.log if " ev=setup_done " in l)
    fields = dict(part.split("=", 1) for part in setup_done.split())
    assert fields["templates"] == "7474"
    spenders = {l.rsplit(" by=", 1)[1].split()[0]
                for l in report.log if " ev=spend " in l}
    g = runner.bridge.graph
    unused = [key for key, tx in g.templates.items()
              if key[0] in (TxKind.PROVER_LOSES, TxKind.VERIFIER_LOSES)
              and tx.id not in spenders]
    assert unused == []


def test_criterion6_sweep_logs_match_reference():
    logs = [run_scenario(s).log for s in generate_adversarial_scenarios(500)]
    assert pins.digest(logs) == pins.SWEEP_LOGS
    assert sum(" ev=slashed " in line for log in logs for line in log) == 417


def test_off_default_space_logs_match_reference():
    assert pins.log_digest(pins.off_default_scenarios()) == \
        pins.OFF_DEFAULT_LOGS


def test_leak_all_space_logs_match_reference():
    logs = [run_scenario(sc).log for sc in pins.leak_all_scenarios()]
    assert pins.digest(logs) == pins.LEAK_ALL_LOGS
    raw_unlocks = unlinked = 0
    for log in logs:
        vmxos = {kind: [line.rsplit("vmxo=", 1)[1] for line in log
                        if f" ev={kind} " in line]
                 for kind in ("kickoff", "pegout_linked", "unlocked")}
        raw_unlocks += len(set(vmxos["unlocked"]) & set(vmxos["kickoff"])
                           - set(vmxos["pegout_linked"]))
        unlinked += sum(" ev=pegout_burn " in line for line in log) > \
            len(vmxos["pegout_linked"])
    # runs whose raw kick-off unlocks; runs with a peg-out left unlinked
    assert (raw_unlocks, unlinked) == (15, 299)


def all_verdicts_pass(report):
    assert [(x.name, x.passed, x.detail) for x in report.verdicts] == [
        (name, True, "") for name in ("conservation", "single_spend",
                                      "safety", "liveness", "exclusion")]


@pytest.mark.parametrize("strategy", list(Strategy))
def test_n100_run_builds_only_what_it_touches(strategy, run_with_bridge):
    txgraph._TEMPLATE_CACHE.clear()
    report, b = run_with_bridge(pins.n100_scenario(strategy))
    all_verdicts_pass(report)
    assert pins.digest([report.log]) == (pins.N100_LOGS[strategy], 1)
    setup_done = next(l for l in report.log if " ev=setup_done " in l)
    assert setup_done.endswith(" enablers=40000 templates=80904")
    # the cache, cleared before the run, holds what the run built: the
    # templates it looked up and their parents
    g = b.graph
    assert len(g.templates) <= 5
    assert len(txgraph._TEMPLATE_CACHE) <= 8
    # the enablers the run consumed, and at most the one loser burnt
    assert sum(map(len, g.used_enablers.values())) <= 100
    assert len(g.burnt) <= 1


@pytest.mark.parametrize("n", [50, 100])
def test_slash_stores_the_consumed_enablers_and_its_loser_once(
        n, run_with_bridge):
    # the committee run of the CI round trips: f1 is slashed over vmxo0, a
    # burn of its N·V enablers that stores only f1, beside the N enablers
    # the run consumed, N - 1 refunded on vmxo0 and one unlocked on vmxo1
    sc = Scenario(name=f"committee-n{n}", seed=1, n_functionaries=n,
                  vmxo_count=4, n_pegins=2, n_pegouts=2, adversary=1,
                  strategy=Strategy.FAKE_PROOF_PROVER)
    report, b = run_with_bridge(sc)
    g = b.graph
    assert {v: len(used) for v, used in g.used_enablers.items()} == {
        "pkt0:vmxo0": n - 1, "pkt0:vmxo1": 1}
    assert g.burnt == {"f1"} and b.slashed is g.burnt
    assert [l.split(" ", 2)[2] for l in report.log
            if " ev=enablers_burnt " in l] == [
        f"ev=enablers_burnt count={4 * n} loser=f1"]


@pytest.mark.parametrize("strategy", list(Strategy))
def test_long_horizon_logs_match_reference(strategy):
    txgraph._TEMPLATE_CACHE.clear()
    report = run_scenario(pins.horizon_scenario(strategy))
    all_verdicts_pass(report)
    assert pins.digest([report.log]) == (pins.HORIZON_LOGS[strategy], 1)
    # the run built more templates than the cache holds, so it evicted
    assert len(txgraph._TEMPLATE_CACHE) == txgraph.TEMPLATE_CACHE_SIZE
