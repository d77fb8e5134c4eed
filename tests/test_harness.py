import hashlib
import random
from dataclasses import replace

import pytest

from bridgesim import txgraph
from bridgesim.errors import InvalidScenario
from bridgesim.harness import (_MINIMUMS, INT_KEYS, LIVENESS_BOUND,
                              RESERVE_TICKS, CensorSpec, Runner, RunReport,
                              Scenario, Strategy, check_invariants,
                              generate_adversarial_scenarios, parse_scenario,
                              run_scenario, scenario_corpus)
from bridgesim.lightclient import check_chain
from bridgesim.protocol import read_log
from bridgesim.txgraph import TxKind


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


def test_censored_verifier_alt_chain_timeout_gives_report():
    # the honest verifier is censored from the fork kick-off for the whole
    # budget, so its alt-chain counter-proof itself times out
    sc = Scenario(seed=1, n_functionaries=3, vmxo_count=2, n_pegins=1,
                  n_pegouts=1, adversary=0, strategy=Strategy.FORK_PROVER,
                  censor=[CensorSpec("f1", 8, 64)])
    sc.validate()
    report = run_scenario(sc)
    assert isinstance(report, RunReport)
    outcomes = [line for line in report.log if " ev=dispute_outcome " in line]
    assert len(outcomes) == 1 and "reason=Timeout" in outcomes[0]


# A ForkProver whose honest verifier is censored through the nested game:
# the alt-chain counter-proof is defeated and the outer prover wins.
COUNTER_PROOF_DEFEATED = Scenario(
    name="counter-proof-defeated", seed=1948531827, n_functionaries=3,
    vmxo_count=3, n_pegins=2, n_pegouts=1, adversary=0,
    strategy=Strategy.FORK_PROVER, censor=[CensorSpec("f1", 21, 61)])


def test_defeated_counter_proof_gives_wellformed_report():
    # its verdicts are not pinned: the run also logs a self-slash
    # (slashed loser=f0 ... winner=f0), an open defect, and every verdict
    # passes
    report = run_scenario(COUNTER_PROOF_DEFEATED)
    assert isinstance(report, RunReport)
    outcomes = [line for line in report.log if " ev=dispute_outcome " in line]
    assert len(outcomes) == 1 and "reason=CounterProofDefeated" in outcomes[0]
    assert check_invariants(read_log(report.log)) == report.verdicts


def test_fork_kickoff_proof_passes_check_chain(monkeypatch):
    # the fork chain itself checks out, so only the alt-chain counter-proof
    # can show the fraud: every ForkProver kick-off's main input must pass
    main_inputs = []
    contest = Runner._contest_kickoff

    def recording(self, *args, **kwargs):
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
    # advance(challenge_window + 1) would turn the clock back
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


@pytest.mark.parametrize("field, least", sorted(_MINIMUMS.items()))
def test_least_value_of_each_field_runs_to_a_wellformed_log(field, least):
    # one below the least is refused: challenge_window=-5 used to validate,
    # then turned the clock back, and read_log refused the run's log
    with pytest.raises(InvalidScenario):
        Scenario(**{field: least - 1}).validate()
    for strategy in Strategy:
        sc = Scenario(name=f"least-{field}", seed=3, n_pegins=1, n_pegouts=1,
                      adversary=None if strategy == Strategy.HONEST else 1,
                      strategy=strategy, **{field: least})
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
    """)
    assert sc.name == "parsed" and sc.seed == 17
    assert sc.n_functionaries == 4 and sc.adversary == 2
    assert sc.strategy == Strategy.SILENT_PROVER
    assert sc.censor == [CensorSpec("f1", 10, 4)]


BOUNDARY_SCENARIOS = [
    f"{key} {value}\n" + ("" if strategy == "Honest"
                          else f"adversary 1 {strategy}\n")
    for key in INT_KEYS if key != "adversary"
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


def test_fuzz_valid_scenarios_end_in_wellformed_reports(run_with_bridge):
    # every scenario that validates, leak_all and t_sep included, ends in a
    # report whose log the checker accepts as whole, and the rows the
    # checker read give the verdicts that log gives
    for sc in _fuzz_scenarios(300):
        report, b = run_with_bridge(sc)
        assert report.rows is b.rows
        assert check_invariants(read_log(b.events)) == report.verdicts, sc


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


def test_behaviour_digest_pinned():
    # SHA-256 over every run's event log, in order.  A change that alters
    # the logs on purpose updates this value and says why.
    h = hashlib.sha256()
    for sc in generate_adversarial_scenarios(60) + scenario_corpus():
        h.update("\n".join(run_scenario(sc).log).encode())
    assert h.hexdigest()[:16] == "f5fac45da8130da9"


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


# sha256 over the logs of the criterion-6 sweep, in order, as the digest of
# perfbench/digest.py takes it; the sweep has far more slashes (417) than
# the digest's scenario set, so it pins the enabler and refund lines too
SWEEP_LOGS = "b959755e5f3cb08c"


def test_criterion6_sweep_logs_match_reference():
    h = hashlib.sha256()
    slashes = 0
    for sc in generate_adversarial_scenarios(500):
        log = run_scenario(sc).log
        slashes += sum(" ev=slashed " in line for line in log)
        h.update("\n".join(log).encode())
    assert h.hexdigest()[:16] == SWEEP_LOGS
    assert slashes == 417


# log digest of each strategy's N = 100, V = 4 run, as an eager build of
# the whole graph gave it
N100_LOGS = {Strategy.HONEST: "dfbd9e5e8bb23837",
             Strategy.SILENT_PROVER: "849c45b5de93c016",
             Strategy.FAKE_PROOF_PROVER: "24517749ef1192c5",
             Strategy.FORK_PROVER: "ed0e1abede88c484",
             Strategy.GRIEFING_VERIFIER: "acee05344aa67323",
             Strategy.DOUBLE_OPERATOR: "dbcfa7e25a7473e6",
             Strategy.KEY_LEAKER: "acf7e5a29102e76a"}


@pytest.mark.parametrize("strategy", list(Strategy))
def test_n100_run_builds_only_what_it_touches(strategy):
    n, v = 100, 4
    sc = Scenario(name=f"n100-{strategy.value}", seed=1, n_functionaries=n,
                  vmxo_count=v, n_pegins=2, n_pegouts=2,
                  adversary=None if strategy == Strategy.HONEST else 1,
                  strategy=strategy)
    txgraph._TEMPLATE_CACHE.clear()
    runner = Runner(sc)
    runner.setup()
    runner.run_pegins()
    runner.run_theft_attempts()
    runner.run_pegouts()
    report = runner.finish()
    assert [(x.name, x.passed, x.detail) for x in report.verdicts] == [
        (name, True, "") for name in ("conservation", "single_spend",
                                      "safety", "liveness", "exclusion")]
    log = "\n".join(report.log).encode()
    assert hashlib.sha256(log).hexdigest()[:16] == N100_LOGS[strategy]
    setup_done = next(l for l in report.log if " ev=setup_done " in l)
    assert setup_done.endswith(" enablers=40000 templates=80904")
    # the cache, cleared before the run, holds what the run built: the
    # templates it looked up and their parents
    g = runner.bridge.graph
    assert len(g.templates) <= 5
    assert len(txgraph._TEMPLATE_CACHE) <= 8
    assert sum(map(len, g.used_enablers.values())) <= 3 * n * v
