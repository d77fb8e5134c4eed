"""Scenario execution: the policy map from each dishonest party to its
strategy, which every decision of the deterministic run loop asks;
invariant checking over event logs; and report emission.

A scenario pins every free choice (seed, parties, honesty, timing, censor
windows, scripted peg operations), so the same scenario always yields a
byte-identical event log.
"""

from __future__ import annotations

import random
from enum import Enum
from functools import cached_property
from itertools import count, product
from types import SimpleNamespace
from typing import NamedTuple, Optional, Sequence

from .chain import CensorSpec, ChainView, SimClock
from .dispute import (DisputeGame, ExecutionTrace, challenge, drive,
                      open_game, resolve_no_challenge, settle_counter_proof)
from .errors import InvalidScenario, NoCapacity, TimeoutExpired
from .lightclient import AltChainInput, CheckChainInput
from .protocol import (EVENT_SCHEMA, Bridge, PegOutState, contest_fees,
                       dispute_fees, event_lines, read_log)
from .txgraph import VmxoState


class Strategy(str, Enum):
    HONEST = "Honest"
    SILENT_PROVER = "SilentProver"
    FAKE_PROOF_PROVER = "FakeProofProver"
    FORK_PROVER = "ForkProver"
    GRIEFING_VERIFIER = "GriefingVerifier"
    DOUBLE_OPERATOR = "DoubleOperator"
    KEY_LEAKER = "KeyLeaker"


# Fixed run parameters: length of every disputed execution trace, the ticks
# from burn to front that the liveness check allows, and the logged RNG.
TRACE_LENGTH = 16
LIVENESS_BOUND = 500
RNG_ALGORITHM = "python-random-mt19937"
# Ticks from a peg-out's burn to the front that re-serves it after a silent
# prover, besides the prover's stall of watch_threshold + 1: the burn's block
# and its confirmations, one tick each, and the honest challenge's tick.
# The re-serve fronts as soon as the game ends, which censored challengers
# delay; so validate admits a scenario only if the stall, these ticks and
# the most ticks one party is censored fit in LIVENESS_BOUND.
RESERVE_TICKS = 1 + Bridge.secondary_confirmations + 1


# least values of Scenario fields: below one, a run breaks or misreads it.
# An honest party's watch takes a tick per reply: one per search round over
# the trace and the isolated step's reads, and two more (a challenge and a
# read challenge, or trace and leaf); the rest is its censorship budget.
_MINIMUMS = {"n_functionaries": 2, "vmxo_count": 1, "fee_rate": 1,
            "n_pegins": 0, "n_pegouts": 0, "t_sep": 0, "denomination": 0,
            "challenge_window": 0, "watch_threshold": 2 + sum(
                next(r for r in count() if DisputeGame.arity ** r >= max(2, n))
                for n in (TRACE_LENGTH, DisputeGame.read_steps))}


# Scenario's default censor, for which each scenario gets a list of its own
_NO_CENSOR = object()


class Scenario(SimpleNamespace):
    """Every free choice of one run; ``validate`` refuses a scenario that
    cannot run.  A namespace, so it compares and prints by its fields."""

    def __init__(self, name: str = "scenario", seed: int = 0,
                 n_functionaries: int = 3, denomination: int = 100_000_000,
                 vmxo_count: int = 2, n_pegins: int = 2, n_pegouts: int = 1,
                 fee_rate: int = 2, challenge_window: int = 20,
                 watch_threshold: int = 64, adversary: Optional[int] = None,
                 strategy: Strategy = Strategy.HONEST, leak_all: bool = False,
                 censor: list[CensorSpec] = _NO_CENSOR, t_sep: int = 0):
        self.name, self.seed = name, seed
        self.n_functionaries, self.denomination = n_functionaries, denomination
        self.vmxo_count, self.n_pegins = vmxo_count, n_pegins
        self.n_pegouts, self.fee_rate = n_pegouts, fee_rate
        self.challenge_window = challenge_window
        self.watch_threshold, self.adversary = watch_threshold, adversary
        self.strategy, self.leak_all = strategy, leak_all
        self.censor = [] if censor is _NO_CENSOR else censor
        self.t_sep = t_sep

    def validate(self) -> None:
        for name in INT_KEYS.values():
            value = getattr(self, name)
            if type(value) is not int and (name, value) != ("adversary", None):
                raise InvalidScenario(f"{name} must be an int, not {value!r}")
        if not isinstance(self.strategy, Strategy):
            raise InvalidScenario(f"strategy {self.strategy!r} is no Strategy")
        if type(self.leak_all) is not bool or type(self.name) is not str:
            raise InvalidScenario("leak_all must be a bool and name a str")
        if not isinstance(self.censor, (list, tuple)) or not all(
                type(w) is CensorSpec and type(w.party) is str
                and type(w.start) is type(w.length) is int
                for w in self.censor):
            raise InvalidScenario("censor must list CensorSpec windows, each "
                                  "a str party and int start and length")
        for name, least in _MINIMUMS.items():
            if getattr(self, name) < least:
                raise InvalidScenario(f"{name} must be at least {least}")
        if self.n_pegouts > self.n_pegins:
            raise InvalidScenario("more peg-outs than peg-ins")
        if self.n_pegins > self.vmxo_count:
            raise InvalidScenario("more peg-ins than VMXOs")
        if self.adversary is not None and \
                not 0 <= self.adversary < self.n_functionaries:
            raise InvalidScenario("adversary index out of range")
        if self.strategy != Strategy.HONEST and self.adversary is None \
                and not self.leak_all:
            raise InvalidScenario("strategy without adversary")
        budget = self.watch_threshold - _MINIMUMS["watch_threshold"]
        clock, merged_end, ticks = SimClock(self.censor), {}, {}
        for party, start, length in sorted(self.censor):
            if party not in self.functionary_ids or start < 0 or length < 1:
                raise InvalidScenario(f"{CensorSpec(party, start, length)} "
                                      "censors nobody as written")
            if start >= merged_end.get(party, 0):
                merged_end[party] = clock.censored_until(party, start)
                ticks[party] = ticks.get(party, 0) + merged_end[party] - start
                if ticks[party] > budget:
                    raise InvalidScenario(f"{party} censored > {budget} ticks")
        if self.watch_threshold + 1 + RESERVE_TICKS + max(
                ticks.values(), default=0) > LIVENESS_BOUND:
            raise InvalidScenario("watch_threshold and censorship stall a "
                                  "peg-out past the liveness bound")
        if self.name and self.name.split() != [self.name]:
            # the name is one field of the log's meta kind=scenario line
            raise InvalidScenario("name contains whitespace")

    @property
    def functionary_ids(self) -> list[str]:
        return [f"f{i}" for i in range(self.n_functionaries)]

    @property
    def adversary_id(self) -> Optional[str]:
        return None if self.adversary is None else f"f{self.adversary}"


class Verdict(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


# the kinds of event whose lines a report lists as the run's outcomes
OUTCOME_KINDS = frozenset({
    "minted", "pegout_burn", "pegout_linked", "challenge_window_expired",
    "dispute_outcome", "slashed", "force_close", "pegout_invalidated",
    "theft", "theft_rejected", "unlocked"})


class RunReport:
    """A run's report, a view of its rows alone: the verdicts are checked as
    it is built, every other field is read from the rows when it is read."""

    def __init__(self, rows: list[tuple]):
        self.rows = rows
        self.verdicts: list[Verdict] = check_invariants(rows)

    @cached_property
    def _meta(self) -> dict:
        """The fields of the meta lines by name; they share only ``kind``."""
        return {name: value for _, key, values in self.rows
                if type(key) is tuple
                for name, value in zip(EVENT_SCHEMA[key], values)}

    log = cached_property(lambda self: event_lines(self.rows))
    scenario = property(lambda self: self._meta["name"])
    seed = property(lambda self: self._meta["seed"])
    deposit_sats = property(lambda self: self._meta["deposit"])
    all_passed = property(lambda self: all(v.passed for v in self.verdicts))

    @cached_property
    def dispute_costs(self) -> dict[str, int]:
        """The fees each functionary paid in disputes and force-closes."""
        return {**dict.fromkeys(self._meta["functionaries"].split(","), 0),
                **dispute_fees(self.rows)}

    @property
    def deposit_sufficient(self) -> bool:
        """Whether each slash's pot covers the honest parties' fees in the
        contest it settles, over the VMXO kicked off last before it."""
        honest = set(self._meta["honest"].split(",")) - {"-"}
        vmxo = None
        for end, (_, key, values) in enumerate(self.rows):
            if key == "kickoff":
                vmxo = values[2]
            elif key == "slashed":
                fees = contest_fees(self.rows, end, vmxo)
                if sum(fees.get(f, 0) for f in honest) > values[1]:
                    return False
        return True

    @property
    def outcomes(self) -> list[str]:
        """The log's lines of the kinds in ``OUTCOME_KINDS``, in order."""
        return [line for line, (_, key, _) in zip(self.log, self.rows)
                if key in OUTCOME_KINDS]

    def to_text(self) -> str:
        lines = [f"scenario={self.scenario} seed={self.seed} "
                 f"rng={self._meta['rng']}"]
        lines += [f"  [{'PASS' if v.passed else 'FAIL'}] {v.name} "
                  f"{v.detail}".rstrip() for v in self.verdicts]
        lines.append(f"  deposit={self.deposit_sats} "
                     f"sufficient={self.deposit_sufficient}")
        lines += [f"  outcome: {line}" for line in self.outcomes]
        return "\n".join(lines)


class Runner:
    """Drives one scenario through the protocol engine."""

    def __init__(self, scenario: Scenario):
        scenario.validate()
        self.sc = scenario
        # the parties, computed once
        self.functionaries = scenario.functionary_ids
        # each dishonest party's strategy, the adversary's even if Honest
        self.policy: dict[str, Strategy] = {} if scenario.adversary is None \
            else {scenario.adversary_id: scenario.strategy}
        self.honest = [] if scenario.leak_all else [
            f for f in self.functionaries if f not in self.policy]
        self.bridge = Bridge(
            self.functionaries, scenario.vmxo_count, scenario.denomination,
            fee_rate=scenario.fee_rate, t_sep=scenario.t_sep)
        self.bridge.clock.censor_windows = list(scenario.censor)
        self.users = [f"u{i}" for i in range(scenario.n_pegins)]

    # -- helpers -----------------------------------------------------------

    @cached_property
    def rng(self) -> random.Random:
        """The run's RNG, seeded on its first draw: most runs draw none."""
        return random.Random(self.sc.seed)

    def _mine_confirmed(self, chain: ChainView, tx: str, pads: int,
                        pad: str, difficulty: int = 1) -> str:
        """Mine ``tx`` on ``chain``'s tip, then ``pads`` blocks on it, each
        holding ``pad`` formatted with the tick it is mined at; the clock
        advances a tick per block.  The id of ``tx``'s block."""
        clock, mine = self.bridge.clock, chain.mine_block
        block = top = mine(chain.tip().id, (tx,), difficulty).id
        clock.now += 1
        for _ in range(pads):
            # a block on the tip is the new tip, so the tip is not re-read
            top = mine(top, (pad.format(clock.now),), difficulty).id
            clock.now += 1
        return block

    # -- setup -------------------------------------------------------------

    def setup(self) -> None:
        b, sc = self.bridge, self.sc
        b.emit(("meta", "scenario"), "scenario", sc.name, RNG_ALGORITHM,
               sc.seed)
        b.emit(("meta", "parties"), sc.adversary_id or "-",
               ",".join(self.functionaries), ",".join(self.honest) or "-",
               "parties", sc.leak_all, sc.strategy.value)
        b.emit(("meta", "params"), LIVENESS_BOUND, sc.denomination,
               b.deposit_per_functionary, sc.fee_rate, "params",
               sc.watch_threshold, sc.challenge_window)
        for u in self.users:
            b.ledger.fund(f"user:{u}:src", sc.denomination)
        b.log_balances("balance")
        # signing ceremony: every functionary signs the whole packet, one
        # record that every template reads, built now or later; then keys
        # are deleted (or leaked, for the dishonest)
        b.graph.sign_all()
        leakers = [f for f in self.functionaries if sc.leak_all
                   or self.policy.get(f) == Strategy.KEY_LEAKER]
        for v in b.graph.vmxo_ids:
            for f in leakers:
                b.graph.leak_keys(f, v)
                b.emit("keys_leaked", f, v)
        for f in self.functionaries:
            if f not in leakers:
                b.graph.delete_keys(f, *b.graph.vmxo_ids)
        b.emit("setup_done", b.graph.enabler_count(),
               b.graph.template_count())

    # -- peg-ins -----------------------------------------------------------

    def run_pegins(self) -> None:
        b, sc = self.bridge, self.sc
        for u in self.users:
            i = b.request_pegin(u, sc.denomination)
            b.sign_pegin(i, u, *self.functionaries)
            b.pegins[i].deposit_block = self._mine_confirmed(
                b.source, b.broadcast_pegin(i), b.source_confirmations,
                "pad:{}:" + u)
            b.execute_pegin(i)

    # -- dispute plumbing --------------------------------------------------

    def _contest_kickoff(self, vmxo_id: str, challengers: list[str],
                         prover_trace: ExecutionTrace,
                         main_input: Optional[CheckChainInput] = None,
                         alt_input: Optional[AltChainInput] = None) -> None:
        """A kick-off's one contest, which decides it: unchallenged, its
        window expires; else the first challenger, holding the honest run
        of the prover's program, plays the game, the others' challenges and
        the game are paid and logged, and the loser slashed.  With
        ``alt_input`` the game played is the nested one, roles reversed, of
        an alt-chain counter-proof.  Unless its operator lost, it unlocks."""
        b, sc = self.bridge, self.sc
        defender = b.graph.vmxos[vmxo_id].operator
        if not challengers:
            b.clock.now += sc.challenge_window + 1
            b.emit("challenge_window_expired", defender, vmxo_id)
            self._unlock(vmxo_id)
            return
        verifier, base = challengers[0], b.clock.now
        game = open_game(defender, verifier, None, prover_trace,
                         ExecutionTrace.honest(prover_trace.program_id,
                                               prover_trace.length),
                         watch_threshold=sc.watch_threshold)
        stalls = self.policy.get(defender) == Strategy.SILENT_PROVER

        def delay(party: str, clock: int) -> int:
            if stalls and party == defender:
                return sc.watch_threshold + 1
            end = b.clock.censored_until(party, base + clock)
            return 1 if end is None else end - (base + clock) + 1

        played = game
        try:
            if alt_input is not None:
                challenge(game, "AltChain", alt_input=alt_input,
                          main_difficulty=main_input.claimed_difficulty,
                          main_anchor_id=main_input.headers[0].id,
                          delay=delay(verifier, game.clock))
                played = game.nested
            challenge(played, "Execution",
                      delay=delay(played.verifier, played.clock))
            drive(played, delay)
        except TimeoutExpired:
            pass
        publications = [(0, ch, "challenge") for ch in challengers[1:]]
        # the outer commit-proof was paid with the kick-off
        publications += game.publications[1:]
        if played is not game:
            settle_counter_proof(game)
            publications += played.publications
        b.account_publications(publications, base)
        for party in sorted(played.watches):
            watch = played.watches[party]
            b.emit("watch_total", watch.accumulated(played.clock), party,
                   watch.threshold, watch.aggregate_timeout(played.clock))
        b.clock.now += game.clock
        # a defeated counter-proof leaves the outer game unchallenged
        outcome = game.outcome or resolve_no_challenge(game)
        b.emit("dispute_outcome",
               "ProverLoses" if outcome.loser == defender
               else "VerifierLoses", outcome.loser, defender,
               outcome.reason.value, verifier, outcome.winner)
        b.slash(outcome.loser, outcome.winner,
                [p for p in (defender, *challengers) if p != outcome.loser],
                vmxo_id)
        if outcome.loser != defender:
            self._unlock(vmxo_id)

    def _unlock(self, vmxo_id: str) -> None:
        """Unlock a standing kick-off, a fronted one once its burn is seen."""
        b = self.bridge
        pegout = b.linked.get(vmxo_id)
        if pegout is not None and pegout.fronted_tx is not None:
            b.emit("burn_confirmed", pegout.burn_block,
                   int(b.secondary.is_canonical(pegout.burn_block)),
                   pegout.burn_tx)
        b.unlock(vmxo_id)

    # -- peg-outs ----------------------------------------------------------

    def _pick_operator(self) -> str:
        """An unslashed operator, honest if any, who can front soonest."""
        b = self.bridge
        pool = [f for f in self.honest if f not in b.slashed]
        if not pool:
            pool = [f for f in self.functionaries if f not in b.slashed]
        return b.next_operator(pool)

    def _honest_verifiers(self, excluding: str) -> list[str]:
        return [f for f in self.honest
                if f != excluding and f not in self.bridge.slashed]

    def _front_and_kick_off(self, i: int, operator: str) -> None:
        """The guarded path: front, prove the confirmed front, kick off."""
        b = self.bridge
        b.clock.now += b.separation_left(operator)
        front_block = self._mine_confirmed(
            b.source, b.front_funds(i, operator), b.source_confirmations,
            "pad:{}:front")
        b.prove_front(i, front_block)
        b.publish_kickoff(b.pegouts[i].vmxo_id, operator)

    def _honest_pegout_flow(self, i: int, operator: str) -> None:
        b = self.bridge
        self._front_and_kick_off(i, operator)
        pegout = b.pegouts[i]
        honest_trace = ExecutionTrace.honest(
            f"pegout:{pegout.burn_tx}", TRACE_LENGTH)
        griefers = [f for f, s in self.policy.items() if f != operator
                    and s == Strategy.GRIEFING_VERIFIER and f not in b.slashed]
        self._contest_kickoff(pegout.vmxo_id, griefers, honest_trace)
        b.recycle_enablers(i)

    def _fraudulent_kickoff(self, i: int, adv: str) -> None:
        """Kick-off with an invalid execution proof and no fronting."""
        pegout = self.bridge.pegouts[i]
        self.bridge.publish_kickoff(pegout.vmxo_id, adv)
        prover_trace = ExecutionTrace.honest(
            f"pegout:{pegout.burn_tx}", TRACE_LENGTH).corrupted_at(
                self.rng.randint(1, TRACE_LENGTH))
        self._contest_kickoff(pegout.vmxo_id, self._honest_verifiers(adv),
                              prover_trace)

    def _fork_kickoff(self, i: int, adv: str) -> None:
        """Kick-off whose proof is internally valid but over a counterfeit
        fork of the secondary chain."""
        b = self.bridge
        sec, vmxo_id = b.secondary, b.pegouts[i].vmxo_id
        anchor = sec.canonical_chain()[1]  # shared peg-in-acknowledging block
        fake_burn = f"fakeburn:{adv}:{vmxo_id}"
        f1 = sec.mine_block(anchor.id, [fake_burn], difficulty=1)
        f2 = sec.mine_block(f1.id, [f"fakepad:{adv}"], difficulty=1)
        pegin = b.pegins[b.graph.vmxo_position[vmxo_id]]
        pegin_proof = b.source.prove_inclusion(pegin.deposit_tx,
                                               pegin.deposit_block)
        pegin_header = b.source.headers[pegin.deposit_block]
        fork_headers = (anchor, sec.headers[f1.id], sec.headers[f2.id])
        main_input = CheckChainInput(
            fork_headers, pegin_proof, pegin_header,
            sec.prove_inclusion(fake_burn, f1.id),
            sum(h.difficulty for h in fork_headers))
        b.publish_kickoff(vmxo_id, adv)
        b.emit("fork_mined", anchor.id, 2, adv)
        # honest verifier counter-proof: canonical continuation from the
        # same anchor, excluding the fake-burn block
        canonical = sec.canonical_chain()
        start = next(i for i, h in enumerate(canonical) if h.id == anchor.id)
        alt_headers = tuple(canonical[start:])
        alt_input = AltChainInput(
            alt_headers, pegin_proof, pegin_header,
            contested_block_id=f1.id,
            claimed_difficulty=sum(h.difficulty for h in alt_headers))
        # the fork chain itself checks out, so the prover's trace is honest;
        # the fraud is that it is not canonical, which only the alt-chain
        # branch can show
        honest = ExecutionTrace.honest(
            f"main:{main_input.pegout_proof.tx_id}", TRACE_LENGTH)
        self._contest_kickoff(vmxo_id, self._honest_verifiers(adv), honest,
                              main_input=main_input, alt_input=alt_input)

    def _double_operator(self, i: int, adv: str) -> None:
        """Adversary fronts one peg-out, then kicks off an unlinked VMXO."""
        b, sc = self.bridge, self.sc
        self._front_and_kick_off(i, adv)
        fronted = b.pegouts[i].vmxo_id
        victim = next((v for v in b.graph.vmxo_ids
                       if v != fronted
                       and b.graph.vmxos[v].state == VmxoState.LOCKED), None)
        if victim is not None:
            b.publish_kickoff(victim, adv)
        closers = self._honest_verifiers(adv)
        if victim is None or not closers:
            # no second kick-off, or nobody to force-close it: every
            # kick-off stands and unlocks
            b.clock.now += sc.challenge_window + 1
            self._unlock(fronted)
            if victim is not None:
                self._unlock(victim)
            return
        b.force_close(fronted, victim, closers[0])
        b.slash(adv, closers[0], closers[:1], victim)

    # the flow a dishonest prover plays on peg-out 0, by its strategy
    _prover_flows = {Strategy.SILENT_PROVER: _fraudulent_kickoff,
                     Strategy.FAKE_PROOF_PROVER: _fraudulent_kickoff,
                     Strategy.FORK_PROVER: _fork_kickoff,
                     Strategy.DOUBLE_OPERATOR: _double_operator}

    def run_pegouts(self) -> None:
        b, sc = self.bridge, self.sc
        for user in self.users[:sc.n_pegouts]:
            i = b.request_pegout(user, sc.denomination)
            pegout = b.pegouts[i]
            pegout.burn_block = self._mine_confirmed(
                b.secondary, pegout.burn_tx, b.secondary_confirmations,
                "spad:{}", difficulty=2)
            try:
                b.link_pegout(i)
            except NoCapacity:
                continue
            if i == 0:
                # each prover plays peg-out 0 only while it is still linked
                for party, strategy in self.policy.items():
                    if strategy in self._prover_flows and \
                            pegout.state == PegOutState.LINKED:
                        self._prover_flows[strategy](self, i, party)
            # a peg-out still linked, fresh or released by its adversarial
            # kick-off, is served by an honest operator
            if pegout.state == PegOutState.LINKED:
                self._honest_pegout_flow(i, self._pick_operator())

    # -- theft attempts ----------------------------------------------------

    def run_theft_attempts(self) -> None:
        b = self.bridge
        if not self.sc.leak_all and \
                Strategy.KEY_LEAKER not in self.policy.values():
            return
        thief = next(iter(self.policy), self.functionaries[0])
        target = next((v for v in b.graph.vmxo_ids
                       if b.graph.vmxos[v].state == VmxoState.LOCKED), None)
        if target is not None:
            b.adhoc_theft(target, thief)

    # -- finish ------------------------------------------------------------

    def finish(self) -> RunReport:
        self.bridge.log_balances("final_balance")
        return RunReport(self.bridge.rows)


def run_scenario(scenario: Scenario) -> RunReport:
    runner = Runner(scenario)
    runner.setup()
    runner.run_pegins()
    runner.run_theft_attempts()
    runner.run_pegouts()
    return runner.finish()


# -- invariant checking over the raw log -----------------------------------

# the kinds of event that no verdict reads
UNREAD = frozenset({
    ("meta", "scenario"), "challenge_refunded", "challenge_window_expired",
    "dispute_outcome", "enablers_recycled", "force_close", "fork_mined",
    "front_proven", "keys_leaked", "pegout_invalidated", "pegout_released",
    "setup_done", "sw_stop", "sw_tick", "theft_rejected", "watch_total"})


def check_invariants(events: Sequence) -> list[Verdict]:
    """The five verdicts (conservation, single-spend, safety, liveness,
    exclusion) from the log alone, in one pass over its rows with a handler
    per kind, a row's ``seq`` its position; what depends on a later line
    (honest set, liveness bound, final balances) is decided after it.  Text
    lines, or no events, are read with ``read_log`` first."""
    rows = events if events and type(events[0]) is tuple else read_log(events)
    honest, bound = "-", 10 ** 9
    # conservation: opening balances and net transfers per account are kept
    # apart, so that their order in the log does not matter
    opening, moved, finals = {}, {}, {}
    spent, double_spent = set(), ""  # single-spend
    # safety: burns linked to each VMXO, canonical burns, the last unlock or
    # theft fault, and the losers slashed after it
    linked, canonical_burns, unsafe, slashed = {}, set(), "", []
    pegin_users, minted, burns, fronts = [], set(), {}, {}  # liveness
    burnt_at, excluded = {}, ""  # exclusion
    for seq, (t, key, values) in enumerate(rows, 1):
        if key in UNREAD:
            continue
        if key == "transfer":
            amount, dst, src, _ = values
            moved[src] = moved.get(src, 0) - amount
            moved[dst] = moved.get(dst, 0) + amount
        elif key == "balance" or key == "final_balance":
            account, amount = values
            (opening if key == "balance" else finals)[account] = amount
        elif key == "dispute_pub" or key == "kickoff" or key == "fronted":
            actor = values[1]  # the actor, or operator, of each of these
            if actor in burnt_at and seq > burnt_at[actor]:
                excluded = f"{actor} acted after burn"
            if key == "fronted":
                tx = values[2].split("front:", 1)[-1].split(":", 1)[-1]
                fronts.setdefault(tx, t)
        elif key == "spend" and not double_spent:
            if values[1] in spent:
                double_spent = values[1]
            spent.add(values[1])
        elif key == "pegout_linked":
            tx, vmxo = values
            linked[vmxo] = tx
        elif key == "burn_confirmed":
            if values[1] == 1:
                canonical_burns.add(values[2])
        elif key == "unlocked":
            if linked.get(values[2]) not in canonical_burns:
                unsafe = f"unlock of {values[2]} without canonical burn"
                slashed = []
        elif key == "theft":
            unsafe, slashed = f"theft of {values[2]} by {values[1]}", []
        elif key == "slashed":
            slashed.append(values[0])
        elif key == "pegin_requested":
            pegin_users.append(values[1])
        elif key == "minted":
            minted.add(values[1])
        elif key == "pegout_burn":
            burns[values[1]] = t
        elif key == "enablers_burnt":
            burnt_at.setdefault(values[1], seq)
        elif key == ("meta", "parties"):
            honest = values[2]
        elif key == ("meta", "params"):
            bound = values[0]

    honest = set() if honest == "-" else set(honest.split(","))
    verdicts = []

    # conservation: initial balances + transfers == final balances, exactly
    ok, detail = True, ""
    for account, amount in finals.items():
        got = opening.get(account, 0) + moved.get(account, 0)
        if got != amount:
            ok, detail = False, f"{account}: {got} != {amount}"
            break
    if ok and sum(finals.values()) != sum(opening.values()):
        ok, detail = False, "total drifted"
    verdicts.append(Verdict("conservation", ok, detail))

    verdicts.append(Verdict("single_spend", not double_spent, double_spent))

    # safety: no unlock without a canonical burn; no honest slash; no
    # theft.  The detail names the last fault in the log.
    unsafe = next((f"honest {loser} slashed" for loser in reversed(slashed)
                   if loser in honest), unsafe)
    verdicts.append(Verdict("safety", not unsafe, unsafe))

    # liveness: every peg-in mints; every burn is fronted within the bound
    late = [f"pegin {u} never minted" for u in pegin_users if u not in minted]
    late += [f"burn {tx} not fronted in time" for tx, t0 in burns.items()
             if fronts.get(tx) is None or fronts[tx] - t0 > bound]
    verdicts.append(Verdict("liveness", not late, "; ".join(late)))

    # exclusion: after a party's enablers are burnt they take no further
    # protocol actions
    verdicts.append(Verdict("exclusion", not excluded, excluded))
    return verdicts


# -- scenario generation, corpus, text format ------------------------------

ALL_STRATEGIES = [s for s in Strategy if s != Strategy.HONEST]


def generate_adversarial_scenarios(count: int, base_seed: int = 0
                                   ) -> list[Scenario]:
    """Seeded corpus of single-adversary scenarios for the safety suite."""
    out = []
    for i in range(count):
        rng = random.Random(base_seed * 1_000_003 + i)
        n = rng.randint(2, 6)
        strategy = ALL_STRATEGIES[i % len(ALL_STRATEGIES)]
        vmxos = rng.randint(2, 4)
        pegins = rng.randint(2, min(4, vmxos))
        pegouts = rng.randint(1, pegins)
        censor = []
        if rng.random() < 0.5:
            party = f"f{rng.randrange(n)}"
            start = rng.randint(5, 40)
            censor.append(CensorSpec(party, start, rng.randint(1, 8)))
        out.append(Scenario(
            name=f"adv-{i}-{strategy.value}", seed=i, n_functionaries=n,
            vmxo_count=vmxos, n_pegins=pegins, n_pegouts=pegouts,
            fee_rate=rng.choice([1, 2, 5]),
            adversary=rng.randrange(n), strategy=strategy, censor=censor))
    return out


def scenario_corpus() -> list[Scenario]:
    """Bundled scenarios covering every strategy and template kind."""
    corpus = [Scenario(name="happy-path", seed=1, n_functionaries=3)]
    for i, s in enumerate(ALL_STRATEGIES):
        corpus.append(Scenario(
            name=f"adversary-{s.value}", seed=10 + i, n_functionaries=3,
            vmxo_count=3, n_pegins=3, n_pegouts=2, adversary=1, strategy=s))
    corpus.append(Scenario(name="all-keys-leaked", seed=99,
                           n_functionaries=3, leak_all=True,
                           strategy=Strategy.KEY_LEAKER, adversary=0,
                           n_pegouts=0))
    return corpus


# Scenario-file and grid keys that take one integer, and the Scenario field
# each sets.
INT_KEYS = {
    "seed": "seed",
    "functionaries": "n_functionaries",
    "denomination": "denomination",
    "vmxos": "vmxo_count",
    "pegins": "n_pegins",
    "pegouts": "n_pegouts",
    "fee_rate": "fee_rate",
    "challenge_window": "challenge_window",
    "watch_threshold": "watch_threshold",
    "adversary": "adversary",
    "t_sep": "t_sep",
}
_BOOLS = {"1": True, "true": True, "yes": True,
          "0": False, "false": False, "no": False}
# each grid key's Scenario fields, count of values and reader of them
_GRID_KEYS = {**{key: ((field,), 1, int) for key, field in INT_KEYS.items()},
              "strategy": (("strategy",), 1, Strategy),
              "leak_all": (("leak_all",), 1, lambda v: _BOOLS[v.lower()])}
# a scenario file's keys: there `adversary` also names the strategy, and
# `censor`, which sets no field but adds a window, may repeat
_FILE_KEYS = {**_GRID_KEYS, "name": (("name",), 1, str),
              "adversary": (("adversary", "strategy"), 2,
                            lambda i, s: (int(i), Strategy(s))),
              "censor": ((), 3, lambda p, s, n: CensorSpec(p, int(s), int(n)))}


def _lines(text: str, keys: dict, grid: bool):
    """(fields, values) of each `key value...` line of ``text``: the
    Scenario fields its key sets and its values, read in chunks of the
    key's count; a file's line holds one chunk, a grid's one or more.  An
    unknown key, a wrong count, a value the reader refuses or a field set
    on an earlier line raises InvalidScenario naming the line."""
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        key, *args = raw.split("#", 1)[0].split() or [None]
        if key is None:
            continue
        at = f"{'grid ' * grid}line {lineno}"
        if key not in keys:
            raise InvalidScenario(f"{at}: unknown key {key!r}")
        fields, n, read = keys[key]
        if len(args) != n and not (grid and args):
            raise InvalidScenario(f"{at}: {key} has no values" if grid
                                  else f"{at}: {key} takes {n} value(s)")
        if again := seen.intersection(fields):
            raise InvalidScenario(f"{at}: {key} sets {min(again)} again")
        seen.update(fields)
        try:
            values = [read(*args[i:i + n]) for i in range(0, len(args), n)]
        except (ValueError, KeyError) as exc:
            raise InvalidScenario(f"{at}: {raw!r}: {exc}") from exc
        yield fields, values


def parse_scenario(text: str) -> Scenario:
    """Line-oriented scenario format: one `key value...` pair per line."""
    sc = Scenario()
    for fields, [value] in _lines(text, _FILE_KEYS, grid=False):
        if not fields:
            sc.censor.append(value)
        elif len(fields) == 1:
            setattr(sc, fields[0], value)
        else:
            sc.adversary, sc.strategy = value
    sc.validate()
    return sc


def parse_grid(text: str) -> list[Scenario]:
    """One scenario per combination of a grid's values, named `sweep-` and
    its values; a strategy without an adversary or `leak_all` makes the
    last functionary the adversary.  The runner validates each."""
    axes = [[(field, v) for v in values]
            for (field,), values in _lines(text, _GRID_KEYS, grid=True)]
    if not axes:
        raise InvalidScenario("grid has no keys")
    scenarios = []
    for combo in product(*axes):
        sc = Scenario(name="sweep-" + "-".join(
            str(getattr(v, "value", v)) for _, v in combo), **dict(combo))
        if (sc.strategy != Strategy.HONEST and sc.adversary is None
                and not sc.leak_all):
            sc.adversary = sc.n_functionaries - 1
        scenarios.append(sc)
    return scenarios
