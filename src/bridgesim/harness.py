"""Scenario execution: agent strategies, the deterministic run loop,
invariant checking over event logs, and report emission.

A scenario pins every free choice (seed, parties, honesty, timing, censor
windows, scripted peg operations), so the same scenario always yields a
byte-identical event log.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import count
from typing import Optional, Sequence

from .chain import CensorSpec
from .dispute import (DisputeGame, ExecutionTrace, challenge, drive,
                      open_game, resolve_no_challenge, settle_counter_proof)
from .errors import InvalidScenario, NoCapacity, TimeoutExpired
from .lightclient import AltChainInput, CheckChainInput
from .protocol import (Bridge, PegOut, PegOutState, event_lines,
                       read_log)
from .stopwatch import power_of_two_markers
from .txgraph import VmxoState


class Strategy(str, Enum):
    HONEST = "Honest"
    SILENT_PROVER = "SilentProver"
    FAKE_PROOF_PROVER = "FakeProofProver"
    FORK_PROVER = "ForkProver"
    GRIEFING_VERIFIER = "GriefingVerifier"
    DOUBLE_OPERATOR = "DoubleOperator"
    KEY_LEAKER = "KeyLeaker"


PROVER_STRATEGIES = {Strategy.SILENT_PROVER, Strategy.FAKE_PROOF_PROVER,
                     Strategy.FORK_PROVER, Strategy.DOUBLE_OPERATOR}

# Fixed run parameters: length of every disputed execution trace, the ticks
# from burn to front that the liveness check allows, and the logged RNG.
TRACE_LENGTH = 16
LIVENESS_BOUND = 500
RNG_ALGORITHM = "python-random-mt19937"
# Ticks from a peg-out's burn to the front that re-serves it after a silent
# prover, besides the prover's stall of watch_threshold + 1: the burn's block
# and its confirmations, one tick each, and the honest challenge's tick.
# The re-serve fronts as soon as the game ends, so a threshold passes
# validate only if the stall plus these ticks is within LIVENESS_BOUND.
RESERVE_TICKS = 1 + Bridge.secondary_confirmations + 1


# least value of each Scenario field that has one; a run breaks on a
# smaller value.  An uncensored honest party's watch takes one tick per reply:
# one per search round over the trace and over the isolated step's reads,
# and two more (a challenge and a read challenge, or the trace and the leaf)
_MINIMUMS = {"n_functionaries": 2, "vmxo_count": 1, "fee_rate": 1,
            "pegout_limit": 1, "denomination": 0, "challenge_window": 0,
            "watch_threshold": 2 + sum(
                next(r for r in count() if DisputeGame.arity ** r >= max(2, n))
                for n in (TRACE_LENGTH, DisputeGame.read_steps))}


@dataclass
class Scenario:
    name: str = "scenario"
    seed: int = 0
    n_functionaries: int = 3
    denomination: int = 100_000_000
    vmxo_count: int = 2
    n_pegins: int = 2
    n_pegouts: int = 1
    fee_rate: int = 2
    challenge_window: int = 20
    watch_threshold: int = 64
    adversary: Optional[int] = None
    strategy: Strategy = Strategy.HONEST
    leak_all: bool = False
    censor: list[CensorSpec] = field(default_factory=list)
    pegout_limit: int = 1
    t_sep: int = 0

    def validate(self) -> None:
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
        for w in self.censor:
            if w.party not in self.functionary_ids or w.start < 0 \
                    or w.length < 1:
                raise InvalidScenario(f"{w} censors nobody as written")
            if w.length > self.watch_threshold:
                raise InvalidScenario("censor window exceeds threshold")
        if self.watch_threshold + 1 + RESERVE_TICKS > LIVENESS_BOUND:
            raise InvalidScenario("watch_threshold stalls a peg-out past "
                                  "the liveness bound")
        if any(c.isspace() for c in f"{self.name}"):
            # the name is one field of the log's meta kind=scenario line
            raise InvalidScenario("name contains whitespace")

    @property
    def functionary_ids(self) -> list[str]:
        return [f"f{i}" for i in range(self.n_functionaries)]

    @property
    def adversary_id(self) -> Optional[str]:
        return None if self.adversary is None else f"f{self.adversary}"


@dataclass
class Verdict:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class RunReport:
    """A run's outcome; its ``log`` renders ``rows`` once, on first read."""
    scenario: str
    seed: int
    rows: list[tuple]
    outcomes: list[str]
    verdicts: list[Verdict]
    dispute_costs: dict[str, int]
    deposit_sats: int
    deposit_sufficient: bool

    @cached_property
    def log(self) -> list[str]:
        return event_lines(self.rows)

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_text(self) -> str:
        lines = [f"scenario={self.scenario} seed={self.seed} "
                 f"rng={RNG_ALGORITHM}"]
        for v in self.verdicts:
            status = "PASS" if v.passed else "FAIL"
            lines.append(f"  [{status}] {v.name} {v.detail}".rstrip())
        lines.append(f"  deposit={self.deposit_sats} "
                     f"sufficient={self.deposit_sufficient}")
        for o in self.outcomes:
            lines.append(f"  outcome: {o}")
        return "\n".join(lines)


class Runner:
    """Drives one scenario through the protocol engine."""

    def __init__(self, scenario: Scenario):
        scenario.validate()
        self.sc = scenario
        self.rng = random.Random(scenario.seed)
        # the parties, computed once
        self.functionaries = scenario.functionary_ids
        self.adversary = scenario.adversary_id
        self.honest = [] if scenario.leak_all else [
            f for f in self.functionaries if f != self.adversary]
        self.bridge = Bridge(
            self.functionaries, scenario.vmxo_count,
            scenario.denomination, fee_rate=scenario.fee_rate,
            pegout_limit=scenario.pegout_limit, t_sep=scenario.t_sep)
        self.bridge.clock.censor_windows = list(scenario.censor)
        self.users = [f"u{i}" for i in range(scenario.n_pegins)]
        self.outcomes: list[str] = []

    # -- helpers -----------------------------------------------------------

    def mine_source(self, txs: list[str]) -> str:
        b = self.bridge.source.mine_block(self.bridge.source.tip().id, txs)
        self.bridge.clock.advance()
        return b.id

    def mine_secondary(self, txs: list[str]) -> str:
        b = self.bridge.secondary.mine_block(
            self.bridge.secondary.tip().id, txs, difficulty=2)
        self.bridge.clock.advance()
        return b.id

    # -- setup -------------------------------------------------------------

    def setup(self) -> None:
        b, sc = self.bridge, self.sc
        b.log("meta", kind="scenario", name=sc.name, seed=sc.seed,
              rng=RNG_ALGORITHM)
        b.log("meta", kind="parties",
              functionaries=",".join(self.functionaries),
              honest=",".join(self.honest) or "-",
              adversary=self.adversary or "-",
              strategy=sc.strategy.value, leak_all=sc.leak_all)
        b.log("meta", kind="params", denomination=sc.denomination,
              fee_rate=sc.fee_rate, threshold=sc.watch_threshold,
              window=sc.challenge_window, bound=LIVENESS_BOUND,
              deposit=b.deposit_per_functionary)
        for u in self.users:
            b.ledger.fund(f"user:{u}:src", sc.denomination)
        for account in sorted(b.ledger.balances):
            b.log("balance", account=account,
                  amount=b.ledger.balances[account])
        # signing ceremony: every functionary signs the whole packet, one
        # record that every template reads, built now or later; then keys
        # are deleted (or leaked, for the dishonest)
        b.graph.sign_all()
        leakers = set(self.functionaries) if sc.leak_all else set()
        if sc.strategy == Strategy.KEY_LEAKER:
            leakers.add(self.adversary)
        for v in b.graph.vmxo_ids:
            for f in self.functionaries:
                if f in leakers:
                    b.graph.leak_keys(f, v)
                    b.log("keys_leaked", functionary=f, vmxo=v)
                else:
                    b.graph.delete_keys(f, v)
        b.log("setup_done", templates=b.graph.template_count(),
              enablers=b.graph.enabler_count())

    # -- peg-ins -----------------------------------------------------------

    def run_pegins(self) -> None:
        b, sc = self.bridge, self.sc
        for u in self.users:
            pegin = b.request_pegin(u, sc.denomination)
            b.sign_pegin(pegin, u)
            for f in self.functionaries:
                b.sign_pegin(pegin, f)
            tx = b.broadcast_pegin(pegin)
            pegin.deposit_block = self.mine_source([tx])
            for _ in range(b.source_confirmations):
                self.mine_source([f"pad:{b.clock.now}:{u}"])
            b.execute_pegin(pegin)
            self.outcomes.append(f"pegin {u} minted")

    # -- dispute plumbing --------------------------------------------------

    def _account_game(self, publications: list[tuple[int, str, str]],
                      base_tick: int) -> None:
        """Pay and log publications with their stop-watch markers."""
        b = self.bridge
        prev_t = 0
        for t, party, action in publications:
            b.pay_dispute_fee(party, action)
            b.log("dispute_pub", actor=party, action=action,
                  at=base_tick + t)
            interval = t - prev_t
            if interval > 0:
                for d in power_of_two_markers(interval):
                    b.log("sw_tick", party=party, duration=d)
                b.log("sw_stop", party=party, interval=interval)
            prev_t = t

    def _run_dispute(self, prover: str, verifier: str,
                     prover_trace: ExecutionTrace,
                     honest_trace: ExecutionTrace,
                     silent_prover: bool = False,
                     main_input: Optional[CheckChainInput] = None,
                     alt_input: Optional[AltChainInput] = None):
        """Play the verifier's challenge to the prover's kick-off; settle,
        account and log the outcome.  With ``alt_input`` the challenge is an
        alt-chain counter-proof, and the nested game, roles reversed, is
        the one played."""
        b, sc = self.bridge, self.sc
        base = b.clock.now
        game = open_game(prover, verifier, None, prover_trace, honest_trace,
                         watch_threshold=sc.watch_threshold)

        def delay(party: str, clock: int) -> int:
            if silent_prover and party == prover:
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
        # the outer commit-proof was paid with the kick-off
        self._account_game(game.publications[1:], base)
        if played is not game:
            settle_counter_proof(game)
            self._account_game(played.publications, base)
        for party in sorted(played.watches):
            watch = played.watches[party]
            b.log("watch_total", party=party,
                  accumulated=watch.accumulated(played.clock),
                  threshold=watch.threshold,
                  timeout=watch.aggregate_timeout(played.clock))
        b.clock.advance(game.clock)
        outcome = game.outcome
        if outcome is None:
            # the alt-chain claim failed; the outer game resumes and, absent
            # any further challenge, the original prover wins
            b.clock.advance(sc.challenge_window + 1)
            outcome = resolve_no_challenge(game)
        b.log("dispute_outcome", prover=prover, verifier=verifier,
              winner=outcome.winner, loser=outcome.loser,
              reason=outcome.reason.value,
              kind=("ProverLoses" if outcome.loser == prover
                    else "VerifierLoses"))
        return outcome

    def _contest_kickoff(self, pegout: PegOut, adv: str, what: str,
                         prover_trace: ExecutionTrace,
                         honest_trace: ExecutionTrace, **dispute_args) -> None:
        """Every honest verifier challenges the adversary's ``what``
        kick-off; the first plays the dispute and the adversary is slashed.
        With no honest verifier the kick-off stands and unlocks."""
        b, sc = self.bridge, self.sc
        challengers = self._honest_verifiers(adv)
        if not challengers:
            b.clock.advance(sc.challenge_window + 1)
            b.log("challenge_window_expired", vmxo=pegout.vmxo_id,
                  operator=adv)
            b.unlock(pegout)
            self.outcomes.append(f"pegout {pegout.burn_tx}: {what} kickoff "
                                 f"by {adv} unchallenged, unlocked")
            return
        self._account_game([(0, ch, "challenge") for ch in challengers[1:]],
                           b.clock.now)
        outcome = self._run_dispute(adv, challengers[0], prover_trace,
                                    honest_trace, **dispute_args)
        b.slash(adv, outcome.winner, challengers, pegout.vmxo_id)
        self.outcomes.append(f"pegout {pegout.burn_tx}: {what} kickoff by "
                             f"{adv} defeated ({outcome.reason.value})")

    # -- peg-outs ----------------------------------------------------------

    def _pick_operator(self) -> str:
        """An unslashed operator, honest if any, who can front soonest."""
        b = self.bridge
        pool = [f for f in self.honest if f not in b.slashed]
        if not pool:
            pool = [f for f in self.functionaries if f not in b.slashed]
        return min(pool, key=lambda f: (b.separation_left(f), f))

    def _honest_verifiers(self, excluding: str) -> list[str]:
        return [f for f in self.honest
                if f != excluding and f not in self.bridge.slashed]

    def _front_and_kick_off(self, pegout: PegOut, operator: str) -> None:
        """The guarded path: front, prove the confirmed front, kick off."""
        b = self.bridge
        b.clock.advance(b.separation_left(operator))
        b.front_funds(pegout, operator)
        front_block = self.mine_source([pegout.fronted_tx])
        for _ in range(b.source_confirmations):
            self.mine_source([f"pad:{b.clock.now}:front"])
        b.prove_front(pegout, front_block)
        b.publish_kickoff(pegout, operator)

    def _confirm_burn_and_unlock(self, pegout: PegOut) -> None:
        b = self.bridge
        b.log("burn_confirmed", tx=pegout.burn_tx, block=pegout.burn_block,
              canonical=int(b.honest_unlock_allowed(pegout)))
        b.unlock(pegout)

    def _honest_pegout_flow(self, pegout: PegOut, operator: str) -> None:
        b, sc = self.bridge, self.sc
        self._front_and_kick_off(pegout, operator)
        honest_trace = ExecutionTrace.honest(
            f"pegout:{pegout.burn_tx}", TRACE_LENGTH)
        adv = self.adversary
        griefer = (adv if sc.strategy == Strategy.GRIEFING_VERIFIER
                   and adv not in (None, operator)
                   and adv not in b.slashed else None)
        if griefer is not None:
            self._run_dispute(operator, griefer, honest_trace, honest_trace)
            self.outcomes.append(
                f"pegout {pegout.burn_tx}: griefing challenge by {griefer} "
                f"defeated")
            b.slash(griefer, operator, [operator], pegout.vmxo_id)
        else:
            b.clock.advance(sc.challenge_window + 1)
            b.log("challenge_window_expired", vmxo=pegout.vmxo_id,
                  operator=operator)
        self._confirm_burn_and_unlock(pegout)
        b.recycle_enablers(pegout)
        self.outcomes.append(
            f"pegout {pegout.burn_tx}: unlocked by {operator}")

    def _fraudulent_kickoff(self, pegout: PegOut, adv: str,
                            silent: bool) -> None:
        """Kick-off with an invalid execution proof and no fronting."""
        b, sc = self.bridge, self.sc
        b.publish_kickoff(pegout, adv)
        honest_trace = ExecutionTrace.honest(
            f"pegout:{pegout.burn_tx}", TRACE_LENGTH)
        corrupt_pos = self.rng.randint(1, TRACE_LENGTH)
        prover_trace = honest_trace.corrupted_at(corrupt_pos)
        self._contest_kickoff(pegout, adv, "fraudulent", prover_trace,
                              honest_trace, silent_prover=silent)

    def _fork_kickoff(self, pegout: PegOut, adv: str) -> None:
        """Kick-off whose proof is internally valid but over a counterfeit
        fork of the secondary chain."""
        b = self.bridge
        sec = b.secondary
        anchor = sec.canonical_chain()[1]  # shared peg-in-acknowledging block
        fake_burn = f"fakeburn:{adv}:{pegout.vmxo_id}"
        f1 = sec.mine_block(anchor.id, [fake_burn], difficulty=1)
        f2 = sec.mine_block(f1.id, [f"fakepad:{adv}"], difficulty=1)
        pegin = next(p for p in b.pegins if p.vmxo_id == pegout.vmxo_id)
        pegin_proof = b.source.prove_inclusion(pegin.deposit_tx,
                                               pegin.deposit_block)
        pegin_header = b.source.headers[pegin.deposit_block]
        fork_headers = (anchor, sec.headers[f1.id], sec.headers[f2.id])
        main_input = CheckChainInput(
            fork_headers, pegin_proof, pegin_header,
            sec.prove_inclusion(fake_burn, f1.id),
            sum(h.difficulty for h in fork_headers))
        b.publish_kickoff(pegout, adv)
        b.log("fork_mined", by=adv, blocks=2, anchor=anchor.id)
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
        self._contest_kickoff(pegout, adv, "fork", honest, honest,
                              main_input=main_input, alt_input=alt_input)

    def _double_operator(self, pegout: PegOut, adv: str) -> None:
        """Adversary fronts one peg-out, then opens a second raw kick-off."""
        b, sc = self.bridge, self.sc
        self._front_and_kick_off(pegout, adv)
        victim = next((v for v in b.graph.vmxo_ids
                       if v != pegout.vmxo_id
                       and b.graph.vmxos[v].state == VmxoState.LOCKED), None)
        fake = None
        if victim is not None:
            fake = PegOut(user="-", amount=sc.denomination, vmxo_id=victim,
                          state=PegOutState.LINKED)
            b.publish_kickoff(fake, adv)
        closers = self._honest_verifiers(adv)
        if fake is None or not closers:
            # no second kick-off, or nobody to force-close it: every
            # kick-off stands and unlocks
            b.clock.advance(sc.challenge_window + 1)
            self._confirm_burn_and_unlock(pegout)
            if fake is not None:
                b.unlock(fake)
            self.outcomes.append(f"pegout {pegout.burn_tx}: double operator "
                                 f"{adv} not force-closed, unlocked")
            return
        b.force_close(pegout.vmxo_id, victim, closers[0])
        b.slash(adv, closers[0], closers[:1], victim)
        self.outcomes.append(
            f"pegout {pegout.burn_tx}: double operator {adv} force-closed")

    def run_pegouts(self) -> None:
        b, sc = self.bridge, self.sc
        adv = self.adversary
        for i in range(sc.n_pegouts):
            user = self.users[i]
            pegout = b.request_pegout(user, sc.denomination)
            pegout.burn_block = self.mine_secondary([pegout.burn_tx])
            for _ in range(b.secondary_confirmations):
                self.mine_secondary([f"spad:{b.clock.now}"])
            try:
                b.link_pegout(pegout)
            except NoCapacity:
                self.outcomes.append(f"pegout {pegout.burn_tx}: no locked "
                                     f"vmxo to link, unserved")
                continue
            adversarial = (i == 0 and sc.strategy in PROVER_STRATEGIES
                           and adv is not None and adv not in b.slashed)
            if not adversarial:
                operator = self._pick_operator()
                self._honest_pegout_flow(pegout, operator)
                continue
            if sc.strategy == Strategy.DOUBLE_OPERATOR:
                self._double_operator(pegout, adv)
            elif sc.strategy == Strategy.FORK_PROVER:
                self._fork_kickoff(pegout, adv)
            else:
                self._fraudulent_kickoff(
                    pegout, adv,
                    silent=sc.strategy == Strategy.SILENT_PROVER)
            # a released peg-out is re-served by an honest operator
            if pegout.state == PegOutState.LINKED:
                operator = self._pick_operator()
                self._honest_pegout_flow(pegout, operator)

    # -- theft attempts ----------------------------------------------------

    def run_theft_attempts(self) -> None:
        b, sc = self.bridge, self.sc
        wants_theft = sc.leak_all or sc.strategy == Strategy.KEY_LEAKER
        if not wants_theft:
            return
        thief = self.adversary or self.functionaries[0]
        target = next((v for v in b.graph.vmxo_ids
                       if b.graph.vmxos[v].state == VmxoState.LOCKED), None)
        if target is not None:
            b.adhoc_theft(target, thief)

    # -- finish ------------------------------------------------------------

    def finish(self) -> RunReport:
        b, sc = self.bridge, self.sc
        for account in sorted(b.ledger.balances):
            b.log("final_balance", account=account,
                  amount=b.ledger.balances[account])
        honest_costs = sum(b.dispute_costs.get(f, 0) for f in self.honest)
        slashed = len(b.slashed) * b.deposit_per_functionary
        return RunReport(
            scenario=sc.name, seed=sc.seed, rows=b.rows,
            outcomes=list(self.outcomes), verdicts=check_invariants(b.rows),
            dispute_costs=dict(b.dispute_costs),
            deposit_sats=b.deposit_per_functionary,
            deposit_sufficient=slashed == 0 or honest_costs <= slashed)


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
    "challenge_refunded", "challenge_window_expired", "dispute_outcome",
    "enablers_recycled", "force_close", "fork_mined", "front_proven",
    "keys_leaked", "pegout_invalidated", "pegout_released", "setup_done",
    "sw_stop", "sw_tick", "theft_rejected", "watch_total"})


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
# each sets.  In a scenario file `adversary` also names the strategy.
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
    "pegout_limit": "pegout_limit",
    "t_sep": "t_sep",
}
# number of values each scenario-file key takes
_VALUE_COUNTS = {**dict.fromkeys(INT_KEYS, 1), "adversary": 2, "name": 1,
                 "leak_all": 1, "censor": 3}
_BOOLS = {"1": True, "true": True, "yes": True,
          "0": False, "false": False, "no": False}


def parse_scenario(text: str) -> Scenario:
    """Line-oriented scenario format: one `key value...` pair per line."""
    sc = Scenario()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, *args = line.split()
        if key not in _VALUE_COUNTS:
            raise InvalidScenario(f"line {lineno}: unknown key {key!r}")
        if len(args) != _VALUE_COUNTS[key]:
            raise InvalidScenario(f"line {lineno}: {key} takes "
                                  f"{_VALUE_COUNTS[key]} value(s)")
        try:
            if key == "name":
                sc.name = args[0]
            elif key == "leak_all":
                if args[0].lower() not in _BOOLS:
                    raise ValueError(f"not a boolean: {args[0]!r}")
                sc.leak_all = _BOOLS[args[0].lower()]
            elif key == "censor":
                sc.censor.append(CensorSpec(args[0], int(args[1]),
                                            int(args[2])))
            else:
                setattr(sc, INT_KEYS[key], int(args[0]))
                if key == "adversary":
                    sc.strategy = Strategy(args[1])
        except ValueError as exc:
            raise InvalidScenario(f"line {lineno}: {raw!r}: {exc}") from exc
    sc.validate()
    return sc
