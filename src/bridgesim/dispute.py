"""Round-based dispute resolution over an abstract execution trace.

A trace is its first wrong transition, ``corrupt_from``.  A fraudulent
prover diverges from the honest trace there and stays divergent (their
claimed final state is wrong); the n-ary search then isolates the first
divergent transition, a second n-ary search over that step's reads
resolves its read values, and the leaf check finds the isolated transition
wrong exactly when it is ``corrupt_from``.  Two traces that disagree at one
step disagree at every later one, so the main search keeps the traces'
``first_divergence`` from when it opens and picks each round's segment
from it in closed form.  The read search has a fixed descent: a wrong
step's reads are wrong from the first read and a right step's agree, so
the verifier picks the first segment in every round.  The abstract CPU
that steps states and the digests that commit to them live in the tests,
as the reference these closed forms are checked against.  A party may
publish exactly while their stop watch runs.

A challenge may instead present an alternative header chain with higher
accumulated difficulty, opening one nested game with the roles reversed.
"""

from __future__ import annotations

from enum import Enum
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

from .chain import _digest
from .errors import (DifficultyNotHigher, MalformedInput, TimeoutExpired,
                     WrongPhase, WrongTurn)
from .lightclient import AltChainInput, admit_counter_proof, check_alt_chain
from .stopwatch import StopWatch


class ExecutionTrace(NamedTuple):
    """States s_0 .. s_length: branch 0 when honest, and from the first
    wrong transition ``corrupt_from`` on, branch ``corrupt_from``."""
    program_id: str
    length: int
    corrupt_from: int = 0

    @staticmethod
    def honest(program_id: str, length: int) -> "ExecutionTrace":
        return ExecutionTrace(program_id, length)

    def corrupted_at(self, position: int) -> "ExecutionTrace":
        """Diverge from the honest run starting at the given transition; an
        earlier first wrong transition stays the first."""
        if not 1 <= position <= self.length:
            raise ValueError("position out of range")
        first = min(position, self.corrupt_from or position)
        return ExecutionTrace(self.program_id, self.length, first)

    def first_divergence(self, other: "ExecutionTrace") -> Optional[int]:
        """The least step whose ``(program_id, state(i))`` differs from the
        other trace's, or None: the smaller nonzero ``corrupt_from``."""
        if self.program_id != other.program_id:
            return 0
        mine, theirs = self.corrupt_from, other.corrupt_from
        if mine == theirs:
            return None
        return min(mine, theirs) if mine and theirs else mine or theirs


class Phase(str, Enum):
    AWAIT_CHALLENGE = "AwaitChallenge"
    MAIN_SEARCH = "MainSearch"
    TRACE_REVEAL = "TraceReveal"
    READ_SEARCH = "ReadSearch"
    LEAF_CHECK = "LeafCheck"
    COUNTER_PROOF = "CounterProof"
    TERMINAL = "Terminal"


class Reason(str, Enum):
    CONFLICTING_COMMIT = "ConflictingCommit"
    TIMEOUT = "Timeout"
    COUNTER_PROOF_UPHELD = "CounterProofUpheld"
    COUNTER_PROOF_DEFEATED = "CounterProofDefeated"


class Outcome(SimpleNamespace):
    """A finished game: who won, who lost, and why; compared by field."""

    def __init__(self, winner: str, loser: str, reason: Reason):
        if winner == loser:
            raise ValueError("winner must differ from loser")
        self.winner, self.loser, self.reason = winner, loser, reason


class DisputeGame:
    """One dispute between a prover and a verifier, with its search state,
    stop watches and the publications made so far."""
    arity = 4  # the default, which harness._FIELDS reads
    read_steps = 16  # read values consumed by one step

    def __init__(self, prover: str, verifier: str,
                 prover_trace: ExecutionTrace,
                 # the verifier's local honest re-execution
                 verifier_trace: ExecutionTrace,
                 arity: int = arity, watch_threshold: int = 64):
        if arity < 2:
            # an arity below 2 never narrows the segment
            raise ValueError(f"arity must be at least 2, got {arity}")
        if prover == verifier:
            # the two stop watches, keyed by party, would be one
            raise ValueError(f"prover and verifier are both {prover}")
        self.prover, self.verifier = prover, verifier
        self.prover_trace, self.verifier_trace = prover_trace, verifier_trace
        self.arity, self.watch_threshold = arity, watch_threshold
        self.phase = Phase.AWAIT_CHALLENGE
        # the current search: the open segment lo..hi (of the execution
        # traces in MainSearch, of the isolated step's reads in ReadSearch)
        # and the first divergence, fixed as it opens: None in the fixed
        # read descent
        self.lo = self.hi = self.rounds = self.clock = 0
        self.divergence: Optional[int] = None
        self.isolated_step: Optional[int] = None
        self.nested: Optional[DisputeGame] = None
        self.alt_defeated = False
        self.outcome: Optional[Outcome] = None
        self.watches = {prover: StopWatch(prover, watch_threshold),
                        verifier: StopWatch(verifier, watch_threshold)}
        # the prover's commitment opens the game and starts the verifier's
        # response clock
        self.watches[verifier].start(0)
        self.publications: list[tuple[int, str, str]] = [
            (0, prover, "commit-proof")]

    # -- time plumbing -----------------------------------------------------

    def _publish(self, party: str, action: str, delay: int) -> None:
        """Advance the virtual clock by the responder's delay and record the
        publication, flipping the stop watches."""
        if delay < 0:
            raise MalformedInput(f"negative delay {delay}")
        watches = self.watches
        watch = watches[party]
        if watch.running_since is None:
            raise WrongTurn(party)
        self.clock = clock = self.clock + delay
        if watch.stop(clock) > watch.threshold:
            # the responder ran out their whole censorship budget
            self.expire(party)
            raise TimeoutExpired(party)
        other = self.verifier if party == self.prover else self.prover
        watches[other].start(clock)
        self.publications.append((clock, party, action))

    def expire(self, party: str) -> Outcome:
        """Terminal timeout for a party that never responded."""
        self.phase = Phase.TERMINAL
        other = self.verifier if party == self.prover else self.prover
        self.outcome = Outcome(other, party, Reason.TIMEOUT)
        return self.outcome


def open_game(prover: str, verifier: str, proof: object,
              prover_trace: ExecutionTrace, verifier_trace: ExecutionTrace,
              arity: int = 4, watch_threshold: int = 64) -> DisputeGame:
    """Open a game on the prover's commitment.

    ``proof`` is ignored: the two traces alone decide the game.
    """
    return DisputeGame(prover, verifier, prover_trace, verifier_trace,
                       arity=arity, watch_threshold=watch_threshold)


def challenge(game: DisputeGame, kind: str = "Execution",
              alt_input: Optional[AltChainInput] = None,
              main_difficulty: Optional[int] = None,
              main_anchor_id: Optional[str] = None,
              delay: int = 1) -> DisputeGame:
    """Verifier's opening move: execution challenge or alt-chain counter-proof."""
    if game.phase != Phase.AWAIT_CHALLENGE:
        raise WrongPhase(game.phase.value)
    if kind == "Execution":
        if game.prover_trace.length < 1:
            # no transition to dispute: the search could never isolate one
            raise MalformedInput("execution trace has no transition")
        game._publish(game.verifier, "challenge", delay)
        game.phase = Phase.MAIN_SEARCH
        p, v = game.prover_trace, game.verifier_trace
        game.lo, game.hi, game.divergence = 0, p.length, p.first_divergence(v)
        return game
    if kind != "AltChain":
        raise ValueError(kind)
    if game.alt_defeated:
        raise WrongPhase("alt-chain branch already defeated")
    if alt_input is None or main_difficulty is None or main_anchor_id is None:
        raise MalformedInput("alt-chain challenge needs alt_input, "
                             "main_difficulty and main_anchor_id")
    if not admit_counter_proof(main_difficulty, alt_input.claimed_difficulty):
        raise DifficultyNotHigher(
            f"{alt_input.claimed_difficulty} <= {main_difficulty}")
    if alt_input.headers and alt_input.headers[0].id != main_anchor_id:
        raise MalformedInput("alt chain not anchored at the peg-in block")
    game._publish(game.verifier, "alt-chain-proof", delay)
    try:
        alt_valid = check_alt_chain(alt_input)
    except MalformedInput:
        alt_valid = False
    # nested game with reversed roles: the original verifier now proves
    # check_alt_chain; their trace is honest exactly when the claim is true
    program = _digest("altchain", alt_input.contested_block_id)
    honest = ExecutionTrace.honest(program, game.prover_trace.length)
    inner_prover_trace = honest if alt_valid else honest.corrupted_at(1)
    game.nested = DisputeGame(game.verifier, game.prover, inner_prover_trace,
                              honest, arity=game.arity,
                              watch_threshold=game.watch_threshold)
    game.phase = Phase.COUNTER_PROOF
    return game


def _narrow(lo: int, hi: int, arity: int,
            divergence: Optional[int]) -> tuple[int, int]:
    """One narrowing round: the prover commits to the boundary states, the
    verifier picks the first one that disagrees with its own.  A griefing
    verifier with no real divergence always picks the first segment.

    The boundaries are lo + k seg for k = 1 .. arity, capped at hi, with
    seg = ceil((hi - lo) / arity); the one at b disagrees exactly when b is
    at or past the searched traces' first divergence."""
    seg = -(-(hi - lo) // arity)  # ceil, exact in integers
    if divergence is None or divergence > hi:
        # no boundary disagrees (a griefer, or a divergence past hi)
        return lo, min(lo + seg, hi)
    k = max(1, -(-(divergence - lo) // seg))
    return lo + (k - 1) * seg, min(lo + k * seg, hi)


# the prover's and the verifier's publication in each phase's search round
_SEARCH_ACTIONS = {
    Phase.MAIN_SEARCH: ("publish-hashes", "publish-choice"),
    Phase.READ_SEARCH: ("publish-read-hashes", "publish-read-choice"),
}


def search_round(game: DisputeGame, prover_delay: int = 1,
                 verifier_delay: int = 1) -> DisputeGame:
    """One on-chain round: the responder commits segment digests and the
    challenger picks the segment to recurse into."""
    phase = game.phase
    actions = _SEARCH_ACTIONS.get(phase)
    if actions is None:
        raise WrongPhase(phase.value)
    if prover_delay < 0 or verifier_delay < 0:
        raise MalformedInput(f"negative delay {prover_delay, verifier_delay}")
    game.rounds += 1
    game._publish(game.prover, actions[0], prover_delay)
    game._publish(game.verifier, actions[1], verifier_delay)
    game.lo, game.hi = _narrow(game.lo, game.hi, game.arity, game.divergence)
    if game.hi - game.lo != 1:
        return game
    if phase is Phase.READ_SEARCH:
        game.phase = Phase.LEAF_CHECK
    else:
        game.isolated_step = game.hi
        game.phase = Phase.TRACE_REVEAL
    return game


def reveal_trace(game: DisputeGame, prover_delay: int = 1,
                 verifier_delay: int = 1) -> DisputeGame:
    """Prover publishes the full trace of the isolated step; the verifier's
    read challenge opens the second search over that step's read values."""
    if game.phase != Phase.TRACE_REVEAL:
        raise WrongPhase(game.phase.value)
    if prover_delay < 0 or verifier_delay < 0:
        raise MalformedInput(f"negative delay {prover_delay, verifier_delay}")
    game._publish(game.prover, "publish-full-trace", prover_delay)
    game._publish(game.verifier, "read-challenge", verifier_delay)
    # a wrong step's reads diverge at read 1 and a right step's agree,
    # and _narrow(0, hi, arity, 1) == _narrow(0, hi, arity, None)
    game.lo, game.hi, game.divergence = 0, game.read_steps, None
    game.phase = Phase.READ_SEARCH
    return game


def leaf_check(game: DisputeGame, delay: int = 1) -> Outcome:
    """Execute the isolated transition: the prover loses when it is their
    first wrong one; otherwise the challenge was baseless."""
    if game.phase != Phase.LEAF_CHECK:
        raise WrongPhase(game.phase.value)
    game._publish(game.prover, "execute-leaf", delay)
    game.phase = Phase.TERMINAL
    if game.prover_trace.corrupt_from == game.isolated_step:
        game.outcome = Outcome(game.verifier, game.prover,
                               Reason.CONFLICTING_COMMIT)
    else:
        game.outcome = Outcome(game.prover, game.verifier,
                               Reason.CONFLICTING_COMMIT)
    return game.outcome


def resolve_no_challenge(game: DisputeGame) -> Outcome:
    """Prover wins a game whose counter-proof was defeated and that no
    execution challenge followed; any other game is refused unchanged."""
    if game.phase != Phase.AWAIT_CHALLENGE or not game.alt_defeated:
        raise WrongPhase(game.phase.value)
    game.phase = Phase.TERMINAL
    game.outcome = Outcome(game.prover, game.verifier,
                           Reason.COUNTER_PROOF_DEFEATED)
    return game.outcome


def settle_counter_proof(game: DisputeGame) -> DisputeGame:
    """Fold a finished nested game back into the outer game.

    If the alt-chain submitter won, the original chain was fraudulent and the
    outer prover loses outright.  Otherwise the outer game resumes awaiting
    an execution challenge only, on the verifier's watch.
    """
    if game.phase != Phase.COUNTER_PROOF:
        raise WrongPhase(game.phase.value)
    inner = game.nested
    if inner is None or inner.outcome is None:
        raise WrongPhase("nested game not terminal")
    game.clock = max(game.clock, inner.clock)
    if inner.outcome.winner == game.verifier:
        game.phase = Phase.TERMINAL
        game.outcome = Outcome(game.verifier, game.prover,
                               Reason.COUNTER_PROOF_UPHELD)
    else:
        game.phase = Phase.AWAIT_CHALLENGE
        game.alt_defeated = True
        # the prover's watch has run since the counter-proof; it stops
        # there with a zero interval
        game.watches[game.prover].stop(game.publications[-1][0])
        game.watches[game.verifier].start(game.clock)
    return game


def drive(game: DisputeGame,
          delay: Callable[[str, int], int]) -> Outcome:
    """Play an execution challenge from MainSearch through the leaf check.

    ``delay(party, clock)`` is the response delay of ``party``'s next
    publication, asked for both parties at the game clock before each step.
    A responder who runs out their stop watch raises ``TimeoutExpired``
    with ``game.outcome`` already set.
    """
    p, v = game.prover, game.verifier
    main, read = Phase.MAIN_SEARCH, Phase.READ_SEARCH
    while game.phase is main:
        search_round(game, delay(p, game.clock), delay(v, game.clock))
    reveal_trace(game, delay(p, game.clock), delay(v, game.clock))
    while game.phase is read:
        search_round(game, delay(p, game.clock), delay(v, game.clock))
    return leaf_check(game, delay(p, game.clock))


def run_search(game: DisputeGame, prover_delay: int = 1,
               verifier_delay: int = 1, verifier_honest: bool = True,
               leaf_delay: int = 1) -> Outcome:
    """Drive an execution challenge with fixed delays per party.

    The prover answers the leaf check after ``leaf_delay``.
    ``verifier_honest`` is ignored: a griefing verifier is one whose trace
    agrees with the prover's, and the search follows from the traces alone.
    """
    leaf = Phase.LEAF_CHECK

    def delay(party: str, clock: int) -> int:
        if party == game.verifier:
            return verifier_delay
        return leaf_delay if game.phase is leaf else prover_delay

    return drive(game, delay)
