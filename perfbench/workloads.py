"""Workload inputs, operations and per-op correctness oracles.

Every workload is a closed loop on one thread: the next op starts when the
previous one has finished.  Inputs come only from the seed; the package sees
only `Scenario` objects, execution traces and chain inputs built here.

Each workload has three parts:

* `make(bs, seed, size, count)` builds `count` op inputs (part of set-up
  time);
* `execute(bs, spec)` is the timed op;
* `check(bs, spec, result)` is the untimed oracle: True when the op's result
  is the expected outcome.  An op that raises is a failed op and is never
  skipped.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

import probe

# Input sizes.  `paper` is what the benchmark measures; `tiny` only serves
# the self-test.
SIZES = {
    "paper": dict(committee=(10, 25, 50), trace_length=4 ** 8),
    "tiny": dict(committee=(3, 4, 5), trace_length=4 ** 3),
}


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[Any, int, dict, int], list]
    execute: Callable[[Any, Any], Any]
    check: Callable[[Any, Any, Any], bool]
    # ops per second of the run's time budget, set so that a run at this
    # version takes about its budget
    per_second: float
    # the speed probe's mix of work that stands for this workload's ops
    probe_mix: probe.Mix


# -- sweep --------------------------------------------------------------------

def _random_valid_scenarios(bs, rng: random.Random, count: int) -> list:
    """Scenarios drawn from the whole valid `Scenario` space: every strategy
    including Honest, `leak_all` in 10%, N 2-6, V 1-4, optional censor
    windows.  Only rejection by `validate()` filters; scenarios that crash
    the runner stay in."""
    h = bs.harness
    strategies = list(h.Strategy)
    out = []
    while len(out) < count:
        n = rng.randint(2, 6)
        censor = [h.CensorSpec(f"f{rng.randrange(n)}", rng.randint(0, 60),
                               rng.randint(1, 80))
                  for _ in range(rng.choice((0, 0, 1, 2)))]
        scenario = h.Scenario(
            name=f"valid-{len(out)}", seed=rng.randrange(2 ** 31),
            n_functionaries=n, vmxo_count=rng.randint(1, 4),
            n_pegins=rng.randint(0, 4), n_pegouts=rng.randint(0, 4),
            fee_rate=rng.choice((1, 2, 5, 10)),
            adversary=rng.randrange(n) if rng.random() < 0.8 else None,
            strategy=rng.choice(strategies), leak_all=rng.random() < 0.1,
            censor=censor)
        try:
            scenario.validate()
        except bs.errors.InvalidScenario:
            continue
        out.append(scenario)
    return out


def make_sweep(bs, seed: int, size: dict, count: int) -> list:
    """The criterion-6 generator with every fifth op drawn from the whole
    valid space instead, so every run has the same share of each."""
    rng = random.Random(f"sweep:{seed}")
    extra = _random_valid_scenarios(bs, rng, count // 5)
    adversarial = bs.harness.generate_adversarial_scenarios(
        count - len(extra), base_seed=seed)
    return [extra.pop() if i % 5 == 4 and extra else adversarial.pop()
            for i in range(count)]


def execute_sweep(bs, scenario):
    return bs.harness.run_scenario(scenario)


def check_sweep(bs, scenario, report) -> bool:
    passed = {v.name: v.passed for v in report.verdicts}
    if scenario.leak_all and scenario.n_pegins > 0:
        # every key leaked and a VMXO is locked: the theft must happen and
        # the safety verdict must catch it
        theft = any(" ev=theft " in line for line in report.log)
        return theft and not passed["safety"]
    return all(passed.values())


# -- committee ----------------------------------------------------------------

def make_committee(bs, seed: int, size: dict, count: int) -> list:
    """FakeProofProver runs at the paper's committee sizes in turn, V = 4.
    One op is one `run_scenario`."""
    h = bs.harness
    rng = random.Random(f"committee:{seed}")
    sizes = size["committee"]
    out = []
    for i in range(count):
        n = sizes[i % len(sizes)]
        out.append(h.Scenario(
            name=f"committee-n{n}-{i}", seed=rng.randrange(2 ** 31),
            n_functionaries=n, vmxo_count=4, n_pegins=2, n_pegouts=2,
            adversary=rng.randrange(n),
            strategy=h.Strategy.FAKE_PROOF_PROVER))
    return out


def check_committee(bs, scenario, report) -> bool:
    return report.all_passed


# -- dispute-depth ------------------------------------------------------------

@dataclass(frozen=True)
class Game:
    kind: str  # corrupt | grief | stall | alt
    program: str
    length: int
    arity: int
    pos: int = 0  # corrupt, stall: first divergent transition
    threshold: int = 10 ** 9
    staller: str = ""  # stall: "p" or "v"
    delay: int = 1  # stall: the staller's delay per publication
    alt_input: Any = None  # alt: counter-proof input
    main_difficulty: int = 0
    anchor_id: str = ""
    upheld: Optional[bool] = None  # alt: criterion-5 oracle


def _alt_chain_game(bs, rng: random.Random, trial: str, **common) -> Game:
    """Fork trial built as in acceptance criterion 5."""
    chain = bs.chain
    src = chain.ChainView(chain.SOURCE)
    pb = src.mine_block(src.genesis.id, [f"pegin{trial}"])
    pegin_proof = src.prove_inclusion(f"pegin{trial}", pb.id)
    sec = chain.ChainView(chain.SECONDARY)
    anchor = sec.mine_block(sec.genesis.id, [f"anchor{trial}"],
                            difficulty=rng.randint(1, 3))
    branches = []
    for tag in ("a", "b"):
        headers, parent = [anchor], anchor.id
        for i in range(rng.randint(1, 6)):
            blk = sec.mine_block(parent, [f"{tag}{trial}:{i}"],
                                 difficulty=rng.randint(1, 4))
            headers.append(blk)
            parent = blk.id
        branches.append(headers)
    main, alt = branches
    d1 = sum(h.difficulty for h in main)
    d2 = sum(h.difficulty for h in alt)
    contested = alt[1].id if rng.random() < 0.2 else main[1].id
    alt_input = bs.lightclient.AltChainInput(
        tuple(alt), pegin_proof, src.headers[pb.id], contested, d2)
    return Game(alt_input=alt_input, main_difficulty=d1,
                anchor_id=anchor.id,
                upheld=d2 > d1 and all(h.id != contested for h in alt),
                **common)


def _cycle(rng: random.Random, items: list):
    """Endless draws that take every item once per cycle, in seeded order."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def _alt_class(g: Game) -> str:
    if g.alt_input.claimed_difficulty <= g.main_difficulty:
        return "refused"
    return "upheld" if g.upheld else "defeated"


def make_dispute_depth(bs, seed: int, size: dict, count: int) -> list:
    """Raw dispute games at paper depth: no bridge, templates or ledger.

    The cost of a game depends on its kind, on where the corruption starts
    (`corrupted_at` rebuilds the trace from there) and on how an alt-chain
    game ends.  Kinds and alt-chain endings are drawn in seeded cycles that
    cover every case, and corruption positions take the eight equal strata
    of the trace in turn, so the mix of any run hardly depends on the
    seed."""
    rng = random.Random(f"dispute-depth:{seed}")
    length = size["trace_length"]
    kinds = _cycle(rng, ["corrupt", "grief", "stall", "alt"])
    strata = {k: itertools.cycle(range(8)) for k in ("corrupt", "stall")}
    # roughly the criterion-5 proportions of refused, upheld, defeated
    alt_classes = _cycle(rng, ["refused"] * 6 + ["upheld"] * 5 + ["defeated"])

    def position(kind: str) -> int:
        s = next(strata[kind])
        return rng.randint(1 + s * length // 8, (s + 1) * length // 8)

    games = []
    for i in range(count):
        kind = next(kinds)
        common = dict(kind=kind, program=f"prog:{seed}:{i}", length=length,
                      arity=rng.choice((2, 4)))
        if kind == "corrupt":
            games.append(Game(pos=position(kind), **common))
        elif kind == "grief":
            games.append(Game(**common))
        elif kind == "stall":
            # the staller's budget runs out at its `stall_at`-th publication,
            # which every game at these sizes reaches
            threshold = rng.randint(16, 256)
            stall_at = rng.randint(1, 6)
            games.append(Game(pos=position(kind), threshold=threshold,
                              staller=rng.choice("pv"),
                              delay=threshold // stall_at + 1, **common))
        else:
            want = next(alt_classes)
            trial = 0
            while True:
                game = _alt_chain_game(bs, rng, f"{seed}:{i}:{trial}", **common)
                if _alt_class(game) == want:
                    break
                trial += 1
            games.append(game)
    return games


def execute_dispute(bs, g: Game):
    d = bs.dispute
    honest = d.ExecutionTrace.honest(g.program, g.length)
    if g.kind == "corrupt":
        game = d.open_game("p", "v", None, honest.corrupted_at(g.pos), honest,
                           arity=g.arity, watch_threshold=g.threshold)
        d.challenge(game)
        d.run_search(game)
        return game
    if g.kind == "grief":
        game = d.open_game("p", "v", None, honest, honest, arity=g.arity,
                           watch_threshold=g.threshold)
        d.challenge(game)
        d.run_search(game, verifier_honest=False)
        return game
    if g.kind == "stall":
        game = d.open_game("p", "v", None, honest.corrupted_at(g.pos), honest,
                           arity=g.arity, watch_threshold=g.threshold)
        d.challenge(game)
        p_delay = g.delay if g.staller == "p" else 1
        v_delay = g.delay if g.staller == "v" else 1
        try:
            d.run_search(game, prover_delay=p_delay, verifier_delay=v_delay,
                         leaf_delay=p_delay)
        except bs.errors.TimeoutExpired:
            pass  # the expected end of a stalled game
        return game
    game = d.open_game("p", "v", None, honest, honest, arity=g.arity)
    try:
        d.challenge(game, "AltChain", alt_input=g.alt_input,
                    main_difficulty=g.main_difficulty,
                    main_anchor_id=g.anchor_id)
    except bs.errors.DifficultyNotHigher:
        return game  # the counter-proof is refused outright
    d.challenge(game.nested)
    d.run_search(game.nested)
    d.settle_counter_proof(game)
    return game


def check_dispute(bs, g: Game, game) -> bool:
    out = game.outcome
    if g.kind == "corrupt":
        return (out is not None and out.loser == "p"
                and out.reason.value == "ConflictingCommit"
                and game.isolated_step == g.pos)
    if g.kind == "grief":
        return out is not None and out.loser == "v"
    if g.kind == "stall":
        return (out is not None and out.reason.value == "Timeout"
                and out.loser == g.staller)
    upheld = out is not None and out.reason.value == "CounterProofUpheld"
    return upheld == g.upheld


WORKLOADS = {
    "sweep": Workload("sweep", make_sweep, execute_sweep, check_sweep, 50,
                      probe.BRIDGE_RUNS),
    "committee": Workload("committee", make_committee, execute_sweep,
                          check_committee, 0.3, probe.BRIDGE_RUNS),
    "dispute-depth": Workload("dispute-depth", make_dispute_depth,
                              execute_dispute, check_dispute, 3.5,
                              probe.TRACE_BUILDING),
}
