import random

import pytest

from bridgesim.chain import (SECONDARY, SOURCE, BlockHeader, CensorSpec,
                             ChainView, SimClock)
from bridgesim.errors import NotIncluded, UnknownBlock, UnknownParent
from bridgesim.harness import Runner, Scenario, Strategy


def test_mine_on_genesis_height_one():
    c = ChainView(SOURCE)
    h = c.mine_block(c.genesis.id, [])
    assert h.height == 1
    assert h.parent_id == c.genesis.id


def test_unknown_parent():
    c = ChainView(SOURCE)
    with pytest.raises(UnknownParent):
        c.mine_block("nope", [])


def test_fork_two_tips_canonical_by_difficulty():
    c = ChainView(SOURCE)
    a = c.mine_block(c.genesis.id, [], difficulty=1)
    b = c.mine_block(c.genesis.id, [], difficulty=2)
    assert c.tip().id == b.id
    assert not c.is_canonical(a.id)


def test_accumulated_work_wins_over_single_heavy_block():
    # branch A: difficulties 3,3 (acc 6 incl. genesis 1 -> 7)
    # branch B: difficulty 5 (acc 6); A wins with 6 > 5 past genesis
    c = ChainView(SECONDARY)
    a1 = c.mine_block(c.genesis.id, [], difficulty=3)
    a2 = c.mine_block(a1.id, [], difficulty=3)
    c.mine_block(c.genesis.id, [], difficulty=5)
    assert c.tip().id == a2.id


def test_tie_break_lowest_id():
    c = ChainView(SOURCE)
    a = c.mine_block(c.genesis.id, ["t1"], difficulty=2)
    b = c.mine_block(c.genesis.id, ["t2"], difficulty=2)
    assert c.tip().id == min(a.id, b.id)


def test_confirmations():
    c = ChainView(SOURCE)
    blocks = [c.mine_block(c.genesis.id, [])]
    for _ in range(4):
        blocks.append(c.mine_block(blocks[-1].id, []))
    assert c.confirmations(blocks[-1].id) == 1
    assert c.confirmations(blocks[1].id) == 4
    loser = c.mine_block(c.genesis.id, ["fork_marker"])
    assert c.confirmations(loser.id) == 0
    with pytest.raises(UnknownBlock):
        c.confirmations("missing")


def test_inclusion_proof_roundtrip():
    c = ChainView(SOURCE)
    b = c.mine_block(c.genesis.id, ["txA", "txB"])
    proof = c.prove_inclusion("txA", b.id)
    assert proof.verify(c.headers[b.id])


def test_inclusion_proof_absent_tx():
    c = ChainView(SOURCE)
    b = c.mine_block(c.genesis.id, ["txA"])
    with pytest.raises(NotIncluded):
        c.prove_inclusion("txZ", b.id)


def test_inclusion_proof_wrong_header_fails():
    c = ChainView(SOURCE)
    b1 = c.mine_block(c.genesis.id, ["txA"])
    b2 = c.mine_block(b1.id, ["txB"])
    proof = c.prove_inclusion("txA", b1.id)
    assert not proof.verify(c.headers[b2.id])


def test_inclusion_proof_of_a_tx_not_in_its_path_fails():
    c = ChainView(SOURCE)
    b = c.mine_block(c.genesis.id, ["txA", "txB"])
    proof = c.prove_inclusion("txA", b.id)
    # the path alone still matches the header's commitment
    assert not proof._replace(tx_id="txZ").verify(c.headers[b.id])


def test_inclusion_proof_of_an_unknown_block_refused():
    c = ChainView(SOURCE)
    with pytest.raises(UnknownBlock):
        c.prove_inclusion("txA", "no-such-block")


def test_inclusion_soundness_exhaustive_small_chains():
    # every (tx, block) pair: proof exists and verifies iff tx in block
    c = ChainView(SOURCE)
    parent = c.genesis.id
    blocks = []
    for i in range(8):
        txs = [f"tx{i}_{j}" for j in range(i % 4 + 1)]
        b = c.mine_block(parent, txs)
        parent = b.id
        blocks.append((b, txs))
    all_txs = [t for _, txs in blocks for t in txs]
    for b, txs in blocks:
        for t in all_txs:
            if t in txs:
                assert c.prove_inclusion(t, b.id).verify(c.headers[b.id])
            else:
                with pytest.raises(NotIncluded):
                    c.prove_inclusion(t, b.id)


def test_canonical_tip_monotone():
    c = ChainView(SOURCE)
    last_acc = sum(h.difficulty for h in c.canonical_chain())
    parent = c.genesis.id
    for i in range(10):
        parent = c.mine_block(parent if i % 3 else c.genesis.id, [],
                              difficulty=1 + i % 2).id
        acc = sum(h.difficulty for h in c.canonical_chain())
        assert acc >= last_acc
        last_acc = acc


def test_censorship_windows_finite():
    clock = SimClock(censor_windows=[CensorSpec("f1", 2, 3)])
    assert clock.censored_until("f1", 1) is None
    assert clock.censored_until("f1", 2) == 5
    assert clock.censored_until("f1", 4) == 5
    assert clock.censored_until("f1", 5) is None
    assert clock.censored_until("f2", 3) is None


def test_overlapping_censor_windows_censor_as_one():
    # f1 acted at 30 while the second window still censored it to 45
    clock = SimClock(censor_windows=[CensorSpec("f1", 10, 20),
                                     CensorSpec("f1", 25, 20),
                                     CensorSpec("f2", 40, 50)])
    assert clock.censored_until("f1", 12) == 45
    assert clock.censored_until("f1", 30) == 45
    assert clock.censored_until("f1", 45) is None
    # the order of the windows does not matter
    clock.censor_windows.reverse()
    assert clock.censored_until("f1", 12) == 45


def test_adjacent_censor_windows_censor_as_one():
    clock = SimClock(censor_windows=[CensorSpec("f1", 7, 3),
                                     CensorSpec("f1", 2, 5),
                                     CensorSpec("f1", 10, 0),
                                     CensorSpec("f1", 11, 4)])
    assert [clock.censored_until("f1", t) for t in range(1, 16)] == \
        [None, 10, 10, 10, 10, 10, 10, 10, 10, None, 15, 15, 15, 15, None]


# -- fork choice against the scanning reference ------------------------------

class ScanningChain:
    """The fork choice that scanned every header on each query, frozen as
    the reference for the incremental one."""

    def __init__(self, chain_id: str):
        self.genesis = BlockHeader.make(chain_id, 0, None, 1, [])
        self.chain_id = chain_id
        self.headers = {self.genesis.id: self.genesis}
        self._acc = {self.genesis.id: 1}

    def mine_block(self, parent_id, txs, difficulty=1):
        parent = self.headers[parent_id]
        header = BlockHeader.make(self.chain_id, parent.height + 1, parent_id,
                                  difficulty, txs)
        self.headers[header.id] = header
        self._acc[header.id] = self._acc[parent_id] + difficulty
        return header

    def tip(self):
        best_acc = max(self._acc.values())
        candidates = [h for h in self.headers.values()
                      if self._acc[h.id] == best_acc]
        return min(candidates, key=lambda h: h.id)

    def canonical_chain(self):
        out = []
        cur = self.tip()
        while cur is not None:
            out.append(cur)
            cur = self.headers.get(cur.parent_id) if cur.parent_id else None
        out.reverse()
        return out

    def is_canonical(self, block_id):
        return any(h.id == block_id for h in self.canonical_chain())

    def confirmations(self, block_id):
        chain = self.canonical_chain()
        for i, h in enumerate(chain):
            if h.id == block_id:
                return len(chain) - i
        return 0


def _assert_same_fork_choice(c: ChainView, ref: ScanningChain) -> None:
    # headers are tuples, equal to any tuple of the same fields
    assert {type(h) for h in c.canonical_chain()} == {BlockHeader}
    assert c.tip() == ref.tip()
    assert c.canonical_chain() == ref.canonical_chain()
    for block_id in ref.headers:
        assert c.is_canonical(block_id) == ref.is_canonical(block_id)
        assert c.confirmations(block_id) == ref.confirmations(block_id)


def _mine_both(c, ref, parent_id, txs, difficulty):
    h = c.mine_block(parent_id, txs, difficulty)
    assert h == ref.mine_block(parent_id, txs, difficulty)
    _assert_same_fork_choice(c, ref)
    return h


@pytest.mark.parametrize("seed", range(12))
def test_fork_choice_matches_scanning_reference(seed):
    # random header trees: extend the tip, fork near it or anywhere, with
    # difficulties 1-3 so equal-work forks are common; a small tx space
    # also mines some blocks twice
    rng = random.Random(seed)
    c, ref = ChainView(SOURCE), ScanningChain(SOURCE)
    ids = [c.genesis.id]
    reorgs = 0
    for _ in range(45):
        r = rng.random()
        parent = (c.tip().id if r < 0.4 else rng.choice(ids[-6:]) if r < 0.8
                  else rng.choice(ids))
        tip = c.tip()
        h = _mine_both(c, ref, parent, [f"tx{rng.randrange(3)}"],
                       rng.randint(1, 3))
        ids.append(h.id)
        reorgs += c.tip() != tip and h.parent_id != tip.id
    assert reorgs > 0


@pytest.mark.parametrize("seed", range(8))
def test_extensions_overtakes_and_ties_match_scanning_reference(seed):
    # seeded sequences of three moves: a block on the tip; a side branch
    # from a canonical header below the tip, grown until it overtakes the
    # tip; and one block whose accumulated difficulty equals the tip's,
    # which wins only with the lower id
    rng = random.Random(seed)
    c, ref = ChainView(SECONDARY), ScanningChain(SECONDARY)
    seen = {"extended": 0, "overtaken": 0, "tie won": 0, "tie lost": 0}
    for step in range(40):
        tip, below = c.tip(), c.canonical_chain()[:-1]
        move = rng.choice(("extend", "overtake", "tie") if below
                          else ("extend",))
        if move == "extend":
            h = _mine_both(c, ref, tip.id, [f"e{step}"], rng.randint(1, 3))
            assert c.tip() is h
            seen["extended"] += 1
        elif move == "overtake":
            h = rng.choice(below[-5:])
            while ref._acc[h.id] <= ref._acc[tip.id]:
                h = _mine_both(c, ref, h.id, [f"o{step}"], rng.randint(1, 3))
            assert c.tip() is h and c.confirmations(tip.id) == 0
            seen["overtaken"] += 1
        else:
            fork = rng.choice(below[-5:])
            h = _mine_both(c, ref, fork.id, [f"t{step}:{rng.random()}"],
                           ref._acc[tip.id] - ref._acc[fork.id])
            assert c.tip() is min(tip, h, key=lambda x: x.id)
            seen["tie won" if c.tip() is h else "tie lost"] += 1
    assert all(seen.values()), seen


def test_equal_work_fork_lowest_id_then_reorg():
    c, ref = ChainView(SOURCE), ScanningChain(SOURCE)
    a = _mine_both(c, ref, c.genesis.id, ["a"], 2)
    b = _mine_both(c, ref, c.genesis.id, ["b"], 2)
    low, high = sorted((a, b), key=lambda h: h.id)
    assert c.tip() == low and c.confirmations(high.id) == 0
    # extending the higher-id branch makes it heavier
    top = _mine_both(c, ref, high.id, ["c"], 1)
    assert c.tip() == top and c.confirmations(low.id) == 0
    assert c.confirmations(high.id) == 2
    # an equal-work block on the old branch wins only with a lower id
    _mine_both(c, ref, low.id, ["d"], 1)


def test_reorg_across_fork_point():
    c, ref = ChainView(SECONDARY), ScanningChain(SECONDARY)
    main = [c.genesis]
    for i in range(4):
        main.append(_mine_both(c, ref, main[-1].id, [f"m{i}"], 2))
    # a branch from main[2] overtakes main[3..4] on its third block
    branch = [main[2]]
    for i in range(3):
        branch.append(_mine_both(c, ref, branch[-1].id, [f"b{i}"], 2))
    assert c.canonical_chain() == main[:3] + branch[1:]
    assert [c.confirmations(h.id) for h in main] == [6, 5, 4, 0, 0]
    # a single heavier block after main[1] wins with a shorter chain
    heavy = _mine_both(c, ref, main[1].id, ["heavy"], 20)
    assert c.canonical_chain() == main[:2] + [heavy]
    assert not c.is_canonical(branch[-1].id)
    # and the old main branch takes it back
    back = _mine_both(c, ref, main[-1].id, ["back"], 30)
    assert c.canonical_chain() == main + [back]


def test_views_sharing_cached_headers_match_scanning_reference():
    # headers are cached by content, so two views of one chain that mine the
    # same blocks hold the same instances; each keeps its own fork choice
    # as they diverge, mining interleaved
    views = [(ChainView(SOURCE), ScanningChain(SOURCE)) for _ in range(2)]
    (a, ref_a), (b, ref_b) = views
    assert a.genesis is b.genesis
    for i in range(4):
        shared = _mine_both(a, ref_a, a.tip().id, [f"s{i}"], 1)
        assert _mine_both(b, ref_b, b.tip().id, [f"s{i}"], 1) is shared
    # a heavier sibling in one view only: shared block canonical in b alone
    _mine_both(a, ref_a, shared.parent_id, ["heavy"], 3)
    assert not a.is_canonical(shared.id) and b.is_canonical(shared.id)
    rngs = [random.Random(21), random.Random(22)]
    for _ in range(40):
        for (c, ref), rng in zip(views, rngs):
            parent = rng.choice(list(ref.headers)[-6:])
            _mine_both(c, ref, parent, [f"tx{rng.randrange(3)}"],
                       rng.randint(1, 3))
    for c, ref in views:
        _assert_same_fork_choice(c, ref)
    assert a.canonical_chain() != b.canonical_chain()


def test_nonpositive_difficulty_raises_after_cached_hit():
    first = BlockHeader.make(SOURCE, 1, "p", 1, ["t"])
    assert BlockHeader.make(SOURCE, 1, "p", 1, ["t"]) is first
    for difficulty in (0, -1):
        with pytest.raises(ValueError):
            BlockHeader.make(SOURCE, 1, "p", difficulty, ["t"])


@pytest.mark.parametrize("difficulty", [0, -1])
def test_mine_block_refuses_nonpositive_difficulty(difficulty):
    # a block of no work would tie its parent's branch weight, and one of
    # negative work would lighten it; neither enters the view
    c = ChainView(SOURCE)
    tip = c.mine_block(c.genesis.id, ["t"])
    with pytest.raises(ValueError):
        c.mine_block(tip.id, ["u"], difficulty=difficulty)
    assert c.tip() is tip and len(c.headers) == 2
    assert c.canonical_chain() == [c.genesis, tip]


class CountingHeaders(dict):
    """A header table that counts every walk over it."""

    scans = 0

    def _scan(self):
        self.scans += 1

    def __iter__(self):
        self._scan()
        return super().__iter__()

    def values(self):
        self._scan()
        return super().values()

    def keys(self):
        self._scan()
        return super().keys()

    def items(self):
        self._scan()
        return super().items()


def test_long_run_never_scans_headers():
    # N = 10 with 256 VMXOs, peg-ins and peg-outs: fork choice, confirmations
    # and canonical checks never walk the header table
    sc = Scenario(name="horizon", seed=1, n_functionaries=10,
                  vmxo_count=256, n_pegins=256, n_pegouts=256, adversary=3,
                  strategy=Strategy.FAKE_PROOF_PROVER)
    runner = Runner(sc)
    chains = (runner.bridge.source, runner.bridge.secondary)
    for chain in chains:
        chain.headers = CountingHeaders(chain.headers)
    runner.setup()
    runner.run_pegins()
    runner.run_theft_attempts()
    runner.run_pegouts()
    assert runner.finish().all_passed
    assert [len(chain.headers) for chain in chains] == [2049, 1025]
    assert [chain.headers.scans for chain in chains] == [0, 0]
