import pytest

from bridgesim.chain import SECONDARY, SOURCE, CensorSpec, ChainView, SimClock
from bridgesim.errors import NotIncluded, UnknownBlock, UnknownParent


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


def test_accumulated_difficulty_wins_over_single_heavy_block():
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
    last_acc = c.accumulated_difficulty(c.tip().id)
    parent = c.genesis.id
    for i in range(10):
        parent = c.mine_block(parent if i % 3 else c.genesis.id, [],
                              difficulty=1 + i % 2).id
        acc = c.accumulated_difficulty(c.tip().id)
        assert acc >= last_acc
        last_acc = acc


def test_censorship_windows_finite():
    clock = SimClock(censor_windows=[CensorSpec("f1", 2, 3)])
    assert clock.censored_until("f1", 1) is None
    assert clock.censored_until("f1", 2) == 5
    assert clock.censored_until("f1", 4) == 5
    assert clock.censored_until("f1", 5) is None
    assert clock.censored_until("f2", 3) is None
