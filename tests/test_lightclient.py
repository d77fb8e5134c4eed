import pytest

from bridgesim.chain import SECONDARY, SOURCE, ChainView
from bridgesim.errors import MalformedInput
from bridgesim.lightclient import (AltChainInput, CheckChainInput,
                                  admit_counter_proof, check_alt_chain,
                                  check_chain)


def build_instance(pegout_in_chain=True, wrong_difficulty=False):
    """Hand-built 3-header secondary chain holding the peg-out tx, plus a
    source-chain peg-in proof."""
    src = ChainView(SOURCE)
    pegin_block = src.mine_block(src.genesis.id, ["pegin_tx"])
    pegin_proof = src.prove_inclusion("pegin_tx", pegin_block.id)

    sec = ChainView(SECONDARY)
    h1 = sec.mine_block(sec.genesis.id, ["ack:pegin_tx"], difficulty=2)
    h2 = sec.mine_block(h1.id, ["pegout_tx"], difficulty=2)
    h3 = sec.mine_block(h2.id, [], difficulty=2)
    if pegout_in_chain:
        pegout_proof = sec.prove_inclusion("pegout_tx", h2.id)
        headers = (h1, h2, h3)
    else:
        stray = sec.mine_block(h1.id, ["pegout_tx"], difficulty=1)
        pegout_proof = sec.prove_inclusion("pegout_tx", stray.id)
        headers = (h1, h2, h3)
    d1 = sum(h.difficulty for h in headers)
    if wrong_difficulty:
        d1 += 1
    return CheckChainInput(headers, pegin_proof,
                           src.headers[pegin_block.id], pegout_proof, d1), sec


def oracle_check_chain(inp: CheckChainInput) -> bool:
    """Independent re-validation of the four clauses."""
    hs = inp.headers
    linked = bool(hs) and all(b.parent_id == a.id for a, b in zip(hs, hs[1:]))
    if not linked:
        return False
    clause_b = inp.pegin_proof.verify(inp.pegin_header)
    target = next((h for h in hs if h.id == inp.pegout_proof.block_id), None)
    clause_c = target is not None and inp.pegout_proof.verify(target)
    clause_d = sum(h.difficulty for h in hs) == inp.claimed_difficulty
    return clause_b and clause_c and clause_d


def test_empty_headers_malformed():
    inp, _ = build_instance()
    bad = CheckChainInput((), inp.pegin_proof, inp.pegin_header,
                          inp.pegout_proof, 1)
    with pytest.raises(MalformedInput):
        check_chain(bad)


def test_headers_not_parent_linked_malformed():
    inp, _ = build_instance()
    h1, _, h3 = inp.headers
    with pytest.raises(MalformedInput, match="^headers not parent-linked$"):
        check_chain(inp._replace(headers=(h1, h3)))


def test_pegin_proof_that_fails_makes_both_checks_false():
    # each input is valid but for its peg-in proof, which names another
    # header than the one given
    inp, sec = build_instance()
    h1 = inp.headers[0]
    f1 = sec.mine_block(h1.id, [], difficulty=4)
    alt = AltChainInput((h1, f1), inp.pegin_proof, inp.pegin_header,
                        contested_block_id=inp.headers[1].id,
                        claimed_difficulty=h1.difficulty + 4)
    assert check_chain(inp) is check_alt_chain(alt) is True
    assert check_chain(inp._replace(pegin_header=h1)) is False
    assert check_alt_chain(alt._replace(pegin_header=h1)) is False


def test_valid_instance_true():
    inp, _ = build_instance()
    assert check_chain(inp) is True


def test_pegout_outside_headers_false():
    inp, _ = build_instance(pegout_in_chain=False)
    assert check_chain(inp) is False


def test_wrong_difficulty_false():
    inp, _ = build_instance(wrong_difficulty=True)
    assert check_chain(inp) is False


def test_oracle_equivalence_random_instances():
    # brute-force clause validation must agree with check_chain
    for pegout_in in (True, False):
        for wrong_d in (True, False):
            inp, _ = build_instance(pegout_in, wrong_d)
            assert check_chain(inp) == oracle_check_chain(inp)


def test_alt_chain_excluding_pegout_true():
    inp, sec = build_instance()
    h1 = inp.headers[0]
    f1 = sec.mine_block(h1.id, [], difficulty=4)
    f2 = sec.mine_block(f1.id, [], difficulty=4)
    alt_headers = (h1, f1, f2)
    d2 = sum(h.difficulty for h in alt_headers)
    alt = AltChainInput(alt_headers, inp.pegin_proof, inp.pegin_header,
                        contested_block_id=inp.headers[1].id,
                        claimed_difficulty=d2)
    assert check_alt_chain(alt) is True


def test_alt_chain_containing_pegout_false():
    inp, _ = build_instance()
    alt = AltChainInput(inp.headers, inp.pegin_proof, inp.pegin_header,
                        contested_block_id=inp.headers[1].id,
                        claimed_difficulty=inp.claimed_difficulty)
    assert check_alt_chain(alt) is False


def test_alt_chain_wrong_difficulty_false():
    inp, sec = build_instance()
    h1 = inp.headers[0]
    f1 = sec.mine_block(h1.id, [], difficulty=4)
    alt = AltChainInput((h1, f1), inp.pegin_proof, inp.pegin_header,
                        contested_block_id=inp.headers[1].id,
                        claimed_difficulty=999)
    assert check_alt_chain(alt) is False


@pytest.mark.parametrize("d1,d2,expected", [(6, 7, True), (7, 7, False),
                                            (7, 6, False), (0, 1, True)])
def test_admit_counter_proof(d1, d2, expected):
    assert admit_counter_proof(d1, d2) is expected


def test_exclusivity_on_forks():
    # if checkChain(H1) and checkAltChain(H2) and D2 > D1 then H1 is not
    # canonical; exercised over forks of depth <= 4
    for depth in (2, 3, 4):
        inp, sec = build_instance()
        h1 = inp.headers[0]
        parent, alt_headers = h1.id, [h1]
        for _ in range(depth):
            b = sec.mine_block(parent, [], difficulty=5)
            alt_headers.append(b)
            parent = b.id
        d2 = sum(h.difficulty for h in alt_headers)
        alt = AltChainInput(tuple(alt_headers), inp.pegin_proof,
                            inp.pegin_header, inp.headers[1].id, d2)
        if check_chain(inp) and check_alt_chain(alt) and \
                admit_counter_proof(inp.claimed_difficulty, d2):
            assert not sec.is_canonical(inp.headers[-1].id)
