import pytest

from bridgesim.errors import (AlreadyClosed, BridgeSimError,
                             ConcurrencyLimit, EnablerUnavailable, Insolvent,
                             InsufficientConfirmations, MalformedInput,
                             MissingSignature, NoCapacity, NotLinked,
                             NotSameOperator, NotTriggered, UnknownId,
                             WrongDenomination)
from bridgesim import harness
from bridgesim.harness import Runner, Scenario, Strategy
from bridgesim.econ import DISPUTE_ACTION_VBYTES, CostTable
from bridgesim.protocol import (Bridge, PegIn, PegOutState,
                                contest_fees, dispute_fees)
from bridgesim.txgraph import (EnablerState, TxKind, VmxoState,
                              build_packet_templates)
import pins
from test_txgraph import enabler_slots

DENOM = 100_000_000


def make_bridge(n=3, vmxos=2, **kw):
    b = Bridge([f"f{i}" for i in range(n)], vmxos, DENOM, **kw)
    b.graph.sign_all()
    return b


def fund_user(b, user):
    b.balances[f"user:{user}:src"] = b.denomination


def mine_source(b, txs):
    blk = b.source.mine_block(b.source.tip().id, txs)
    b.now += 1
    return blk.id


def mine_secondary(b, txs):
    blk = b.secondary.mine_block(b.secondary.tip().id, txs)
    b.now += 1
    return blk.id


def do_pegin(b, user="u0", funded=True):
    """The index of ``user``'s executed peg-in."""
    if funded:
        fund_user(b, user)
    i = b.request_pegin(user, b.denomination)
    b.sign_pegin(i, user)
    for f in b.functionaries:
        b.sign_pegin(i, f)
    tx = b.broadcast_pegin(i)
    b.pegins[i].deposit_block = mine_source(b, [tx])
    for _ in range(b.source_confirmations):
        mine_source(b, [f"pad{b.now}"])
    b.execute_pegin(i)
    return i


def do_linked_pegout(b, user="u0"):
    """The index of ``user``'s burnt, confirmed and linked peg-out."""
    i = b.request_pegout(user, b.denomination)
    pegout = b.pegouts[i]
    pegout.burn_block = mine_secondary(b, [pegout.burn_tx])
    for _ in range(b.secondary_confirmations):
        mine_secondary(b, [f"spad{b.now}"])
    b.link_pegout(i)
    return i


def test_deposit_equals_econ_formula():
    b = make_bridge(n=4, fee_rate=3)
    assert b.deposit_per_functionary == 270332 * 3 * 3
    assert b.balances["deposit:f0"] == b.deposit_per_functionary


def test_functionary_accounts_open_as_fund_opens_them():
    # each functionary's deposit then its wallet, in the order of the ids
    b = make_bridge(n=4, fee_rate=3)
    deposit = b.deposit_per_functionary
    assert list(b.balances.items()) == [
        (account, amount) for f in b.functionaries
        for account, amount in ((f"deposit:{f}", deposit),
                                (f"wallet:{f}", 50 * DENOM + 100 * deposit))]


@pytest.mark.parametrize("ids", [["f0", "f0", "f1"], ["f0", "f1", "f0"]],
                         ids=["adjacent", "apart"])
def test_repeated_functionary_id_refused(ids):
    # f0 would open its deposit twice and hold two positions
    with pytest.raises(MalformedInput, match="not distinct"):
        Bridge(ids, 2, DENOM)
    with pytest.raises(MalformedInput):
        build_packet_templates(ids, 2, DENOM)


@pytest.mark.parametrize("bad", ["f 0", "f0\t", "\nf0", "f\u00a00", ""],
                         ids=["space", "tab", "newline", "nbsp", "empty"])
def test_functionary_id_with_whitespace_refused(bad):
    # its accounts would split a logged line that read_log then refuses
    with pytest.raises(MalformedInput, match="without whitespace"):
        Bridge([bad, "f1"], 2, DENOM)
    with pytest.raises(MalformedInput):
        build_packet_templates(["f1", bad], 2, DENOM)


def test_pegin_wrong_denomination():
    b = make_bridge()
    with pytest.raises(WrongDenomination):
        b.request_pegin("u0", DENOM + 1)


def test_pegin_requires_all_signatures():
    b = make_bridge()
    fund_user(b, "u0")
    i = b.request_pegin("u0", DENOM)
    b.sign_pegin(i, "u0")
    b.pegins[i].deposit_block = mine_source(b, [b.broadcast_pegin(i)])
    for _ in range(3):
        mine_source(b, ["pad"])
    with pytest.raises(MissingSignature):
        b.execute_pegin(i)


def test_pegin_requires_confirmations():
    b = make_bridge()
    fund_user(b, "u0")
    i = b.request_pegin("u0", DENOM)
    for s in ["u0"] + list(b.functionaries):
        b.sign_pegin(i, s)
    b.pegins[i].deposit_block = mine_source(b, [b.broadcast_pegin(i)])
    with pytest.raises(InsufficientConfirmations):
        b.execute_pegin(i)


def test_pegin_locks_vmxo_and_mints():
    b = make_bridge()
    vmxo = b.pegins[do_pegin(b)].vmxo_id
    assert b.graph.vmxos[vmxo].state == VmxoState.LOCKED
    assert b.balances["user:u0:wrapped"] == DENOM
    assert b.balances["wrapped-issuance"] == -DENOM
    assert b.balances[f"vmxo:{vmxo}"] == DENOM


def test_pegin_capacity_exhausted():
    b = make_bridge(vmxos=1)
    do_pegin(b, "u0")
    with pytest.raises(NoCapacity):
        b.request_pegin("u1", DENOM)


def test_pegout_links_oldest_locked_vmxo():
    b = make_bridge()
    p0 = do_pegin(b, "u0")
    do_pegin(b, "u1")
    pegout = b.pegouts[do_linked_pegout(b, "u0")]
    assert pegout.vmxo_id == b.pegins[p0].vmxo_id
    assert pegout.state == PegOutState.LINKED
    assert b.linked == {pegout.vmxo_id: pegout}


def test_refused_pegout_leaves_no_ghost():
    b = make_bridge()
    do_pegin(b, "u0")
    balances, rows = dict(b.balances), list(b.rows)
    # u1 holds no wrapped balance to burn
    with pytest.raises(Insolvent):
        b.request_pegout("u1", DENOM)
    assert b.pegouts == [] and b.rows == rows
    assert b.balances == balances
    assert b.request_pegout("u0", DENOM) == 0
    assert len(b.pegouts) == 1 and b.pegouts[0].burn_tx == "burn:u0:1"


def test_front_by_unknown_operator_refused():
    b = make_bridge()
    do_pegin(b)
    i = do_linked_pegout(b)
    pegout = b.pegouts[i]
    before = (list(b.rows), dict(b.balances), pegout.state)
    with pytest.raises(UnknownId):
        b.front_funds(i, "f7")
    assert (b.rows, b.balances, pegout.state) == before
    assert pegout.operator is None and pegout.fronted_tx is None


def test_second_front_refused_before_any_change():
    # f1 is not the operator in flight: the peg-out's state alone refuses
    b = make_bridge()
    do_pegin(b)
    i = do_linked_pegout(b)
    pegout = b.pegouts[i]
    b.front_funds(i, "f0")
    before = (list(b.rows), dict(b.balances), pegout.state,
              pegout.operator, pegout.fronted_tx)
    with pytest.raises(NotTriggered):
        b.front_funds(i, "f1")
    assert (b.rows, b.balances, pegout.state, pegout.operator,
            pegout.fronted_tx) == before
    assert b.balances["user:u0:src"] == DENOM - DENOM // 1000
    assert b.open_pegouts("f0") == [pegout] and b.open_pegouts("f1") == []


def test_kickoff_only_on_locked_vmxo():
    b = make_bridge()
    do_pegin(b)
    vmxo = b.pegouts[do_linked_pegout(b)].vmxo_id
    b.publish_kickoff(vmxo, "f1")
    rows = list(b.rows)
    with pytest.raises(NotTriggered):
        b.publish_kickoff(vmxo, "f1")
    assert b.rows == rows
    assert sum(key == "kickoff" for _, key, _ in b.rows) == 1


def test_front_requires_burn_confirmations():
    b = make_bridge()
    do_pegin(b)
    i = b.request_pegout("u0", DENOM)
    b.pegouts[i].burn_block = mine_secondary(b, [b.pegouts[i].burn_tx])
    b.link_pegout(i)
    with pytest.raises(InsufficientConfirmations):
        b.front_funds(i, "f0")


def at_the_edge(b, chain, block, needed, call):
    """Pad ``block`` to one confirmation short of ``needed``, where ``call``
    is refused and changes nothing; then one block more, where it runs."""
    mine = mine_source if chain is b.source else mine_secondary
    while chain.confirmations(block) < needed - 1:
        mine(b, [f"pad{b.now}"])
    before = (list(b.rows), dict(b.balances))
    with pytest.raises(InsufficientConfirmations):
        call()
    assert (b.rows, b.balances) == before
    mine(b, [f"pad{b.now}"])
    assert chain.confirmations(block) == needed == 3
    call()


def test_pegin_mints_at_exactly_its_confirmations():
    # the deposit's block and two on it are three confirmations
    b = make_bridge()
    fund_user(b, "u0")
    i = b.request_pegin("u0", DENOM)
    pegin = b.pegins[i]
    b.sign_pegin(i, "u0", *b.functionaries)
    pegin.deposit_block = mine_source(b, [b.broadcast_pegin(i)])
    at_the_edge(b, b.source, pegin.deposit_block, b.source_confirmations,
                lambda: b.execute_pegin(i))
    assert b.graph.vmxos[pegin.vmxo_id].state == VmxoState.LOCKED


def test_front_counts_a_burn_at_exactly_its_confirmations():
    b = make_bridge()
    do_pegin(b)
    i = b.request_pegout("u0", DENOM)
    pegout = b.pegouts[i]
    pegout.burn_block = mine_secondary(b, [pegout.burn_tx])
    b.link_pegout(i)
    at_the_edge(b, b.secondary, pegout.burn_block, b.secondary_confirmations,
                lambda: b.front_funds(i, "f0"))
    assert pegout.state == PegOutState.FRONTED


def test_front_proven_at_exactly_its_confirmations():
    b = make_bridge()
    do_pegin(b)
    i = do_linked_pegout(b)
    front_block = mine_source(b, [b.front_funds(i, "f0")])
    at_the_edge(b, b.source, front_block, b.source_confirmations,
                lambda: b.prove_front(i, front_block))
    assert b.pegouts[i].state == PegOutState.PROVEN


def front_and_prove(b, i, operator):
    """``operator`` fronts peg-out ``i`` and proves its confirmed front."""
    front_block = mine_source(b, [b.front_funds(i, operator)])
    for _ in range(b.source_confirmations):
        mine_source(b, ["pad"])
    b.prove_front(i, front_block)


def full_honest_pegout(b, i, operator):
    front_and_prove(b, i, operator)
    b.publish_kickoff(b.pegouts[i].vmxo_id, operator)
    b.unlock(b.pegouts[i].vmxo_id)


def test_honest_pegout_pays_operator_from_vmxo():
    b = make_bridge()
    do_pegin(b)
    i = do_linked_pegout(b)
    before = b.balances["wallet:f0"]
    full_honest_pegout(b, i, "f0")
    assert b.pegouts[i].state == PegOutState.UNLOCKED
    assert b.balances[f"vmxo:{b.pegouts[i].vmxo_id}"] == 0
    # operator nets the vmxo minus the fronted amount minus fees
    fronted = DENOM - DENOM // 1000
    fees = (CostTable.commit_proof + 500) * b.fee_rate
    assert b.balances["wallet:f0"] == before - fronted + DENOM - fees


def test_front_separation_interval():
    b = make_bridge(vmxos=2, t_sep=1000)
    do_pegin(b, "u0")
    do_pegin(b, "u1")
    p1 = do_linked_pegout(b, "u0")
    front_and_prove(b, p1, "f0")
    b.publish_kickoff(b.pegouts[p1].vmxo_id, "f0")
    p2 = do_linked_pegout(b, "u1")
    with pytest.raises(ConcurrencyLimit):
        b.front_funds(p2, "f0")


def test_unlock_requires_open_kickoff():
    b = make_bridge()
    do_pegin(b)
    i = do_linked_pegout(b)
    b.front_funds(i, "f0")
    with pytest.raises(NotTriggered):
        b.unlock(b.pegouts[i].vmxo_id)


def test_slash_burns_enablers_and_pays_pot():
    b = make_bridge()
    do_pegin(b)
    i = do_linked_pegout(b)
    vmxo = b.pegouts[i].vmxo_id
    b.front_funds(i, "f1")
    b.publish_kickoff(vmxo, "f1")
    b.pay_dispute_fee("f0", "challenge")
    pot = b.balances["deposit:f1"]
    f0_before = b.balances["wallet:f0"]
    b.slash("f1", "f0", ["f0"], vmxo)
    assert b.slashed == {"f1"}
    assert b.balances["deposit:f1"] == 0
    assert b.balances["wallet:f0"] == f0_before + pot
    assert all(b.graph.enabler_state("f1", *slot) == EnablerState.BURNT
               for slot in enabler_slots(b.graph, "f1"))


def test_contest_fees_start_at_the_kickoff_or_after_the_last_slash():
    # a contest's fees: from the commit-proof row before its VMXO's last
    # kick-off, another VMXO's kick-off aside, up to the row it ends at;
    # after a later slash, only what follows that slash
    def fee(party, amount, why="dispute:challenge"):
        return (0, "transfer", (amount, "fees", f"wallet:{party}", why))

    rows = [fee("f1", 1), fee("f0", 2, "dispute:commit-proof"),
            (0, "kickoff", (False, "f0", "v0")), fee("f1", 4),
            (0, "kickoff", (True, "f2", "v1")), fee("f2", 8, "force-close"),
            (0, "transfer", (16, "wallet:f1", "deposit:f0", "slash"))]
    assert contest_fees(rows, len(rows), "v0") == {"f0": 2, "f1": 4, "f2": 8}
    assert contest_fees(rows, 4, "v0") == {"f0": 2, "f1": 4}
    assert contest_fees(rows, len(rows), "v1") == {"f1": 4, "f2": 8}
    assert contest_fees(rows, len(rows), "v9") == \
        {"f0": 2, "f1": 5, "f2": 8}
    rows += [(0, "slashed", ("f0", 16, 0, "f1")), fee("f1", 32)]
    assert contest_fees(rows, len(rows), "v0") == {"f1": 32}
    assert contest_fees(rows, len(rows) - 2, "v0") == \
        {"f0": 2, "f1": 4, "f2": 8}


def test_publish_challenges_pays_and_logs_as_one_fee_at_a_time():
    # one call for every challenger gives what paying and logging each
    # challenge in turn gives
    batch, each = make_bridge(n=4, fee_rate=3), make_bridge(n=4, fee_rate=3)
    for b in (batch, each):
        b.now += 5
    batch.account_publications([(0, ch, "challenge")
                                for ch in ("f2", "f0", "f3")], 5)
    for ch in ("f2", "f0", "f3"):
        each.pay_dispute_fee(ch, "challenge")
        each.emit("dispute_pub", "challenge", ch, 5)
    assert batch.rows == each.rows and len(batch.rows) == 6
    assert batch.balances == each.balances
    fee = 3 * DISPUTE_ACTION_VBYTES["challenge"]
    assert dispute_fees(batch.rows) == dispute_fees(each.rows) == \
        {"f2": fee, "f0": fee, "f3": fee}
    batch.account_publications([], 5)
    assert batch.rows == each.rows


def test_slash_idempotent():
    b = make_bridge()
    b.slash("f1", "f0", [], "pkt0:vmxo0")
    total = sum(b.balances.values())
    b.slash("f1", "f2", [], "pkt0:vmxo0")
    assert sum(b.balances.values()) == total
    assert b.balances["deposit:f1"] == 0


def test_slash_refuses_unknown_loser_before_any_change():
    b = make_bridge()
    balances, rows = dict(b.balances), list(b.rows)
    with pytest.raises(UnknownId):
        b.slash("f7", "f0", ["f0"], "pkt0:vmxo0")
    assert b.slashed == set() and b.graph.spent == set()
    assert b.graph.used_enablers == {}
    assert b.balances == balances and b.rows == rows


def drain(party):
    """A setup that empties the party's wallet before the snapshot, by a
    logged transfer that is no dispute fee."""
    def setup(b, linked):
        wallet = f"wallet:{party}"
        b.transfer(wallet, "fees", b.balances[wallet], "drain")
    return setup


def unmined_pegin(b, linked):
    """A requested, signed and broadcast peg-in for vmxo3, whose deposit was
    never mined, its block set to u0's: deep, and unrelated."""
    fund_user(b, "u3")
    i = b.request_pegin("u3", DENOM)
    b.sign_pegin(i, "u3", *b.functionaries)
    b.broadcast_pegin(i)
    b.pegins[i].deposit_block = b.pegins[0].deposit_block


def burnt_elsewhere(b, linked):
    """The linked peg-out's burn block set to u0's, which holds u0's burn."""
    b.pegouts[linked].burn_block = b.pegouts[0].burn_block


def drain_after_second_kickoff(b, linked):
    # f1 kicks off vmxo1 too, so that vmxo0 and vmxo1 can be force-closed
    b.publish_kickoff("pkt0:vmxo1", "f1")
    drain("f0")(b, linked)


def slash_f1(b, linked):
    """f1 is slashed over vmxo0, which burns each of its enablers."""
    b.slash("f1", "f0", [], "pkt0:vmxo0")


# each refused call, on the bridge of ``refusal_bridge``: the error and the
# call, given the bridge and the indices of a linked peg-out, whose VMXO
# vmxo1 is locked, and of a peg-out that was never linked; and optionally a
# setup, given the bridge and the linked peg-out's index, run before the
# state is taken.  Index 3 names no peg-in and no peg-out
REFUSALS = {
    "kickoff-by-unknown-operator": (
        UnknownId, lambda b, linked, unlinked:
        b.publish_kickoff("pkt0:vmxo1", "f7")),
    "kickoff-unlinked": (
        NotTriggered, lambda b, linked, unlinked:
        b.publish_kickoff("pkt0:vmxo3", "f1")),
    "unlock-unlinked": (
        NotTriggered, lambda b, linked, unlinked: b.unlock("pkt0:vmxo2")),
    "front-kicked-off-pegout": (
        NotTriggered, lambda b, linked, unlinked: b.front_funds(0, "f0")),
    "front-unlinked-pegout": (
        NotLinked, lambda b, linked, unlinked: b.front_funds(unlinked, "f0")),
    # these two logged f1's kick-off, the proven one honest=True, so that
    # unlock paid f1 the VMXO that f0 fronted
    "kickoff-of-a-pegout-another-fronted": (
        NotTriggered, lambda b, linked, unlinked:
        b.publish_kickoff("pkt0:vmxo1", "f1"),
        lambda b, linked: b.front_funds(linked, "f0")),
    "kickoff-of-a-pegout-another-proved": (
        NotTriggered, lambda b, linked, unlinked:
        b.publish_kickoff("pkt0:vmxo1", "f1"),
        lambda b, linked: front_and_prove(b, linked, "f0")),
    "kickoff-of-unknown-vmxo": (
        UnknownId, lambda b, linked, unlinked:
        b.publish_kickoff("pkt0:vmxo9", "f0")),
    "unlock-of-unknown-vmxo": (
        UnknownId, lambda b, linked, unlinked: b.unlock("pkt0:vmxo9")),
    "force-close-unknown-second-vmxo": (
        UnknownId, lambda b, linked, unlinked:
        b.force_close("pkt0:vmxo0", "pkt0:vmxo9", "f0")),
    "force-close-unknown-first-vmxo": (
        UnknownId, lambda b, linked, unlinked:
        b.force_close("pkt0:vmxo9", "pkt0:vmxo0", "f0")),
    "force-close-already-closed": (
        AlreadyClosed, lambda b, linked, unlinked:
        b.force_close("pkt0:vmxo0", "pkt0:vmxo1", "f0")),
    "force-close-not-same-operator": (
        NotSameOperator, lambda b, linked, unlinked:
        b.force_close("pkt0:vmxo0", "pkt0:vmxo1", "f0"),
        lambda b, linked: b.publish_kickoff("pkt0:vmxo1", "f2")),
    "adhoc-theft-of-unknown-vmxo": (
        UnknownId, lambda b, linked, unlinked:
        b.adhoc_theft("pkt0:vmxo9", "f0")),
    "adhoc-theft-by-unknown-thief": (
        UnknownId, lambda b, linked, unlinked:
        b.adhoc_theft("pkt0:vmxo1", "nobody")),
    "execute-executed-pegin": (
        NotTriggered, lambda b, linked, unlinked: b.execute_pegin(1)),
    "execute-pegin-never-requested": (
        UnknownId, lambda b, linked, unlinked: b.execute_pegin(3)),
    "relink-linked-pegout": (
        NotTriggered, lambda b, linked, unlinked: b.link_pegout(linked)),
    # before they were refused, these five minted, fronted, proved, linked
    # and fronted
    "execute-pegin-deposit-not-in-its-block": (
        InsufficientConfirmations, lambda b, linked, unlinked:
        b.execute_pegin(3), unmined_pegin),
    "front-burn-not-in-its-block": (
        InsufficientConfirmations, lambda b, linked, unlinked:
        b.front_funds(linked, "f0"), burnt_elsewhere),
    "prove-front-not-in-its-block": (
        InsufficientConfirmations, lambda b, linked, unlinked:
        b.prove_front(linked, b.pegins[0].deposit_block),
        lambda b, linked: b.front_funds(linked, "f0")),
    "link-pegout-never-requested": (
        UnknownId, lambda b, linked, unlinked: b.link_pegout(3)),
    "front-pegout-never-requested": (
        UnknownId, lambda b, linked, unlinked: b.front_funds(3, "f0")),
    "prove-unlinked-pegout": (
        NotTriggered, lambda b, linked, unlinked:
        b.prove_front(unlinked, b.pegins[0].deposit_block)),
    "prove-unfronted-pegout": (
        NotTriggered, lambda b, linked, unlinked:
        b.prove_front(linked, b.pegins[0].deposit_block)),
    "prove-front-of-a-pegout-never-requested": (
        UnknownId, lambda b, linked, unlinked:
        b.prove_front(3, b.pegins[0].deposit_block)),
    "recycle-pegout-never-requested": (
        UnknownId, lambda b, linked, unlinked: b.recycle_enablers(3)),
    "recycle-pegout-in-flight": (
        NotTriggered, lambda b, linked, unlinked: b.recycle_enablers(linked)),
    "pegout-of-another-amount": (
        WrongDenomination, lambda b, linked, unlinked:
        b.request_pegout("u2", DENOM - 1)),
    # a float equal to the denomination would log amount=100000000.0, which
    # read_log refuses; vmxo3 awaits u3's peg-in, which gives u3 DENOM
    # wrapped to burn
    "pegin-of-a-float-amount": (
        WrongDenomination, lambda b, linked, unlinked:
        b.request_pegin("u3", float(DENOM))),
    "pegout-of-a-float-amount": (
        WrongDenomination, lambda b, linked, unlinked:
        b.request_pegout("u3", float(DENOM)),
        lambda b, linked: do_pegin(b, "u3")),
    "dispute-fee-for-unknown-action": (
        MalformedInput, lambda b, linked, unlinked:
        b.pay_dispute_fee("f0", "bribe")),
    "publication-of-unknown-action": (
        MalformedInput, lambda b, linked, unlinked:
        b.account_publications([(3, "f0", "bribe")], 0)),
    "slash-paying-unknown-winner": (
        UnknownId, lambda b, linked, unlinked:
        b.slash("f0", "f9", [], "pkt0:vmxo0")),
    "slash-refunding-unknown-challenger": (
        UnknownId, lambda b, linked, unlinked:
        b.slash("f1", "f0", ["f0", "f9"],
                "pkt0:vmxo0")),
    "slash-on-unknown-vmxo": (
        UnknownId, lambda b, linked, unlinked:
        b.slash("f1", "f0", ["f0"], "pkt0:vmxo9")),
    "slash-naming-loser-as-winner": (
        MalformedInput, lambda b, linked, unlinked:
        b.slash("f0", "f0", ["f1"], "pkt0:vmxo0")),
    "slash-loser-among-its-challengers": (
        MalformedInput, lambda b, linked, unlinked:
        b.slash("f1", "f0", ["f0", "f1"],
                "pkt0:vmxo0")),
    # each of these three wrote before its fee's transfer refused
    "kickoff-by-insolvent-operator": (
        Insolvent, lambda b, linked, unlinked:
        b.publish_kickoff("pkt0:vmxo1", "f2"), drain("f2")),
    "unlock-by-insolvent-operator": (
        Insolvent, lambda b, linked, unlinked: b.unlock("pkt0:vmxo0"),
        drain("f1")),
    "force-close-by-insolvent-closer": (
        Insolvent, lambda b, linked, unlinked:
        b.force_close("pkt0:vmxo0", "pkt0:vmxo1", "f0"),
        drain_after_second_kickoff),
    # a slashed operator's enablers are burnt; these logged a kick-off by
    # it, and an unlock that paid it and turned its burnt enabler consumed
    "kickoff-unlinked-by-slashed-operator": (
        EnablerUnavailable, lambda b, linked, unlinked:
        b.publish_kickoff("pkt0:vmxo2", "f1"), slash_f1),
    "kickoff-of-unfronted-pegout-by-slashed-operator": (
        EnablerUnavailable, lambda b, linked, unlinked:
        b.publish_kickoff("pkt0:vmxo1", "f1"), slash_f1),
    "unlock-after-operator-slashed": (
        EnablerUnavailable, lambda b, linked, unlinked: b.unlock("pkt0:vmxo2"),
        lambda b, linked: b.publish_kickoff("pkt0:vmxo2", "f1"), slash_f1),
}


def refusal_bridge():
    """A bridge where a raw kick-off by f1 is open on vmxo0, whose peg-out
    0 is linked and unfronted; vmxo1 is linked to peg-out 1 and locked;
    vmxo2 is locked and unlinked, as peg-out 2 was burnt but not linked;
    and vmxo3 awaits a peg-in.  The bridge and the indices 1 and 2."""
    b = make_bridge(vmxos=4)
    for user in ("u0", "u1", "u2"):
        do_pegin(b, user)
    b.publish_kickoff(b.pegouts[do_linked_pegout(b, "u0")].vmxo_id, "f1")
    return b, do_linked_pegout(b, "u1"), b.request_pegout("u2", DENOM)


def fingerprint(b):
    """Everything a refused call must leave as it was."""
    return (list(b.rows), dict(b.balances), set(b.graph.spent),
            dict(b.linked), set(b.slashed),
            {v: set(s) for v, s in b.graph.used_enablers.items()},
            {v: (x.state, x.operator) for v, x in b.graph.vmxos.items()},
            [(p.signatures.copy(), p.deposit_tx, p.deposit_block)
             for p in b.pegins],
            [(p.state, p.operator, p.fronted_tx, p.vmxo_id, p.burn_block)
             for p in b.pegouts],
            dict(b.last_kickoff_tick))


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refusal_changes_nothing(case):
    b, linked, unlinked = refusal_bridge()
    error, call, *setup = REFUSALS[case]
    for prepare in setup:
        prepare(b, linked)
    before = fingerprint(b)
    with pytest.raises(error):
        call(b, linked, unlinked)
    assert fingerprint(b) == before


# each call that takes a peg-in or peg-out index, given the bridge and one
HANDLE_CALLS = {
    "sign_pegin": lambda b, i: b.sign_pegin(i, "u0"),
    "broadcast_pegin": lambda b, i: b.broadcast_pegin(i),
    "execute_pegin": lambda b, i: b.execute_pegin(i),
    "link_pegout": lambda b, i: b.link_pegout(i),
    "front_funds": lambda b, i: b.front_funds(i, "f0"),
    "prove_front": lambda b, i: b.prove_front(i, b.pegins[0].deposit_block),
    "recycle_enablers": lambda b, i: b.recycle_enablers(i),
}


@pytest.mark.parametrize("bad", [-1, len, True, "0", 1.0, None],
                         ids=["negative", "len", "true", "str", "float",
                              "none"])
@pytest.mark.parametrize("call", list(HANDLE_CALLS))
def test_unknown_index_refused_before_any_write(call, bad):
    # only an int in range names a record: -1 would index from the end,
    # True would be 1, and the others no list index
    b, _, _ = refusal_bridge()
    if bad is len:
        bad = len(b.pegins if call.endswith("pegin") else b.pegouts)
    before = fingerprint(b)
    with pytest.raises(UnknownId):
        HANDLE_CALLS[call](b, bad)
    assert fingerprint(b) == before


def test_executed_pegin_does_not_mint_again():
    # the user still holds a second denomination, so the VMXO's state alone
    # stands between a repeated call and a second mint
    b = make_bridge()
    i = do_pegin(b)
    fund_user(b, "u0")
    before = (list(b.rows), dict(b.balances))
    with pytest.raises(NotTriggered):
        b.execute_pegin(i)
    assert (b.rows, b.balances) == before
    assert b.balances["user:u0:wrapped"] == DENOM
    assert b.balances[f"vmxo:{b.pegins[i].vmxo_id}"] == DENOM


def test_pegin_never_requested_leaves_its_vmxo_to_a_request():
    # before any request, index 0 names no peg-in: signing, broadcasting
    # and executing it are refused before any write, and the peg-in that a
    # request then makes takes the first VMXO and mints
    b = make_bridge()
    fund_user(b, "u9")
    balances = dict(b.balances)
    for call in (lambda: b.sign_pegin(0, "u9", *b.functionaries),
                 lambda: b.broadcast_pegin(0), lambda: b.execute_pegin(0)):
        with pytest.raises(UnknownId):
            call()
    assert b.rows == [] and b.pegins == [] and b.balances == balances
    assert b.pegins[do_pegin(b, "u1")].vmxo_id == b.graph.vmxo_ids[0]
    assert b.balances["user:u1:wrapped"] == DENOM


def test_pegout_never_requested_is_neither_linked_nor_fronted():
    # u0's burn is the only peg-out, index 0: index 1 names none, so it is
    # neither linked nor fronted, before any write, and u0's own peg-out
    # is then linked and fronted
    b = make_bridge()
    do_pegin(b, "u0")
    do_pegin(b, "u1")
    real = b.request_pegout("u0", DENOM)
    b.pegouts[real].burn_block = mine_secondary(b, [b.pegouts[real].burn_tx])
    for _ in range(b.secondary_confirmations):
        mine_secondary(b, [f"spad{b.now}"])
    before = (list(b.rows), dict(b.balances))
    with pytest.raises(UnknownId):
        b.link_pegout(real + 1)
    with pytest.raises(UnknownId):
        b.front_funds(real + 1, "f0")
    assert (b.rows, b.balances) == before and not b.linked
    assert b.link_pegout(real) == "pkt0:vmxo0"
    b.front_funds(real, "f0")
    assert b.balances["user:u0:src"] == DENOM - DENOM // 1000


def test_unfunded_pegin_leaves_its_vmxo_awaiting_pegin():
    b = make_bridge()
    with pytest.raises(Insolvent):
        do_pegin(b, funded=False)
    vmxo = b.pegins[0].vmxo_id
    assert b.graph.vmxos[vmxo].state == VmxoState.AWAITING_PEGIN
    fund_user(b, "u0")
    b.execute_pegin(0)
    assert b.graph.vmxos[vmxo].state == VmxoState.LOCKED


def test_insolvent_calls_raise_a_package_error_and_change_nothing():
    # u1's peg-in was never funded and u2 holds nothing wrapped to burn
    b = make_bridge(vmxos=3)
    do_pegin(b, "u0")
    with pytest.raises(Insolvent):
        do_pegin(b, "u1", funded=False)
    unfunded = len(b.pegins) - 1

    def state():
        return (list(b.rows), dict(b.balances), list(b.pegouts),
                {v: b.graph.vmxos[v].state for v in b.graph.vmxo_ids})

    before = state()
    for call in (lambda: b.execute_pegin(unfunded),
                 lambda: b.request_pegout("u2", DENOM)):
        with pytest.raises(Insolvent):
            call()
        assert state() == before
    assert before[3][b.pegins[unfunded].vmxo_id] == VmxoState.AWAITING_PEGIN
    # a negative amount from any account, even from wrapped-issuance, the
    # one account that may go negative
    for frm in ("user:u0:wrapped", "wrapped-issuance", "nobody"):
        with pytest.raises(Insolvent, match="negative transfer -1"):
            b.transfer(frm, "user:u0:wrapped", -1, "x")
        assert state() == before
    # a package error, and still the ValueError it used to be
    assert issubclass(Insolvent, BridgeSimError)
    assert issubclass(Insolvent, ValueError)


def test_ledger_refuses_a_zero_transfer_from_an_unopened_account():
    # 0 is no more than the balance an absent account reads as, but there is
    # no account to pay it from; an opened empty one pays it
    b = Bridge(["f0", "f1"], 1, DENOM)
    b.balances.clear()
    with pytest.raises(Insolvent, match="no account nobody"):
        b.transfer("nobody", "fees", 0, "x")
    assert b.balances == {} and b.rows == []
    b.balances["empty"] = 0
    b.transfer("empty", "fees", 0, "x")
    assert b.balances == {"empty": 0, "fees": 0}
    assert b.events == ["t=0 seq=1 ev=transfer amount=0 dst=fees src=empty "
                        "why=x"]



def test_bridge_refuses_a_zero_transfer_from_an_unopened_account():
    b = Bridge(["f0", "f1"], 1, 100_000_000)
    balances = dict(b.balances)
    with pytest.raises(Insolvent):
        b.transfer("nobody", "fees", 0, "x")
    assert b.rows == [] and b.balances == balances


def test_slash_reimburses_challenger_costs_first():
    b = make_bridge(n=3)
    b.pay_dispute_fee("f0", "challenge")
    cost = b.pay_dispute_fee("f2", "challenge")
    f2_before = b.balances["wallet:f2"]
    b.slash("f1", "f0", ["f0", "f2"], "pkt0:vmxo0")
    # f2's challenge fee comes back even though f0 took the remainder
    assert b.balances["wallet:f2"] == f2_before + cost


def _refunds(b, since=0):
    """The ``(wallet, amount)`` of each cost-reimbursement from row
    ``since`` on, in order."""
    return [(values[1], values[0]) for _, key, values in b.rows[since:]
            if key == "transfer" and values[3] == "cost-reimbursement"]


def test_two_contests_refund_each_challenger_its_fees_once():
    # f1 loses its raw kick-off on vmxo0 to f0 and f2; then f2 loses a
    # challenge of f0's kick-off on vmxo1.  Each slash refunds the fees of
    # its own contest, f0's commit-proof included, and f0's challenge of
    # the first contest is not refunded again by the second
    b = make_bridge(n=3)
    for user in ("u0", "u1"):
        do_pegin(b, user)
    first, second = (b.pegouts[do_linked_pegout(b, user)].vmxo_id
                     for user in ("u0", "u1"))
    b.publish_kickoff(first, "f1")
    challenge = b.pay_dispute_fee("f0", "challenge")
    b.pay_dispute_fee("f2", "challenge")
    start = len(b.rows)
    b.slash("f1", "f0", ["f0", "f2"], first)
    assert _refunds(b, start) == [("wallet:f0", challenge),
                                  ("wallet:f2", challenge)]
    b.publish_kickoff(second, "f0")
    commit = CostTable.commit_proof * b.fee_rate
    b.pay_dispute_fee("f2", "challenge")
    hashes = b.pay_dispute_fee("f0", "publish-hashes")
    start = len(b.rows)
    b.slash("f2", "f0", ["f0"], second)
    assert _refunds(b, start) == [("wallet:f0", commit + hashes)]
    assert b.events[start + 3].endswith(
        f" ev=slashed loser=f2 pot={b.deposit_per_functionary} "
        f"reimbursed={commit + hashes} winner=f0")


def test_second_slash_in_a_contest_refunds_only_fees_paid_since_the_first():
    b = make_bridge(n=4)
    do_pegin(b)
    vmxo = b.pegouts[do_linked_pegout(b)].vmxo_id
    b.publish_kickoff(vmxo, "f1")
    challenge = b.pay_dispute_fee("f0", "challenge")
    b.pay_dispute_fee("f2", "challenge")
    b.slash("f1", "f0", ["f0", "f2"], vmxo)
    assert _refunds(b) == [("wallet:f0", challenge), ("wallet:f2", challenge)]
    # f2 loses too, with no kick-off since: f0's challenge is not refunded
    # again, only what it paid after the first slash
    start = len(b.rows)
    b.slash("f2", "f0", ["f0"], vmxo)
    assert _refunds(b, start) == []
    choice = b.pay_dispute_fee("f0", "publish-choice")
    start = len(b.rows)
    b.slash("f3", "f0", ["f0"], vmxo)
    assert _refunds(b, start) == [("wallet:f0", choice)]


def test_two_slashes_refund_a_fee_paid_once_once():
    # f0's challenge and choice, 858 sats, came back from both f1's and
    # f2's deposits when the refund was a lifetime total
    b = make_bridge(n=3)
    b.pay_dispute_fee("f0", "challenge")
    b.pay_dispute_fee("f0", "publish-choice")
    v0, v1 = b.graph.vmxo_ids
    b.slash("f1", "f0", ["f0"], v0)
    b.slash("f2", "f0", ["f0"], v1)
    assert _refunds(b) == [("wallet:f0", 858)]


def test_slash_whose_refunds_use_the_whole_pot_pays_no_remainder():
    # f0's fees in the contest exceed f1's whole deposit: the refund is the
    # pot, and no zero slash transfer to the winner follows it
    b = make_bridge(n=2)
    do_pegin(b)
    vmxo = b.pegouts[do_linked_pegout(b)].vmxo_id
    b.publish_kickoff(vmxo, "f1")
    pot = b.deposit_per_functionary
    while dispute_fees(b.rows).get("f0", 0) <= pot:
        b.pay_dispute_fee("f0", "execute-leaf")
    start = len(b.rows)
    b.slash("f1", "f0", ["f0"], vmxo)
    assert _refunds(b, start) == [("wallet:f0", pot)]
    assert [values[3] for _, key, values in b.rows[start:]
            if key == "transfer"] == ["cost-reimbursement"]
    assert f" ev=slashed loser=f1 pot={pot} reimbursed={pot} winner=f0" \
        in "\n".join(b.events[start:])
    assert b.balances["deposit:f1"] == 0


def test_slash_refunds_later_challengers_even_when_already_slashed():
    b = make_bridge(n=3)
    for vmxo in b.graph.vmxo_ids:
        b.slash("f1", "f0", ["f0", "f2"], vmxo)
        assert b.graph.enabler_state("f2", vmxo, counterparty="f1") \
            == EnablerState.CONSUMED
        assert b.events[-1].endswith(
            f"ev=challenge_refunded verifier=f2 vmxo={vmxo}")
    assert sum(" ev=slashed " in line for line in b.events) == 1


def test_slash_releases_unfronted_pegout():
    b = make_bridge()
    do_pegin(b)
    i = do_linked_pegout(b)
    pegout = b.pegouts[i]
    b.publish_kickoff(pegout.vmxo_id, "f1")
    b.slash("f1", "f0", [], pegout.vmxo_id)
    assert pegout.state == PegOutState.LINKED
    assert pegout.operator is None
    assert b.graph.vmxos[pegout.vmxo_id].state == VmxoState.LOCKED
    # an honest operator can now complete it
    full_honest_pegout(b, i, "f0")
    assert pegout.state == PegOutState.UNLOCKED


def test_slash_invalidates_fronted_pegout():
    b = make_bridge()
    do_pegin(b)
    i = do_linked_pegout(b)
    pegout = b.pegouts[i]
    b.front_funds(i, "f1")
    b.publish_kickoff(pegout.vmxo_id, "f1")
    b.slash("f1", "f0", [], pegout.vmxo_id)
    assert pegout.state == PegOutState.INVALIDATED
    assert b.graph.vmxos[pegout.vmxo_id].state == VmxoState.INVALIDATED


def test_force_close_frees_second_vmxo():
    b = make_bridge(vmxos=2)
    do_pegin(b, "u0")
    do_pegin(b, "u1")
    v1, v2 = (b.pegouts[do_linked_pegout(b, user)].vmxo_id
              for user in ("u0", "u1"))
    b.publish_kickoff(v1, "f1")
    b.publish_kickoff(v2, "f1")
    b.force_close(v1, v2, "f0")
    assert b.graph.vmxos[v2].state == VmxoState.LOCKED
    assert b.graph.vmxos[v1].state == VmxoState.KICKOFF_OPEN


def test_force_close_refuses_unknown_closer_before_any_change():
    b = make_bridge(vmxos=2)
    do_pegin(b, "u0")
    do_pegin(b, "u1")
    v1, v2 = (b.pegouts[do_linked_pegout(b, user)].vmxo_id
              for user in ("u0", "u1"))
    b.publish_kickoff(v1, "f1")
    b.publish_kickoff(v2, "f1")
    before = (set(b.graph.spent),
              {v: (x.state, x.operator) for v, x in b.graph.vmxos.items()},
              dict(b.balances), list(b.rows))
    with pytest.raises(UnknownId):
        b.force_close(v1, v2, "f9")
    assert (set(b.graph.spent),
            {v: (x.state, x.operator) for v, x in b.graph.vmxos.items()},
            b.balances, b.rows) == before


def raw_kickoffs(*operators):
    """A bridge whose VMXOs each hold a raw kick-off, by ``operators`` in
    VMXO order."""
    b = make_bridge(vmxos=len(operators))
    for i, operator in enumerate(operators):
        do_pegin(b, f"u{i}")
        b.publish_kickoff(b.pegouts[do_linked_pegout(b, f"u{i}")].vmxo_id,
                          operator)
    return b


def test_force_close_requires_same_operator():
    b = raw_kickoffs("f0", "f1")
    va, vb = b.graph.vmxo_ids
    with pytest.raises(NotSameOperator):
        b.force_close(va, vb, "f2")


def test_force_close_two_simultaneous_kickoffs():
    b = raw_kickoffs("f0", "f0")
    va, vb = b.graph.vmxo_ids
    rows = len(b.rows)
    b.force_close(va, vb, "f1")
    tx = b.graph.templates[TxKind.FORCE_CLOSE, "f0", va, vb]
    assert tx.template_kind == TxKind.FORCE_CLOSE
    assert b.graph.vmxos[vb].state == VmxoState.LOCKED
    # a spend row per kick-off output spent, then the closer's fee
    assert [(key, values) for _, key, values in b.rows[rows:]] == [
        ("spend", (tx.id, f"{ref}:{i}")) for ref, i in tx.inputs] + [
        ("transfer", (350, "fees", "wallet:f1", "force-close")),
        ("force_close", ("f1", "f0", va, vb))]
    with pytest.raises(AlreadyClosed):
        b.force_close(va, vb, "f1")


def test_force_close_pair_given_in_reverse():
    b = raw_kickoffs("f0", "f0")
    v0, v1 = b.graph.vmxo_ids
    b.force_close(v1, v0, "f1")
    assert (TxKind.FORCE_CLOSE, "f0", v0, v1) in b.graph.templates
    assert (TxKind.FORCE_CLOSE, "f0", v1, v0) not in b.graph.templates
    assert b.graph.vmxos[v0].state == VmxoState.LOCKED
    assert b.graph.vmxos[v1].state == VmxoState.KICKOFF_OPEN


def test_force_close_by_its_own_operator_refused_before_any_write():
    # f0 closing its own pair locked vmxo1 again and slashed nobody: it
    # cancelled its second kick-off for one force-close fee
    b = raw_kickoffs("f0", "f0")
    va, vb = b.graph.vmxo_ids

    def state():
        return (list(b.rows), b.balances["deposit:f0"],
                {v: (x.state, x.operator) for v, x in b.graph.vmxos.items()},
                set(b.graph.spent), dict(b.balances), set(b.slashed))

    before = state()
    for pair in ((va, vb), (vb, va)):
        with pytest.raises(MalformedInput, match="f0 force-closes its own"):
            b.force_close(*pair, "f0")
    assert state() == before
    assert before[2] == {va: (VmxoState.KICKOFF_OPEN, "f0"),
                         vb: (VmxoState.KICKOFF_OPEN, "f0")}


def test_adhoc_theft_rejected_without_full_leak():
    b = make_bridge()
    vmxo = b.pegins[do_pegin(b)].vmxo_id
    b.graph.leak_keys("f0", vmxo)
    assert not b.adhoc_theft(vmxo, "f0")
    assert b.graph.vmxos[vmxo].state == VmxoState.LOCKED


def test_adhoc_theft_with_all_keys_leaked():
    b = make_bridge()
    vmxo = b.pegins[do_pegin(b)].vmxo_id
    for f in b.functionaries:
        b.graph.leak_keys(f, vmxo)
    assert b.adhoc_theft(vmxo, "f0")
    assert b.balances[f"vmxo:{vmxo}"] == 0


def test_refused_theft_leaves_its_vmxo_awaiting_pegin():
    # every key of vmxo1 leaked, but no peg-in has locked anything in it
    b = make_bridge(vmxos=2)
    do_pegin(b, "u0")
    free = b.graph.vmxo_ids[1]
    for f in b.functionaries:
        b.graph.leak_keys(f, free)

    def state():
        return (list(b.rows), dict(b.balances),
                {v: (x.state, x.operator) for v, x in b.graph.vmxos.items()})

    before = state()
    with pytest.raises(Insolvent):
        b.adhoc_theft(free, "f0")
    assert state() == before
    assert b.graph.vmxos[free].state == VmxoState.AWAITING_PEGIN
    assert b.pegins[b.request_pegin("u1", DENOM)].vmxo_id == free


def test_operator_cut_is_exact_above_float_precision():
    # above 2**53 a float 0.1% cut of this amount is one sat too high
    amount = 13_035_838_819_189_999
    assert int(amount * 0.001) == amount // 1000 + 1
    b = Bridge(["f0", "f1", "f2"], 1, amount)
    b.graph.sign_all()
    do_pegin(b)
    i = do_linked_pegout(b)
    before = b.balances["wallet:f0"]
    b.front_funds(i, "f0")
    fronted = amount - 13_035_838_819_189
    assert before - b.balances["wallet:f0"] == fronted
    assert b.balances["user:u0:src"] == fronted
    assert b.rows[-1][2][0] == fronted
    assert f" amount={fronted} " in b.events[-1]


def test_slashed_operator_cannot_front():
    b = make_bridge()
    do_pegin(b)
    i = do_linked_pegout(b)
    b.slash("f0", "f1", [], b.pegouts[i].vmxo_id)
    with pytest.raises(EnablerUnavailable):
        b.front_funds(i, "f0")


def test_recycle_enabler_accounting():
    b = make_bridge()
    do_pegin(b)
    i = do_linked_pegout(b)
    full_honest_pegout(b, i, "f0")
    counts = b.recycle_enablers(i)
    n = len(b.functionaries)
    # one operator enabler consumed; all other enablers for the vmxo live
    assert counts["consumed"] == 1
    assert counts["burnt"] == 0
    assert counts["live"] == n * n - 1


def test_refund_skips_burnt_and_consumed_enablers():
    b = make_bridge(n=3)
    vmxo = b.graph.vmxo_ids[0]
    slot = ("f2", vmxo, "f1")
    # f2 lost first, so its enabler against f1 is burnt: no refund
    b.slash("f2", "f0", [], vmxo)
    b.slash("f1", "f0", ["f0", "f2"], vmxo)
    assert b.graph.enabler_state(*slot) == EnablerState.BURNT
    assert not any(" ev=challenge_refunded " in line for line in b.events)
    # f0's enabler against f1 on another VMXO is refunded once
    other = b.graph.vmxo_ids[1]
    for _ in range(2):
        b.slash("f1", "f2", ["f0", "f2"], other)
    assert b.graph.enabler_state("f0", other, "f1") == EnablerState.CONSUMED
    assert sum(" ev=challenge_refunded " in line for line in b.events) == 1


def test_recycle_counts_match_every_slot_after_slash_and_refund():
    b = make_bridge(n=3)
    do_pegin(b)
    i = do_linked_pegout(b)
    pegout = b.pegouts[i]
    b.front_funds(i, "f1")
    b.publish_kickoff(pegout.vmxo_id, "f1")
    b.slash("f1", "f0", ["f0", "f2"], pegout.vmxo_id)
    assert pegout.state == PegOutState.INVALIDATED
    counts = b.recycle_enablers(i)
    g = b.graph
    states = [g.enabler_state(owner, v, cp) for owner in g.functionaries
              for v, cp in enabler_slots(g, owner)
              if v == pegout.vmxo_id]
    assert len(states) == 3 ** 2
    assert counts == {state.value.lower(): states.count(state)
                      for state in EnablerState}
    # f1's three burnt, f2's enabler against f1 refunded, five live
    assert counts == {"live": 5, "consumed": 1, "burnt": 3}


def test_ledger_conservation_over_full_flow():
    b = make_bridge()
    do_pegin(b, "u0")
    total = sum(b.balances.values())
    full_honest_pegout(b, do_linked_pegout(b, "u0"), "f0")
    assert sum(b.balances.values()) == total


def test_honest_unlock_oracle_tracks_canonical_burn():
    b = make_bridge()
    do_pegin(b)
    burn_block = b.pegouts[do_linked_pegout(b)].burn_block
    assert b.secondary.is_canonical(burn_block)
    # bury the burn under a heavier fork from before it
    fork_parent = b.secondary.headers[burn_block].parent_id
    parent = fork_parent
    for i in range(6):
        parent = b.secondary.mine_block(parent, [f"fork{i}"],
                                        difficulty=5).id
    assert not b.secondary.is_canonical(burn_block)


def test_raw_kickoff_stays_in_flight():
    # a kick-off that skipped the front is in flight as a fronted one is,
    # and f1 may still front another peg-out beside it
    b = make_bridge(vmxos=2)
    do_pegin(b, "u0")
    do_pegin(b, "u1")
    raw = b.pegouts[do_linked_pegout(b, "u0")]
    assert b.open_pegouts("f1") == []
    b.publish_kickoff(raw.vmxo_id, "f1")
    assert b.open_pegouts("f1") == [raw] and raw.fronted_tx is None
    fronted = do_linked_pegout(b, "u1")
    b.front_funds(fronted, "f1")
    assert b.open_pegouts("f1") == [raw, b.pegouts[fronted]]


def test_raw_kickoff_of_an_unlinked_vmxo_unlocks_to_its_operator():
    # no peg-out is linked to vmxo1: its kick-off is logged honest=False,
    # puts no peg-out in flight and unlocks the VMXO to f1; f0 may not
    # kick off vmxo0, whose peg-out f1 fronted
    b = make_bridge(vmxos=2)
    do_pegin(b, "u0")
    do_pegin(b, "u1")
    i = do_linked_pegout(b, "u0")
    b.front_funds(i, "f1")
    with pytest.raises(NotTriggered, match="fronted by f1"):
        b.publish_kickoff("pkt0:vmxo0", "f0")
    b.publish_kickoff("pkt0:vmxo1", "f1")
    assert b.rows[-1][1:] == ("kickoff", (False, "f1", "pkt0:vmxo1"))
    assert b.open_pegouts("f1") == [b.pegouts[i]]
    b.unlock("pkt0:vmxo1")
    assert b.rows[-1][1:] == ("unlocked", (DENOM, "f1", "pkt0:vmxo1"))
    assert b.graph.vmxos["pkt0:vmxo1"].state == VmxoState.UNLOCKED
    assert list(b.linked) == ["pkt0:vmxo0"]
    assert b.pegouts[i].state == PegOutState.FRONTED


def test_fronted_pegout_counts_until_unlock():
    b = make_bridge()
    do_pegin(b)
    i = do_linked_pegout(b)
    pegout = b.pegouts[i]
    b.front_funds(i, "f0")
    assert b.open_pegouts("f0") == [pegout]
    front_block = mine_source(b, [pegout.fronted_tx])
    for _ in range(b.source_confirmations):
        mine_source(b, ["pad"])
    b.prove_front(i, front_block)
    assert b.open_pegouts("f0") == [pegout]
    b.publish_kickoff(pegout.vmxo_id, "f0")
    assert b.open_pegouts("f0") == [pegout]
    b.unlock(pegout.vmxo_id)
    assert b.open_pegouts("f0") == []


@pytest.mark.parametrize("force_close", [False, True])
def test_slashed_operator_stops_counting(force_close):
    b = make_bridge(vmxos=2)
    do_pegin(b, "u0")
    do_pegin(b, "u1")
    i = do_linked_pegout(b, "u0")
    pegout = b.pegouts[i]
    b.front_funds(i, "f1")
    b.publish_kickoff(pegout.vmxo_id, "f1")
    assert b.open_pegouts("f1") == [pegout]
    if force_close:
        second = b.pegouts[do_linked_pegout(b, "u1")].vmxo_id
        b.publish_kickoff(second, "f1")
        b.force_close(pegout.vmxo_id, second, "f0")
    b.slash("f1", "f0", [], pegout.vmxo_id)
    assert b.open_pegouts("f1") == []


class ScanningBridge(Bridge):
    """Peg-in and peg-out linking that rebuild the taken and linked VMXO
    sets from every peg on each call, frozen as the reference."""

    def request_pegin(self, user, amount):
        if amount != self.denomination:
            raise WrongDenomination(f"{amount} != {self.denomination}")
        taken = {p.vmxo_id for p in self.pegins}
        free = [v for v in self.graph.vmxo_ids
                if self.graph.vmxos[v].state == VmxoState.AWAITING_PEGIN
                and v not in taken]
        if not free:
            raise NoCapacity("no vmxo awaiting peg-in")
        pegin = PegIn(user, amount, free[0])
        self.pegins.append(pegin)
        self.emit("pegin_requested", amount, user, pegin.vmxo_id)
        return len(self.pegins) - 1

    def link_pegout(self, i):
        pegout = self.pegouts[i]
        linked = {p.vmxo_id for p in self.pegouts if p.vmxo_id}
        for v in self.graph.vmxo_ids:
            if v in linked:
                continue
            if self.graph.vmxos[v].state == VmxoState.LOCKED:
                pegout.vmxo_id = v
                self.linked[v] = pegout
                pegout.state = PegOutState.LINKED
                self.emit("pegout_linked", pegout.burn_tx, v)
                return v
        raise NoCapacity("no locked vmxo to link")


@pytest.mark.parametrize("strategy,adversary,pegins,pegouts,leak_all", [
    (Strategy.HONEST, None, 64, 64, False),
    (Strategy.FAKE_PROOF_PROVER, 3, 64, 64, False),
    (Strategy.FORK_PROVER, 0, 48, 40, False),
    (Strategy.DOUBLE_OPERATOR, 5, 40, 32, False),
    (Strategy.KEY_LEAKER, 2, 20, 20, False),
    (Strategy.HONEST, None, 30, 30, True),  # theft leaves peg-outs unlinked
])
def test_pegs_link_as_the_scanning_reference(run_with_bridge, monkeypatch,
                                             strategy, adversary, pegins,
                                             pegouts, leak_all):
    # N = 10, V = 64: the kept taken and linked sets pick the VMXOs that a
    # scan over every peg-in and peg-out picks
    sc = Scenario(name="linking", seed=4, n_functionaries=10, vmxo_count=64,
                  n_pegins=pegins, n_pegouts=pegouts, adversary=adversary,
                  strategy=strategy, leak_all=leak_all)
    sc.validate()
    _, bridge = run_with_bridge(sc)
    monkeypatch.setattr(harness, "Bridge", ScanningBridge)
    _, reference = run_with_bridge(sc)
    assert isinstance(reference, ScanningBridge)
    assert bridge.rows == reference.rows
    assert any(key == "pegout_linked" for _, key, _ in bridge.rows)


class CountedLinks(dict):
    """``Bridge.linked`` that counts its membership tests."""
    checks = 0

    def __contains__(self, vmxo_id):
        self.checks += 1
        return super().__contains__(vmxo_id)


# the leak_all run: vmxo0 is stolen before any link, and the other 511
# VMXOs serve the 511 peg-outs
LEAK_ALL_HORIZON = Scenario(name="horizon-leak-all", seed=3,
                            n_functionaries=10, vmxo_count=512, n_pegins=512,
                            n_pegouts=511, strategy=Strategy.KEY_LEAKER,
                            leak_all=True)


@pytest.mark.parametrize("scenario,stolen,checks", [
    pytest.param(pins.horizon_scenario(Strategy.HONEST), 0,
                 512 + 2 + 3 * 511, id="Honest"),
    pytest.param(pins.horizon_scenario(Strategy.FAKE_PROOF_PROVER), 0,
                 512 + 2 + 3 * 511, id="FakeProofProver"),
    pytest.param(LEAK_ALL_HORIZON, 1, 511 + 3 * 511, id="leak_all"),
])
def test_linking_every_vmxo_in_turn_is_linear(scenario, stolen, checks):
    # a count, not a timer: the membership tests of Bridge.linked over a
    # horizon run's peg-outs, each linked to the next VMXO.  Each unlock
    # makes one, the first link two, and every later link three: past the
    # VMXO linked last, at the next, and the scan's one step there.  The
    # stolen vmxo0 is Unlocked, so the first link passes it with one more
    # test.  A scan from the first VMXO on every link made 131,840 in the
    # honest run, and a cursor that stopped at vmxo0 132,349 in leak_all
    runner = Runner(scenario)
    runner.setup()
    runner.bridge.linked = linked = CountedLinks()
    runner.run_pegins()
    runner.run_theft_attempts()
    runner.run_pegouts()
    assert list(linked) == runner.bridge.graph.vmxo_ids[stolen:]
    assert linked.checks == checks


def test_pending_pegins_take_distinct_vmxos():
    # peg-ins requested before any executes: each takes its own VMXO
    runs = []
    for cls in (Bridge, ScanningBridge):
        b = cls(["f0", "f1", "f2"], 2, DENOM)
        vmxos = [b.pegins[b.request_pegin(u, DENOM)].vmxo_id
                 for u in ("u0", "u1")]
        with pytest.raises(NoCapacity):
            b.request_pegin("u2", DENOM)
        runs.append((vmxos, b.rows))
    assert runs[0] == runs[1]
    assert runs[0][0] == b.graph.vmxo_ids
