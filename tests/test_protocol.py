import pytest

from bridgesim.errors import (BridgeSimError, ConcurrencyLimit,
                             EnablerUnavailable, Insolvent,
                             InsufficientConfirmations, MalformedInput,
                             MissingSignature, NoCapacity, NotLinked,
                             NotTriggered, UnknownId, WrongDenomination)
from bridgesim import harness
from bridgesim.harness import Scenario, Strategy
from bridgesim.protocol import Bridge, PegIn, PegOut, PegOutState
from bridgesim.txgraph import EnablerState, VmxoState

DENOM = 100_000_000


def make_bridge(n=3, vmxos=2, **kw):
    b = Bridge([f"f{i}" for i in range(n)], vmxos, DENOM, **kw)
    b.graph.sign_all()
    return b


def fund_user(b, user):
    b.ledger.fund(f"user:{user}:src", b.denomination)


def mine_source(b, txs):
    blk = b.source.mine_block(b.source.tip().id, txs)
    b.clock.advance()
    return blk.id


def mine_secondary(b, txs):
    blk = b.secondary.mine_block(b.secondary.tip().id, txs)
    b.clock.advance()
    return blk.id


def do_pegin(b, user="u0", funded=True):
    if funded:
        fund_user(b, user)
    pegin = b.request_pegin(user, b.denomination)
    b.sign_pegin(pegin, user)
    for f in b.functionaries:
        b.sign_pegin(pegin, f)
    tx = b.broadcast_pegin(pegin)
    pegin.deposit_block = mine_source(b, [tx])
    for _ in range(b.source_confirmations):
        mine_source(b, [f"pad{b.clock.now}"])
    b.execute_pegin(pegin)
    return pegin


def do_linked_pegout(b, user="u0"):
    pegout = b.request_pegout(user, b.denomination)
    pegout.burn_block = mine_secondary(b, [pegout.burn_tx])
    for _ in range(b.secondary_confirmations):
        mine_secondary(b, [f"spad{b.clock.now}"])
    b.link_pegout(pegout)
    return pegout


def test_deposit_equals_econ_formula():
    b = make_bridge(n=4, fee_rate=3)
    assert b.deposit_per_functionary == 270332 * 3 * 3
    assert b.ledger.balances["deposit:f0"] == b.deposit_per_functionary


def test_pegin_wrong_denomination():
    b = make_bridge()
    with pytest.raises(WrongDenomination):
        b.request_pegin("u0", DENOM + 1)


def test_pegin_requires_all_signatures():
    b = make_bridge()
    fund_user(b, "u0")
    pegin = b.request_pegin("u0", DENOM)
    b.sign_pegin(pegin, "u0")
    pegin.deposit_block = mine_source(b, [b.broadcast_pegin(pegin)])
    for _ in range(3):
        mine_source(b, ["pad"])
    with pytest.raises(MissingSignature):
        b.execute_pegin(pegin)


def test_pegin_requires_confirmations():
    b = make_bridge()
    fund_user(b, "u0")
    pegin = b.request_pegin("u0", DENOM)
    for s in ["u0"] + list(b.functionaries):
        b.sign_pegin(pegin, s)
    pegin.deposit_block = mine_source(b, [b.broadcast_pegin(pegin)])
    with pytest.raises(InsufficientConfirmations):
        b.execute_pegin(pegin)


def test_pegin_locks_vmxo_and_mints():
    b = make_bridge()
    pegin = do_pegin(b)
    assert b.graph.vmxos[pegin.vmxo_id].state == VmxoState.LOCKED
    assert b.ledger.balances["user:u0:wrapped"] == DENOM
    assert b.ledger.balances["wrapped-issuance"] == -DENOM
    assert b.ledger.balances[f"vmxo:{pegin.vmxo_id}"] == DENOM


def test_pegin_capacity_exhausted():
    b = make_bridge(vmxos=1)
    do_pegin(b, "u0")
    with pytest.raises(NoCapacity):
        b.request_pegin("u1", DENOM)


def test_pegout_links_oldest_locked_vmxo():
    b = make_bridge()
    p0 = do_pegin(b, "u0")
    do_pegin(b, "u1")
    pegout = do_linked_pegout(b, "u0")
    assert pegout.vmxo_id == p0.vmxo_id
    assert pegout.state == PegOutState.LINKED


def test_refused_pegout_leaves_no_ghost():
    b = make_bridge()
    do_pegin(b, "u0")
    balances, rows = dict(b.ledger.balances), list(b.rows)
    # u1 holds no wrapped balance to burn
    with pytest.raises(Insolvent):
        b.request_pegout("u1", DENOM)
    assert b.pegouts == [] and b.rows == rows
    assert b.ledger.balances == balances
    pegout = b.request_pegout("u0", DENOM)
    assert b.pegouts == [pegout] and pegout.burn_tx == "burn:u0:1"


def test_front_by_unknown_operator_refused():
    b = make_bridge()
    do_pegin(b)
    pegout = do_linked_pegout(b)
    before = (list(b.rows), dict(b.ledger.balances), pegout.state)
    with pytest.raises(UnknownId):
        b.front_funds(pegout, "f7")
    assert (b.rows, b.ledger.balances, pegout.state) == before
    assert pegout.operator is None and pegout.fronted_tx is None


def test_second_front_refused_before_any_change():
    # the limit would let f1 front too: the peg-out's state alone refuses
    b = make_bridge(pegout_limit=5)
    do_pegin(b)
    pegout = do_linked_pegout(b)
    b.front_funds(pegout, "f0")
    before = (list(b.rows), dict(b.ledger.balances), pegout.state,
              pegout.operator, pegout.fronted_tx)
    with pytest.raises(NotTriggered):
        b.front_funds(pegout, "f1")
    assert (b.rows, b.ledger.balances, pegout.state, pegout.operator,
            pegout.fronted_tx) == before
    assert b.ledger.balances["user:u0:src"] == DENOM - DENOM // 1000
    assert b.active_pegouts("f0") == 1


def test_kickoff_only_on_locked_vmxo():
    b = make_bridge()
    do_pegin(b)
    pegout = do_linked_pegout(b)
    b.publish_kickoff(pegout, "f1")
    rows = list(b.rows)
    with pytest.raises(NotTriggered):
        b.publish_kickoff(pegout, "f1")
    assert b.rows == rows
    assert sum(key == "kickoff" for _, key, _ in b.rows) == 1


def test_front_requires_burn_confirmations():
    b = make_bridge()
    do_pegin(b)
    pegout = b.request_pegout("u0", DENOM)
    pegout.burn_block = mine_secondary(b, [pegout.burn_tx])
    b.link_pegout(pegout)
    with pytest.raises(InsufficientConfirmations):
        b.front_funds(pegout, "f0")


def full_honest_pegout(b, pegout, operator):
    b.front_funds(pegout, operator)
    front_block = mine_source(b, [pegout.fronted_tx])
    for _ in range(b.source_confirmations):
        mine_source(b, ["pad"])
    b.prove_front(pegout, front_block)
    b.publish_kickoff(pegout, operator)
    b.unlock(pegout)


def test_honest_pegout_pays_operator_from_vmxo():
    b = make_bridge()
    do_pegin(b)
    pegout = do_linked_pegout(b)
    before = b.ledger.balances["wallet:f0"]
    full_honest_pegout(b, pegout, "f0")
    assert pegout.state == PegOutState.UNLOCKED
    assert b.ledger.balances[f"vmxo:{pegout.vmxo_id}"] == 0
    # operator nets the vmxo minus the fronted amount minus fees
    fronted = DENOM - DENOM // 1000
    fees = (b.cost_table.commit_proof + 500) * b.fee_rate
    assert b.ledger.balances["wallet:f0"] == before - fronted + DENOM - fees


def test_front_concurrency_limit():
    b = make_bridge(vmxos=2, pegout_limit=1)
    do_pegin(b, "u0")
    do_pegin(b, "u1")
    p1 = do_linked_pegout(b, "u0")
    b.front_funds(p1, "f0")
    p2 = do_linked_pegout(b, "u1")
    with pytest.raises(ConcurrencyLimit):
        b.front_funds(p2, "f0")


def test_front_separation_interval():
    b = make_bridge(vmxos=2, pegout_limit=5, t_sep=1000)
    do_pegin(b, "u0")
    do_pegin(b, "u1")
    p1 = do_linked_pegout(b, "u0")
    b.front_funds(p1, "f0")
    front_block = mine_source(b, [p1.fronted_tx])
    for _ in range(b.source_confirmations):
        mine_source(b, ["pad"])
    b.prove_front(p1, front_block)
    b.publish_kickoff(p1, "f0")
    p2 = do_linked_pegout(b, "u1")
    with pytest.raises(ConcurrencyLimit):
        b.front_funds(p2, "f0")


def test_unlock_requires_open_kickoff():
    b = make_bridge()
    do_pegin(b)
    pegout = do_linked_pegout(b)
    b.front_funds(pegout, "f0")
    pegout.operator = "f0"
    with pytest.raises(NotTriggered):
        b.unlock(pegout)


def test_slash_burns_enablers_and_pays_pot():
    b = make_bridge()
    do_pegin(b)
    pegout = do_linked_pegout(b)
    b.front_funds(pegout, "f1")
    b.publish_kickoff(pegout, "f1")
    b.pay_dispute_fee("f0", "challenge")
    pot = b.ledger.balances["deposit:f1"]
    f0_before = b.ledger.balances["wallet:f0"]
    b.slash("f1", "f0", ["f0"], pegout.vmxo_id)
    assert b.slashed == {"f1"}
    assert b.ledger.balances["deposit:f1"] == 0
    assert b.ledger.balances["wallet:f0"] == f0_before + pot
    assert all(b.graph.enabler_state("f1", *slot) == EnablerState.BURNT
               for slot in b.graph._enabler_slots("f1"))


def test_slash_idempotent():
    b = make_bridge()
    b.slash("f1", "f0", [], "pkt0:vmxo0")
    total = sum(b.ledger.balances.values())
    b.slash("f1", "f2", [], "pkt0:vmxo0")
    assert sum(b.ledger.balances.values()) == total
    assert b.ledger.balances["deposit:f1"] == 0


def test_slash_refuses_unknown_loser_before_any_change():
    b = make_bridge()
    balances, rows = dict(b.ledger.balances), list(b.rows)
    with pytest.raises(UnknownId):
        b.slash("f7", "f0", ["f0"], "pkt0:vmxo0")
    assert b.slashed == set() and b.graph.spent == {}
    assert b.graph.used_enablers == {}
    assert b.ledger.balances == balances and b.rows == rows


def elsewhere(pegout):
    """The peg-out, linked to a VMXO the packet does not have."""
    pegout.vmxo_id = "pkt0:vmxo9"
    return pegout


# each refused call, on the bridge of ``test_refusal_changes_nothing``:
# the error and the call, given the bridge, a linked peg-out whose VMXO is
# locked and a peg-out that was never linked
REFUSALS = {
    "kickoff-by-unknown-operator": (
        UnknownId, lambda b, linked, unlinked:
        b.publish_kickoff(linked, "f7")),
    "kickoff-unlinked": (
        NotLinked, lambda b, linked, unlinked:
        b.publish_kickoff(unlinked, "f1")),
    "unlock-unlinked": (
        NotLinked, lambda b, linked, unlinked: b.unlock(unlinked)),
    "front-kicked-off-pegout": (
        NotTriggered, lambda b, linked, unlinked:
        b.front_funds(b.pegouts[0], "f0")),
    "front-linked-to-unknown-vmxo": (
        UnknownId, lambda b, linked, unlinked:
        b.front_funds(elsewhere(linked), "f0")),
    "kickoff-linked-to-unknown-vmxo": (
        UnknownId, lambda b, linked, unlinked:
        b.publish_kickoff(elsewhere(linked), "f0")),
    "unlock-linked-to-unknown-vmxo": (
        UnknownId, lambda b, linked, unlinked: b.unlock(elsewhere(linked))),
    "recycle-unknown-vmxo": (
        UnknownId, lambda b, linked, unlinked:
        b.recycle_enablers(PegOut("u9", DENOM, vmxo_id="pkt0:vmxo9",
                                  state=PegOutState.UNLOCKED))),
    "force-close-unknown-second-vmxo": (
        UnknownId, lambda b, linked, unlinked:
        b.force_close("pkt0:vmxo0", "pkt0:vmxo9", "f0")),
    "force-close-unknown-first-vmxo": (
        UnknownId, lambda b, linked, unlinked:
        b.force_close("pkt0:vmxo9", "pkt0:vmxo0", "f0")),
    "adhoc-theft-of-unknown-vmxo": (
        UnknownId, lambda b, linked, unlinked:
        b.adhoc_theft("pkt0:vmxo9", "f0")),
    "execute-executed-pegin": (
        NotTriggered, lambda b, linked, unlinked:
        b.execute_pegin(b.pegins[1])),
    "relink-linked-pegout": (
        NotTriggered, lambda b, linked, unlinked: b.link_pegout(linked)),
    "prove-unlinked-pegout": (
        NotTriggered, lambda b, linked, unlinked:
        b.prove_front(unlinked, b.pegins[0].deposit_block)),
    "prove-unfronted-pegout": (
        NotTriggered, lambda b, linked, unlinked:
        b.prove_front(linked, b.pegins[0].deposit_block)),
    "dispute-fee-for-unknown-action": (
        MalformedInput, lambda b, linked, unlinked:
        b.pay_dispute_fee("f0", "bribe")),
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
    "slash-loser-among-its-challengers": (
        MalformedInput, lambda b, linked, unlinked:
        b.slash("f1", "f0", ["f0", "f1"],
                "pkt0:vmxo0")),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refusal_changes_nothing(case):
    # a raw kick-off by f1 is open on vmxo0, vmxo1 is linked and locked,
    # and a third peg-out is burnt but not linked
    b = make_bridge(vmxos=3)
    for user in ("u0", "u1", "u2"):
        do_pegin(b, user)
    b.publish_kickoff(do_linked_pegout(b, "u0"), "f1")
    linked = do_linked_pegout(b, "u1")
    unlinked = b.request_pegout("u2", DENOM)

    def state():
        return (list(b.rows), dict(b.ledger.balances),
                dict(b.graph.spent), set(b.linked_vmxos), set(b.slashed),
                dict(b.dispute_costs),
                {v: dict(s) for v, s in b.graph.used_enablers.items()},
                {v: (x.state, x.operator) for v, x in b.graph.vmxos.items()},
                [(p.state, p.operator, p.fronted_tx) for p in b.pegouts])

    before = state()
    error, call = REFUSALS[case]
    with pytest.raises(error):
        call(b, linked, unlinked)
    assert state() == before


def test_executed_pegin_does_not_mint_again():
    # the user still holds a second denomination, so the VMXO's state alone
    # stands between a repeated call and a second mint
    b = make_bridge()
    pegin = do_pegin(b)
    fund_user(b, "u0")
    before = (list(b.rows), dict(b.ledger.balances))
    with pytest.raises(NotTriggered):
        b.execute_pegin(pegin)
    assert (b.rows, b.ledger.balances) == before
    assert b.ledger.balances["user:u0:wrapped"] == DENOM
    assert b.ledger.balances[f"vmxo:{pegin.vmxo_id}"] == DENOM


def test_unfunded_pegin_leaves_its_vmxo_awaiting_pegin():
    b = make_bridge()
    with pytest.raises(Insolvent):
        do_pegin(b, funded=False)
    pegin = b.pegins[0]
    assert b.graph.vmxos[pegin.vmxo_id].state == VmxoState.AWAITING_PEGIN
    fund_user(b, "u0")
    b.execute_pegin(pegin)
    assert b.graph.vmxos[pegin.vmxo_id].state == VmxoState.LOCKED


def test_insolvent_calls_raise_a_package_error_and_change_nothing():
    # u1's peg-in was never funded and u2 holds nothing wrapped to burn
    b = make_bridge(vmxos=3)
    do_pegin(b, "u0")
    with pytest.raises(Insolvent):
        do_pegin(b, "u1", funded=False)
    unfunded = b.pegins[-1]

    def state():
        return (list(b.rows), dict(b.ledger.balances), list(b.pegouts),
                {v: b.graph.vmxos[v].state for v in b.graph.vmxo_ids})

    before = state()
    for call in (lambda: b.execute_pegin(unfunded),
                 lambda: b.request_pegout("u2", DENOM)):
        with pytest.raises(Insolvent):
            call()
        assert state() == before
    assert before[3][unfunded.vmxo_id] == VmxoState.AWAITING_PEGIN
    with pytest.raises(Insolvent):
        b.ledger.transfer("user:u0:wrapped", "wrapped-issuance", -1)
    # a package error, and still the ValueError it used to be
    assert issubclass(Insolvent, BridgeSimError)
    assert issubclass(Insolvent, ValueError)


def test_slash_reimburses_challenger_costs_first():
    b = make_bridge(n=3)
    b.pay_dispute_fee("f0", "challenge")
    b.pay_dispute_fee("f2", "challenge")
    cost = b.dispute_costs["f0"]
    f2_before = b.ledger.balances["wallet:f2"]
    b.slash("f1", "f0", ["f0", "f2"], "pkt0:vmxo0")
    # f2's challenge fee comes back even though f0 took the remainder
    assert b.ledger.balances["wallet:f2"] == f2_before + cost


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
    pegout = do_linked_pegout(b)
    b.publish_kickoff(pegout, "f1")
    b.slash("f1", "f0", [], pegout.vmxo_id)
    assert pegout.state == PegOutState.LINKED
    assert pegout.operator is None
    assert b.graph.vmxos[pegout.vmxo_id].state == VmxoState.LOCKED
    # an honest operator can now complete it
    full_honest_pegout(b, pegout, "f0")
    assert pegout.state == PegOutState.UNLOCKED


def test_slash_invalidates_fronted_pegout():
    b = make_bridge()
    do_pegin(b)
    pegout = do_linked_pegout(b)
    b.front_funds(pegout, "f1")
    b.publish_kickoff(pegout, "f1")
    b.slash("f1", "f0", [], pegout.vmxo_id)
    assert pegout.state == PegOutState.INVALIDATED
    assert b.graph.vmxos[pegout.vmxo_id].state == VmxoState.INVALIDATED


def test_force_close_frees_second_vmxo():
    b = make_bridge(vmxos=2, pegout_limit=5)
    do_pegin(b, "u0")
    do_pegin(b, "u1")
    p1 = do_linked_pegout(b, "u0")
    p2 = do_linked_pegout(b, "u1")
    b.publish_kickoff(p1, "f1")
    b.publish_kickoff(p2, "f1")
    b.force_close(p1.vmxo_id, p2.vmxo_id, "f0")
    assert b.graph.vmxos[p2.vmxo_id].state == VmxoState.LOCKED
    assert b.graph.vmxos[p1.vmxo_id].state == VmxoState.KICKOFF_OPEN


def test_force_close_refuses_unknown_closer_before_any_change():
    b = make_bridge(vmxos=2, pegout_limit=5)
    do_pegin(b, "u0")
    do_pegin(b, "u1")
    p1 = do_linked_pegout(b, "u0")
    p2 = do_linked_pegout(b, "u1")
    b.publish_kickoff(p1, "f1")
    b.publish_kickoff(p2, "f1")
    before = (dict(b.graph.spent),
              {v: (x.state, x.operator) for v, x in b.graph.vmxos.items()},
              dict(b.ledger.balances), list(b.rows))
    with pytest.raises(UnknownId):
        b.force_close(p1.vmxo_id, p2.vmxo_id, "f9")
    assert (dict(b.graph.spent),
            {v: (x.state, x.operator) for v, x in b.graph.vmxos.items()},
            b.ledger.balances, b.rows) == before


def test_adhoc_theft_rejected_without_full_leak():
    b = make_bridge()
    pegin = do_pegin(b)
    b.graph.leak_keys("f0", pegin.vmxo_id)
    assert not b.adhoc_theft(pegin.vmxo_id, "f0")
    assert b.graph.vmxos[pegin.vmxo_id].state == VmxoState.LOCKED


def test_adhoc_theft_with_all_keys_leaked():
    b = make_bridge()
    pegin = do_pegin(b)
    for f in b.functionaries:
        b.graph.leak_keys(f, pegin.vmxo_id)
    assert b.adhoc_theft(pegin.vmxo_id, "f0")
    assert b.ledger.balances[f"vmxo:{pegin.vmxo_id}"] == 0


def test_refused_theft_leaves_its_vmxo_awaiting_pegin():
    # every key of vmxo1 leaked, but no peg-in has locked anything in it
    b = make_bridge(vmxos=2)
    do_pegin(b, "u0")
    free = b.graph.vmxo_ids[1]
    for f in b.functionaries:
        b.graph.leak_keys(f, free)

    def state():
        return (list(b.rows), dict(b.ledger.balances),
                {v: (x.state, x.operator) for v, x in b.graph.vmxos.items()})

    before = state()
    with pytest.raises(Insolvent):
        b.adhoc_theft(free, "f0")
    assert state() == before
    assert b.graph.vmxos[free].state == VmxoState.AWAITING_PEGIN
    assert b.request_pegin("u1", DENOM).vmxo_id == free


def test_operator_cut_is_exact_above_float_precision():
    # above 2**53 a float 0.1% cut of this amount is one sat too high
    amount = 13_035_838_819_189_999
    assert int(amount * 0.001) == amount // 1000 + 1
    b = Bridge(["f0", "f1", "f2"], 1, amount)
    b.graph.sign_all()
    do_pegin(b)
    pegout = do_linked_pegout(b)
    before = b.ledger.balances["wallet:f0"]
    b.front_funds(pegout, "f0")
    fronted = amount - 13_035_838_819_189
    assert before - b.ledger.balances["wallet:f0"] == fronted
    assert b.ledger.balances["user:u0:src"] == fronted
    assert b.rows[-1][2][0] == fronted
    assert f" amount={fronted} " in b.events[-1]


def test_slashed_operator_cannot_front():
    b = make_bridge()
    do_pegin(b)
    pegout = do_linked_pegout(b)
    b.slash("f0", "f1", [], pegout.vmxo_id)
    with pytest.raises(EnablerUnavailable):
        b.front_funds(pegout, "f0")


def test_recycle_enabler_accounting():
    b = make_bridge()
    do_pegin(b)
    pegout = do_linked_pegout(b)
    full_honest_pegout(b, pegout, "f0")
    counts = b.recycle_enablers(pegout)
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
    pegout = do_linked_pegout(b)
    b.front_funds(pegout, "f1")
    b.publish_kickoff(pegout, "f1")
    b.slash("f1", "f0", ["f0", "f2"], pegout.vmxo_id)
    assert pegout.state == PegOutState.INVALIDATED
    counts = b.recycle_enablers(pegout)
    g = b.graph
    states = [g.enabler_state(owner, v, cp) for owner in g.functionaries
              for v, cp in g._enabler_slots(owner)
              if v == pegout.vmxo_id]
    assert len(states) == 3 ** 2
    assert counts == {state.value.lower(): states.count(state)
                      for state in EnablerState}
    # f1's three burnt, f2's enabler against f1 refunded, five live
    assert counts == {"live": 5, "consumed": 1, "burnt": 3}


def test_ledger_conservation_over_full_flow():
    b = make_bridge()
    do_pegin(b, "u0")
    total = sum(b.ledger.balances.values())
    pegout = do_linked_pegout(b, "u0")
    full_honest_pegout(b, pegout, "f0")
    assert sum(b.ledger.balances.values()) == total


def test_honest_unlock_oracle_tracks_canonical_burn():
    b = make_bridge()
    do_pegin(b)
    pegout = do_linked_pegout(b)
    assert b.honest_unlock_allowed(pegout)
    # bury the burn under a heavier fork from before it
    fork_parent = b.secondary.headers[pegout.burn_block].parent_id
    parent = fork_parent
    for i in range(6):
        parent = b.secondary.mine_block(parent, [f"fork{i}"],
                                        difficulty=5).id
    assert not b.honest_unlock_allowed(pegout)


def test_raw_kickoff_does_not_count_toward_pegout_limit():
    b = make_bridge(vmxos=2, pegout_limit=1)
    do_pegin(b, "u0")
    do_pegin(b, "u1")
    raw = do_linked_pegout(b, "u0")
    b.publish_kickoff(raw, "f1")
    assert b.active_pegouts("f1") == 0
    # an open raw kick-off is still in flight
    assert b.open_pegouts("f1") == [raw]
    fronted = do_linked_pegout(b, "u1")
    b.front_funds(fronted, "f1")
    assert b.active_pegouts("f1") == 1


def test_fronted_pegout_counts_until_unlock():
    b = make_bridge()
    do_pegin(b)
    pegout = do_linked_pegout(b)
    b.front_funds(pegout, "f0")
    assert b.active_pegouts("f0") == 1
    front_block = mine_source(b, [pegout.fronted_tx])
    for _ in range(b.source_confirmations):
        mine_source(b, ["pad"])
    b.prove_front(pegout, front_block)
    b.publish_kickoff(pegout, "f0")
    assert b.active_pegouts("f0") == 1
    b.unlock(pegout)
    assert b.active_pegouts("f0") == 0


@pytest.mark.parametrize("force_close", [False, True])
def test_slashed_operator_stops_counting(force_close):
    b = make_bridge(vmxos=2)
    do_pegin(b, "u0")
    do_pegin(b, "u1")
    pegout = do_linked_pegout(b, "u0")
    b.front_funds(pegout, "f1")
    b.publish_kickoff(pegout, "f1")
    assert b.active_pegouts("f1") == 1
    if force_close:
        second = do_linked_pegout(b, "u1")
        b.publish_kickoff(second, "f1")
        b.force_close(pegout.vmxo_id, second.vmxo_id, "f0")
    b.slash("f1", "f0", [], pegout.vmxo_id)
    assert b.active_pegouts("f1") == 0


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
        self.log("pegin_requested", user=user, vmxo=pegin.vmxo_id,
                 amount=amount)
        return pegin

    def link_pegout(self, pegout):
        linked = {p.vmxo_id for p in self.pegouts if p.vmxo_id}
        for v in self.graph.vmxo_ids:
            if v in linked:
                continue
            if self.graph.vmxos[v].state == VmxoState.LOCKED:
                pegout.vmxo_id = v
                pegout.state = PegOutState.LINKED
                self.log("pegout_linked", tx=pegout.burn_tx, vmxo=v)
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


def test_pending_pegins_take_distinct_vmxos():
    # peg-ins requested before any executes: each takes its own VMXO
    runs = []
    for cls in (Bridge, ScanningBridge):
        b = cls(["f0", "f1", "f2"], 2, DENOM)
        vmxos = [b.request_pegin(u, DENOM).vmxo_id for u in ("u0", "u1")]
        with pytest.raises(NoCapacity):
            b.request_pegin("u2", DENOM)
        runs.append((vmxos, b.rows))
    assert runs[0] == runs[1]
    assert runs[0][0] == b.graph.vmxo_ids
