import hashlib
import random
from collections import Counter

import pytest

from bridgesim.econ import CostTable
from bridgesim.errors import (PrematureDeletion, SpendRejected,
                             TooFewFunctionaries, UnknownId)
from bridgesim.txgraph import (EXTERNAL, EnablerState, OutputKind,
                              SimOutput, SimTx, SpendCondition, TxKind,
                              _serial, build_packet_templates)

F3 = ["f0", "f1", "f2"]


def packet(functionaries=None, vmxos=1, amount=100_000):
    return build_packet_templates(functionaries or F3, vmxos, amount)


def replace(tx: SimTx, **changes) -> SimTx:
    """A new template with ``tx``'s content but ``changes``."""
    content = dict(template_kind=tx.template_kind, inputs=tx.inputs,
                   outputs=tx.outputs, vbytes=tx.vbytes)
    return SimTx(**{**content, **changes})


def test_too_few_functionaries():
    with pytest.raises(TooFewFunctionaries):
        build_packet_templates(["f0"], 1, 100)


def test_n2_counts():
    g = packet(["f0", "f1"])
    build_all(g)
    kickoffs = [t for t in g.templates.values()
                if t.template_kind == TxKind.KICKOFF]
    assert len(kickoffs) == 2
    for k in kickoffs:
        channels = [o for o in k.outputs if o.kind == OutputKind.DISPUTE_CHANNEL]
        assert len(channels) == 1
    counterparties = [cp for f in g.functionaries
                      for _, cp in g._enabler_slots(f)]
    assert counterparties == [None, "f1", None, "f0"]


def test_n3_channel_count():
    g = packet()
    build_all(g)
    channels = [o for t in g.templates.values() for o in t.outputs
                if o.kind == OutputKind.DISPUTE_CHANNEL]
    assert len(channels) == 6  # 3 kickoffs x 2 channels


def test_n3_two_vmxos_enabler_pool():
    g = packet(vmxos=2)
    states = [g.enabler_state(f, *slot) for f in g.functionaries
              for slot in g._enabler_slots(f)]
    # N x (1 + N-1) x vmxos = 18, every one live and none stored
    assert states == [EnablerState.LIVE] * 18
    assert g.enabler_count() == len(states)
    assert g.used_enablers == {}


def test_sign_idempotent():
    g = packet()
    tmpl = g.template(TxKind.LOCKING, g.vmxo_ids[0])
    g.sign_all()
    g.sign_all()
    assert list(g.signers) == F3
    assert tmpl.signatures is g.signers


def test_full_signing_completes_template():
    g = packet()
    tmpl = g.template(TxKind.LOCKING, g.vmxo_ids[0])
    assert tmpl.signatures == {}
    g.sign_all()
    assert set(tmpl.signatures) == set(F3)


def test_delete_after_full_signing():
    g = packet()
    v = g.vmxo_ids[0]
    g.sign_all()
    g.delete_keys("f0", v)
    assert not g.leaked


def test_premature_deletion_rejected():
    g = packet()
    v = g.vmxo_ids[0]
    with pytest.raises(PrematureDeletion):
        g.delete_keys("f0", v)
    assert not g.leaked
    g.sign_all()
    g.delete_keys("f0", v)
    assert not g.leaked


def test_delete_keys_of_every_vmxo_at_once():
    g = packet(vmxos=3)
    with pytest.raises(PrematureDeletion, match="pkt0:vmxo0,pkt0:vmxo2"):
        g.delete_keys("f0", "pkt0:vmxo0", "pkt0:vmxo2")
    g.sign_all()
    g.delete_keys("f0", *g.vmxo_ids)
    with pytest.raises(KeyError):
        g.delete_keys("f0", "pkt0:vmxo1", "nov")
    assert not g.leaked


@pytest.mark.parametrize("functionary,vmxo", [
    ("f9", "pkt0:vmxo0"), ("nobody", "nov"), ("f0", "nov")])
def test_key_deletion_and_leak_reject_unknown_names(functionary, vmxo):
    g = packet()
    g.sign_all()
    for op in (g.delete_keys, g.leak_keys):
        with pytest.raises(KeyError):
            op(functionary, vmxo)
    assert not g.leaked


@pytest.mark.parametrize("vmxos", [(), ("pkt0:vmxo0",)],
                         ids=["no-vmxo", "one-vmxo"])
def test_delete_keys_of_unknown_functionary_rejected(vmxos):
    # with no VMXO id named, the functionary is still checked
    g = packet()
    g.sign_all()
    with pytest.raises(UnknownId):
        g.delete_keys("nobody", *vmxos)
    g.delete_keys("f0")
    assert not g.leaked


def test_adhoc_spend_only_when_all_leaked():
    g = packet()
    v = g.vmxo_ids[0]
    g.sign_all()
    g.leak_keys("f0", v)
    g.leak_keys("f1", v)
    g.delete_keys("f2", v)
    assert not g.adhoc_spend_allowed(v)
    g2 = packet()
    g2.sign_all()
    for f in F3:
        g2.leak_keys(f, g2.vmxo_ids[0])
    assert g2.adhoc_spend_allowed(g2.vmxo_ids[0])


def test_fresh_packet_validates_clean():
    assert validate_graph(packet(vmxos=2)) == []


def test_missing_kill_edge_detected():
    g = packet()
    kill = g.template(TxKind.KILL_ENABLERS, "f0")
    # drop one enabler-burn edge
    g.templates[TxKind.KILL_ENABLERS, "f0"] = replace(
        kill, inputs=kill.inputs[1:])
    violations = validate_graph(g)
    assert any("misses" in v for v in violations)


def test_unlocking_missing_kickoff_input_detected():
    g = packet()
    v = g.vmxo_ids[0]
    unlock = g.template(TxKind.UNLOCKING, v, "f0")
    kick = g.template(TxKind.KICKOFF, v, "f0")
    assert kick.outputs[0].kind == OutputKind.OPEN_KICKOFF
    g.templates[TxKind.UNLOCKING, v, "f0"] = replace(
        unlock, inputs=[r for r in unlock.inputs if r != (kick.id, 0)])
    violations = validate_graph(g)
    assert any("kick-off" in v for v in violations)


def test_single_spend_enforced():
    g = packet()
    v = g.vmxo_ids[0]
    unlock = g.template(TxKind.UNLOCKING, v, "f0")
    # every input is a graph output, returned in input order
    assert g.execute(unlock) == list(unlock.inputs)
    with pytest.raises(SpendRejected):
        g.execute(unlock)


def test_burn_enablers_all_live_to_burnt():
    g = packet(vmxos=2)
    slots = list(g._enabler_slots("f0"))
    assert len(slots) == 6
    assert g.burn_enablers("f0") == 6
    assert {g.enabler_state("f0", *slot) for slot in slots} == {
        EnablerState.BURNT}
    # a repeat burn marks none, and a burn builds no template
    assert g.burn_enablers("f0") == 0
    assert g.templates == {}
    assert g.enabler_state("f1", g.vmxo_ids[0]) == EnablerState.LIVE


def test_burn_skips_consumed_enabler():
    g = packet()
    v = g.vmxo_ids[0]
    g.set_enabler_state(EnablerState.CONSUMED, "f0", v)
    assert g.burn_enablers("f0") == 2
    assert g.enabler_state("f0", v) == EnablerState.CONSUMED
    assert g.enabler_state("f0", v, "f2") == EnablerState.BURNT


def test_no_such_enabler_has_no_state():
    g = packet()
    v = g.vmxo_ids[0]
    for slot in [("f0", v, "f0"),  # no enabler watches its own owner
                 ("f0", "nov"), ("f9", v), ("f0", v, "f9"), ("f9", v, "f0")]:
        with pytest.raises(UnknownId):
            g.enabler_state(*slot)
        with pytest.raises(UnknownId):
            g.set_enabler_state(EnablerState.CONSUMED, *slot)
    with pytest.raises(UnknownId):
        g.burn_enablers("f9")
    assert g.used_enablers == {}


def test_post_burn_kickoff_lacks_operator_enabler():
    g = packet()
    g.burn_enablers("f0")
    assert g.enabler_state("f0", g.vmxo_ids[0]) == EnablerState.BURNT


def test_signature_invalidation_cascade():
    g = packet()
    v = g.vmxo_ids[0]
    kick = g.template(TxKind.KICKOFF, v, "f0")
    unlock = g.template(TxKind.UNLOCKING, v, "f0")
    g.sign_all()
    assert set(kick.signatures) == set(unlock.signatures) == set(F3)
    # change the kickoff's first output: that is a new kickoff with a new id,
    # so the unlocking template now references a stale parent and must be
    # re-created with new inputs, which strips every signature
    out = kick.outputs[0]
    changed = replace(kick, outputs=(out._replace(amount=out.amount + 1),)
                      + kick.outputs[1:])
    assert changed.id != kick.id
    assert changed.signatures == {}
    rebuilt = replace(unlock, inputs=[
        (changed.id if ref[0] == kick.id else ref[0], ref[1])
        for ref in unlock.inputs])
    assert rebuilt.signatures == {}
    # the copies do not share the ceremony's record
    assert rebuilt.signatures is not unlock.signatures
    assert set(unlock.signatures) == set(F3)


def test_templates_are_frozen():
    g = packet()
    kick = g.template(TxKind.KICKOFF, g.vmxo_ids[0], "f0")
    before = dict(vars(kick))
    for name in ("vbytes", "id", "signatures", "inputs", "misspelt"):
        with pytest.raises(AttributeError):
            setattr(kick, name, None)
        with pytest.raises(AttributeError):
            delattr(kick, name)
    assert vars(kick) == before and kick.vbytes == 2513
    # an output is a tuple: its fields refuse assignment too
    out = kick.outputs[0]
    with pytest.raises(AttributeError):
        out.amount = 1
    assert out.amount == 0 and kick.outputs[0] is out
    assert isinstance(kick.inputs, tuple) and isinstance(kick.outputs, tuple)


def test_id_is_content_hash():
    g = packet(vmxos=2)
    build_all(g)
    ids = [tx.id for tx in g.templates.values()]
    assert len(set(ids)) == len(ids) == g.template_count()
    for tx in g.templates.values():
        serial = _serial(tx.template_kind, tx.inputs, tx.outputs, tx.vbytes)
        assert tx.id == hashlib.sha256(serial.encode()).hexdigest()[:16]


def template_count(n, v):
    """Deposit + enabler-create per functionary, locking per VMXO, kick-off
    and unlocking per (VMXO, operator), two loser terminals per channel,
    kill per functionary, force-close per operator and pair of VMXOs."""
    return (n + n + v + v * n + 2 * v * n * (n - 1) + v * n + n
            + n * v * (v - 1) // 2)


@pytest.mark.parametrize("n, v", [(2, 1), (5, 3), (10, 4)])
def test_packet_count_and_validation(n, v):
    # a count below the closed form would mean two templates share an id
    assert template_count(50, 4) == 20_454
    fs = [f"f{i}" for i in range(n)]
    g = packet(fs, vmxos=v)
    assert g.template_count() == template_count(n, v)
    build_all(g)
    assert len(g.templates) == template_count(n, v)
    assert validate_graph(g) == []
    # each functionary's slots are its enabler outputs, in order
    for f in fs:
        assert [enabler_index(g, f, *slot) for slot in g._enabler_slots(f)] \
            == list(range(len(g.template(TxKind.ENABLER_CREATE,
                                         f).outputs)))
    create = g.template(TxKind.ENABLER_CREATE, "f0")
    assert n * len(create.outputs) == g.enabler_count()


def test_templates_never_mint_value():
    g = packet(vmxos=2)
    build_all(g)
    outputs = {tx.id: tx.outputs for tx in g.templates.values()}
    for tx in g.templates.values():
        internal_only = all(not r[0].startswith("ext") for r in tx.inputs)
        if internal_only:
            inflow = sum(outputs[tid][i].amount for tid, i in tx.inputs)
            assert inflow >= sum(o.amount for o in tx.outputs)
        assert all(o.amount >= 0 for o in tx.outputs)


def eager_terminal_ids(g):
    """Every loser terminal's id, built as one pass over each kick-off's
    channels would build it: output 1 + i is the channel to the i-th of
    the operator's verifiers."""
    ids = {}
    for v in g.vmxo_ids:
        for f in g.functionaries:
            kick = g.template(TxKind.KICKOFF, v, f)
            verifiers = [x for x in g.functionaries if x != f]
            for ci, w in enumerate(verifiers):
                chan = [(kick.id, 1 + ci)]
                for kind, payee, loser in [
                        (TxKind.PROVER_LOSES, w, f),
                        (TxKind.VERIFIER_LOSES, f, w)]:
                    tx = SimTx(kind, chan, [SimOutput(
                        OutputKind.REWARD, 0,
                        SpendCondition(signers=frozenset({payee}),
                                       predicate="killEnablers"),
                        tag=f"loser:{loser}")], vbytes=400)
                    ids[kind, v, f, w] = tx.id
    return ids


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("v", range(1, 4))
def test_lazy_terminals_match_eager_build(n, v):
    fs = [f"f{i}" for i in range(n)]
    eager = eager_terminal_ids(packet(fs, vmxos=v))
    assert len(eager) == 2 * v * n * (n - 1)
    # looked up one by one in a shuffled order, and built all at once
    lazy = packet(fs, vmxos=v)
    keys = sorted(eager)
    random.Random(10 * n + v).shuffle(keys)
    assert {key: lazy.template(*key).id for key in keys} == eager
    whole = packet(fs, vmxos=v)
    build_all(whole)
    assert {key: whole.templates[key].id for key in eager} == eager
    build_all(lazy)
    assert ({key: tx.id for key, tx in lazy.templates.items()}
            == {key: tx.id for key, tx in whole.templates.items()})
    assert len(lazy.templates) == lazy.template_count()
    assert validate_graph(lazy) == [] and validate_graph(whole) == []


def test_terminal_built_after_ceremony_carries_its_signers():
    g = packet(vmxos=2)
    g.sign_all()
    for v in g.vmxo_ids:
        for f in F3:
            g.delete_keys(f, v)
    key = (TxKind.PROVER_LOSES, g.vmxo_ids[1], "f2", "f0")
    assert key not in g.templates
    tx = g.template(*key)
    assert g.templates[key] is tx
    assert set(tx.signatures) == set(F3)
    built = dict(g.templates)
    v0, v1 = g.vmxo_ids
    P, K = TxKind.PROVER_LOSES, TxKind.KICKOFF
    for bad in [(P, v0, "f0", "f0"),  # no channel to self
                (P, "pkt0:vmxo9", "f0", "f1"),  # no such VMXO
                (P, v0, "f0", "f7"),  # no such verifier
                ("ProverPays", v0, "f0", "f1"),  # no such kind
                (OutputKind.REWARD, "f0"),
                (P, "f0"), (P, v0, "f0", "f1", "f2"), (K,),  # wrong count
                (K, "f0", v0),  # ids swapped
                (TxKind.DEPOSIT_CREATE, "f7"), (TxKind.ENABLER_CREATE, ""),
                (TxKind.KILL_ENABLERS, "f7"), (TxKind.LOCKING, "pkt0:vmxo9"),
                (TxKind.LOCKING, f"{v0}:f0"), (K, v0, "f7"),
                (TxKind.UNLOCKING, "pkt0:vmxo9", "f0"),
                # a pair is named once, in VMXO order
                (TxKind.FORCE_CLOSE, "f0", v1, v0),
                (TxKind.FORCE_CLOSE, "f0", v0, v0),
                (TxKind.FORCE_CLOSE, "f7", v0, v1)]:
        with pytest.raises(UnknownId) as refused:
            g.template(*bad)
        assert isinstance(refused.value, KeyError)
    # a refused lookup builds nothing
    assert g.templates == built


def eager_reference(functionaries, vmxo_count, amount, deposit):
    """Every template by (kind, *ids) and every enabler's outpoint by
    (owner, VMXO, counterparty), built in one pass up front: a frozen copy
    of the eager build that on-lookup building must agree with."""
    vmxo_ids = [f"pkt0:vmxo{i}" for i in range(vmxo_count)]
    txs, outpoints = {}, {}
    for f in functionaries:
        txs[TxKind.DEPOSIT_CREATE, f] = SimTx(
            TxKind.DEPOSIT_CREATE, [(f"ext:{f}", 0)],
            [SimOutput(OutputKind.DEPOSIT, deposit,
                       SpendCondition(predicate="loserTerminal"),
                       tag=f"deposit:{f}")], vbytes=150)
        slots = []
        for v in vmxo_ids:
            slots.append((f, v, None))
            slots += [(f, v, w) for w in functionaries if w != f]
        owned = SpendCondition(signers=frozenset({f}))
        create = SimTx(TxKind.ENABLER_CREATE, [(f"ext:{f}", 0)],
                       [SimOutput(OutputKind.ENABLER, 0, owned,
                                  tag=f"enabler:{f}:Operator:{v}:-"
                                  if w is None else
                                  f"enabler:{f}:Verifier:{v}:{w}")
                        for f, v, w in slots],
                       vbytes=100 + 30 * len(slots))
        txs[TxKind.ENABLER_CREATE, f] = create
        outpoints.update((slot, (create.id, i))
                         for i, slot in enumerate(slots))
    for v in vmxo_ids:
        locking = txs[TxKind.LOCKING, v] = SimTx(
            TxKind.LOCKING, [("ext:user", 0)],
            [SimOutput(OutputKind.LOCKING, amount,
                       SpendCondition(signers=frozenset(functionaries)),
                       tag=f"lock:{v}")], vbytes=300)
        for f in functionaries:
            verifiers = [w for w in functionaries if w != f]
            kick = txs[TxKind.KICKOFF, v, f] = SimTx(
                TxKind.KICKOFF, [(f"ext:{f}", 0)],
                [SimOutput(OutputKind.OPEN_KICKOFF, 0,
                           SpendCondition(signers=frozenset({f})),
                           tag=f"openkick:{v}:{f}")]
                + [SimOutput(OutputKind.DISPUTE_CHANNEL, 0,
                             SpendCondition(signers=frozenset({f, w})),
                             tag=f"channel:{v}:{f}:{w}") for w in verifiers],
                vbytes=CostTable.commit_proof)
            txs[TxKind.UNLOCKING, v, f] = SimTx(
                TxKind.UNLOCKING,
                [(locking.id, 0), (kick.id, 0),
                 outpoints[(f, v, None)]],
                [SimOutput(OutputKind.REWARD, amount,
                           SpendCondition(signers=frozenset({f}), timelock=1),
                           tag=f"payout:{f}")], vbytes=500)
            for ci, w in enumerate(verifiers):
                for kind, winner, loser in [
                        (TxKind.PROVER_LOSES, w, f),
                        (TxKind.VERIFIER_LOSES, f, w)]:
                    txs[kind, v, f, w] = SimTx(
                        kind, [(kick.id, 1 + ci)],
                        [SimOutput(OutputKind.REWARD, 0, SpendCondition(
                            signers=frozenset({winner}),
                            predicate="killEnablers"),
                            tag=f"loser:{loser}")], vbytes=400)
    for f in functionaries:
        refs = sorted(op for slot, op in outpoints.items() if slot[0] == f)
        txs[TxKind.KILL_ENABLERS, f] = SimTx(
            TxKind.KILL_ENABLERS, refs,
            [SimOutput(OutputKind.REWARD, 0,
                       SpendCondition(predicate="loserTerminal"),
                       tag=f"killed:{f}")], vbytes=200 + 20 * len(refs))
        for i, va in enumerate(vmxo_ids):
            for vb in vmxo_ids[i + 1:]:
                txs[TxKind.FORCE_CLOSE, f, va, vb] = SimTx(
                    TxKind.FORCE_CLOSE,
                    [(txs[TxKind.KICKOFF, va, f].id, 0),
                     (txs[TxKind.KICKOFF, vb, f].id, 0)],
                    [SimOutput(OutputKind.REWARD, 0,
                               SpendCondition(predicate="killEnablers"),
                               tag=f"loser:{f}")], vbytes=350)
    return txs, outpoints


def build_all(g):
    """Build every template of ``g``: the eager reference keys them all."""
    for key in eager_reference(g.functionaries, len(g.vmxo_ids), 0, 0)[0]:
        g.template(*key)


def enabler_index(g, owner, vmxo_id, counterparty=None):
    """The enabler's output in its owner's EnablerCreate template, in
    closed form: N per VMXO, the operator enabler (counterparty None)
    first, then one per other functionary in order."""
    slot = 0
    if counterparty is not None:
        pc, po = g.position[counterparty], g.position[owner]
        slot = 1 + pc - (pc > po)
    return g.vmxo_position[vmxo_id] * len(g.functionaries) + slot


def validate_graph(g):
    """Structural checks over the whole template graph, built first;
    violations as strings: a reference the run code does not call."""
    build_all(g)
    violations = []
    by_id = {tx.id: tx for tx in g.templates.values()}

    # (i) every internal input references an existing template output
    for key, tx in g.templates.items():
        for ref in tx.inputs:
            if ref[0].startswith(EXTERNAL):
                continue
            parent = by_id.get(ref[0])
            if parent is None or ref[1] >= len(parent.outputs):
                violations.append(f"dangling input in {key}: {ref}")

    # (ii) every loser terminal maps to a kill-enablers template covering
    # all of the loser's enablers; per functionary with a kill template, the
    # number of its enabler outputs that template leaves unspent
    kill_misses = {}
    for f in g.functionaries:
        if (TxKind.KILL_ENABLERS, f) in g.templates:
            create = g.template(TxKind.ENABLER_CREATE, f).id
            refs = {(create, enabler_index(g, f, *slot))
                    for slot in g._enabler_slots(f)}
            kill = g.template(TxKind.KILL_ENABLERS, f)
            kill_misses[f] = len(refs - set(kill.inputs))
    for key, tx in g.templates.items():
        if tx.template_kind not in (TxKind.PROVER_LOSES, TxKind.VERIFIER_LOSES):
            continue
        losers = [o.tag.split(":", 1)[1] for o in tx.outputs
                  if o.tag.startswith("loser:")]
        for loser in losers:
            if loser not in kill_misses:
                violations.append(f"{key}: no kill-enablers template for {loser}")
            elif kill_misses[loser]:
                violations.append(f"{key}: kill template for {loser} misses "
                                  f"{kill_misses[loser]} enablers")

    # (iii) unlocking spends exactly one operator enabler + the open kick-off
    for key, tx in g.templates.items():
        if tx.template_kind != TxKind.UNLOCKING:
            continue
        _, vmxo_id, f = key
        op_ref = (g.template(TxKind.ENABLER_CREATE, f).id,
                  enabler_index(g, f, vmxo_id))
        if sum(r == op_ref for r in tx.inputs) != 1:
            violations.append(f"{key}: must consume exactly one operator enabler")
        kick = g.template(TxKind.KICKOFF, vmxo_id, f)
        if (kick.id, 0) not in tx.inputs:
            violations.append(f"{key}: missing open kick-off input")

    # (iv) each kickoff's dispute-channel outputs have terminal templates
    terminal_spends = Counter(
        ref for t in g.templates.values()
        if t.template_kind in (TxKind.PROVER_LOSES, TxKind.VERIFIER_LOSES)
        for ref in set(t.inputs))
    for key, tx in g.templates.items():
        if tx.template_kind != TxKind.KICKOFF:
            continue
        for idx, out in enumerate(tx.outputs):
            if out.kind != OutputKind.DISPUTE_CHANNEL:
                continue
            if terminal_spends[(tx.id, idx)] < 2:
                violations.append(f"{key}: channel {idx} lacks loser terminals")
    return violations


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("v", range(1, 4))
def test_every_lookup_matches_eager_reference(n, v):
    fs = [f"f{i}" for i in range(n)]
    ref, outpoints = eager_reference(fs, v, 100_000, 7_000)
    g = build_packet_templates(fs, v, 100_000, deposit_per_functionary=7_000)
    assert g.template_count() == len(ref)
    assert g.enabler_count() == len(outpoints)
    keys = sorted(ref)
    random.Random(10 * n + v).shuffle(keys)
    half = len(keys) // 2
    # looked up before the ceremony: no signature until it is held
    for key in keys[:half]:
        tx = g.template(*key)
        assert tx.id == ref[key].id and tx == ref[key]
        assert set(tx.signatures) == set()
    g.sign_all()
    # looked up after it: signed as if built before it
    for key in keys[half:]:
        tx = g.template(*key)
        assert tx.id == ref[key].id and tx == ref[key]
    for key in keys:
        assert set(g.template(*key).signatures) == set(fs)
    assert len(g.templates) == len(ref)
    slots = list(outpoints)
    random.Random(n - v).shuffle(slots)
    for slot in slots:
        assert g.enabler_state(*slot) == EnablerState.LIVE
        assert (g.template(TxKind.ENABLER_CREATE, slot[0]).id,
                enabler_index(g, *slot)) == outpoints[slot]
    assert g.used_enablers == {}
    assert validate_graph(g) == []
