import hashlib
import random
from dataclasses import FrozenInstanceError, replace

import pytest

from bridgesim.econ import CostTable
from bridgesim.errors import (AlreadyClosed, NoTrigger, NotSameOperator,
                             PrematureDeletion, SpendRejected,
                             TooFewFunctionaries)
from bridgesim.txgraph import (EnablerRole, EnablerState, OutputKind,
                              SimOutput, SimTx, SpendCondition, TxKind,
                              VmxoState, build_packet_templates,
                              validate_graph)

F3 = ["f0", "f1", "f2"]


def packet(functionaries=None, vmxos=1, amount=100_000):
    return build_packet_templates(functionaries or F3, vmxos, amount)


def test_too_few_functionaries():
    with pytest.raises(TooFewFunctionaries):
        build_packet_templates(["f0"], 1, 100)


def test_n2_counts():
    g = packet(["f0", "f1"])
    g.build_all()
    kickoffs = [t for t in g.templates.values()
                if t.template_kind == TxKind.KICKOFF]
    assert len(kickoffs) == 2
    for k in kickoffs:
        channels = [o for o in k.outputs if o.kind == OutputKind.DISPUTE_CHANNEL]
        assert len(channels) == 1
    roles = [role for f in g.functionaries
             for role, _, _ in g._enabler_slots(f)]
    assert roles.count(EnablerRole.OPERATOR) == 2
    assert roles.count(EnablerRole.VERIFIER) == 2


def test_n3_channel_count():
    g = packet()
    g.build_all()
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
    tmpl = g.template(f"locking:{g.vmxo_ids[0]}")
    g.sign_all()
    g.sign_all()
    assert list(g.signers) == F3
    assert tmpl.signatures is g.signers


def test_full_signing_completes_template():
    g = packet()
    tmpl = g.template(f"locking:{g.vmxo_ids[0]}")
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


@pytest.mark.parametrize("functionary,vmxo", [
    ("f9", "pkt0:vmxo0"), ("nobody", "nov"), ("f0", "nov")])
def test_key_deletion_and_leak_reject_unknown_names(functionary, vmxo):
    g = packet()
    g.sign_all()
    for op in (g.delete_keys, g.leak_keys):
        with pytest.raises(KeyError):
            op(functionary, vmxo)
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
    kill = g.template("kill:f0")
    # drop one enabler-burn edge
    g.templates["kill:f0"] = replace(kill, inputs=kill.inputs[1:])
    violations = validate_graph(g)
    assert any("misses" in v for v in violations)


def test_unlocking_missing_kickoff_input_detected():
    g = packet()
    v = g.vmxo_ids[0]
    unlock = g.template(f"unlocking:{v}:f0")
    kick = g.template(f"kickoff:{v}:f0")
    assert kick.outputs[0].kind == OutputKind.OPEN_KICKOFF
    g.templates[f"unlocking:{v}:f0"] = replace(
        unlock, inputs=[r for r in unlock.inputs if r != (kick.id, 0)])
    violations = validate_graph(g)
    assert any("kick-off" in v for v in violations)


def test_single_spend_enforced():
    g = packet()
    v = g.vmxo_ids[0]
    unlock = g.template(f"unlocking:{v}:f0")
    g.execute(unlock)
    with pytest.raises(SpendRejected):
        g.execute(unlock)


def test_force_close_requires_same_operator():
    g = packet(vmxos=2)
    va, vb = g.vmxo_ids
    g.vmxos[va].state = VmxoState.KICKOFF_OPEN
    g.vmxos[va].operator = "f0"
    g.vmxos[vb].state = VmxoState.KICKOFF_OPEN
    g.vmxos[vb].operator = "f1"
    with pytest.raises(NotSameOperator):
        g.apply_force_close(va, vb)


def test_force_close_two_simultaneous_kickoffs():
    g = packet(vmxos=2)
    va, vb = g.vmxo_ids
    for v in (va, vb):
        g.vmxos[v].state = VmxoState.KICKOFF_OPEN
        g.vmxos[v].operator = "f0"
    tx = g.apply_force_close(va, vb)
    assert tx.template_kind == TxKind.FORCE_CLOSE
    assert g.vmxos[vb].state == VmxoState.LOCKED
    with pytest.raises(AlreadyClosed):
        g.apply_force_close(va, vb)


def test_force_close_pair_given_in_reverse():
    g = packet(vmxos=2)
    v0, v1 = g.vmxo_ids
    for v in (v0, v1):
        g.vmxos[v].state = VmxoState.KICKOFF_OPEN
        g.vmxos[v].operator = "f0"
    tx = g.apply_force_close(v1, v0)
    assert g.templates[f"forceclose:f0:{v0}:{v1}"] is tx
    assert f"forceclose:f0:{v1}:{v0}" not in g.templates
    assert g.vmxos[v0].state == VmxoState.LOCKED
    assert g.vmxos[v1].state == VmxoState.KICKOFF_OPEN


def test_burn_enablers_all_live_to_burnt():
    g = packet(vmxos=2)
    trigger = g.template(f"proverloses:{g.vmxo_ids[0]}:f0:f1")
    slots = list(g._enabler_slots("f0"))
    assert len(slots) == 6
    assert g.burn_enablers("f0", trigger) == 6
    assert {g.enabler_state("f0", *slot) for slot in slots} == {
        EnablerState.BURNT}
    # a repeat burn marks none
    assert g.burn_enablers("f0", trigger) == 0
    assert g.enabler_state("f1", EnablerRole.OPERATOR,
                           g.vmxo_ids[0]) == EnablerState.LIVE


def test_burn_skips_consumed_enabler():
    g = packet()
    v = g.vmxo_ids[0]
    g.set_enabler_state(EnablerState.CONSUMED, "f0", EnablerRole.OPERATOR, v)
    assert g.burn_enablers("f0", g.template("kill:f0")) == 2
    assert g.enabler_state("f0", EnablerRole.OPERATOR,
                           v) == EnablerState.CONSUMED
    assert g.enabler_state("f0", EnablerRole.VERIFIER, v,
                           "f2") == EnablerState.BURNT


def test_no_such_enabler_has_no_state():
    g = packet()
    v = g.vmxo_ids[0]
    for slot in [("f0", EnablerRole.VERIFIER, v, "f0"),  # its own loser
                 ("f0", EnablerRole.OPERATOR, "nov"),
                 ("f9", EnablerRole.OPERATOR, v),
                 ("f0", EnablerRole.OPERATOR, v, "f1"),
                 ("f0", EnablerRole.VERIFIER, v)]:
        assert g.enabler_state(*slot) is None
        with pytest.raises(KeyError):
            g.set_enabler_state(EnablerState.CONSUMED, *slot)
    assert g.burn_enablers("f9", g.template("kill:f0")) == 0
    assert g.used_enablers == {}


def test_burn_requires_trigger():
    g = packet()
    with pytest.raises(NoTrigger):
        g.burn_enablers("f0", None)
    locking = g.template(f"locking:{g.vmxo_ids[0]}")
    with pytest.raises(NoTrigger):
        g.burn_enablers("f0", locking)


def test_post_burn_kickoff_lacks_operator_enabler():
    g = packet()
    trigger = g.template(f"proverloses:{g.vmxo_ids[0]}:f0:f1")
    g.burn_enablers("f0", trigger)
    assert g.enabler_state("f0", EnablerRole.OPERATOR,
                           g.vmxo_ids[0]) == EnablerState.BURNT


def test_signature_invalidation_cascade():
    g = packet()
    v = g.vmxo_ids[0]
    kick = g.template(f"kickoff:{v}:f0")
    unlock = g.template(f"unlocking:{v}:f0")
    g.sign_all()
    assert set(kick.signatures) == set(unlock.signatures) == set(F3)
    # change the kickoff's first output: that is a new kickoff with a new id,
    # so the unlocking template now references a stale parent and must be
    # re-created with new inputs, which strips every signature
    out = kick.outputs[0]
    changed = replace(kick, outputs=(replace(out, amount=out.amount + 1),)
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
    kick = g.template(f"kickoff:{g.vmxo_ids[0]}:f0")
    with pytest.raises(FrozenInstanceError):
        kick.vbytes = 1
    with pytest.raises(FrozenInstanceError):
        kick.id = "0" * 16
    with pytest.raises(FrozenInstanceError):
        kick.outputs[0].amount = 1
    assert isinstance(kick.inputs, tuple) and isinstance(kick.outputs, tuple)


def test_id_is_content_hash():
    g = packet(vmxos=2)
    g.build_all()
    ids = [tx.id for tx in g.templates.values()]
    assert len(set(ids)) == len(ids) == g.template_count()
    for tx in g.templates.values():
        assert tx.id == hashlib.sha256(tx.serial().encode()).hexdigest()[:16]


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
    g.build_all()
    assert len(g.templates) == template_count(n, v)
    assert validate_graph(g) == []
    # each functionary's slots are its enabler outputs, in order
    for f in fs:
        assert [g._enabler_index(f, *slot) for slot in g._enabler_slots(f)] \
            == list(range(len(g.template(f"enablers:{f}").outputs)))
    assert n * len(g.template("enablers:f0").outputs) == g.enabler_count()


def test_templates_never_mint_value():
    g = packet(vmxos=2)
    g.build_all()
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
            kick = g.template(f"kickoff:{v}:{f}")
            verifiers = [x for x in g.functionaries if x != f]
            for ci, w in enumerate(verifiers):
                chan = [(kick.id, 1 + ci)]
                for kind, payee, loser, name in [
                        (TxKind.PROVER_LOSES, w, f, "proverloses"),
                        (TxKind.VERIFIER_LOSES, f, w, "verifierloses")]:
                    tx = SimTx(kind, chan, [SimOutput(
                        OutputKind.REWARD, 0,
                        SpendCondition(signers=frozenset({payee}),
                                       predicate="killEnablers"),
                        tag=f"loser:{loser}")], vbytes=400)
                    ids[f"{name}:{v}:{f}:{w}"] = tx.id
    return ids


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("v", range(1, 4))
def test_lazy_terminals_match_eager_build(n, v):
    fs = [f"f{i}" for i in range(n)]
    eager = eager_terminal_ids(packet(fs, vmxos=v))
    assert len(eager) == 2 * v * n * (n - 1)
    # looked up one by one in a shuffled order, and built all at once
    lazy = packet(fs, vmxos=v)
    names = sorted(eager)
    random.Random(10 * n + v).shuffle(names)
    assert {name: lazy.template(name).id for name in names} == eager
    whole = packet(fs, vmxos=v)
    whole.build_all()
    assert {name: whole.templates[name].id for name in eager} == eager
    lazy.build_all()
    assert ({name: tx.id for name, tx in lazy.templates.items()}
            == {name: tx.id for name, tx in whole.templates.items()})
    assert len(lazy.templates) == lazy.template_count()
    assert validate_graph(lazy) == [] and validate_graph(whole) == []


def test_terminal_built_after_ceremony_carries_its_signers():
    g = packet(vmxos=2)
    g.sign_all()
    for v in g.vmxo_ids:
        for f in F3:
            g.delete_keys(f, v)
    name = f"proverloses:{g.vmxo_ids[1]}:f2:f0"
    assert name not in g.templates
    tx = g.template(name)
    assert g.templates[name] is tx
    assert set(tx.signatures) == set(F3)
    for bad in [f"proverloses:{g.vmxo_ids[0]}:f0:f0",  # no channel to self
                "proverloses:pkt0:vmxo9:f0:f1",  # no such VMXO
                f"proverloses:{g.vmxo_ids[0]}:f0:f7",  # no such verifier
                f"winnerpays:{g.vmxo_ids[0]}:f0:f1",  # no such kind
                "proverloses:f0",
                "deposit:f7", "enablers:", "kill:f7", "locking:pkt0:vmxo9",
                f"kickoff:{g.vmxo_ids[0]}:f7", "unlocking:pkt0:vmxo9:f0",
                # a pair is named once, in VMXO order
                f"forceclose:f0:{g.vmxo_ids[1]}:{g.vmxo_ids[0]}",
                f"forceclose:f0:{g.vmxo_ids[0]}:{g.vmxo_ids[0]}",
                f"forceclose:f7:{g.vmxo_ids[0]}:{g.vmxo_ids[1]}"]:
        with pytest.raises(KeyError):
            g.template(bad)


def eager_reference(functionaries, vmxo_count, amount, deposit):
    """Every template by name and every enabler's outpoint by (owner,
    role, VMXO, counterparty), built in one pass up front: a frozen copy of
    the eager build that on-lookup building must agree with."""
    vmxo_ids = [f"pkt0:vmxo{i}" for i in range(vmxo_count)]
    txs, outpoints = {}, {}
    for f in functionaries:
        txs[f"deposit:{f}"] = SimTx(
            TxKind.DEPOSIT_CREATE, [(f"ext:{f}", 0)],
            [SimOutput(OutputKind.DEPOSIT, deposit,
                       SpendCondition(predicate="loserTerminal"),
                       tag=f"deposit:{f}")], vbytes=150)
        slots = []
        for v in vmxo_ids:
            slots.append((f, EnablerRole.OPERATOR, v, None))
            slots += [(f, EnablerRole.VERIFIER, v, w)
                      for w in functionaries if w != f]
        owned = SpendCondition(signers=frozenset({f}))
        create = SimTx(TxKind.ENABLER_CREATE, [(f"ext:{f}", 0)],
                       [SimOutput(OutputKind.ENABLER, 0, owned,
                                  tag=f"enabler:{f}:{r.value}:{v}:{w or '-'}")
                        for f, r, v, w in slots],
                       vbytes=100 + 30 * len(slots))
        txs[f"enablers:{f}"] = create
        outpoints.update((slot, (create.id, i))
                         for i, slot in enumerate(slots))
    for v in vmxo_ids:
        locking = txs[f"locking:{v}"] = SimTx(
            TxKind.LOCKING, [("ext:user", 0)],
            [SimOutput(OutputKind.LOCKING, amount,
                       SpendCondition(signers=frozenset(functionaries)),
                       tag=f"lock:{v}")], vbytes=300)
        for f in functionaries:
            verifiers = [w for w in functionaries if w != f]
            kick = txs[f"kickoff:{v}:{f}"] = SimTx(
                TxKind.KICKOFF, [(f"ext:{f}", 0)],
                [SimOutput(OutputKind.OPEN_KICKOFF, 0,
                           SpendCondition(signers=frozenset({f})),
                           tag=f"openkick:{v}:{f}")]
                + [SimOutput(OutputKind.DISPUTE_CHANNEL, 0,
                             SpendCondition(signers=frozenset({f, w})),
                             tag=f"channel:{v}:{f}:{w}") for w in verifiers],
                vbytes=CostTable.commit_proof)
            txs[f"unlocking:{v}:{f}"] = SimTx(
                TxKind.UNLOCKING,
                [(locking.id, 0), (kick.id, 0),
                 outpoints[(f, EnablerRole.OPERATOR, v, None)]],
                [SimOutput(OutputKind.REWARD, amount,
                           SpendCondition(signers=frozenset({f}), timelock=1),
                           tag=f"payout:{f}")], vbytes=500)
            for ci, w in enumerate(verifiers):
                for kind, name, winner, loser in [
                        (TxKind.PROVER_LOSES, "proverloses", w, f),
                        (TxKind.VERIFIER_LOSES, "verifierloses", f, w)]:
                    txs[f"{name}:{v}:{f}:{w}"] = SimTx(
                        kind, [(kick.id, 1 + ci)],
                        [SimOutput(OutputKind.REWARD, 0, SpendCondition(
                            signers=frozenset({winner}),
                            predicate="killEnablers"),
                            tag=f"loser:{loser}")], vbytes=400)
    for f in functionaries:
        refs = sorted(op for slot, op in outpoints.items() if slot[0] == f)
        txs[f"kill:{f}"] = SimTx(
            TxKind.KILL_ENABLERS, refs,
            [SimOutput(OutputKind.REWARD, 0,
                       SpendCondition(predicate="loserTerminal"),
                       tag=f"killed:{f}")], vbytes=200 + 20 * len(refs))
        for i, va in enumerate(vmxo_ids):
            for vb in vmxo_ids[i + 1:]:
                txs[f"forceclose:{f}:{va}:{vb}"] = SimTx(
                    TxKind.FORCE_CLOSE,
                    [(txs[f"kickoff:{va}:{f}"].id, 0),
                     (txs[f"kickoff:{vb}:{f}"].id, 0)],
                    [SimOutput(OutputKind.REWARD, 0,
                               SpendCondition(predicate="killEnablers"),
                               tag=f"loser:{f}")], vbytes=350)
    return txs, outpoints


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("v", range(1, 4))
def test_every_lookup_matches_eager_reference(n, v):
    fs = [f"f{i}" for i in range(n)]
    ref, outpoints = eager_reference(fs, v, 100_000, 7_000)
    g = build_packet_templates(fs, v, 100_000, deposit_per_functionary=7_000)
    assert sorted(g.template_names()) == sorted(ref)
    assert g.template_count() == len(ref)
    assert g.enabler_count() == len(outpoints)
    names = sorted(ref)
    random.Random(10 * n + v).shuffle(names)
    half = len(names) // 2
    # looked up before the ceremony: no signature until it is held
    for name in names[:half]:
        tx = g.template(name)
        assert tx.id == ref[name].id and tx == ref[name]
        assert set(tx.signatures) == set()
    g.sign_all()
    # looked up after it: signed as if built before it
    for name in names[half:]:
        tx = g.template(name)
        assert tx.id == ref[name].id and tx == ref[name]
    for name in names:
        assert set(g.template(name).signatures) == set(fs)
    assert len(g.templates) == len(ref)
    slots = list(outpoints)
    random.Random(n - v).shuffle(slots)
    for slot in slots:
        assert g.enabler_state(*slot) == EnablerState.LIVE
        assert (g.template(f"enablers:{slot[0]}").id,
                g._enabler_index(*slot)) == outpoints[slot]
    assert g.used_enablers == {}
    assert validate_graph(g) == []
