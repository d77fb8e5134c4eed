"""Presigned transaction DAG: outputs, templates, enablers, key deletion.

A packet is a graph of transaction templates per VMXO: one Locking, N
Kick-off and N Unlocking templates, bilateral dispute channels with
prover-loses / verifier-loses terminals, a Kill-enablers template per
functionary, and Force-close templates for each pair of an operator's
Open-kick-off outputs across the packet.

Templates are immutable and content-addressed: a template's id is the hash
of its serialised content, taken once when it is built.  A changed template
is a new template with a new id, and since inputs reference their parents
by id, every descendant must be rebuilt too.  Signatures are bound to the
id signed over, so a rebuilt template carries no valid signature.  Key
deletion is a permission flag: once deleted, a functionary can never sign
anything for that VMXO outside the presigned templates.

The 2·N·(N−1)·V loser terminals are most of the graph, and a run executes
few of them, so each is built on its first lookup by name.  Its content
follows from the name alone (the channel is an output of a kick-off, which
is built up front), so its id is the one an eager build would give.  The
graph remembers the signing ceremony's signers, and a terminal built after
the ceremony carries their signatures over its id, as it would had it been
built before.  ``template_count`` gives the size of the whole graph in
closed form, and ``build_all`` builds what is left of it.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

from .econ import CostTable
from .errors import (AlreadyClosed, KeyDeleted, NoTrigger, NotSameOperator,
                     PrematureDeletion, SpendRejected, TooFewFunctionaries)


class OutputKind(str, Enum):
    LOCKING = "Locking"
    OPEN_KICKOFF = "OpenKickoff"
    ENABLER = "EnablerOut"
    DEPOSIT = "DepositOut"
    DISPUTE_CHANNEL = "DisputeChannelOut"
    REWARD = "RewardOut"


class TxKind(str, Enum):
    LOCKING = "Locking"
    KICKOFF = "Kickoff"
    UNLOCKING = "Unlocking"
    PROVER_LOSES = "ProverLoses"
    VERIFIER_LOSES = "VerifierLoses"
    KILL_ENABLERS = "KillEnablers"
    FORCE_CLOSE = "ForceClose"
    ENABLER_CREATE = "EnablerCreate"
    DEPOSIT_CREATE = "DepositCreate"


# template kinds whose execution lets a loser's enablers be burnt
SLASHING_KINDS = frozenset({TxKind.PROVER_LOSES, TxKind.VERIFIER_LOSES,
                            TxKind.FORCE_CLOSE, TxKind.KILL_ENABLERS})

# name prefix of a loser terminal -> its kind
LOSER_TERMINALS = {"proverloses": TxKind.PROVER_LOSES,
                   "verifierloses": TxKind.VERIFIER_LOSES}


class EnablerRole(str, Enum):
    OPERATOR = "Operator"
    VERIFIER = "Verifier"


class EnablerState(str, Enum):
    LIVE = "Live"
    CONSUMED = "Consumed"
    BURNT = "Burnt"


class KeyState(str, Enum):
    HELD = "Held"
    DELETED = "Deleted"
    LEAKED = "Leaked"


class VmxoState(str, Enum):
    AWAITING_PEGIN = "AwaitingPegin"
    LOCKED = "Locked"
    KICKOFF_OPEN = "KickoffOpen"
    UNLOCKED = "Unlocked"
    INVALIDATED = "Invalidated"


@dataclass(frozen=True)
class SpendCondition:
    signers: frozenset[str] = frozenset()
    timelock: Optional[int] = None  # relative, in ticks
    predicate: Optional[str] = None  # e.g. "admitCounterProof", "loserTerminal"


@dataclass(frozen=True)
class SimOutput:
    kind: OutputKind
    amount: int
    condition: SpendCondition = SpendCondition()
    tag: str = ""  # owner / channel routing, e.g. "enabler:f1:Operator:v0"

    def serial(self) -> list:
        return [self.kind.value, self.amount,
                sorted(self.condition.signers),
                self.condition.timelock, self.condition.predicate, self.tag]


EXTERNAL = "ext"  # pseudo tx-id prefix for wallet-funded inputs


@dataclass(frozen=True)
class SimTx:
    template_kind: TxKind
    inputs: tuple[tuple[str, int], ...]
    outputs: tuple[SimOutput, ...]
    vbytes: int = 200
    # signer -> id signed over; per template, not part of its content
    signatures: dict[str, str] = field(default_factory=dict, compare=False)
    id: str = field(init=False, compare=False)

    def __post_init__(self):
        set_ = object.__setattr__
        set_(self, "inputs", tuple(self.inputs))
        set_(self, "outputs", tuple(self.outputs))
        set_(self, "signatures", dict(self.signatures))
        set_(self, "id", hashlib.sha256(self.serial().encode()).hexdigest()[:16])

    def serial(self) -> str:
        return json.dumps([self.template_kind.value, self.inputs,
                           [o.serial() for o in self.outputs], self.vbytes],
                          separators=(",", ":"))

    def valid_signers(self) -> set[str]:
        cur = self.id
        return {s for s, over in self.signatures.items() if over == cur}

    def is_fully_signed(self, required: Iterable[str]) -> bool:
        cur = self.id
        return all(self.signatures.get(f) == cur for f in required)

    def fee(self, resolve_amount) -> int:
        inflow = sum(resolve_amount(ref) for ref in self.inputs)
        return inflow - sum(o.amount for o in self.outputs)


@dataclass
class Enabler:
    owner: str
    role: EnablerRole
    vmxo_id: str
    counterparty: Optional[str] = None  # verifier role: the watched operator
    state: EnablerState = EnablerState.LIVE
    outpoint: Optional[tuple[str, int]] = None

    @property
    def key(self) -> str:
        cp = self.counterparty or "-"
        return f"enabler:{self.owner}:{self.role.value}:{self.vmxo_id}:{cp}"


@dataclass
class Vmxo:
    id: str
    amount: int
    state: VmxoState = VmxoState.AWAITING_PEGIN
    operator: Optional[str] = None  # set while KickoffOpen / after Unlocked


class PacketGraph:
    """Template graph plus execution-time spend tracking for one packet."""

    def __init__(self, functionaries: list[str], vmxo_ids: list[str]):
        self.functionaries = list(functionaries)
        self.vmxo_ids = list(vmxo_ids)
        # functionary -> index, which orders each kick-off's channel outputs
        self.position = {f: i for i, f in enumerate(self.functionaries)}
        self.templates: dict[str, SimTx] = {}  # built templates, by id
        self.names: dict[str, str] = {}  # template name -> template id
        self.signers: dict[str, None] = {}  # the ceremony's, in order
        self.signed_vmxos: set[str] = set()  # checked by delete_keys
        self.enablers: dict[str, Enabler] = {}
        self.enablers_by_owner: dict[str, list[Enabler]] = {
            f: [] for f in self.functionaries}
        self.key_states: dict[tuple[str, str], KeyState] = {}
        self.vmxos: dict[str, Vmxo] = {}
        self.spent: dict[tuple[str, int], str] = {}  # outpoint -> spender id

    # -- construction ------------------------------------------------------

    def _add(self, name: str, tx: SimTx) -> SimTx:
        self.templates[tx.id] = tx
        self.names[name] = tx.id
        return tx

    def template(self, name: str) -> SimTx:
        tid = self.names.get(name)
        if tid is None:
            return self._build_terminal(name)
        return self.templates[tid]

    def _build_terminal(self, name: str) -> SimTx:
        """Build loser terminal ``{kind}:{vmxo}:{f}:{w}``.  It spends the
        channel between operator f and verifier w, which is output 1 + (w's
        index among f's verifiers) of f's kick-off, and pays the winner."""
        kind, _, rest = name.partition(":")
        v, f, w = rest.rsplit(":", 2) if rest.count(":") >= 2 else ("",) * 3
        kick = self.names.get(f"kickoff:{v}:{f}")
        if kind not in LOSER_TERMINALS or kick is None or w == f \
                or w not in self.position:
            raise KeyError(name)
        pw = self.position[w]
        chan_ref = (kick, 1 + pw - (pw > self.position[f]))
        winner, loser = (w, f) if kind == "proverloses" else (f, w)
        tx = SimTx(LOSER_TERMINALS[kind], [chan_ref],
                   [SimOutput(OutputKind.REWARD, 0,
                              SpendCondition(signers=frozenset({winner}),
                                             predicate="killEnablers"),
                              tag=f"loser:{loser}")], vbytes=400)
        tx.signatures.update(dict.fromkeys(self.signers, tx.id))
        return self._add(name, tx)

    def build_all(self) -> None:
        """Build every template not built yet: the loser terminals."""
        for v in self.vmxo_ids:
            for f in self.functionaries:
                for w in self.functionaries:
                    if w != f:
                        for kind in LOSER_TERMINALS:
                            self.template(f"{kind}:{v}:{f}:{w}")

    def template_count(self) -> int:
        """Templates in the whole graph, built or not: deposit, enabler
        creation and kill per functionary, locking per VMXO, kick-off and
        unlocking per (VMXO, operator), two loser terminals per channel,
        force-close per operator and pair of VMXOs."""
        n, v = len(self.functionaries), len(self.vmxo_ids)
        return (3 * n + v + 2 * v * n + 2 * v * n * (n - 1)
                + n * v * (v - 1) // 2)

    # -- lookups -----------------------------------------------------------

    def output_at(self, ref: tuple[str, int]) -> Optional[SimOutput]:
        tx = self.templates.get(ref[0])
        if tx is None or ref[1] >= len(tx.outputs):
            return None
        return tx.outputs[ref[1]]

    def live_enablers(self, owner: str) -> list[Enabler]:
        return [e for e in self.enablers_by_owner.get(owner, ())
                if e.state == EnablerState.LIVE]

    def find_enabler(self, owner: str, role: EnablerRole, vmxo_id: str,
                     counterparty: Optional[str] = None) -> Optional[Enabler]:
        cp = counterparty or "-"
        return self.enablers.get(f"enabler:{owner}:{role.value}:{vmxo_id}:{cp}")

    # -- signing and key management ---------------------------------------

    def sign_template(self, tx: SimTx, signer: str, vmxo_id: str) -> SimTx:
        state = self.key_states.get((signer, vmxo_id), KeyState.HELD)
        if state == KeyState.DELETED:
            raise KeyDeleted(f"{signer} for {vmxo_id}")
        tx.signatures[signer] = tx.id  # idempotent: same signer, same id
        return tx

    def sign_all(self, signers: list[str]) -> None:
        """The signing ceremony, held before any key is deleted: every
        signer signs every template's id, built now or later."""
        self.signers.update(dict.fromkeys(signers))
        for tid, tx in self.templates.items():
            tx.signatures.update(dict.fromkeys(signers, tid))

    def delete_keys(self, functionary: str, vmxo_id: str) -> KeyState:
        """Delete a key once the VMXO's locking and unlocking templates are
        fully signed.  Signatures are never taken back, so each VMXO's
        templates are checked once, not once per functionary."""
        if vmxo_id not in self.signed_vmxos:
            names = [f"locking:{vmxo_id}"] + [
                f"unlocking:{vmxo_id}:{f}" for f in self.functionaries]
            for name in names:
                if not self.template(name).is_fully_signed(self.functionaries):
                    raise PrematureDeletion(name)
            self.signed_vmxos.add(vmxo_id)
        self.key_states[(functionary, vmxo_id)] = KeyState.DELETED
        return KeyState.DELETED

    def leak_keys(self, functionary: str, vmxo_id: str) -> KeyState:
        self.key_states[(functionary, vmxo_id)] = KeyState.LEAKED
        return KeyState.LEAKED

    def adhoc_spend_allowed(self, vmxo_id: str) -> bool:
        """A non-template spend of the VMXO needs every key still usable."""
        return all(self.key_states.get((f, vmxo_id)) == KeyState.LEAKED
                   for f in self.functionaries)

    # -- execution ---------------------------------------------------------

    def execute(self, tx: SimTx) -> SimTx:
        """Record a template execution, enforcing single-spend."""
        for ref in tx.inputs:
            if ref[0].startswith(EXTERNAL):
                continue
            if ref in self.spent:
                raise SpendRejected(f"double spend of {ref}")
        for ref in tx.inputs:
            if not ref[0].startswith(EXTERNAL):
                self.spent[ref] = tx.id
        return tx

    # -- enabler/force-close semantics -------------------------------------

    def burn_enablers(self, loser: str, trigger: Optional[SimTx]) -> list[Enabler]:
        if trigger is None:
            raise NoTrigger(loser)
        if trigger.template_kind not in SLASHING_KINDS:
            raise NoTrigger(trigger.template_kind.value)
        burnt = []
        for e in self.live_enablers(loser):
            e.state = EnablerState.BURNT
            burnt.append(e)
        return burnt

    def apply_force_close(self, vmxo_a: str, vmxo_b: str) -> SimTx:
        """Terminate the second of two simultaneous kick-offs by one operator."""
        va, vb = self.vmxos[vmxo_a], self.vmxos[vmxo_b]
        if va.state != VmxoState.KICKOFF_OPEN or vb.state != VmxoState.KICKOFF_OPEN:
            raise AlreadyClosed(f"{vmxo_a},{vmxo_b}")
        if va.operator is None or va.operator != vb.operator:
            raise NotSameOperator(f"{va.operator} vs {vb.operator}")
        op = va.operator
        name = f"forceclose:{op}:{vmxo_a}:{vmxo_b}"
        alt = f"forceclose:{op}:{vmxo_b}:{vmxo_a}"
        tx = self.template(name if name in self.names else alt)
        self.execute(tx)
        vb.state = VmxoState.LOCKED
        vb.operator = None
        return tx


def build_packet_templates(functionaries: list[str], vmxo_count: int,
                           amount: int,
                           deposit_per_functionary: int = 0) -> PacketGraph:
    """Build the presigned template graph for one packet, all but the loser
    terminals, which are built on lookup."""
    n = len(functionaries)
    if n < 2:
        raise TooFewFunctionaries(str(n))
    if vmxo_count < 1:
        raise ValueError("vmxo_count must be >= 1")
    vmxo_ids = [f"pkt0:vmxo{i}" for i in range(vmxo_count)]
    g = PacketGraph(functionaries, vmxo_ids)

    # deposits and enabler-creation, one funding tx per functionary
    for f in functionaries:
        dep = SimTx(TxKind.DEPOSIT_CREATE, [(f"{EXTERNAL}:{f}", 0)],
                    [SimOutput(OutputKind.DEPOSIT, deposit_per_functionary,
                               SpendCondition(predicate="loserTerminal"),
                               tag=f"deposit:{f}")], vbytes=150)
        g._add(f"deposit:{f}", dep)
        owned = SpendCondition(signers=frozenset({f}))
        ens = []
        for v in vmxo_ids:
            ens.append(Enabler(f, EnablerRole.OPERATOR, v))
            ens += [Enabler(f, EnablerRole.VERIFIER, v, counterparty=other)
                    for other in functionaries if other != f]
        keys = [e.key for e in ens]
        create = SimTx(TxKind.ENABLER_CREATE, [(f"{EXTERNAL}:{f}", 0)],
                       [SimOutput(OutputKind.ENABLER, 0, owned, tag=key)
                        for key in keys], vbytes=100 + 30 * len(ens))
        g._add(f"enablers:{f}", create)
        for idx, (e, key) in enumerate(zip(ens, keys)):
            e.outpoint = (create.id, idx)
            g.enablers[key] = e
        g.enablers_by_owner[f] += ens

    # each operator's dispute channels, one per verifier, with their spend
    # conditions shared by every VMXO's kick-off
    channels = {f: [(w, SpendCondition(signers=frozenset({f, w})))
                    for w in functionaries if w != f] for f in functionaries}
    for v in vmxo_ids:
        g.vmxos[v] = Vmxo(v, amount)
        locking = SimTx(TxKind.LOCKING, [(f"{EXTERNAL}:user", 0)],
                        [SimOutput(OutputKind.LOCKING, amount,
                                   SpendCondition(signers=frozenset(functionaries)),
                                   tag=f"lock:{v}")], vbytes=300)
        g._add(f"locking:{v}", locking)

        for f in functionaries:
            kick_outs = [SimOutput(OutputKind.OPEN_KICKOFF, 0,
                                   SpendCondition(signers=frozenset({f})),
                                   tag=f"openkick:{v}:{f}")]
            kick_outs += [SimOutput(OutputKind.DISPUTE_CHANNEL, 0, cond,
                                    tag=f"channel:{v}:{f}:{w}")
                          for w, cond in channels[f]]
            kickoff = SimTx(TxKind.KICKOFF, [(f"{EXTERNAL}:{f}", 0)],
                            kick_outs, vbytes=CostTable.commit_proof)
            g._add(f"kickoff:{v}:{f}", kickoff)

            op_enabler = g.find_enabler(f, EnablerRole.OPERATOR, v)
            unlocking = SimTx(
                TxKind.UNLOCKING,
                [(locking.id, 0), (kickoff.id, 0), op_enabler.outpoint],
                [SimOutput(OutputKind.REWARD, amount,
                           SpendCondition(signers=frozenset({f}),
                                          timelock=1),
                           tag=f"payout:{f}")],
                vbytes=500)
            g._add(f"unlocking:{v}:{f}", unlocking)

    # kill-enablers per functionary: spends all their enabler outputs
    for f in functionaries:
        refs = [e.outpoint for e in g.enablers_by_owner[f]]
        kill = SimTx(TxKind.KILL_ENABLERS, sorted(refs),
                     [SimOutput(OutputKind.REWARD, 0,
                                SpendCondition(predicate="loserTerminal"),
                                tag=f"killed:{f}")], vbytes=200 + 20 * len(refs))
        g._add(f"kill:{f}", kill)

    # force-close per pair of one operator's open-kick-off outputs
    for f in functionaries:
        for i, va in enumerate(vmxo_ids):
            for vb in vmxo_ids[i + 1:]:
                ka = g.template(f"kickoff:{va}:{f}")
                kb = g.template(f"kickoff:{vb}:{f}")
                fc = SimTx(TxKind.FORCE_CLOSE, [(ka.id, 0), (kb.id, 0)],
                           [SimOutput(OutputKind.REWARD, 0,
                                      SpendCondition(predicate="killEnablers"),
                                      tag=f"loser:{f}")], vbytes=350)
                g._add(f"forceclose:{f}:{va}:{vb}", fc)
    return g


def validate_graph(g: PacketGraph) -> list[str]:
    """Structural checks over the whole template graph, built first;
    violations as strings."""
    g.build_all()
    violations: list[str] = []
    ids = set(g.templates)

    # (i) every internal input references an existing template output
    for name, tid in g.names.items():
        tx = g.templates[tid]
        for ref in tx.inputs:
            if ref[0].startswith(EXTERNAL):
                continue
            if ref[0] not in ids or g.output_at(ref) is None:
                violations.append(f"dangling input in {name}: {ref}")

    # (ii) every loser terminal maps to a kill-enablers template covering
    # all of the loser's enablers; per functionary with a kill template, the
    # number of its enabler outputs that template leaves unspent
    kill_misses = {}
    for f in g.functionaries:
        if f"kill:{f}" in g.names:
            refs = {e.outpoint for e in g.enablers_by_owner[f]}
            kill_misses[f] = len(refs - set(g.template(f"kill:{f}").inputs))
    for name, tid in g.names.items():
        tx = g.templates[tid]
        if tx.template_kind not in (TxKind.PROVER_LOSES, TxKind.VERIFIER_LOSES):
            continue
        losers = [o.tag.split(":", 1)[1] for o in tx.outputs
                  if o.tag.startswith("loser:")]
        for loser in losers:
            if loser not in kill_misses:
                violations.append(f"{name}: no kill-enablers template for {loser}")
            elif kill_misses[loser]:
                violations.append(f"{name}: kill template for {loser} misses "
                                  f"{kill_misses[loser]} enablers")

    # (iii) unlocking spends exactly one operator enabler + the open kick-off
    for name, tid in g.names.items():
        tx = g.templates[tid]
        if tx.template_kind != TxKind.UNLOCKING:
            continue
        vmxo_id = name.split(":", 1)[1].rsplit(":", 1)[0]
        f = name.rsplit(":", 1)[1]
        op_en = g.find_enabler(f, EnablerRole.OPERATOR, vmxo_id)
        en_inputs = [r for r in tx.inputs if op_en and r == op_en.outpoint]
        if len(en_inputs) != 1:
            violations.append(f"{name}: must consume exactly one operator enabler")
        kick = g.template(f"kickoff:{vmxo_id}:{f}")
        if (kick.id, 0) not in tx.inputs:
            violations.append(f"{name}: missing open kick-off input")

    # (iv) each kickoff's dispute-channel outputs have terminal templates
    terminal_spends = Counter(
        ref for t in g.templates.values()
        if t.template_kind in (TxKind.PROVER_LOSES, TxKind.VERIFIER_LOSES)
        for ref in set(t.inputs))
    for name, tid in g.names.items():
        tx = g.templates[tid]
        if tx.template_kind != TxKind.KICKOFF:
            continue
        for idx, out in enumerate(tx.outputs):
            if out.kind != OutputKind.DISPUTE_CHANNEL:
                continue
            if terminal_spends[(tid, idx)] < 2:
                violations.append(f"{name}: channel {idx} lacks loser terminals")
    return violations
