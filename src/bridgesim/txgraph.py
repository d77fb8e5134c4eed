"""Presigned transaction DAG: outputs, templates, enablers, key deletion.

A packet is a graph of transaction templates per VMXO: one Locking, N
Kick-off and N Unlocking templates, bilateral dispute channels with
prover-loses / verifier-loses terminals, a Kill-enablers template per
functionary, and Force-close templates for each pair of an operator's
Open-kick-off outputs across the packet.

Templates are immutable and content-addressed: a template's id is the hash
of its serialised content.  Runs of the same shape build the same
templates, so each distinct content is serialised and hashed once per
process and its id kept in a bounded cache keyed by that content.  A
changed template is a new template with a new id, and since inputs
reference their parents by id, every descendant must be rebuilt too.  One
ceremony presigns the whole packet, and the graph records it once, as its
ordered ``signers``: every template it builds reads that one record as its
``signatures``, whether built before or after the ceremony, and a changed
template carries no signature.  Key deletion is allowed once the ceremony
has been held; a VMXO can then be spent outside the presigned templates
only if every functionary leaked its key.

A packet holds 3·N + V + 2·N·V + 2·N·(N−1)·V + N·V·(V−1)/2 templates and
N²·V enablers, and a run touches few of them, so nothing is built up front.
Each template is built on its first lookup by name (``deposit:{f}``,
``enablers:{f}``, ``kill:{f}``, ``locking:{v}``, ``kickoff:{v}:{f}``,
``unlocking:{v}:{f}``, ``proverloses:{v}:{f}:{w}``,
``verifierloses:{v}:{f}:{w}``, ``forceclose:{f}:{va}:{vb}``), from the name
alone and its parents, which are built first; so its content and id are the
ones an eager build would give; ``templates`` holds the built ones by
name.  An enabler's output index in its owner's enabler-creation template
is closed-form, and an enabler is live until a run consumes or burns it, so
the graph stores only those states, by VMXO, in ``used_enablers``.
``template_count`` and ``enabler_count`` give the sizes of the whole graph
in closed form.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import lru_cache, partial
from enum import Enum
from typing import Optional

from .econ import CostTable
from .errors import (AlreadyClosed, NoTrigger, NotSameOperator,
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


EXTERNAL = "ext"  # pseudo tx-id prefix for wallet-funded inputs

# distinct template contents whose ids are kept: at 256, about 92% of the
# templates a sweep builds are hits
TEMPLATE_CACHE_SIZE = 256


def _serial(template_kind: TxKind, inputs: tuple, outputs: tuple,
            vbytes: int) -> str:
    outs = [[o.kind.value, o.amount, sorted(o.condition.signers),
             o.condition.timelock, o.condition.predicate, o.tag]
            for o in outputs]
    return json.dumps([template_kind.value, inputs, outs, vbytes],
                      separators=(",", ":"))


# keyed by exactly the fields ``_serial`` reads; typed, so that a field
# equal to another of a different type (200 and 200.0) is no hit.  Nested
# values are the strings, ints and enum members the graph builds.
@lru_cache(maxsize=TEMPLATE_CACHE_SIZE, typed=True)
def _template_id(template_kind: TxKind, inputs: tuple, outputs: tuple,
                 vbytes: int) -> str:
    serial = _serial(template_kind, inputs, outputs, vbytes)
    return hashlib.sha256(serial.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class SimTx:
    template_kind: TxKind
    inputs: tuple[tuple[str, int], ...]
    outputs: tuple[SimOutput, ...]
    vbytes: int = 200
    # the ceremony's signers: the building graph's one record, not part of
    # the content; a copy made by ``dataclasses.replace`` carries none
    signatures: dict[str, None] = field(init=False, compare=False,
                                        default_factory=dict)
    id: str = field(init=False, compare=False)

    def __post_init__(self):
        set_ = object.__setattr__
        set_(self, "inputs", tuple(self.inputs))
        set_(self, "outputs", tuple(self.outputs))
        set_(self, "id", _template_id(self.template_kind, self.inputs,
                                      self.outputs, self.vbytes))


def _enabler_key(owner: str, role: EnablerRole, vmxo_id: str,
                counterparty: Optional[str] = None) -> str:
    cp = counterparty or "-"
    return f"enabler:{owner}:{role.value}:{vmxo_id}:{cp}"


@dataclass
class Vmxo:
    amount: int
    state: VmxoState = VmxoState.AWAITING_PEGIN
    operator: Optional[str] = None  # set while KickoffOpen / after Unlocked


class PacketGraph:
    """Template graph plus execution-time spend tracking for one packet."""

    def __init__(self, functionaries: list[str], vmxo_ids: list[str],
                 amount: int, deposit_per_functionary: int):
        self.functionaries = list(functionaries)
        self.vmxo_ids = list(vmxo_ids)
        self.deposit_per_functionary = deposit_per_functionary
        # functionary -> index, which orders each kick-off's channel outputs;
        # VMXO -> index, which orders enabler outputs and force-close pairs
        self.position = {f: i for i, f in enumerate(self.functionaries)}
        self.vmxo_position = {v: i for i, v in enumerate(self.vmxo_ids)}
        self.templates: dict[str, SimTx] = {}  # built templates, by name
        self.signers: dict[str, None] = {}  # the ceremony's, in order
        # VMXO -> (owner, output index) -> state of each enabler a run has
        # consumed or burnt; an enabler not in it is live
        self.used_enablers: dict[str, dict[tuple[str, int],
                                           EnablerState]] = {}
        self.leaked: set[tuple[str, str]] = set()  # (functionary, VMXO)
        self.vmxos = {v: Vmxo(amount) for v in self.vmxo_ids}
        self.spent: dict[tuple[str, int], str] = {}  # outpoint -> spender id

    # -- construction ------------------------------------------------------

    def template(self, name: str) -> SimTx:
        """Template ``name``; on first lookup it is built from its name
        alone, its parents first, and reads the ceremony's record."""
        tx = self.templates.get(name)
        if tx is None:
            kind, _, rest = name.partition(":")
            try:
                tx = _RULES[kind](self, rest)
            except KeyError:  # no such kind, functionary or VMXO
                raise KeyError(name) from None
            object.__setattr__(tx, "signatures", self.signers)
            self.templates[name] = tx
        return tx

    def _functionary(self, f: str) -> str:
        if f not in self.position:
            raise KeyError(f)
        return f

    def _vmxo_and_functionary(self, rest: str) -> tuple[str, str]:
        v, _, f = rest.rpartition(":")
        if v not in self.vmxos:
            raise KeyError(v)
        return v, self._functionary(f)

    def _deposit(self, f: str) -> SimTx:
        f = self._functionary(f)
        return SimTx(TxKind.DEPOSIT_CREATE, [(f"{EXTERNAL}:{f}", 0)],
                     [SimOutput(OutputKind.DEPOSIT,
                                self.deposit_per_functionary,
                                SpendCondition(predicate="loserTerminal"),
                                tag=f"deposit:{f}")], vbytes=150)

    def _enabler_create(self, f: str) -> SimTx:
        """One enabler output per (VMXO, role): see ``_enabler_index``."""
        f = self._functionary(f)
        owned = SpendCondition(signers=frozenset({f}))
        keys = [_enabler_key(f, role, v, cp)
                for role, v, cp in self._enabler_slots(f)]
        return SimTx(TxKind.ENABLER_CREATE, [(f"{EXTERNAL}:{f}", 0)],
                     [SimOutput(OutputKind.ENABLER, 0, owned, tag=key)
                      for key in keys], vbytes=100 + 30 * len(keys))

    def _kill(self, f: str) -> SimTx:
        """Spends every enabler output of ``f``."""
        create = self.template(f"enablers:{f}")
        refs = [(create.id, i) for i in range(len(create.outputs))]
        return SimTx(TxKind.KILL_ENABLERS, refs,
                     [SimOutput(OutputKind.REWARD, 0,
                                SpendCondition(predicate="loserTerminal"),
                                tag=f"killed:{f}")],
                     vbytes=200 + 20 * len(refs))

    def _locking(self, v: str) -> SimTx:
        return SimTx(TxKind.LOCKING, [(f"{EXTERNAL}:user", 0)],
                     [SimOutput(OutputKind.LOCKING, self.vmxos[v].amount,
                                SpendCondition(
                                    signers=frozenset(self.functionaries)),
                                tag=f"lock:{v}")], vbytes=300)

    def _kickoff(self, rest: str) -> SimTx:
        """Output 0 is the open kick-off; output 1 + i is the dispute
        channel to the i-th of the operator's verifiers."""
        v, f = self._vmxo_and_functionary(rest)
        outs = [SimOutput(OutputKind.OPEN_KICKOFF, 0,
                          SpendCondition(signers=frozenset({f})),
                          tag=f"openkick:{v}:{f}")]
        outs += [SimOutput(OutputKind.DISPUTE_CHANNEL, 0,
                           SpendCondition(signers=frozenset({f, w})),
                           tag=f"channel:{v}:{f}:{w}")
                 for w in self.functionaries if w != f]
        return SimTx(TxKind.KICKOFF, [(f"{EXTERNAL}:{f}", 0)], outs,
                     vbytes=CostTable.commit_proof)

    def _unlocking(self, rest: str) -> SimTx:
        v, f = self._vmxo_and_functionary(rest)
        return SimTx(
            TxKind.UNLOCKING,
            [(self.template(f"locking:{v}").id, 0),
             (self.template(f"kickoff:{v}:{f}").id, 0),
             (self.template(f"enablers:{f}").id,
              self._enabler_index(f, EnablerRole.OPERATOR, v))],
            [SimOutput(OutputKind.REWARD, self.vmxos[v].amount,
                       SpendCondition(signers=frozenset({f}), timelock=1),
                       tag=f"payout:{f}")],
            vbytes=500)

    def _terminal(self, rest: str, kind: TxKind) -> SimTx:
        """Loser terminal ``{kind}:{vmxo}:{f}:{w}``: it spends the channel
        between operator f and verifier w and pays the winner."""
        head, _, w = rest.rpartition(":")
        v, f = self._vmxo_and_functionary(head)
        if w == f:
            raise KeyError(w)
        pw = self.position[w]
        chan_ref = (self.template(f"kickoff:{v}:{f}").id,
                    1 + pw - (pw > self.position[f]))
        winner, loser = (w, f) if kind == TxKind.PROVER_LOSES else (f, w)
        return SimTx(kind, [chan_ref],
                     [SimOutput(OutputKind.REWARD, 0,
                                SpendCondition(signers=frozenset({winner}),
                                               predicate="killEnablers"),
                                tag=f"loser:{loser}")], vbytes=400)

    def _force_close(self, rest: str) -> SimTx:
        """``forceclose:{f}:{va}:{vb}``, va before vb in VMXO order: spends
        both of f's open kick-off outputs."""
        f, _, pair = rest.partition(":")
        for i, va in enumerate(self.vmxo_ids):
            vb = pair[len(va) + 1:]
            if pair.startswith(f"{va}:") and vb in self.vmxo_ids[i + 1:]:
                break
        else:
            raise KeyError(pair)
        return SimTx(TxKind.FORCE_CLOSE,
                     [(self.template(f"kickoff:{v}:{f}").id, 0)
                      for v in (va, vb)],
                     [SimOutput(OutputKind.REWARD, 0,
                                SpendCondition(predicate="killEnablers"),
                                tag=f"loser:{f}")], vbytes=350)

    def template_count(self) -> int:
        """Templates in the whole graph, built or not: deposit, enabler
        creation and kill per functionary, locking per VMXO, kick-off and
        unlocking per (VMXO, operator), two loser terminals per channel,
        force-close per operator and pair of VMXOs."""
        n, v = len(self.functionaries), len(self.vmxo_ids)
        return (3 * n + v + 2 * v * n + 2 * v * n * (n - 1)
                + n * v * (v - 1) // 2)

    def enabler_count(self) -> int:
        """Enablers in the whole graph: per functionary and VMXO, one as
        operator and one per other functionary watched."""
        return len(self.functionaries) ** 2 * len(self.vmxo_ids)

    # -- lookups -----------------------------------------------------------

    def _enabler_slots(self, owner: str):
        """(role, VMXO, counterparty) of each of ``owner``'s enablers, in
        output order: per VMXO, the operator enabler, then one verifier
        enabler per other functionary in order."""
        for v in self.vmxo_ids:
            yield EnablerRole.OPERATOR, v, None
            for w in self.functionaries:
                if w != owner:
                    yield EnablerRole.VERIFIER, v, w

    def _enabler_index(self, owner: str, role: EnablerRole, vmxo_id: str,
                       counterparty: Optional[str] = None) -> Optional[int]:
        """The enabler's output of ``enablers:{owner}``, in closed form."""
        po, vi = self.position.get(owner), self.vmxo_position.get(vmxo_id)
        pc = self.position.get(counterparty) if counterparty else None
        if po is None or vi is None:
            return None
        if role == EnablerRole.OPERATOR and counterparty is None:
            slot = 0
        elif role == EnablerRole.VERIFIER and pc is not None and pc != po:
            slot = 1 + pc - (pc > po)
        else:
            return None
        return vi * len(self.functionaries) + slot

    def enabler_state(self, owner: str, role: EnablerRole, vmxo_id: str,
                      counterparty: Optional[str] = None
                      ) -> Optional[EnablerState]:
        """The enabler's state, or None if there is no such enabler."""
        index = self._enabler_index(owner, role, vmxo_id, counterparty)
        if index is None:
            return None
        return self.used_enablers.get(vmxo_id, {}).get((owner, index),
                                                       EnablerState.LIVE)

    def set_enabler_state(self, state: EnablerState, owner: str,
                          role: EnablerRole, vmxo_id: str,
                          counterparty: Optional[str] = None) -> None:
        index = self._enabler_index(owner, role, vmxo_id, counterparty)
        if index is None:
            raise KeyError((owner, role.value, vmxo_id, counterparty))
        self.used_enablers.setdefault(vmxo_id, {})[owner, index] = state

    # -- signing and key management ---------------------------------------

    def sign_all(self) -> None:
        """The signing ceremony, held before any key is deleted: every
        functionary signs the whole packet, every template built now or
        later, recorded once in ``signers``."""
        self.signers.update(dict.fromkeys(self.functionaries))

    def _key(self, functionary: str, vmxo_id: str) -> tuple[str, str]:
        if vmxo_id not in self.vmxos:
            raise KeyError(vmxo_id)
        return self._functionary(functionary), vmxo_id

    def delete_keys(self, functionary: str, vmxo_id: str) -> None:
        """Delete a key, which the ceremony must have used first.  A deleted
        key is one not leaked, so nothing is recorded."""
        self._key(functionary, vmxo_id)
        if not self.signers:
            raise PrematureDeletion(vmxo_id)

    def leak_keys(self, functionary: str, vmxo_id: str) -> None:
        self.leaked.add(self._key(functionary, vmxo_id))

    def adhoc_spend_allowed(self, vmxo_id: str) -> bool:
        """A non-template spend of the VMXO needs every key still usable."""
        return all((f, vmxo_id) in self.leaked for f in self.functionaries)

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

    def burn_enablers(self, loser: str, trigger: Optional[SimTx]) -> int:
        """Mark each of the loser's live enablers burnt; how many it marked."""
        if trigger is None:
            raise NoTrigger(loser)
        if trigger.template_kind not in SLASHING_KINDS:
            raise NoTrigger(trigger.template_kind.value)
        if loser not in self.position:
            return 0
        n, burnt = len(self.functionaries), 0
        for vi, v in enumerate(self.vmxo_ids):
            states = self.used_enablers.setdefault(v, {})
            for index in range(vi * n, vi * n + n):
                if (loser, index) not in states:
                    states[loser, index] = EnablerState.BURNT
                    burnt += 1
        return burnt

    def apply_force_close(self, vmxo_a: str, vmxo_b: str) -> SimTx:
        """Terminate the second of two simultaneous kick-offs by one operator."""
        va, vb = self.vmxos[vmxo_a], self.vmxos[vmxo_b]
        if va.state != VmxoState.KICKOFF_OPEN or vb.state != VmxoState.KICKOFF_OPEN:
            raise AlreadyClosed(f"{vmxo_a},{vmxo_b}")
        if va.operator is None or va.operator != vb.operator:
            raise NotSameOperator(f"{va.operator} vs {vb.operator}")
        first, second = sorted((vmxo_a, vmxo_b),
                               key=self.vmxo_position.__getitem__)
        tx = self.template(f"forceclose:{va.operator}:{first}:{second}")
        self.execute(tx)
        vb.state = VmxoState.LOCKED
        vb.operator = None
        return tx


# template name prefix -> the rule that builds it from the rest of the name
_RULES = {"deposit": PacketGraph._deposit,
          "enablers": PacketGraph._enabler_create,
          "kill": PacketGraph._kill,
          "locking": PacketGraph._locking,
          "kickoff": PacketGraph._kickoff,
          "unlocking": PacketGraph._unlocking,
          "forceclose": PacketGraph._force_close,
          **{prefix: partial(PacketGraph._terminal, kind=kind)
             for prefix, kind in LOSER_TERMINALS.items()}}


def build_packet_templates(functionaries: list[str], vmxo_count: int,
                           amount: int,
                           deposit_per_functionary: int = 0) -> PacketGraph:
    """Set up the presigned template graph for one packet; its templates
    are built on lookup."""
    n = len(functionaries)
    if n < 2:
        raise TooFewFunctionaries(str(n))
    if vmxo_count < 1:
        raise ValueError("vmxo_count must be >= 1")
    vmxo_ids = [f"pkt0:vmxo{i}" for i in range(vmxo_count)]
    return PacketGraph(functionaries, vmxo_ids, amount,
                       deposit_per_functionary)
