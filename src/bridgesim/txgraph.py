"""Presigned transaction DAG: outputs, templates, enablers, key deletion.

A packet is a graph of transaction templates per VMXO: one Locking, N
Kick-off and N Unlocking templates, bilateral dispute channels with
prover-loses / verifier-loses terminals, a Kill-enablers template per
functionary, and Force-close templates for each pair of an operator's
Open-kick-off outputs across the packet.

Templates are immutable and content-addressed: a template's id is the hash
of its serialised content, taken when it is built.  A changed
template is a new template with a new id, and since inputs reference their
parents by id, every descendant must be rebuilt too.  One ceremony presigns
the whole packet, and the graph records it once, as its ordered
``signers``: every template it holds reads that one record as its
``signatures``, whether built before or after the ceremony, and a changed
template carries no signature.  Key deletion is
allowed once the ceremony has been held; a VMXO can then be spent outside
the presigned templates only if every functionary leaked its key.

A packet holds 3·N + V + 2·N·V + 2·N·(N−1)·V + N·V·(V−1)/2 templates and
N²·V enablers, and a run touches few of them, so nothing is built up front.
Each template is built on its first lookup by ``(TxKind, *ids)``: its kind
and the functionary (f, w) and VMXO (v, va before vb) ids it is for, as
DepositCreate (f), EnablerCreate (f), KillEnablers (f), Locking (v),
Kickoff (v, f), Unlocking (v, f), ProverLoses and VerifierLoses (v, f, w)
and ForceClose (f, va, vb).  It is built from those alone and the ids of
its parents, so its content and id are the ones an eager build would give;
``templates`` holds the ones looked up, by that key.

Packets of one shape (the ordered functionary and VMXO ids and the VMXO
amount) have the same templates, so each template is memoised per process
by its recipe: the shape, ``(TxKind, *ids)``, and for DepositCreate alone
the deposit, which only its rule reads.  A recipe is built once, in a
bounded LRU cache of ``TEMPLATE_CACHE_SIZE`` entries, so its id is hashed
once per recipe.  A rule reads its parents from that cache too, so a
graph's ``templates`` holds only what its callers looked up, in the order
they did, cold or warm.  Each graph holds its own shallow copy, which
reads its own ceremony record and carries its recipe's id.

An enabler is ``(owner, vmxo_id, counterparty)``: counterparty None is
the owner's operator enabler, and another functionary the verifier enabler
that watches it.  Any other triple, or an unknown loser to burn, raises
``UnknownId``.  A burn takes the slashing template's kind, so it builds no
template.  An enabler is live until a run consumes or burns it, so the
graph stores only those states, by VMXO and ``(owner, counterparty)``, in
``used_enablers``.  ``template_count`` and ``enabler_count`` give the sizes
of the whole graph in closed form.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from functools import partial
from enum import Enum
from typing import NamedTuple, Optional, Sequence

from .econ import CostTable
from .errors import (MalformedInput, PrematureDeletion, SpendRejected,
                     TooFewFunctionaries, UnknownId)


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


class SpendCondition(NamedTuple):
    signers: frozenset[str] = frozenset()
    timelock: Optional[int] = None  # relative, in ticks
    predicate: Optional[str] = None  # e.g. "admitCounterProof", "loserTerminal"


class SimOutput(NamedTuple):
    kind: OutputKind
    amount: int
    condition: SpendCondition = SpendCondition()
    tag: str = ""  # owner / channel routing, e.g. "enabler:f1:Operator:v0"


EXTERNAL = "ext"  # pseudo tx-id prefix for wallet-funded inputs

# template recipes kept per process: a 1,500-op sweep needs about 500, and
# at 256 a quarter of its lookups miss
TEMPLATE_CACHE_SIZE = 1024


# the one encoder of every template's content: JSON writes a ``str`` enum
# member as its value, and each content is a list built afresh by
# ``_serial``, so it has no cycle to check for
_ENCODE = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


def _serial(template_kind: TxKind, inputs: tuple, outputs: tuple,
            vbytes: int) -> str:
    """The content a template's id hashes, read in one pass."""
    outs = [[kind, amount, sorted(signers), timelock, predicate, tag]
            for kind, amount, (signers, timelock, predicate), tag in outputs]
    return _ENCODE([template_kind, inputs, outs, vbytes])


class SimTx:
    """A transaction template, content-addressed by its ``id``, the hash
    of its content taken when it is built; it refuses assignment."""

    def __init__(self, template_kind: TxKind,
                 inputs: Sequence[tuple[str, int]],
                 outputs: Sequence[SimOutput], vbytes: int = 200):
        inputs, outputs = tuple(inputs), tuple(outputs)
        serial = _serial(template_kind, inputs, outputs, vbytes)
        # the ceremony's signers: the building graph's one record, not part
        # of the content; a template built afresh carries none
        vars(self).update(
            template_kind=template_kind, inputs=inputs, outputs=outputs,
            vbytes=vbytes, signatures={},
            id=hashlib.sha256(serial.encode()).hexdigest()[:16])

    def _content(self) -> tuple:
        return self.template_kind, self.inputs, self.outputs, self.vbytes

    def __eq__(self, other: object) -> bool:
        if type(other) is not SimTx:
            return NotImplemented
        return self._content() == other._content()

    def __hash__(self) -> int:
        return hash(self._content())

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"a template's {name} is read-only")

    __delattr__ = __setattr__


# recipe -> the template built from it; least recently used first
_TEMPLATE_CACHE: OrderedDict[tuple, SimTx] = OrderedDict()


class Vmxo:
    __slots__ = ("amount", "state", "operator")

    def __init__(self, amount: int):
        self.amount, self.state = amount, VmxoState.AWAITING_PEGIN
        self.operator = None  # set while KickoffOpen / after Unlocked


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
        # what the rules read besides the ids, typed so that 100 and 100.0
        # are different recipes; DepositCreate's alone reads the deposit
        self._shape = (tuple(self.functionaries), tuple(self.vmxo_ids),
                       amount, type(amount))
        self._deposit_shape = self._shape + (deposit_per_functionary,
                                             type(deposit_per_functionary))
        self.templates: dict[tuple, SimTx] = {}  # looked up, by (kind, *ids)
        self.signers: dict[str, None] = {}  # the ceremony's, in order
        # VMXO -> (owner, counterparty) -> state of each enabler a run has
        # consumed or burnt; an enabler not in it is live
        self.used_enablers: dict[str, dict[tuple[str, Optional[str]],
                                           EnablerState]] = {}
        self.leaked: set[tuple[str, str]] = set()  # (functionary, VMXO)
        self.vmxos = {v: Vmxo(amount) for v in self.vmxo_ids}
        self.spent: set[tuple[str, int]] = set()  # spent outpoints

    # -- construction ------------------------------------------------------

    def template(self, kind: TxKind, *ids: str) -> SimTx:
        """Template ``(kind, *ids)``: the graph's own copy of the recipe's,
        which reads the ceremony's record.  Raises ``UnknownId`` unless the
        packet has such a template."""
        key = (kind, *ids)
        tx = self.templates.get(key)
        if tx is None:
            shared = self._shared(key)
            tx = object.__new__(SimTx)
            tx.__dict__.update(shared.__dict__, signatures=self.signers)
            self.templates[key] = tx
        return tx

    def _shared(self, key: tuple) -> SimTx:
        """Template ``key`` from the recipe cache, built by its rule on a
        miss; the one way into the cache, for lookups and rules alike."""
        shape = (self._deposit_shape if key[0] == TxKind.DEPOSIT_CREATE
                 else self._shape)
        recipe = (shape, key)
        tx = _TEMPLATE_CACHE.get(recipe)
        if tx is not None:
            _TEMPLATE_CACHE.move_to_end(recipe)
            return tx
        kind, *ids = key
        rule, kinds = _RULES.get(kind, (None, ""))
        tables = {"f": self.position, "v": self.vmxo_position}
        if rule is None or len(ids) != len(kinds) or not all(
                i in tables[t] for t, i in zip(kinds, ids)):
            raise UnknownId(key)
        tx = _TEMPLATE_CACHE[recipe] = rule(self, *ids)
        if len(_TEMPLATE_CACHE) > TEMPLATE_CACHE_SIZE:
            _TEMPLATE_CACHE.popitem(last=False)
        return tx

    def vmxo(self, vmxo_id: str) -> Vmxo:
        """The VMXO's state; ``UnknownId`` if the packet has no such VMXO."""
        if vmxo_id not in self.vmxos:
            raise UnknownId(vmxo_id)
        return self.vmxos[vmxo_id]

    def _deposit(self, f: str) -> SimTx:
        return SimTx(TxKind.DEPOSIT_CREATE, [(f"{EXTERNAL}:{f}", 0)],
                     [SimOutput(OutputKind.DEPOSIT,
                                self.deposit_per_functionary,
                                SpendCondition(predicate="loserTerminal"),
                                tag=f"deposit:{f}")], vbytes=150)

    def _enabler_create(self, f: str) -> SimTx:
        """One enabler output per slot, in ``_enabler_slots`` order."""
        owned = SpendCondition(signers=frozenset({f}))
        tags = [f"enabler:{f}:Verifier:{v}:{w}" if w else
                f"enabler:{f}:Operator:{v}:-"
                for v, w in self._enabler_slots(f)]
        enabler = OutputKind.ENABLER
        return SimTx(TxKind.ENABLER_CREATE, [(f"{EXTERNAL}:{f}", 0)],
                     [SimOutput(enabler, 0, owned, tag) for tag in tags],
                     vbytes=100 + 30 * len(tags))

    def _kill(self, f: str) -> SimTx:
        """Spends every enabler output of ``f``."""
        create = self._shared((TxKind.ENABLER_CREATE, f))
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

    def _kickoff(self, v: str, f: str) -> SimTx:
        """Output 0 is the open kick-off; output 1 + i is the dispute
        channel to the i-th of the operator's verifiers."""
        outs = [SimOutput(OutputKind.OPEN_KICKOFF, 0,
                          SpendCondition(signers=frozenset({f})),
                          tag=f"openkick:{v}:{f}")]
        channel = OutputKind.DISPUTE_CHANNEL
        outs += [SimOutput(channel, 0, SpendCondition(frozenset({f, w})),
                           f"channel:{v}:{f}:{w}")
                 for w in self.functionaries if w != f]
        return SimTx(TxKind.KICKOFF, [(f"{EXTERNAL}:{f}", 0)], outs,
                     vbytes=CostTable.commit_proof)

    def _unlocking(self, v: str, f: str) -> SimTx:
        """Spends f's operator enabler for v: the first of its N outputs
        for v."""
        return SimTx(
            TxKind.UNLOCKING,
            [(self._shared((TxKind.LOCKING, v)).id, 0),
             (self._shared((TxKind.KICKOFF, v, f)).id, 0),
             (self._shared((TxKind.ENABLER_CREATE, f)).id,
              self.vmxo_position[v] * len(self.functionaries))],
            [SimOutput(OutputKind.REWARD, self.vmxos[v].amount,
                       SpendCondition(signers=frozenset({f}), timelock=1),
                       tag=f"payout:{f}")],
            vbytes=500)

    def _terminal(self, v: str, f: str, w: str, kind: TxKind) -> SimTx:
        """Loser terminal ``(kind, v, f, w)``: it spends the channel
        between operator f and verifier w and pays the winner."""
        if w == f:
            raise UnknownId((kind, v, f, w))
        pw = self.position[w]
        chan_ref = (self._shared((TxKind.KICKOFF, v, f)).id,
                    1 + pw - (pw > self.position[f]))
        winner, loser = (w, f) if kind == TxKind.PROVER_LOSES else (f, w)
        return SimTx(kind, [chan_ref],
                     [SimOutput(OutputKind.REWARD, 0,
                                SpendCondition(signers=frozenset({winner}),
                                               predicate="killEnablers"),
                                tag=f"loser:{loser}")], vbytes=400)

    def _force_close(self, f: str, va: str, vb: str) -> SimTx:
        """``(FORCE_CLOSE, f, va, vb)``, va before vb in VMXO order: spends
        both of f's open kick-off outputs."""
        if self.vmxo_position[va] >= self.vmxo_position[vb]:
            raise UnknownId((TxKind.FORCE_CLOSE, f, va, vb))
        return SimTx(TxKind.FORCE_CLOSE,
                     [(self._shared((TxKind.KICKOFF, v, f)).id, 0)
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
        """(VMXO, counterparty) of each of ``owner``'s enablers, in output
        order: per VMXO, the operator enabler (counterparty None), then one
        verifier enabler per other functionary in order."""
        for v in self.vmxo_ids:
            yield v, None
            for w in self.functionaries:
                if w != owner:
                    yield v, w

    def _check_enabler(self, owner: str, vmxo_id: str,
                       counterparty: Optional[str]) -> None:
        known = (owner in self.position and vmxo_id in self.vmxos
                 and (counterparty is None or counterparty in self.position))
        if not known or counterparty == owner:
            raise UnknownId((owner, vmxo_id, counterparty))

    def enabler_state(self, owner: str, vmxo_id: str,
                      counterparty: Optional[str] = None) -> EnablerState:
        """The enabler's state; ``UnknownId`` if there is no such enabler."""
        self._check_enabler(owner, vmxo_id, counterparty)
        return self.used_enablers.get(vmxo_id, {}).get((owner, counterparty),
                                                       EnablerState.LIVE)

    def set_enabler_state(self, state: EnablerState, owner: str,
                          vmxo_id: str,
                          counterparty: Optional[str] = None) -> None:
        self._check_enabler(owner, vmxo_id, counterparty)
        self.used_enablers.setdefault(vmxo_id, {})[owner, counterparty] = \
            state

    # -- signing and key management ---------------------------------------

    def sign_all(self) -> None:
        """The signing ceremony, held before any key is deleted: every
        functionary signs the whole packet, every template built now or
        later, recorded once in ``signers``."""
        self.signers.update(dict.fromkeys(self.functionaries))

    def _key(self, functionary: str, vmxo_id: str) -> tuple[str, str]:
        if functionary not in self.position or vmxo_id not in self.vmxos:
            raise UnknownId((functionary, vmxo_id))
        return functionary, vmxo_id

    def delete_keys(self, functionary: str, *vmxo_ids: str) -> None:
        """Delete the functionary's key for each VMXO, which the ceremony
        must have used first.  A deleted key is one not leaked, so nothing
        is recorded."""
        if functionary not in self.position:
            raise UnknownId(functionary)
        for vmxo_id in vmxo_ids:
            self._key(functionary, vmxo_id)
        if not self.signers:
            raise PrematureDeletion(",".join(vmxo_ids))

    def leak_keys(self, functionary: str, vmxo_id: str) -> None:
        self.leaked.add(self._key(functionary, vmxo_id))

    def adhoc_spend_allowed(self, vmxo_id: str) -> bool:
        """A non-template spend of the VMXO needs every key still usable."""
        return all((f, vmxo_id) in self.leaked for f in self.functionaries)

    # -- execution ---------------------------------------------------------

    def execute(self, tx: SimTx) -> list[tuple[str, int]]:
        """Record a template execution, enforcing single-spend: the graph
        outputs it spends, in input order, or ``SpendRejected`` before any
        write if one is spent already."""
        refs = [ref for ref in tx.inputs if not ref[0].startswith(EXTERNAL)]
        for ref in refs:
            if ref in self.spent:
                raise SpendRejected(f"double spend of {ref}")
        self.spent.update(refs)
        return refs

    # -- enabler semantics -------------------------------------------------

    def burn_enablers(self, loser: str) -> int:
        """Mark each of the loser's live enablers burnt; how many it marked.
        ``UnknownId`` for an unknown loser, before any write."""
        if loser not in self.position:
            raise UnknownId(loser)
        # the loser's enablers of one VMXO, in ``_enabler_slots`` order
        keys = [(loser, None)] + [(loser, w) for w in self.functionaries
                                  if w != loser]
        burnt = 0
        for v in self.vmxo_ids:
            states = self.used_enablers.setdefault(v, {})
            fresh = [key for key in keys if key not in states]
            states.update(dict.fromkeys(fresh, EnablerState.BURNT))
            burnt += len(fresh)
        return burnt


# template kind -> the rule that builds it from its ids, and what each id
# is: f a functionary, v a VMXO of the packet
_RULES = {TxKind.DEPOSIT_CREATE: (PacketGraph._deposit, "f"),
          TxKind.ENABLER_CREATE: (PacketGraph._enabler_create, "f"),
          TxKind.KILL_ENABLERS: (PacketGraph._kill, "f"),
          TxKind.LOCKING: (PacketGraph._locking, "v"),
          TxKind.KICKOFF: (PacketGraph._kickoff, "vf"),
          TxKind.UNLOCKING: (PacketGraph._unlocking, "vf"),
          TxKind.FORCE_CLOSE: (PacketGraph._force_close, "fvv"),
          **{kind: (partial(PacketGraph._terminal, kind=kind), "vff")
             for kind in (TxKind.PROVER_LOSES, TxKind.VERIFIER_LOSES)}}


def build_packet_templates(functionaries: list[str], vmxo_count: int,
                           amount: int,
                           deposit_per_functionary: int = 0) -> PacketGraph:
    """Set up the presigned template graph for one packet; its templates
    are built on lookup."""
    n = len(functionaries)
    if n < 2:
        raise TooFewFunctionaries(str(n))
    if len(set(functionaries)) < n or \
            " ".join(functionaries).split() != list(functionaries):
        raise MalformedInput(f"functionary ids {functionaries!r} are not "
                             "distinct words without whitespace")
    if vmxo_count < 1:
        raise ValueError("vmxo_count must be >= 1")
    vmxo_ids = [f"pkt0:vmxo{i}" for i in range(vmxo_count)]
    return PacketGraph(functionaries, vmxo_ids, amount,
                       deposit_per_functionary)
