"""Peg-in / peg-out orchestration, deposits, slashing, enabler recycling.

``Bridge`` holds the full protocol state for one packet: both chains, the
presigned template graph, the functionaries and the set of slashed ones,
the satoshi ledger, and an append-only event log.  The log keeps each event
as one raw row ``(tick, schema key, values)``, the values as passed; its
text lines are rendered on read, and ``read_log`` reads them back.  All
methods are deterministic; the harness drives them from a scenario script.

Deposits are denominated on the source chain.  Slashing pays the losing
party's deposit into a pot that first reimburses every challenger's dispute
costs, with the remainder going to the first-confirmed winner.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import Optional

from .chain import SECONDARY, SOURCE, ChainView, SimClock
from .econ import CostTable, DISPUTE_ACTION_VBYTES, required_deposit
from .errors import (ConcurrencyLimit, EnablerUnavailable, Insolvent,
                     InsufficientConfirmations, MalformedInput,
                     MissingSignature, NoCapacity, NotLinked, NotTriggered,
                     UnknownId, WrongDenomination)
from .txgraph import (EXTERNAL, EnablerState, PacketGraph, TxKind, Vmxo,
                      VmxoState, build_packet_templates)


class PegOutState(str, Enum):
    REQUESTED = "Requested"
    LINKED = "Linked"
    FRONTED = "Fronted"
    PROVEN = "Proven"
    KICKOFF = "Kickoff"
    UNLOCKED = "Unlocked"
    INVALIDATED = "Invalidated"


@dataclass
class PegIn:
    user: str
    amount: int
    vmxo_id: str
    deposit_tx: Optional[str] = None
    deposit_block: Optional[str] = None
    signatures: set[str] = field(default_factory=set)


@dataclass
class PegOut:
    user: str
    amount: int
    burn_tx: Optional[str] = None
    burn_block: Optional[str] = None
    vmxo_id: Optional[str] = None
    operator: Optional[str] = None
    fronted_tx: Optional[str] = None
    state: PegOutState = PegOutState.REQUESTED


class Ledger:
    """Satoshi accounts; every movement is a balanced transfer."""

    def __init__(self):
        self.balances: dict[str, int] = {}

    def fund(self, account: str, amount: int) -> None:
        self.balances[account] = self.balances.get(account, 0) + amount

    def transfer(self, frm: str, to: str, amount: int) -> None:
        if amount < 0:
            raise Insolvent(f"negative transfer {amount}")
        if self.balances.get(frm, 0) < amount:
            raise Insolvent(f"insolvent account {frm}")
        self.balances[frm] -= amount
        self.balances[to] = self.balances.get(to, 0) + amount


# Each event kind's fields in the order its line holds them, which is by
# name; a meta event is keyed by its kind.
EVENT_SCHEMA = {
    "balance": ("account", "amount"),
    "burn_confirmed": ("block", "canonical", "tx"),
    "challenge_refunded": ("verifier", "vmxo"),
    "challenge_window_expired": ("operator", "vmxo"),
    "dispute_outcome": ("kind", "loser", "prover", "reason", "verifier",
                        "winner"),
    "dispute_pub": ("action", "actor", "at"),
    "enablers_burnt": ("count", "loser"),
    "enablers_recycled": ("burnt", "consumed", "live", "vmxo"),
    "final_balance": ("account", "amount"),
    "force_close": ("closer", "operator", "vmxo_a", "vmxo_b"),
    "fork_mined": ("anchor", "blocks", "by"), "front_proven": ("tx",),
    "fronted": ("amount", "operator", "tx", "user"),
    "keys_leaked": ("functionary", "vmxo"),
    "kickoff": ("honest", "operator", "vmxo"),
    "minted": ("amount", "user", "vmxo"),
    "pegin_requested": ("amount", "user", "vmxo"),
    "pegout_burn": ("amount", "tx", "user"),
    "pegout_invalidated": ("operator", "vmxo"),
    "pegout_linked": ("tx", "vmxo"), "pegout_released": ("loser", "vmxo"),
    "setup_done": ("enablers", "templates"),
    "slashed": ("loser", "pot", "reimbursed", "winner"),
    "spend": ("by", "out"), "sw_stop": ("interval", "party"),
    "sw_tick": ("duration", "party"), "theft": ("amount", "thief", "vmxo"),
    "theft_rejected": ("thief", "vmxo"),
    "transfer": ("amount", "dst", "src", "why"),
    "unlocked": ("amount", "operator", "vmxo"),
    "watch_total": ("accumulated", "party", "threshold", "timeout"),
    ("meta", "scenario"): ("kind", "name", "rng", "seed"),
    ("meta", "parties"): ("adversary", "functionaries", "honest", "kind",
                          "leak_all", "strategy"),
    ("meta", "params"): ("bound", "denomination", "deposit", "fee_rate",
                         "kind", "threshold", "window"),
}

# the schema's fields whose values are integers, in every kind that has them
INTEGER_FIELDS = frozenset({
    "accumulated", "amount", "at", "blocks", "bound", "burnt", "canonical",
    "consumed", "count", "denomination", "deposit", "duration", "enablers",
    "fee_rate", "interval", "live", "pot", "reimbursed", "seed", "templates",
    "threshold", "window"})


# each schema key's picker of a kind's field values, as a tuple in order
_PICKS = {key: itemgetter(*names) if len(names) > 1
          else lambda fields, pick=itemgetter(*names): (pick(fields),)
          for key, names in EVENT_SCHEMA.items()}
# each schema key's line, ``t`` and ``seq`` then the values to fill in
_LINES = {key: " ".join(["t={} seq={}",
                         f"ev={key if isinstance(key, str) else key[0]}",
                         *(f"{name}={{}}" for name in names)])
          for key, names in EVENT_SCHEMA.items()}
# the lines a whole run's log holds exactly once, as a refusal names them
ONCE = {("meta", "scenario"): "meta kind=scenario",
        ("meta", "parties"): "meta kind=parties",
        ("meta", "params"): "meta kind=params",
        "setup_done": "setup_done"}


def event_lines(rows) -> list[str]:
    """Each row's text line ``t=.. seq=.. ev=.. k=v ...``, every value
    ``format()``ed and ``seq`` the row's position, in order."""
    return [_LINES[key].format(t, seq, *values)
            for seq, (t, key, values) in enumerate(rows, 1)]


def _integer(lineno: int, name: str, value: str) -> int:
    """``value`` as the ``int`` that ``format()`` writes as it."""
    try:
        number = int(value)
    except ValueError:  # no integer, or more digits than int() reads
        raise MalformedInput(f"line {lineno} has a non-integer {name}: "
                             f"{value!r}") from None
    if f"{number}" != value:
        raise MalformedInput(f"line {lineno} has a non-canonical {name}: "
                             f"{value!r}")
    return number


def read_log(lines) -> list[tuple]:
    """The rows of a saved log, each the row ``event_lines`` renders as its
    line, ``t`` and each ``INTEGER_FIELDS`` value an ``int``; else
    ``MalformedInput`` names the first fault, in this order: a line not
    ``t=<int> seq=<int> ev=<kind>`` then single-spaced ``name=value`` fields,
    an integer not written as ``format()`` writes it, a kind not in
    ``EVENT_SCHEMA`` or without exactly its fields, a second line of a kind
    in ``ONCE``; a kind in ``ONCE``, or the final balance of an account the
    log moves, missing; a ``seq`` not 1, 2, ... or a ``t`` that decreases."""
    rows, seen, disorder = [], set(), None
    for lineno, line in enumerate(lines, 1):
        tokens = [token.split("=", 1) for token in line.split(" ")]
        if [name for name, *_ in tokens[:3]] != ["t", "seq", "ev"] \
                or min(map(len, tokens)) < 2 \
                or not tokens[0][1].removeprefix("-").isdecimal() \
                or not tokens[1][1].isdecimal():
            raise MalformedInput(f"line {lineno} is not an event: "
                                 f"{line[:60]!r}")
        (_, t), (_, seq), (_, ev), *fields = tokens
        t, seq = _integer(lineno, "t", t), _integer(lineno, "seq", seq)
        values = tuple(_integer(lineno, name, value)
                       if name in INTEGER_FIELDS else value
                       for name, value in fields)
        key = ev if ev in EVENT_SCHEMA else (ev, dict(fields).get("kind"))
        names, got = EVENT_SCHEMA.get(key), tuple(name for name, _ in fields)
        if names is None:
            raise MalformedInput(f"line {lineno} is of no known kind: "
                                 f"{line[:60]!r}")
        if got != names:
            missing = [n for n in names if n not in got]
            what = (f"no {missing[0]}" if missing else
                    f"fields {' '.join(got)}, not {' '.join(names)}")
            raise MalformedInput(f"line {lineno} has {what}: {line[:60]!r}")
        if key in ONCE and key in seen:
            raise MalformedInput(f"line {lineno} is a second {ONCE[key]}")
        seen.add(key)
        if disorder is None and seq != lineno:
            disorder = f"line {lineno} has seq={seq}, not {lineno}"
        elif disorder is None and rows and t < rows[-1][0]:
            disorder = f"line {lineno} has t={t}, before t={rows[-1][0]}"
        rows.append((t, key, values))
    for key, what in ONCE.items():
        if key not in seen:
            raise MalformedInput(f"no {what} line")
    finals = {values[0] for _, key, values in rows if key == "final_balance"}
    moved = {values[0] for _, key, values in rows if key == "balance"}.union(
        *(values[1:3] for _, key, values in rows if key == "transfer"))
    if not finals:
        raise MalformedInput("no final_balance lines")
    if moved - finals:
        raise MalformedInput(f"no final_balance for {min(moved - finals)}")
    if disorder is not None:
        raise MalformedInput(disorder)
    return rows


class Bridge:
    """Protocol engine for one packet on one pair of chains."""

    cost_table = CostTable()
    # confirmations before a peg-in mints or a front counts (source chain)
    # and before a burn counts (secondary chain)
    source_confirmations = 3
    secondary_confirmations = 3

    def __init__(self, functionary_ids: list[str], vmxo_count: int,
                 denomination: int, fee_rate: int = 1,
                 pegout_limit: int = 1,
                 t_sep: int = 0):
        self.clock = SimClock()
        self.source = ChainView(SOURCE)
        self.secondary = ChainView(SECONDARY)
        self.fee_rate = fee_rate
        self.denomination = denomination
        self.pegout_limit = pegout_limit
        self.t_sep = t_sep
        deposit = required_deposit(len(functionary_ids), fee_rate,
                                   self.cost_table)
        self.deposit_per_functionary = deposit
        self.functionaries = list(functionary_ids)
        self.slashed: set[str] = set()
        self.graph: PacketGraph = build_packet_templates(
            functionary_ids, vmxo_count, denomination,
            deposit_per_functionary=deposit)
        self.ledger = Ledger()
        self.rows: list[tuple] = []
        self.pegins: list[PegIn] = []
        self.pegouts: list[PegOut] = []
        # VMXOs a peg-in has taken, and VMXOs a peg-out is linked to
        self.taken_vmxos: set[str] = set()
        self.linked_vmxos: set[str] = set()
        self.last_kickoff_tick: dict[str, int] = {}
        self.dispute_costs: dict[str, int] = {f: 0 for f in functionary_ids}
        for f in functionary_ids:
            self.ledger.fund(f"deposit:{f}", deposit)
            self.ledger.fund(f"wallet:{f}", 50 * denomination + 100 * deposit)

    # -- event log ---------------------------------------------------------

    def log(self, event: str, **fields) -> None:
        """Append the row ``(clock.now, EVENT_SCHEMA key, values as passed
        in its order)``; ``seq`` is its position.  ``ValueError``, before any
        write, unless the fields are exactly the kind's."""
        key = event if event in _PICKS else (event, fields.get("kind"))
        try:
            values = _PICKS[key](fields)
        except (KeyError, TypeError):
            values = None
        if values is None or len(values) != len(fields):
            raise ValueError(f"{event} with fields {sorted(fields)}")
        self.rows.append((self.clock.now, key, values))

    @property
    def events(self) -> list[str]:
        """The text lines of ``rows``, rendered on each read."""
        return event_lines(self.rows)

    def transfer(self, frm: str, to: str, amount: int, why: str) -> None:
        self.ledger.transfer(frm, to, amount)
        self.log("transfer", src=frm, dst=to, amount=amount, why=why)

    def pay_fee(self, party: str, vbytes: int, why: str) -> int:
        fee = vbytes * self.fee_rate
        self.transfer(f"wallet:{party}", "fees", fee, why)
        return fee

    def _log_spends(self, tx) -> None:
        for ref in tx.inputs:
            if not ref[0].startswith(EXTERNAL):
                self.log("spend", out=f"{ref[0]}:{ref[1]}", by=tx.id)

    def pay_dispute_fee(self, party: str, action: str) -> int:
        if action not in DISPUTE_ACTION_VBYTES:
            raise MalformedInput(f"unknown dispute action {action!r}")
        vb = getattr(self.cost_table, DISPUTE_ACTION_VBYTES[action])
        fee = self.pay_fee(party, vb, f"dispute:{action}")
        self.dispute_costs[party] = self.dispute_costs.get(party, 0) + fee
        return fee

    # -- peg-in ------------------------------------------------------------

    def request_pegin(self, user: str, amount: int) -> PegIn:
        if amount != self.denomination:
            raise WrongDenomination(f"{amount} != {self.denomination}")
        vmxos = self.graph.vmxos
        free = next((v for v in self.graph.vmxo_ids
                     if v not in self.taken_vmxos
                     and vmxos[v].state == VmxoState.AWAITING_PEGIN), None)
        if free is None:
            raise NoCapacity("no vmxo awaiting peg-in")
        pegin = PegIn(user, amount, free)
        self.pegins.append(pegin)
        self.taken_vmxos.add(free)
        self.log("pegin_requested", user=user, vmxo=pegin.vmxo_id,
                 amount=amount)
        return pegin

    def sign_pegin(self, pegin: PegIn, signer: str) -> None:
        pegin.signatures.add(signer)

    def broadcast_pegin(self, pegin: PegIn) -> str:
        """User's deposit transaction hits the source chain mempool; the
        harness mines it into a block."""
        pegin.deposit_tx = f"pegin:{pegin.user}:{pegin.vmxo_id}"
        return pegin.deposit_tx

    def execute_pegin(self, pegin: PegIn) -> None:
        vmxo = self.graph.vmxo(pegin.vmxo_id)
        if vmxo.state != VmxoState.AWAITING_PEGIN:
            raise NotTriggered(f"{pegin.vmxo_id} is {vmxo.state.value}")
        required = set(self.functionaries) | {pegin.user}
        missing = required - pegin.signatures
        if missing:
            raise MissingSignature(",".join(sorted(missing)))
        if pegin.deposit_block is None or \
                self.source.confirmations(pegin.deposit_block) < self.source_confirmations:
            raise InsufficientConfirmations(pegin.deposit_tx or "?")
        self.transfer(f"user:{pegin.user}:src", f"vmxo:{pegin.vmxo_id}",
                      pegin.amount, "pegin-lock")
        vmxo.state = VmxoState.LOCKED
        # wrapped issuance is a liability account and may go negative
        self.ledger.fund(f"user:{pegin.user}:wrapped", pegin.amount)
        self.ledger.fund("wrapped-issuance", -pegin.amount)
        self.log("transfer", src="wrapped-issuance",
                 dst=f"user:{pegin.user}:wrapped", amount=pegin.amount,
                 why="mint")
        self.log("minted", user=pegin.user, vmxo=pegin.vmxo_id,
                 amount=pegin.amount)

    # -- peg-out -----------------------------------------------------------

    def request_pegout(self, user: str, amount: int) -> PegOut:
        if amount != self.denomination:
            raise WrongDenomination(f"{amount} != {self.denomination}")
        pegout = PegOut(user, amount,
                        burn_tx=f"burn:{user}:{len(self.pegouts) + 1}")
        self.transfer(f"user:{user}:wrapped", "wrapped-issuance", amount,
                      "burn")
        self.pegouts.append(pegout)
        self.log("pegout_burn", user=user, tx=pegout.burn_tx, amount=amount)
        return pegout

    def link_pegout(self, pegout: PegOut) -> str:
        """Deterministic link: oldest unlinked Locked VMXO of the amount."""
        if pegout.state != PegOutState.REQUESTED:
            raise NotTriggered(f"{pegout.burn_tx} is {pegout.state.value}")
        for v in self.graph.vmxo_ids:
            if v in self.linked_vmxos:
                continue
            if self.graph.vmxos[v].state == VmxoState.LOCKED:
                pegout.vmxo_id = v
                self.linked_vmxos.add(v)
                pegout.state = PegOutState.LINKED
                self.log("pegout_linked", tx=pegout.burn_tx, vmxo=v)
                return v
        raise NoCapacity("no locked vmxo to link")

    def _linked_vmxo(self, pegout: PegOut) -> Vmxo:
        if pegout.vmxo_id is None:
            raise NotLinked(pegout.burn_tx or "?")
        return self.graph.vmxo(pegout.vmxo_id)

    def front_funds(self, pegout: PegOut, operator: str) -> str:
        """Front a ``Linked`` peg-out once; a slashed operator has no live
        enabler, an unknown one raises ``UnknownId``.  It keeps a 0.1% cut."""
        self._linked_vmxo(pegout)
        if pegout.state != PegOutState.LINKED:
            raise NotTriggered(f"{pegout.burn_tx} is {pegout.state.value}")
        if pegout.burn_block is None or \
                self.secondary.confirmations(pegout.burn_block) < self.secondary_confirmations:
            raise InsufficientConfirmations(pegout.burn_tx or "?")
        if self.graph.enabler_state(operator,
                                    pegout.vmxo_id) != EnablerState.LIVE:
            raise EnablerUnavailable(f"operator enabler for {operator}")
        if self.active_pegouts(operator) >= self.pegout_limit:
            raise ConcurrencyLimit(operator)
        if self.separation_left(operator):
            raise ConcurrencyLimit(f"{operator}: t_sep not elapsed")
        fronted = pegout.amount - pegout.amount // 1000
        pegout.operator = operator
        pegout.fronted_tx = f"front:{operator}:{pegout.burn_tx}"
        pegout.state = PegOutState.FRONTED
        self.transfer(f"wallet:{operator}", f"user:{pegout.user}:src",
                      fronted, "front")
        self.log("fronted", operator=operator, tx=pegout.fronted_tx,
                 amount=fronted, user=pegout.user)
        return pegout.fronted_tx

    def prove_front(self, pegout: PegOut, front_block: str) -> None:
        if pegout.state != PegOutState.FRONTED:
            raise NotTriggered(f"{pegout.burn_tx} is {pegout.state.value}")
        if self.source.confirmations(front_block) < self.source_confirmations:
            raise InsufficientConfirmations(pegout.fronted_tx or "?")
        pegout.state = PegOutState.PROVEN
        self.log("front_proven", tx=pegout.fronted_tx)

    def publish_kickoff(self, pegout: PegOut, operator: str) -> None:
        """Operator commits the proof of the verification predicate.  It is
        logged ``honest=True`` after the guarded path (front, prove, then
        kick off), and ``False`` for a raw kick-off, which skipped it: the
        template itself carries no concurrency check on-chain."""
        vmxo = self._linked_vmxo(pegout)
        if vmxo.state != VmxoState.LOCKED:
            raise NotTriggered(f"{pegout.vmxo_id} is {vmxo.state.value}")
        kick = self.graph.template(TxKind.KICKOFF, pegout.vmxo_id, operator)
        honest = pegout.state == PegOutState.PROVEN
        self.graph.execute(kick)
        self._log_spends(kick)
        vmxo.state = VmxoState.KICKOFF_OPEN
        vmxo.operator = operator
        pegout.operator = operator
        pegout.state = PegOutState.KICKOFF
        self.last_kickoff_tick[operator] = self.clock.now
        self.pay_dispute_fee(operator, "commit-proof")
        self.log("kickoff", operator=operator, vmxo=pegout.vmxo_id,
                 honest=honest)

    def unlock(self, pegout: PegOut) -> None:
        """No-challenge (or all-challenges-defeated) completion: the
        Unlocking template pays the operator, consuming the operator enabler
        and the open kick-off output."""
        operator = pegout.operator
        vmxo = self._linked_vmxo(pegout)
        if vmxo.state != VmxoState.KICKOFF_OPEN or vmxo.operator != operator:
            raise NotTriggered(pegout.vmxo_id)
        unlock = self.graph.template(TxKind.UNLOCKING, pegout.vmxo_id,
                                     operator)
        self.graph.execute(unlock)
        self._log_spends(unlock)
        self.graph.set_enabler_state(EnablerState.CONSUMED, operator,
                                     pegout.vmxo_id)
        vmxo.state = VmxoState.UNLOCKED
        pegout.state = PegOutState.UNLOCKED
        self.pay_fee(operator, unlock.vbytes, "unlocking")
        self.transfer(f"vmxo:{pegout.vmxo_id}", f"wallet:{operator}",
                      pegout.amount, "unlock")
        self.log("unlocked", operator=operator, vmxo=pegout.vmxo_id,
                 amount=pegout.amount)

    def adhoc_theft(self, vmxo_id: str, thief: str) -> bool:
        """Attempt a non-template multisig spend of a locked VMXO.

        Possible only if every functionary retained (leaked) their keys."""
        vmxo = self.graph.vmxo(vmxo_id)
        if not self.graph.adhoc_spend_allowed(vmxo_id):
            self.log("theft_rejected", thief=thief, vmxo=vmxo_id)
            return False
        self.transfer(f"vmxo:{vmxo_id}", f"wallet:{thief}",
                      vmxo.amount, "adhoc-theft")
        vmxo.state = VmxoState.UNLOCKED
        self.log("theft", thief=thief, vmxo=vmxo_id, amount=vmxo.amount)
        return True

    def force_close(self, vmxo_a: str, vmxo_b: str, closer: str) -> None:
        """An honest functionary terminates an operator's second concurrent
        kick-off, exposing the operator's deposit."""
        if closer not in self.graph.position:
            raise UnknownId(closer)
        operator = self.graph.vmxo(vmxo_a).operator
        tx = self.graph.apply_force_close(vmxo_a, vmxo_b)
        self._log_spends(tx)
        self.dispute_costs[closer] += self.pay_fee(closer, tx.vbytes,
                                                   "force-close")
        self.log("force_close", closer=closer, operator=operator,
                 vmxo_a=vmxo_a, vmxo_b=vmxo_b)

    # -- slashing and recycling -------------------------------------------

    def slash(self, loser: str, winner: str, challengers: list[str],
              vmxo_id: str) -> None:
        """Burn the loser's enablers and pay out its deposit, once; then
        refund the enabler of every challenger of ``vmxo_id`` but the
        winner, since their channels against the loser become no-ops.
        Refuses an unknown winner, challenger, loser or VMXO, and a loser
        among its own challengers, before any write."""
        self.graph.vmxo(vmxo_id)
        for party in (winner, *challengers):
            if party not in self.graph.position:
                raise UnknownId(party)
        if loser in challengers:
            raise MalformedInput(f"{loser} among its own challengers")
        if loser not in self.slashed:
            self._burn_and_pay(loser, winner, challengers)
        # every id is checked above, so the states are read directly
        states = self.graph.used_enablers.setdefault(vmxo_id, {})
        for ch in challengers:
            if ch != winner and (ch, loser) not in states:
                states[ch, loser] = EnablerState.CONSUMED
                self.log("challenge_refunded", verifier=ch, vmxo=vmxo_id)

    def _burn_and_pay(self, loser: str, winner: str,
                      challengers: list[str]) -> None:
        # refuses an unknown loser before any change
        burnt = self.graph.burn_enablers(loser)
        self.slashed.add(loser)
        self.log("enablers_burnt", loser=loser, count=burnt)
        # deposit pot: reimburse challengers' dispute costs, rest to winner
        pot = self.ledger.balances.get(f"deposit:{loser}", 0)
        paid = 0
        for ch in sorted(set(challengers)):
            refund = min(self.dispute_costs.get(ch, 0), pot - paid)
            if refund > 0:
                self.transfer(f"deposit:{loser}", f"wallet:{ch}", refund,
                              "cost-reimbursement")
                paid += refund
        remainder = pot - paid
        if remainder > 0:
            self.transfer(f"deposit:{loser}", f"wallet:{winner}", remainder,
                          "slash")
        self.log("slashed", loser=loser, winner=winner, pot=pot,
                 reimbursed=paid)
        # the loser's in-flight peg-outs: never-fronted ones return to the
        # pool for an honest operator; fronted ones stay locked
        for p in self.open_pegouts(loser):
            vmxo = self.graph.vmxos[p.vmxo_id]
            if p.fronted_tx is None:
                p.state = PegOutState.LINKED
                p.operator = None
                if vmxo.state == VmxoState.KICKOFF_OPEN:
                    vmxo.state = VmxoState.LOCKED
                    vmxo.operator = None
                self.log("pegout_released", loser=loser, vmxo=p.vmxo_id)
            else:
                p.state = PegOutState.INVALIDATED
                if vmxo.state == VmxoState.KICKOFF_OPEN:
                    vmxo.state = VmxoState.INVALIDATED
                self.log("pegout_invalidated", operator=loser, vmxo=p.vmxo_id)

    def recycle_enablers(self, pegout: PegOut) -> dict[str, int]:
        """Post-terminal counts of the N² enablers of the peg-out's VMXO,
        from that VMXO's stored states alone: one with none is live.
        ``UnknownId`` if the packet has no such VMXO."""
        if pegout.state not in (PegOutState.UNLOCKED,
                                PegOutState.INVALIDATED):
            raise NotTriggered(pegout.burn_tx or "?")
        self.graph.vmxo(pegout.vmxo_id)
        states = self.graph.used_enablers.get(pegout.vmxo_id, {})
        stored = Counter(states.values())
        counts = {"live": len(self.functionaries) ** 2 - len(states),
                  "consumed": stored[EnablerState.CONSUMED],
                  "burnt": stored[EnablerState.BURNT]}
        self.log("enablers_recycled", vmxo=pegout.vmxo_id, **counts)
        return counts

    # -- queries -----------------------------------------------------------

    def open_pegouts(self, operator: str) -> list[PegOut]:
        """The operator's peg-outs in flight, raw kick-offs included."""
        return [p for p in self.pegouts if p.operator == operator
                and p.state in (PegOutState.FRONTED, PegOutState.PROVEN,
                                PegOutState.KICKOFF)]

    def active_pegouts(self, operator: str) -> int:
        """Fronted peg-outs still in flight; ``pegout_limit`` bounds them."""
        return sum(p.fronted_tx is not None
                   for p in self.open_pegouts(operator))

    def separation_left(self, operator: str) -> int:
        """Ticks until the operator may front again under ``t_sep``."""
        last = self.last_kickoff_tick.get(operator, -self.t_sep)
        return max(0, last + self.t_sep - self.clock.now)

    def honest_unlock_allowed(self, pegout: PegOut) -> bool:
        """Oracle: does the peg-out's burn sit on the canonical secondary
        chain?"""
        if pegout.burn_block is None:
            return False
        return self.secondary.is_canonical(pegout.burn_block)
