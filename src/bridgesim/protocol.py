"""Peg-in / peg-out orchestration, deposits, slashing, enabler recycling.

``Bridge`` holds the full protocol state for one packet: both chains, the
presigned template graph, the functionaries and the set of slashed ones,
the satoshi ledger, and an append-only event log, kept as records and
rendered as lines only on read.  All methods are deterministic; the harness
drives them from a scenario script.

Deposits are denominated on the source chain.  Slashing pays the losing
party's deposit into a pot that first reimburses every challenger's dispute
costs, with the remainder going to the first-confirmed winner.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
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


# Each event kind's fields in the order its record holds them, which is by
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


def event_lines(records: list[dict[str, str]]) -> list[str]:
    """Each record's text line ``t=.. seq=.. ev=.. k=v ...``, in order."""
    return [" ".join(map("=".join, r.items())) for r in records]


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
        self.records: list[dict[str, str]] = []
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
        """Append ``{"t", "seq", "ev", **fields}`` to ``records``, fields in
        ``EVENT_SCHEMA`` order, values as strings.  ``ValueError``, before
        any write, unless the fields are exactly the kind's."""
        names = EVENT_SCHEMA.get(event) or EVENT_SCHEMA.get(
            (event, f"{fields.get('kind')}"))
        if names is None or len(names) != len(fields):
            raise ValueError(f"{event} with fields {sorted(fields)}")
        record = {"t": f"{self.clock.now}", "seq": f"{len(self.records) + 1}",
                  "ev": event}
        try:
            for k in names:
                record[k] = f"{fields[k]}"
        except KeyError:
            raise ValueError(f"{event} with fields {sorted(fields)}") from None
        self.records.append(record)

    @property
    def events(self) -> list[str]:
        """The text lines of ``records``, rendered on each read."""
        return event_lines(self.records)

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
