"""Peg-in / peg-out orchestration, deposits, slashing, enabler recycling.

``Bridge`` holds the full protocol state for one packet: both chains, the
presigned template graph, the functionaries and the set of slashed ones,
the satoshi ledger, and an append-only event log.  The log keeps each event
as one raw row ``(tick, schema key, values)``, the values as passed, in the
schema's order; ``Bridge.emit`` is its one writer, which checks the key and
the count of values.  Its text lines are rendered on read, and ``read_log``
reads them back.  All methods are deterministic; the harness drives them
from a scenario script.

Deposits are denominated on the source chain.  Slashing pays the losing
party's deposit into a pot that first refunds each challenger its fees in
the contest it settles, each fee once, as ``dispute_fees`` reads them from
the log; the rest goes to the first-confirmed winner.
"""

from __future__ import annotations

from enum import Enum
from itertools import islice
from typing import Optional

from .chain import SECONDARY, SOURCE, ChainView, SimClock
from .econ import DISPUTE_ACTION_VBYTES, required_deposit
from .errors import (AlreadyClosed, ConcurrencyLimit, EnablerUnavailable,
                     Insolvent, InsufficientConfirmations, MalformedInput,
                     MissingSignature, NoCapacity, NotLinked, NotSameOperator,
                     NotTriggered, UnknownId, WrongDenomination)
from .stopwatch import power_of_two_markers
from .txgraph import (EnablerState, PacketGraph, SimTx, TxKind, VmxoState,
                      build_packet_templates)


class PegOutState(str, Enum):
    REQUESTED = "Requested"
    LINKED = "Linked"
    FRONTED = "Fronted"
    PROVEN = "Proven"
    KICKOFF = "Kickoff"
    UNLOCKED = "Unlocked"
    INVALIDATED = "Invalidated"


class PegIn:
    __slots__ = ("user", "amount", "vmxo_id", "deposit_tx", "deposit_block",
                 "signatures")

    def __init__(self, user: str, amount: int, vmxo_id: str):
        self.user, self.amount, self.vmxo_id = user, amount, vmxo_id
        self.deposit_tx = self.deposit_block = None
        self.signatures: set[str] = set()


class PegOut:
    __slots__ = ("user", "amount", "burn_tx", "burn_block", "vmxo_id",
                 "operator", "fronted_tx", "state")

    def __init__(self, user: str, amount: int, burn_tx: str):
        self.user, self.amount, self.burn_tx = user, amount, burn_tx
        self.burn_block = self.vmxo_id = self.operator = None
        self.fronted_tx, self.state = None, PegOutState.REQUESTED


class Ledger:
    """Satoshi accounts; every movement is a balanced transfer."""

    def __init__(self):
        self.balances: dict[str, int] = {}

    def fund(self, account: str, amount: int) -> None:
        self.balances[account] = self.balances.get(account, 0) + amount

    def payable(self, frm: str, amount: int) -> int:
        """The balance of ``frm`` if it can pay ``amount``; ``Insolvent`` for
        a negative amount, an account never opened or one that cannot pay."""
        if amount < 0:
            raise Insolvent(f"negative transfer {amount}")
        have = self.balances.get(frm)
        if have is None:
            raise Insolvent(f"no account {frm}")
        if have < amount:
            raise Insolvent(f"insolvent account {frm}")
        return have

    def transfer(self, frm: str, to: str, amount: int) -> None:
        """Move ``amount`` from ``frm`` to ``to`` if it is ``payable``."""
        self.balances[frm] = self.payable(frm, amount) - amount
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

# each schema key's count of values, which ``Bridge.emit`` checks
_ARITY = {key: len(names) for key, names in EVENT_SCHEMA.items()}
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


def dispute_fees(rows) -> dict[str, int]:
    """Each party's fees paid for disputes and force-closes, from rows."""
    fees: dict[str, int] = {}
    for _, key, values in rows:
        if key == "transfer" and values[1] == "fees" and \
                values[3].partition(":")[0] in ("dispute", "force-close"):
            party = values[2].removeprefix("wallet:")
            fees[party] = fees.get(party, 0) + values[0]
    return fees


def contest_fees(rows, end: int, vmxo_id) -> dict[str, int]:
    """Each party's ``dispute_fees`` in the contest over ``vmxo_id`` that a
    slash at row ``end`` settles: from the commit-proof row before the
    VMXO's last kick-off, or after the last ``slashed`` row if later, so
    that no fee counts in two contests."""
    start = 0
    for i in range(end - 1, -1, -1):
        _, key, values = rows[i]
        if key == "slashed" or key == "kickoff" and values[2] == vmxo_id:
            start = i + 1 if key == "slashed" else i - 1
            break
    return dispute_fees(rows[start:end])


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


def _record(records: list, i: int):
    """``records[i]``, the record of the handle ``i`` that a request gave;
    ``UnknownId`` for a negative, out-of-range or non-``int`` index."""
    if type(i) is not int or not 0 <= i < len(records):
        raise UnknownId(i)
    return records[i]


class Bridge:
    """Protocol engine for one packet on one pair of chains."""

    # confirmations before a peg-in mints or a front counts (source chain)
    # and before a burn counts (secondary chain)
    source_confirmations = 3
    secondary_confirmations = 3

    def __init__(self, functionary_ids: list[str], vmxo_count: int,
                 denomination: int, fee_rate: int = 1, t_sep: int = 0):
        deposit = required_deposit(len(functionary_ids), fee_rate)
        # first, so that too few, repeated or non-word ids leave no state
        self.graph: PacketGraph = build_packet_templates(
            functionary_ids, vmxo_count, denomination,
            deposit_per_functionary=deposit)
        self.clock = SimClock()
        self.source = ChainView(SOURCE)
        self.secondary = ChainView(SECONDARY)
        self.fee_rate = fee_rate
        self.denomination = denomination
        self.t_sep = t_sep
        self.deposit_per_functionary = deposit
        self.functionaries = list(functionary_ids)
        self.slashed: set[str] = self.graph.burnt  # the same set, kept once
        self.ledger = Ledger()
        self.rows: list[tuple] = []
        self.pegins: list[PegIn] = []
        self.pegouts: list[PegOut] = []
        self.linked: dict[str, PegOut] = {}  # each linked VMXO's peg-out
        self._link_from = 0  # every VMXO before this index is linked
        self.last_kickoff_tick: dict[str, int] = {}
        # the ids are distinct, so each account opens once, as fund() would
        balances = self.ledger.balances
        wallet = 50 * denomination + 100 * deposit
        for f in functionary_ids:
            balances[f"deposit:{f}"], balances[f"wallet:{f}"] = deposit, wallet

    # -- event log ---------------------------------------------------------

    def emit(self, key, *values) -> None:
        """Append the row ``(clock.now, key, values)``, the one writer of
        ``rows``: ``key`` is an ``EVENT_SCHEMA`` key, ``("meta", kind)`` for
        a meta event, and ``values`` its fields' values in the schema's
        order; ``seq`` is the row's position.  ``ValueError``, before any
        write, for another key, another count of values or a meta row of
        another kind than its key's."""
        if len(values) != _ARITY.get(key) or type(key) is tuple and \
                values[EVENT_SCHEMA[key].index("kind")] != key[1]:
            raise ValueError(f"{key} with values {values}")
        self.rows.append((self.clock.now, key, values))

    @property
    def events(self) -> list[str]:
        """The text lines of ``rows``, rendered on each read."""
        return event_lines(self.rows)

    def transfer(self, frm: str, to: str, amount: int, why: str) -> None:
        self.ledger.transfer(frm, to, amount)
        self.emit("transfer", amount, to, frm, why)

    def log_balances(self, kind: str) -> None:
        """Emit a ``kind`` row, ``balance`` or ``final_balance``, per
        account by name; else ``ValueError``, no write."""
        if kind != "balance" and kind != "final_balance":
            raise ValueError(f"{kind} is not a balance snapshot")
        balances = self.ledger.balances
        for account in sorted(balances):
            self.emit(kind, account, balances[account])

    def pay_fee(self, party: str, vbytes: int, why: str) -> int:
        fee = vbytes * self.fee_rate
        self.transfer(f"wallet:{party}", "fees", fee, why)
        return fee

    def _spend(self, tx: SimTx, payer: str, why: str) -> None:
        """Execute template ``tx``, its fee paid by ``payer``: the one way a
        template executes.  A payer who cannot pay and an output spent
        already are refused before any write; then a ``spend`` row per
        graph output it spends, in input order, and the fee."""
        self.ledger.payable(f"wallet:{payer}", tx.vbytes * self.fee_rate)
        for txid, index in self.graph.execute(tx):
            self.emit("spend", tx.id, f"{txid}:{index}")
        self.pay_fee(payer, tx.vbytes, why)

    def pay_dispute_fee(self, party: str, action: str) -> int:
        vb = DISPUTE_ACTION_VBYTES.get(action)
        if vb is None:
            raise MalformedInput(f"unknown dispute action {action!r}")
        return self.pay_fee(party, vb, f"dispute:{action}")

    def account_publications(self, publications, base: int) -> None:
        """Pay and log a dispute game's publications, each ``(t, party,
        action)`` at tick ``base + t``, in order: ``pay_dispute_fee``, its
        ``dispute_pub`` row and, if ``t`` is past the publication before, a
        ``sw_tick`` row per marker of the interval and a ``sw_stop``."""
        prev = 0
        for t, party, action in publications:
            self.pay_dispute_fee(party, action)
            self.emit("dispute_pub", action, party, base + t)
            if t > prev:
                interval = t - prev
                for d in power_of_two_markers(interval):
                    self.emit("sw_tick", d, party)
                self.emit("sw_stop", interval, party)
            prev = t

    # -- peg-in ------------------------------------------------------------

    def request_pegin(self, user: str, amount: int) -> int:
        """The new peg-in's index, the handle the other peg-in calls take."""
        if amount != self.denomination:
            raise WrongDenomination(f"{amount} != {self.denomination}")
        # in order: only executing a requested peg-in moves its VMXO on
        vmxo_ids, taken = self.graph.vmxo_ids, len(self.pegins)
        if taken == len(vmxo_ids):
            raise NoCapacity("no vmxo awaiting peg-in")
        self.pegins.append(PegIn(user, amount, vmxo_ids[taken]))
        self.emit("pegin_requested", amount, user, vmxo_ids[taken])
        return taken

    def sign_pegin(self, i: int, *signers: str) -> None:
        _record(self.pegins, i).signatures.update(signers)

    def broadcast_pegin(self, i: int) -> str:
        """User's deposit transaction hits the source chain mempool; the
        harness mines it into a block."""
        pegin = _record(self.pegins, i)
        pegin.deposit_tx = f"pegin:{pegin.user}:{pegin.vmxo_id}"
        return pegin.deposit_tx

    def execute_pegin(self, i: int) -> None:
        """Mint for peg-in ``i``, once, after every signature and enough
        confirmations; else refused before any write."""
        pegin = _record(self.pegins, i)
        vmxo = self.graph.vmxos[pegin.vmxo_id]
        if vmxo.state != VmxoState.AWAITING_PEGIN:
            raise NotTriggered(f"{pegin.vmxo_id} is {vmxo.state.value}")
        required = set(self.functionaries) | {pegin.user}
        missing = required - pegin.signatures
        if missing:
            raise MissingSignature(",".join(sorted(missing)))
        self._confirmed(self.source, pegin.deposit_block, pegin.deposit_tx,
                        self.source_confirmations)
        self.transfer(f"user:{pegin.user}:src", f"vmxo:{pegin.vmxo_id}",
                      pegin.amount, "pegin-lock")
        vmxo.state = VmxoState.LOCKED
        # wrapped issuance is a liability account and may go negative
        self.ledger.fund(f"user:{pegin.user}:wrapped", pegin.amount)
        self.ledger.fund("wrapped-issuance", -pegin.amount)
        self.emit("transfer", pegin.amount, f"user:{pegin.user}:wrapped",
                  "wrapped-issuance", "mint")
        self.emit("minted", pegin.amount, pegin.user, pegin.vmxo_id)

    # -- peg-out -----------------------------------------------------------

    def request_pegout(self, user: str, amount: int) -> int:
        """The new peg-out's index, the handle the other peg-out calls take."""
        if amount != self.denomination:
            raise WrongDenomination(f"{amount} != {self.denomination}")
        i = len(self.pegouts)
        pegout = PegOut(user, amount, f"burn:{user}:{i + 1}")
        self.transfer(f"user:{user}:wrapped", "wrapped-issuance", amount,
                      "burn")
        self.pegouts.append(pegout)
        self.emit("pegout_burn", amount, pegout.burn_tx, user)
        return i

    def link_pegout(self, i: int) -> str:
        """Deterministic link of a ``Requested`` peg-out ``i``: oldest
        unlinked Locked VMXO of the amount.  A link is never undone, so the
        scan starts past the VMXOs linked from the first on, and linking
        each VMXO in turn is linear in their count."""
        pegout = _record(self.pegouts, i)
        if pegout.state != PegOutState.REQUESTED:
            raise NotTriggered(f"{pegout.burn_tx} is {pegout.state.value}")
        vmxo_ids = self.graph.vmxo_ids
        while self._link_from < len(vmxo_ids) and \
                vmxo_ids[self._link_from] in self.linked:
            self._link_from += 1
        for v in islice(vmxo_ids, self._link_from, None):
            if v in self.linked:
                continue
            if self.graph.vmxos[v].state == VmxoState.LOCKED:
                pegout.vmxo_id = v
                self.linked[v] = pegout
                pegout.state = PegOutState.LINKED
                self.emit("pegout_linked", pegout.burn_tx, v)
                return v
        raise NoCapacity("no locked vmxo to link")

    def _confirmed(self, chain: ChainView, block: Optional[str],
                   tx: Optional[str], depth: int) -> None:
        """``InsufficientConfirmations`` naming ``tx`` unless ``block`` is
        ``depth`` deep on ``chain`` and holds ``tx``."""
        if block is None or chain.confirmations(block) < depth or \
                tx not in chain.block_txs[block]:
            raise InsufficientConfirmations(tx or "?")

    def front_funds(self, i: int, operator: str) -> str:
        """Front the ``Linked`` peg-out ``i``, once; a slashed operator has
        no live enabler, an unknown one raises ``UnknownId``.  It keeps a
        0.1% cut."""
        pegout = _record(self.pegouts, i)
        if pegout.vmxo_id is None:
            raise NotLinked(pegout.burn_tx)
        if pegout.state != PegOutState.LINKED:
            raise NotTriggered(f"{pegout.burn_tx} is {pegout.state.value}")
        self._confirmed(self.secondary, pegout.burn_block, pegout.burn_tx,
                        self.secondary_confirmations)
        if self.graph.enabler_state(operator,
                                    pegout.vmxo_id) != EnablerState.LIVE:
            raise EnablerUnavailable(f"operator enabler for {operator}")
        if self.separation_left(operator):
            raise ConcurrencyLimit(f"{operator}: t_sep not elapsed")
        fronted = pegout.amount - pegout.amount // 1000
        pegout.operator = operator
        pegout.fronted_tx = f"front:{operator}:{pegout.burn_tx}"
        pegout.state = PegOutState.FRONTED
        self.transfer(f"wallet:{operator}", f"user:{pegout.user}:src",
                      fronted, "front")
        self.emit("fronted", fronted, operator, pegout.fronted_tx,
                  pegout.user)
        return pegout.fronted_tx

    def prove_front(self, i: int, front_block: str) -> None:
        pegout = _record(self.pegouts, i)
        if pegout.state != PegOutState.FRONTED:
            raise NotTriggered(f"{pegout.burn_tx} is {pegout.state.value}")
        self._confirmed(self.source, front_block, pegout.fronted_tx,
                        self.source_confirmations)
        pegout.state = PegOutState.PROVEN
        self.emit("front_proven", pegout.fronted_tx)

    def publish_kickoff(self, vmxo_id: str, operator: str) -> None:
        """Operator commits the proof of the verification predicate on a
        Locked VMXO.  It is logged ``honest=True`` after the guarded path
        (front, prove, then kick off) of the VMXO's linked peg-out, and
        ``False`` for a raw kick-off, which skipped it or has no peg-out:
        the template itself carries no concurrency check on-chain.  Its one
        input is the operator's wallet, so it spends no graph output and
        its template is not built here.  Only an unslashed operator, the
        one that fronted the linked peg-out if one did, may kick it off."""
        vmxo = self.graph.vmxo(vmxo_id)
        if vmxo.state != VmxoState.LOCKED:
            raise NotTriggered(f"{vmxo_id} is {vmxo.state.value}")
        if self.graph.enabler_state(operator, vmxo_id) != EnablerState.LIVE:
            raise EnablerUnavailable(f"operator enabler for {operator}")
        pegout = self.linked.get(vmxo_id)
        if pegout is not None and pegout.operator not in (None, operator):
            raise NotTriggered(f"{vmxo_id} fronted by {pegout.operator}")
        self.pay_dispute_fee(operator, "commit-proof")
        vmxo.state, vmxo.operator = VmxoState.KICKOFF_OPEN, operator
        honest = pegout is not None and pegout.state == PegOutState.PROVEN
        if pegout is not None:
            pegout.state, pegout.operator = PegOutState.KICKOFF, operator
        self.last_kickoff_tick[operator] = self.clock.now
        self.emit("kickoff", honest, operator, vmxo_id)

    def unlock(self, vmxo_id: str) -> None:
        """No-challenge (or all-challenges-defeated) completion of the
        VMXO's open kick-off: the Unlocking template pays its operator,
        consuming its live operator enabler and the kick-off output."""
        vmxo = self.graph.vmxo(vmxo_id)
        operator = vmxo.operator
        if vmxo.state != VmxoState.KICKOFF_OPEN:
            raise NotTriggered(vmxo_id)
        if self.graph.enabler_state(operator, vmxo_id) != EnablerState.LIVE:
            raise EnablerUnavailable(f"operator enabler for {operator}")
        self._spend(self.graph.template(TxKind.UNLOCKING, vmxo_id, operator),
                    operator, "unlocking")
        self.graph.consume_enabler(operator, vmxo_id)
        vmxo.state = VmxoState.UNLOCKED
        if vmxo_id in self.linked:
            self.linked[vmxo_id].state = PegOutState.UNLOCKED
        self.transfer(f"vmxo:{vmxo_id}", f"wallet:{operator}", vmxo.amount,
                      "unlock")
        self.emit("unlocked", vmxo.amount, operator, vmxo_id)

    def adhoc_theft(self, vmxo_id: str, thief: str) -> bool:
        """Attempt a non-template multisig spend of a locked VMXO.

        Possible only if every functionary retained (leaked) their keys.
        Refuses an unknown VMXO or thief before any write."""
        vmxo = self.graph.vmxo(vmxo_id)
        if thief not in self.graph.position:
            raise UnknownId(thief)
        if not self.graph.adhoc_spend_allowed(vmxo_id):
            self.emit("theft_rejected", thief, vmxo_id)
            return False
        self.transfer(f"vmxo:{vmxo_id}", f"wallet:{thief}",
                      vmxo.amount, "adhoc-theft")
        vmxo.state = VmxoState.UNLOCKED
        self.emit("theft", vmxo.amount, thief, vmxo_id)
        return True

    def force_close(self, vmxo_a: str, vmxo_b: str, closer: str) -> None:
        """An honest functionary spends an operator's two open kick-offs,
        exposing the operator's deposit; ``vmxo_b``, the second, is locked
        again.  ``AlreadyClosed`` unless both are open, then
        ``NotSameOperator`` unless one operator opened both, then
        ``MalformedInput`` if that operator is the closer."""
        if closer not in self.graph.position:
            raise UnknownId(closer)
        va, vb = self.graph.vmxo(vmxo_a), self.graph.vmxo(vmxo_b)
        if va.state != VmxoState.KICKOFF_OPEN or \
                vb.state != VmxoState.KICKOFF_OPEN:
            raise AlreadyClosed(f"{vmxo_a},{vmxo_b}")
        operator = va.operator
        if operator != vb.operator:
            raise NotSameOperator(f"{operator} vs {vb.operator}")
        if closer == operator:
            raise MalformedInput(f"{closer} force-closes its own kick-offs")
        pair = sorted((vmxo_a, vmxo_b), key=self.graph.vmxo_position.get)
        self._spend(self.graph.template(TxKind.FORCE_CLOSE, operator, *pair),
                    closer, "force-close")
        vb.state, vb.operator = VmxoState.LOCKED, None
        self.emit("force_close", closer, operator, vmxo_a, vmxo_b)

    # -- slashing and recycling -------------------------------------------

    def slash(self, loser: str, winner: str, challengers: list[str],
              vmxo_id: str) -> None:
        """Burn the loser's enablers and pay out its deposit, once, refunding
        each challenger its fees in the contest over ``vmxo_id``; then refund
        the enabler of every such challenger but the winner, since their
        channels against the loser become no-ops.
        Refuses an unknown winner, challenger, loser or VMXO, a loser that
        is its own winner or among its own challengers, before any write."""
        self.graph.vmxo(vmxo_id)
        for party in (winner, *challengers):
            if party not in self.graph.position:
                raise UnknownId(party)
        if loser == winner or loser in challengers:
            raise MalformedInput(f"{loser} its own winner or challenger")
        if loser not in self.slashed:
            self._burn_and_pay(loser, winner, challengers, vmxo_id)
        # every id is checked above
        for ch in self.graph.refund_enablers(
                vmxo_id, loser, [ch for ch in challengers if ch != winner]):
            self.emit("challenge_refunded", ch, vmxo_id)

    def _burn_and_pay(self, loser: str, winner: str,
                      challengers: list[str], vmxo_id: str) -> None:
        # refuses an unknown loser before any change
        burnt = self.graph.burn_enablers(loser)
        fees = contest_fees(self.rows, len(self.rows), vmxo_id)
        self.emit("enablers_burnt", burnt, loser)
        # deposit pot: refund the challengers' fees, the rest to the winner
        pot = self.ledger.balances.get(f"deposit:{loser}", 0)
        paid = 0
        for ch in sorted(set(challengers)):
            refund = min(fees.get(ch, 0), pot - paid)
            if refund > 0:
                self.transfer(f"deposit:{loser}", f"wallet:{ch}", refund,
                              "cost-reimbursement")
                paid += refund
        remainder = pot - paid
        if remainder > 0:
            self.transfer(f"deposit:{loser}", f"wallet:{winner}", remainder,
                          "slash")
        self.emit("slashed", loser, pot, paid, winner)
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
                self.emit("pegout_released", loser, p.vmxo_id)
            else:
                p.state = PegOutState.INVALIDATED
                if vmxo.state == VmxoState.KICKOFF_OPEN:
                    vmxo.state = VmxoState.INVALIDATED
                self.emit("pegout_invalidated", loser, p.vmxo_id)

    def recycle_enablers(self, i: int) -> dict[str, int]:
        """Post-terminal counts of the N² enablers of peg-out ``i``'s VMXO."""
        pegout = _record(self.pegouts, i)
        if pegout.state not in (PegOutState.UNLOCKED,
                                PegOutState.INVALIDATED):
            raise NotTriggered(pegout.burn_tx)
        counts = self.graph.enabler_counts(pegout.vmxo_id)
        self.emit("enablers_recycled", counts["burnt"], counts["consumed"],
                  counts["live"], pegout.vmxo_id)
        return counts

    # -- queries -----------------------------------------------------------

    def open_pegouts(self, operator: str) -> list[PegOut]:
        """The operator's peg-outs in flight, kicked off without a front
        included; a kick-off of an unlinked VMXO has no peg-out."""
        return [p for p in self.pegouts if p.operator == operator
                and p.state in (PegOutState.FRONTED, PegOutState.PROVEN,
                                PegOutState.KICKOFF)]

    def separation_left(self, operator: str) -> int:
        """Ticks until the operator may front again under ``t_sep``."""
        last = self.last_kickoff_tick.get(operator, -self.t_sep)
        return max(0, last + self.t_sep - self.clock.now)

    def next_operator(self, pool: list[str]) -> str:
        """The operator of ``pool`` with the least ``(separation_left,
        name)``; one that never kicked off waits 0 ticks, as ``clock.now``
        is not negative, so only the others are asked."""
        kicked = self.last_kickoff_tick
        return min(pool, key=lambda f: (
            self.separation_left(f) if f in kicked else 0, f))
