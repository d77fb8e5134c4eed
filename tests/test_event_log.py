"""The event log is kept once, as raw rows, and its text lines are rendered
only when read: the rendered lines against a frozen copy of the builder
that kept each event as a line, the event schema every row fits, the calls
the log refuses, the round trip from rows to lines and back, and the count
of renders."""

import re
from collections import Counter
from pathlib import Path

import pytest

from bridgesim import harness, protocol
from bridgesim.harness import (Scenario, Strategy, check_invariants,
                               generate_adversarial_scenarios, run_scenario,
                               scenario_corpus)
from bridgesim.protocol import (EVENT_SCHEMA, INTEGER_FIELDS, Bridge,
                                dispute_fees, event_lines, read_log)
from bridgesim.stopwatch import power_of_two_markers
from bridgesim.txgraph import EXTERNAL, TxKind

from test_harness import _fuzz_scenarios

README = Path(__file__).resolve().parents[1] / "README.md"


class TwoListBridge(Bridge):
    """``Bridge.log`` as it was when each event was kept twice, as its
    record and as its text line, frozen as the reference for the lines.
    ``_log_transfer`` and ``log_balances``, which write their own rows,
    format theirs from their named arguments alike; ``_log_spends`` and
    ``account_publications`` write theirs through ``log``, as they did
    before they wrote their own.  It keeps the rows too, which the checker
    reads."""

    def __init__(self, *args, **kwargs):
        self.lines: list[str] = []
        self._seq = 0
        super().__init__(*args, **kwargs)

    def _line(self, event: str, **fields) -> None:
        self._seq += 1
        line = f"t={self.clock.now} seq={self._seq} ev={event}"
        for k in sorted(fields):
            line += f" {k}={fields[k]}"
        self.lines.append(line)

    def log(self, event: str, **fields) -> None:
        self._line(event, **fields)
        super().log(event, **fields)

    def _log_transfer(self, frm: str, to: str, amount: int,
                      why: str) -> None:
        super()._log_transfer(frm, to, amount, why)
        self._line("transfer", src=frm, dst=to, amount=amount, why=why)

    def log_balances(self, kind: str) -> None:
        super().log_balances(kind)
        for account in sorted(self.ledger.balances):
            self._line(kind, account=account,
                       amount=self.ledger.balances[account])

    def _log_spends(self, tx) -> None:
        for ref in tx.inputs:
            if not ref[0].startswith(EXTERNAL):
                self.log("spend", out=f"{ref[0]}:{ref[1]}", by=tx.id)

    def account_publications(self, publications, base: int) -> None:
        prev_t = 0
        for t, party, action in publications:
            self.pay_dispute_fee(party, action)
            self.log("dispute_pub", actor=party, action=action, at=base + t)
            interval = t - prev_t
            if interval > 0:
                for d in power_of_two_markers(interval):
                    self.log("sw_tick", party=party, duration=d)
                self.log("sw_stop", party=party, interval=interval)
            prev_t = t


def n100_scenario(strategy):
    """The N = 100, V = 4 run of ``test_harness.N100_LOGS``."""
    return Scenario(name=f"n100-{strategy.value}", seed=1,
                    n_functionaries=100, vmxo_count=4, n_pegins=2,
                    n_pegouts=2,
                    adversary=None if strategy == Strategy.HONEST else 1,
                    strategy=strategy)


def _assert_lines_match_reference(run_with_bridge, monkeypatch, scenarios):
    reports = [run_scenario(sc) for sc in scenarios]
    monkeypatch.setattr(harness, "Bridge", TwoListBridge)
    for sc, report in zip(scenarios, reports):
        _, reference = run_with_bridge(sc)
        assert report.log == reference.lines, sc.name


def test_lines_match_two_list_builder_over_sweep_and_corpus(
        run_with_bridge, monkeypatch):
    _assert_lines_match_reference(
        run_with_bridge, monkeypatch,
        generate_adversarial_scenarios(500) + scenario_corpus())


def test_lines_match_two_list_builder_at_n100(run_with_bridge, monkeypatch):
    _assert_lines_match_reference(
        run_with_bridge, monkeypatch,
        [n100_scenario(strategy) for strategy in Strategy])


@pytest.mark.parametrize("name", ["t", "seq", "ev"])
def test_reserved_field_name_rejected(name):
    # such a field would overwrite its key in place and so move in the
    # rendered line; no schema entry holds one, so the log is left as it was
    b = Bridge(["f0", "f1"], 1, 100_000_000)
    before = list(b.rows)
    with pytest.raises(ValueError):
        b.log("meta", **{name: 1})
    with pytest.raises(ValueError):
        b.log("front_proven", **{name: 1})
    assert b.rows == before
    b.log("front_proven", tx="x")
    assert b.rows[-1] == (0, "front_proven", ("x",))
    assert b.events[-1] == f"t=0 seq={len(before) + 1} ev=front_proven tx=x"


class IdUnread:
    """A template of wallet-funded inputs only, whose id must not be read."""

    inputs = ((f"{EXTERNAL}:f0", 0), (f"{EXTERNAL}:user", 0))

    @property
    def id(self):
        raise AssertionError("id read")


def test_direct_writers_append_the_rows_log_appends():
    # _log_transfer (through transfer or for a mint), log_balances,
    # account_publications and _log_spends skip log's checks; each appends
    # exactly the rows that log appends for the same named fields
    direct, logged = (Bridge(["f0", "f1"], 1, 100_000_000) for _ in range(2))
    for b in (direct, logged):
        b.clock.advance(7)
    direct.transfer("wallet:f0", "fees", 5, "x")
    logged.ledger.transfer("wallet:f0", "fees", 5)
    logged.log("transfer", src="wallet:f0", dst="fees", amount=5, why="x")
    direct._log_transfer("wrapped-issuance", "user:u0:wrapped", 9, "mint")
    logged.log("transfer", src="wrapped-issuance", dst="user:u0:wrapped",
               amount=9, why="mint")
    # two games' publications: repeated and rising ticks, gaps of 1, 5 and
    # 8 (one, three and four markers), then challenges as a contest pays
    # the ones besides its game's
    publications = [(0, "f1", "challenge"), (1, "f0", "publish-hashes"),
                    (1, "f1", "publish-choice"), (6, "f0", "execute-leaf"),
                    (14, "f1", "alt-chain-proof")]
    direct.account_publications(publications, 40)
    direct.account_publications(publications[:2], 60)
    direct.account_publications([(0, ch, "challenge")
                                 for ch in ("f0", "f1")], 7)
    for pubs, base in ((publications, 40), (publications[:2], 60),
                       ([(0, "f0", "challenge"), (0, "f1", "challenge")], 7)):
        prev = 0
        for t, party, action in pubs:
            logged.pay_dispute_fee(party, action)
            logged.log("dispute_pub", actor=party, action=action, at=base + t)
            if t > prev:
                for d in power_of_two_markers(t - prev):
                    logged.log("sw_tick", party=party, duration=d)
                logged.log("sw_stop", party=party, interval=t - prev)
            prev = t
    assert dispute_fees(direct.rows) == dispute_fees(logged.rows)
    # an unlocking spends graph outputs; wallet-funded inputs write no row
    # and leave the id unread
    unlock = direct.graph.template(TxKind.UNLOCKING, "pkt0:vmxo0", "f0")
    for b in (direct, logged):
        b.clock.advance(2)
    direct._log_spends(unlock)
    direct._log_spends(IdUnread())
    for out, index in unlock.inputs:
        assert not out.startswith(EXTERNAL)
        logged.log("spend", out=f"{out}:{index}", by=unlock.id)
    for kind in ("balance", "final_balance"):
        direct.log_balances(kind)
        for account, amount in sorted(logged.ledger.balances.items()):
            logged.log(kind, account=account, amount=amount)
    counts = Counter(key for _, key, _ in direct.rows)
    assert counts == {"transfer": 2 + 9, "dispute_pub": 9, "sw_tick": 9,
                      "sw_stop": 4, "spend": len(unlock.inputs),
                      "balance": 5, "final_balance": 5}
    assert direct.rows == logged.rows
    assert [tuple(map(type, values)) for _, _, values in direct.rows] == \
        [tuple(map(type, values)) for _, _, values in logged.rows]
    # a snapshot of an empty ledger writes no row
    empty = Bridge(["f0", "f1"], 1, 100_000_000)
    empty.ledger.balances.clear()
    empty.log_balances("final_balance")
    assert empty.rows == []
    # any other kind is refused before any write
    before = list(direct.rows)
    for kind in ("transfer", "spend", "meta"):
        with pytest.raises(ValueError):
            direct.log_balances(kind)
    assert direct.rows == before


@pytest.mark.parametrize("event, fields", [
    ("fronted_twice", {"tx": "x"}),
    ("meta", {"kind": "x"}),
    ("meta", {"kind": "scenario", "name": "n", "rng": "r"}),
    ("spend", {"out": "a:0"}),
    ("spend", {"out": "a:0", "by": "b", "at": 1}),
    ("spend", {"out": "a:0", "at": 1}),
    ("transfer", {}),
], ids=["unknown-kind", "unknown-meta-kind", "meta-missing-field",
        "missing-field", "extra-field", "wrong-field", "no-fields"])
def test_log_refuses_what_the_schema_lacks(event, fields):
    b = Bridge(["f0", "f1"], 1, 100_000_000)
    b.log("spend", out="a:0", by="b")
    before = list(b.rows)
    with pytest.raises(ValueError):
        b.log(event, **fields)
    assert b.rows == before


def test_schema_entries_list_their_fields_by_name():
    # the order a line holds its fields in, so the lines read as they did
    # when each call sorted its fields
    assert len(EVENT_SCHEMA) == 34
    for key, names in EVENT_SCHEMA.items():
        assert list(names) == sorted(set(names)), key
        assert not {"t", "seq", "ev"} & set(names), key
        if isinstance(key, tuple):
            assert key[0] == "meta" and "kind" in names, key
    # the checker skips only kinds the log has
    assert harness.UNREAD < set(EVENT_SCHEMA)


def test_every_row_fits_its_schema_entry():
    scenarios = (scenario_corpus() + generate_adversarial_scenarios(500)
                 + [n100_scenario(strategy) for strategy in Strategy]
                 + list(_fuzz_scenarios(1000)))
    seen, not_integer = set(), set()
    for sc in scenarios:
        report = run_scenario(sc)
        # a row keeps each value as passed; only these render on read as
        # they rendered at emit, whatever changed in between
        assert all(type(v) in (str, int, bool)
                   for _, _, values in report.rows for v in values), sc
        for _, key, values in report.rows:
            names = EVENT_SCHEMA[key]
            assert len(values) == len(names), sc
            seen.add(key)
            not_integer.update(name for name, v in zip(names, values)
                               if type(v) is not int)
        assert read_log(report.log), sc
    # every entry is written by some run
    assert seen == set(EVENT_SCHEMA)
    # the marked fields are exactly those no run gives a non-integer
    assert not_integer.isdisjoint(INTEGER_FIELDS)
    assert not_integer | INTEGER_FIELDS == {
        name for names in EVENT_SCHEMA.values() for name in names}


def _as_written(rows):
    """``rows`` with each ``bool`` value formatted, as its line holds it."""
    return [(t, key, tuple(f"{v}" if type(v) is bool else v for v in values))
            for t, key, values in rows]


def test_read_log_and_event_lines_invert_each_other():
    # over the corpus, the 500-scenario sweep, the seven N = 100 runs and
    # 300 fuzz scenarios: a run's lines read back to its rows, those render
    # back to the same lines, and the rows give the run's verdicts
    scenarios = (scenario_corpus() + generate_adversarial_scenarios(500)
                 + [n100_scenario(strategy) for strategy in Strategy]
                 + list(_fuzz_scenarios(300)))
    for sc in scenarios:
        report = run_scenario(sc)
        rows = read_log(report.log)
        assert event_lines(rows) == report.log, sc
        assert check_invariants(rows) == report.verdicts, sc
        assert rows == _as_written(report.rows), sc


def test_readme_lists_the_schema():
    # the README's event table: one row per kind, its fields in order
    rows = re.findall(r"^\| `([a-z_]+)(?: kind=([a-z]+))?` \| ([^|]*) \|",
                      README.read_text(), re.M)
    listed = {(ev, kind) if kind else ev: tuple(fields.replace("`", "")
                                                 .split(", "))
              for ev, kind, fields in rows}
    assert len(rows) == len(listed)
    assert listed == EVENT_SCHEMA


def test_run_renders_only_when_log_is_read(monkeypatch):
    # a run keeps rows only; report.log renders each row to its line once,
    # on its first read
    rendered = []

    def counting(rows):
        rendered.extend(rows)
        return event_lines(rows)

    for module in (protocol, harness):
        monkeypatch.setattr(module, "event_lines", counting)
    report = run_scenario(Scenario(name="n10", seed=5, n_functionaries=10,
                                   adversary=2,
                                   strategy=Strategy.FAKE_PROOF_PROVER))
    assert report.all_passed
    assert rendered == []
    lines = report.log
    assert len(rendered) == len(report.rows) > 0
    assert all(a is b for a, b in zip(rendered, report.rows))
    assert report.log is lines
    assert len(rendered) == len(report.rows)
