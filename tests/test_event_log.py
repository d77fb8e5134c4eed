"""The event log is kept once, as raw rows, and its text lines are rendered
only when read: the rendered lines against a frozen copy of the builder
that kept each event as a line, the event schema every row fits, the calls
the log refuses, the round trip from rows to lines and back, and the count
of renders."""

import ast
import inspect
import re
import sys
import textwrap
from pathlib import Path

import pytest

from bridgesim import harness, protocol
from bridgesim.harness import (Scenario, Strategy, check_invariants,
                               generate_adversarial_scenarios, run_scenario,
                               scenario_corpus)
from bridgesim.protocol import (EVENT_SCHEMA, INTEGER_FIELDS, Bridge,
                                event_lines, read_log)
from bridgesim.txgraph import EXTERNAL, TxKind

import pins
from test_harness import _fuzz_scenarios

README = Path(__file__).resolve().parents[1] / "README.md"


class TwoListBridge(Bridge):
    """The line builder of when each event was kept twice, as its record and
    as its text line, frozen as the reference for the lines: every row that
    ``emit`` appends is also written as a line, its fields named by the
    schema and sorted by name, as each call once sorted its keywords.  It
    keeps the rows too, which the checker reads."""

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

    def emit(self, key, *values) -> None:
        super().emit(key, *values)
        self._line(key if isinstance(key, str) else key[0],
                   **dict(zip(EVENT_SCHEMA[key], values)))


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
        [pins.n100_scenario(strategy) for strategy in Strategy])


def test_batch_writers_refuse_or_skip_before_any_write():
    # a snapshot of an empty ledger writes no row, and a template of
    # wallet-funded inputs spends no graph output
    b = Bridge(["f0", "f1"], 1, 100_000_000)
    b.ledger.balances.clear()
    b.log_balances("final_balance")
    deposit = b.graph.template(TxKind.DEPOSIT_CREATE, "f0")
    assert deposit.inputs[0][0].startswith(EXTERNAL)
    assert b.graph.execute(deposit) == []
    assert b.rows == [] and b.graph.spent == set()
    # a snapshot of any other kind is refused before any write
    b.ledger.fund("wallet:f0", 5)
    b.log_balances("balance")
    before = list(b.rows)
    for kind in ("transfer", "spend", "meta"):
        with pytest.raises(ValueError):
            b.log_balances(kind)
    assert b.rows == before == [(0, "balance", ("wallet:f0", 5))]


def test_publications_emit_a_fee_a_pub_and_the_watch_rows_of_each_gap():
    # repeated and rising ticks, gaps of 1, 5 and 8: a transfer of the fee
    # and a dispute_pub per publication, each at the bridge's tick; after a
    # gap, a sw_tick per power-of-two marker and a sw_stop of the gap
    b = Bridge(["f0", "f1"], 1, 100_000_000)
    b.clock.now += 7
    b.account_publications([(0, "f1", "challenge"),
                            (1, "f0", "publish-hashes"),
                            (1, "f1", "publish-choice"),
                            (6, "f0", "execute-leaf"),
                            (14, "f1", "alt-chain-proof")], 40)
    assert all(t == 7 for t, _, _ in b.rows)
    assert [(key, values) for _, key, values in b.rows
            if key != "transfer"] == [
        ("dispute_pub", ("challenge", "f1", 40)),
        ("dispute_pub", ("publish-hashes", "f0", 41)),
        ("sw_tick", (1, "f0")), ("sw_stop", (1, "f0")),
        ("dispute_pub", ("publish-choice", "f1", 41)),
        ("dispute_pub", ("execute-leaf", "f0", 46)),
        ("sw_tick", (1, "f0")), ("sw_tick", (2, "f0")),
        ("sw_tick", (4, "f0")), ("sw_stop", (5, "f0")),
        ("dispute_pub", ("alt-chain-proof", "f1", 54)),
        ("sw_tick", (1, "f1")), ("sw_tick", (2, "f1")),
        ("sw_tick", (4, "f1")), ("sw_tick", (8, "f1")),
        ("sw_stop", (8, "f1"))]
    assert [values[2:] for _, key, values in b.rows if key == "transfer"] == [
        (f"wallet:{party}", f"dispute:{action}") for party, action in (
            ("f1", "challenge"), ("f0", "publish-hashes"),
            ("f1", "publish-choice"), ("f0", "execute-leaf"),
            ("f1", "alt-chain-proof"))]


@pytest.mark.parametrize("key, values", [
    ("fronted_twice", ("x",)),
    (("meta", "x"), ("x",)),
    (("meta", "scenario"), ("scenario", "n", "r")),
    ("spend", ("b",)),
    ("spend", ("b", "a:0", 1)),
    (("meta", "scenario"), ("parties", "n", "r", 1)),
    ("transfer", ()),
], ids=["unknown-kind", "unknown-meta-kind", "meta-missing-field",
        "missing-field", "extra-field", "wrong-field", "no-fields"])
def test_log_refuses_what_the_schema_lacks(key, values):
    # emit, the log's one writer, refuses before any write a key the schema
    # lacks, a count of values other than the key's fields, and a meta row
    # whose kind is not its key's
    b = Bridge(["f0", "f1"], 1, 100_000_000)
    b.emit("spend", "b", "a:0")
    before = list(b.rows)
    with pytest.raises(ValueError):
        b.emit(key, *values)
    assert b.rows == before


def test_emit_appends_one_row_of_the_values_as_passed():
    b = Bridge(["f0", "f1"], 1, 100_000_000)
    b.clock.now += 7
    b.emit("front_proven", "x")
    b.emit(("meta", "scenario"), "scenario", "n", "r", 3)
    assert b.rows == [(7, "front_proven", ("x",)),
                      (7, ("meta", "scenario"), ("scenario", "n", "r", 3))]
    assert b.events == ["t=7 seq=1 ev=front_proven tx=x",
                        "t=7 seq=2 ev=meta kind=scenario name=n rng=r seed=3"]


class EmitOnlyRows(list):
    """A bridge's rows that take a row only from ``Bridge.emit``."""

    def append(self, row):
        assert sys._getframe(1).f_code.co_name == "emit"
        super().append(row)

    def _refused(self, *args):
        raise AssertionError("rows written besides emit")

    extend = insert = __iadd__ = __setitem__ = _refused


class EmitOnlyBridge(Bridge):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rows = EmitOnlyRows()


def test_emit_is_the_one_row_writer(run_with_bridge, monkeypatch):
    # over the corpus and the sweep, every row a run writes comes through
    # emit, whichever name the rows are reached by
    monkeypatch.setattr(harness, "Bridge", EmitOnlyBridge)
    for sc in scenario_corpus() + generate_adversarial_scenarios(500):
        report, bridge = run_with_bridge(sc)
        assert type(bridge.rows) is EmitOnlyRows and report.rows, sc.name


def test_schema_entries_list_their_fields_by_name():
    # the order a line holds its fields in, so the lines read as they did
    # when each call sorted its fields
    assert len(EVENT_SCHEMA) == 34
    for key, names in EVENT_SCHEMA.items():
        assert list(names) == sorted(set(names)), key
        assert not {"t", "seq", "ev"} & set(names), key
        if isinstance(key, tuple):
            assert key[0] == "meta" and "kind" in names, key


def test_unread_is_every_kind_the_checker_does_not_compare():
    # UNREAD is what check_invariants skips; a branch added for a kind it
    # still lists would never run
    tree = ast.parse(textwrap.dedent(inspect.getsource(check_invariants)))
    compared = {ast.literal_eval(other) for node in ast.walk(tree)
                if isinstance(node, ast.Compare)
                and isinstance(node.left, ast.Name) and node.left.id == "key"
                for other in node.comparators
                if not isinstance(other, ast.Name)}
    assert compared < set(EVENT_SCHEMA)
    assert harness.UNREAD == set(EVENT_SCHEMA) - compared


def test_every_row_fits_its_schema_entry():
    scenarios = (scenario_corpus() + generate_adversarial_scenarios(500)
                 + [pins.n100_scenario(strategy) for strategy in Strategy]
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


def test_recycled_counts_cover_each_vmxos_enablers():
    # over the corpus, the 500-scenario sweep and the seven N = 100 runs,
    # each VMXO's live, consumed and burnt enablers add up to its N²
    scenarios = (scenario_corpus() + generate_adversarial_scenarios(500)
                 + [pins.n100_scenario(strategy) for strategy in Strategy])
    recycled = 0
    for sc in scenarios:
        rows = run_scenario(sc).rows
        parties = next(values for _, key, values in rows
                       if key == ("meta", "parties"))
        names = EVENT_SCHEMA["meta", "parties"]
        n = len(parties[names.index("functionaries")].split(","))
        for _, key, values in rows:
            if key == "enablers_recycled":
                burnt, consumed, live, _ = values
                assert burnt + consumed + live == n * n, sc
                recycled += 1
    assert recycled > 500


def _as_written(rows):
    """``rows`` with each ``bool`` value formatted, as its line holds it."""
    return [(t, key, tuple(f"{v}" if type(v) is bool else v for v in values))
            for t, key, values in rows]


def test_read_log_and_event_lines_invert_each_other():
    # over the corpus, the 500-scenario sweep, the seven N = 100 runs and
    # 300 fuzz scenarios: a run's lines read back to its rows, those render
    # back to the same lines, and the rows give the run's verdicts
    scenarios = (scenario_corpus() + generate_adversarial_scenarios(500)
                 + [pins.n100_scenario(strategy) for strategy in Strategy]
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
