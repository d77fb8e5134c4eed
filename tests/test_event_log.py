"""The event log is kept once, as records, and its text lines are rendered
only when read: the rendered lines against a frozen copy of the builder
that kept both, the event schema every record fits, the calls the log
refuses, and the count of renders."""

import re
from pathlib import Path

import pytest

from bridgesim import harness, protocol
from bridgesim.harness import (INTEGER, Scenario, Strategy,
                               generate_adversarial_scenarios, malformed_log,
                               run_scenario, scenario_corpus)
from bridgesim.protocol import EVENT_SCHEMA, INTEGER_FIELDS, Bridge

from test_harness import _fuzz_scenarios

README = Path(__file__).resolve().parents[1] / "README.md"


class TwoListBridge(Bridge):
    """``Bridge.log`` as it was when each event was kept twice, as its
    record and as its text line, frozen as the reference for the lines."""

    def __init__(self, *args, **kwargs):
        self.lines: list[str] = []
        self._seq = 0
        super().__init__(*args, **kwargs)

    def log(self, event: str, **fields) -> None:
        self._seq += 1
        t, seq = f"{self.clock.now}", f"{self._seq}"
        record = {"t": t, "seq": seq, "ev": event}
        line = f"t={t} seq={seq} ev={event}"
        for k in sorted(fields):
            v = record[k] = f"{fields[k]}"
            line += f" {k}={v}"
        self.records.append(record)
        self.lines.append(line)


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
        assert report.records == reference.records, sc.name


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
    before = list(b.records)
    with pytest.raises(ValueError):
        b.log("meta", **{name: 1})
    with pytest.raises(ValueError):
        b.log("front_proven", **{name: 1})
    assert b.records == before
    b.log("front_proven", tx="x")
    assert b.records[-1]["seq"] == f"{len(before) + 1}"
    assert b.events[-1].endswith(" ev=front_proven tx=x")


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
    before = [dict(r) for r in b.records]
    with pytest.raises(ValueError):
        b.log(event, **fields)
    assert b.records == before


def test_schema_entries_list_their_fields_by_name():
    # the order a record holds its fields in, so the lines read as they did
    # when each call sorted its fields
    assert len(EVENT_SCHEMA) == 34
    for key, names in EVENT_SCHEMA.items():
        assert list(names) == sorted(set(names)), key
        assert not {"t", "seq", "ev"} & set(names), key
        if isinstance(key, tuple):
            assert key[0] == "meta" and "kind" in names, key
    # the checker skips only kinds the log has
    assert harness.UNREAD < set(EVENT_SCHEMA)


def test_every_record_fits_its_schema_entry():
    scenarios = (scenario_corpus() + generate_adversarial_scenarios(500)
                 + [n100_scenario(strategy) for strategy in Strategy]
                 + list(_fuzz_scenarios(1000)))
    seen, not_integer = set(), set()
    for sc in scenarios:
        records = run_scenario(sc).records
        for r in records:
            key = (r["ev"], r["kind"]) if r["ev"] == "meta" else r["ev"]
            assert tuple(r) == ("t", "seq", "ev", *EVENT_SCHEMA[key]), sc
            seen.add(key)
            not_integer.update(k for k, v in r.items()
                               if not INTEGER.fullmatch(v))
        assert malformed_log(records) is None, sc
    # every entry is written by some run
    assert seen == set(EVENT_SCHEMA)
    # the marked fields are exactly those no run gives a non-integer
    assert not_integer.isdisjoint(INTEGER_FIELDS)
    assert not_integer | INTEGER_FIELDS == {
        name for names in EVENT_SCHEMA.values() for name in names} | {"ev"}


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
    # a run keeps records only; report.log renders each record once, on
    # its first read
    rendered, render = [], protocol.event_lines

    def counting(records):
        rendered.extend(records)
        return render(records)

    for module in (protocol, harness):
        monkeypatch.setattr(module, "event_lines", counting)
    report = run_scenario(Scenario(name="n10", seed=5, n_functionaries=10,
                                   adversary=2,
                                   strategy=Strategy.FAKE_PROOF_PROVER))
    assert report.all_passed
    assert rendered == []
    lines = report.log
    assert len(rendered) == len(report.records) > 0
    assert all(a is b for a, b in zip(rendered, report.records))
    assert report.log is lines
    assert len(rendered) == len(report.records)
