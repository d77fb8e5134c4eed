"""The event log is kept once, as records, and its text lines are rendered
only when read: the rendered lines against a frozen copy of the builder
that kept both, the reserved field names, and the count of renders."""

import pytest

from bridgesim import harness, protocol
from bridgesim.harness import (Scenario, Strategy,
                               generate_adversarial_scenarios, run_scenario,
                               scenario_corpus)
from bridgesim.protocol import Bridge


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
    # rendered line; the log is left as it was
    b = Bridge(["f0", "f1"], 1, 100_000_000)
    before = list(b.records)
    with pytest.raises(ValueError):
        b.log("meta", **{name: 1})
    assert b.records == before
    b.log("meta", kind="x")
    assert b.records[-1]["seq"] == f"{len(before) + 1}"
    assert b.events[-1].endswith(" ev=meta kind=x")


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
