import re
import sys

import pytest

from bridgesim import cli, harness, protocol
from bridgesim.cli import main

SCENARIO = """
name cli-demo
seed 4
functionaries 3
vmxos 2
pegins 2
pegouts 1
adversary 1 FakeProofProver
"""

LEAKED = """
name cli-leak
seed 4
functionaries 3
pegouts 0
leak_all true
"""


def test_run_exit_zero_and_log_written(tmp_path, capsys):
    sc = tmp_path / "demo.scenario"
    sc.write_text(SCENARIO)
    log = tmp_path / "run.log"
    assert main(["run", str(sc), "--log", str(log)]) == 0
    out = capsys.readouterr().out
    assert "[PASS] conservation" in out
    assert log.read_text().startswith("t=0 seq=1 ev=meta")


def test_run_nonzero_on_invariant_failure(tmp_path):
    sc = tmp_path / "leak.scenario"
    sc.write_text(LEAKED)
    assert main(["run", str(sc)]) == 1


def test_run_seed_override_changes_log(tmp_path):
    sc = tmp_path / "demo.scenario"
    sc.write_text(SCENARIO)
    l1, l2 = tmp_path / "a.log", tmp_path / "b.log"
    main(["run", str(sc), "--log", str(l1)])
    main(["run", str(sc), "--seed", "99", "--log", str(l2)])
    assert "seed=99" in l2.read_text().splitlines()[0]


def test_check_on_saved_log(tmp_path, capsys):
    sc = tmp_path / "demo.scenario"
    sc.write_text(SCENARIO)
    log = tmp_path / "run.log"
    main(["run", str(sc), "--log", str(log)])
    capsys.readouterr()
    assert main(["check", str(log)]) == 0
    assert "[PASS] safety" in capsys.readouterr().out


@pytest.mark.parametrize("text, status", [(SCENARIO, 0), (LEAKED, 1)],
                         ids=["demo", "leaked"])
def test_check_prints_what_run_printed(tmp_path, capsys, text, status):
    sc = tmp_path / "run.scenario"
    sc.write_text(text)
    log = tmp_path / "run.log"
    assert main(["run", str(sc), "--log", str(log)]) == status
    ran = capsys.readouterr().out
    assert main(["check", str(log)]) == status
    assert capsys.readouterr().out == ran


def test_check_flags_tampered_log(tmp_path):
    sc = tmp_path / "demo.scenario"
    sc.write_text(SCENARIO)
    log = tmp_path / "run.log"
    main(["run", str(sc), "--log", str(log)])
    lines = log.read_text().splitlines()
    spend = next(l for l in lines if " ev=spend " in l)
    log.write_text("\n".join(_appended(lines, spend)) + "\n")
    assert main(["check", str(log)]) == 1


def test_check_reads_the_log_once(tmp_path, capsys, monkeypatch):
    sc = tmp_path / "demo.scenario"
    sc.write_text(SCENARIO)
    log = tmp_path / "run.log"
    main(["run", str(sc), "--log", str(log)])
    reads = []

    def counting(lines):
        reads.append(len(lines))
        return protocol.read_log(lines)

    for module in (cli, harness):
        monkeypatch.setattr(module, "read_log", counting)
    assert main(["check", str(log)]) == 0
    assert reads == [len(log.read_text().splitlines())]


def _appended(lines, line):
    """``lines`` with ``line`` replayed as the log's next line, in order."""
    event = line.split(" ", 2)[2]
    return lines + [f"{lines[-1].split()[0]} seq={len(lines) + 1} {event}"]


def _cut_final_balances(lines):
    return lines[:next(i for i, l in enumerate(lines)
                       if " ev=final_balance " in l)]


def _keep_one_final_balance(lines):
    return _cut_final_balances(lines) + [
        next(l for l in lines if " ev=final_balance " in l)]


def _outcome_at(lines):
    return next(i for i, l in enumerate(lines) if " ev=dispute_outcome " in l)


def _delete_outcome(lines):
    i = _outcome_at(lines)
    return lines[:i] + lines[i + 1:]


def _swap_outcome_back(lines):
    i = _outcome_at(lines)
    return lines[:i - 1] + [lines[i], lines[i - 1]] + lines[i + 1:]


def _swap_outcome_back_and_renumber(lines):
    return [re.sub(r" seq=\d+ ", f" seq={n} ", l, count=1)
            for n, l in enumerate(_swap_outcome_back(lines), 1)]


def _edited(ev, name, value):
    """The damage that sets ``name`` on the first ``ev`` line to ``value``."""
    def damage(lines):
        i = next(i for i, l in enumerate(lines) if f" ev={ev} " in l)
        return lines[:i] + [re.sub(f" {name}=[^ ]*", f" {name}={value}",
                                   lines[i])] + lines[i + 1:]
    return damage


@pytest.mark.parametrize("damage, reason", [
    (lambda lines: [], "no meta kind=scenario"),
    (lambda lines: ["garbage"], "line 1 is not an event"),
    (lambda lines: lines[:5] + ["t=x seq=6 ev=spend"] + lines[6:],
     "line 6 is not an event"),
    (lambda lines: [l for l in lines if " ev=setup_done " not in l],
     "no setup_done"),
    (_cut_final_balances, "no final_balance lines"),
    (_keep_one_final_balance, "no final_balance for "),
    (lambda lines: lines[:5] + ["t=99 seq=999 ev=spend"] + lines[5:],
     "line 6 has no by"),
    (lambda lines: lines[:5] + ["t=99 seq=999 ev=spend by=x out=y z=1"]
     + lines[5:], "line 6 has fields by out z, not by out"),
    (lambda lines: lines[:5] + ["t=99 seq=999 ev=spend by=x out=y out=z"]
     + lines[5:], "line 6 has fields by out out, not by out"),
    (lambda lines: lines[:5] + ["t=99 seq=999 ev=spend out=y by=x"]
     + lines[5:], "line 6 has fields out by, not by out"),
    (lambda lines: lines[:5] + ["t=99 seq=999 ev=spent by=x out=y"]
     + lines[5:], "line 6 is of no known kind"),
    (lambda lines: lines[:5] + ["t=99 seq=999 ev=meta kind=x"] + lines[5:],
     "line 6 is of no known kind"),
    (lambda lines: lines[:5] + ["t=99 seq=999 ev=transfer src=a dst=b "
                                "amount=1.5"] + lines[5:],
     "line 6 has a non-integer amount"),
    # integers the checker reads nowhere else
    (_edited("slashed", "pot", "1.5"), "line 83 has a non-integer pot"),
    (_edited("sw_stop", "interval", "x"),
     "line 31 has a non-integer interval"),
    (_delete_outcome, "line 78 has seq=79, not 78"),
    (_swap_outcome_back, "line 77 has seq=78, not 77"),
    (_swap_outcome_back_and_renumber, "line 78 has t=12, before t=24"),
    # integers written otherwise than format() writes them
    (_edited("transfer", "amount", "0100000000"),
     "line 14 has a non-canonical amount: '0100000000'"),
    (_edited("transfer", "seq", "014"), "line 14 has a non-canonical seq"),
    (lambda lines: [lines[0].replace("t=0 ", "t=-0 ", 1)] + lines[1:],
     "line 1 has a non-canonical t: '-0'"),
    # the parties line, which names the honest set, exactly once
    (lambda lines: _appended(lines, next(
        l for l in lines if " kind=parties " in l).replace(
            "honest=f0,f2", "honest=f1")),
     "line 114 is a second meta kind=parties"),
    (lambda lines: [l for l in lines if " kind=parties " not in l],
     "no meta kind=parties"),
], ids=["empty", "garbage", "bad-tick", "no-setup", "truncated",
        "final-balances-cut", "missing-field", "extra-field",
        "repeated-field", "reordered-fields", "unknown-kind",
        "unknown-meta-kind", "bad-amount", "bad-pot", "bad-interval",
        "deleted-line", "swapped-line", "swapped-renumbered-line",
        "padded-amount", "padded-seq", "negative-zero-tick",
        "parties-restated", "no-parties"])
def test_check_rejects_malformed_log(tmp_path, capsys, damage, reason):
    sc = tmp_path / "demo.scenario"
    sc.write_text(SCENARIO)
    log = tmp_path / "run.log"
    main(["run", str(sc), "--log", str(log)])
    capsys.readouterr()
    lines = damage(log.read_text().splitlines())
    log.write_text("".join(l + "\n" for l in lines))
    assert main(["check", str(log)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"malformed log: {reason}")


INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not INT_DIGITS, reason="int() reads any number of digits")
def test_check_refuses_more_digits_than_int_reads(tmp_path, capsys):
    # int() refuses a decimal string longer than its digit limit, 4300 by
    # default, with a ValueError that check used to end in
    sc = tmp_path / "demo.scenario"
    sc.write_text(SCENARIO)
    log = tmp_path / "run.log"
    main(["run", str(sc), "--log", str(log)])
    capsys.readouterr()
    damage = _edited("transfer", "amount", "1" * (INT_DIGITS + 1))
    log.write_text("\n".join(damage(log.read_text().splitlines())) + "\n")
    assert main(["check", str(log)]) == 2
    assert capsys.readouterr().err.startswith(
        "malformed log: line 14 has a non-integer amount: '111")


# a file a command cannot read or write: the arguments, with {d} the test's
# directory, and what the error names
UNUSABLE = {
    "check-missing-file": (["check", "{d}/missing.log"],
                           "read {d}/missing.log"),
    "check-non-utf8-file": (["check", "{d}/latin1.txt"],
                            "read {d}/latin1.txt"),
    "run-directory": (["run", "{d}"], "read {d}"),
    "run-non-utf8-file": (["run", "{d}/latin1.txt"], "read {d}/latin1.txt"),
    "sweep-missing-grid": (["sweep", "--grid", "{d}/missing.grid"],
                           "read {d}/missing.grid"),
    "run-log-into-missing-directory": (
        ["run", "{d}/demo.scenario", "--log", "{d}/missing/run.log"],
        "write {d}/missing/run.log"),
}


@pytest.mark.parametrize("case", list(UNUSABLE))
def test_unusable_file_exits_two(tmp_path, capsys, case):
    (tmp_path / "demo.scenario").write_text(SCENARIO)
    (tmp_path / "latin1.txt").write_bytes("name café\n".encode("latin-1"))
    argv, names = UNUSABLE[case]
    assert main([arg.format(d=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot {names.format(d=tmp_path)}: "), err
    assert "Traceback" not in err


def test_deposit_table_default(capsys):
    assert main(["deposit-table"]) == 0
    out = capsys.readouterr().out
    assert "0.1216494" in out and "8.0288604" in out


def test_deposit_table_custom_axes(capsys):
    assert main(["deposit-table", "--fee-rates", "1",
                 "--functionaries", "2"]) == 0
    # 270332 sats at 1 sat/vByte with a single counterparty
    assert "0.0027033" in capsys.readouterr().out


@pytest.mark.parametrize("axis,value,reason", [
    ("--fee-rates", "0", "fee rate must be positive, got 0"),
    ("--fee-rates", "-3", "fee rate must be positive, got -3"),
    ("--functionaries", "0", "need at least one functionary, got 0"),
    ("--functionaries", "-2", "need at least one functionary, got -2")])
def test_deposit_table_refuses_a_bad_axis(capsys, axis, value, reason):
    # a bad value after a good one: refused before any row is printed
    assert main(["deposit-table", axis, "5", value]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"invalid deposit table: {reason}\n"


def test_sweep_grid(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("seed 1 2\nfunctionaries 2 3\nstrategy Honest\n")
    assert main(["sweep", "--grid", str(grid)]) == 0
    out = capsys.readouterr().out
    assert "4 scenarios, 0 failures" in out


def test_invalid_scenario_file(tmp_path, capsys):
    sc = tmp_path / "bad.scenario"
    sc.write_text("functionaries 1\n")
    assert main(["run", str(sc)]) == 2


def test_censor_of_no_functionary_rejected(tmp_path, capsys):
    # with N = 3 there is no f9: the run used to print five PASS lines and
    # exit 0, censoring nobody
    sc = tmp_path / "typo.scenario"
    sc.write_text(SCENARIO + "censor f9 10 20\n")
    assert main(["run", str(sc)]) == 2
    assert "invalid scenario: CensorSpec(party='f9'" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["seed 1 x\n", "strategy Bogus\n", "seed\n",
                                  "", "# nothing\n", "pegout_limit 1\n",
                                  "seed 1 2\nseed 3\n"],
                         ids=["bad-int", "bad-strategy", "no-values", "empty",
                              "comments-only", "unknown-key", "repeated-key"])
def test_sweep_rejects_malformed_grid(tmp_path, capsys, grid):
    path = tmp_path / "grid.txt"
    path.write_text(grid)
    assert main(["sweep", "--grid", str(path)]) == 2
    assert "invalid grid" in capsys.readouterr().err


def test_grid_strategy_without_adversary_makes_the_last_one_adversary():
    scenarios = harness.parse_grid("functionaries 2 4\n"
                                   "strategy Honest FakeProofProver\n")
    assert [(sc.name, sc.adversary) for sc in scenarios] == [
        ("sweep-2-Honest", None), ("sweep-2-FakeProofProver", 1),
        ("sweep-4-Honest", None), ("sweep-4-FakeProofProver", 3)]


def test_sweep_exits_one_and_counts_its_failures(tmp_path, capsys,
                                                 monkeypatch):
    # no admitted grid scenario fails, so each run's first and last
    # verdicts are failed by hand, and its line names both; a scenario the
    # runner refuses is still skipped
    def failing(sc):
        report = harness.run_scenario(sc)
        for i in (0, -1):
            report.verdicts[i] = report.verdicts[i]._replace(passed=False)
        return report

    monkeypatch.setattr(cli, "run_scenario", failing)
    grid = tmp_path / "grid.txt"
    grid.write_text("functionaries 2 3\npegouts 1 3\n")
    assert main(["sweep", "--grid", str(grid)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "[FAIL] sweep-2-1 conservation exclusion",
        "skip sweep-2-3: more peg-outs than peg-ins",
        "[FAIL] sweep-3-1 conservation exclusion",
        "skip sweep-3-3: more peg-outs than peg-ins",
        "sweep: 4 scenarios, 2 failures"]


def test_out_of_range_value_rejected(tmp_path, capsys):
    # fee_rate 0 used to pass validation and crash the run
    sc = tmp_path / "zero-fee.scenario"
    sc.write_text("fee_rate 0\n")
    assert main(["run", str(sc)]) == 2
    assert "invalid scenario" in capsys.readouterr().err
    grid = tmp_path / "grid.txt"
    grid.write_text("fee_rate 0 1\n")
    assert main(["sweep", "--grid", str(grid)]) == 0
    out = capsys.readouterr().out
    assert "skip sweep-0" in out and "[PASS] sweep-1" in out


def test_value_past_its_bound_rejected(tmp_path, capsys):
    # vmxos 10000000 was admitted; V = 200,000 at N = 3 ran at 280 MiB
    sc = tmp_path / "wide.scenario"
    sc.write_text("vmxos 4097\n")
    assert main(["run", str(sc)]) == 2
    assert capsys.readouterr().err == \
        "invalid scenario: vmxo_count must be at most 4096\n"


def test_pegout_limit_is_an_unknown_key(tmp_path, capsys):
    # the field changed no run and is deleted: a file that sets it is
    # refused, not run as if it bound anything
    sc = tmp_path / "limit.scenario"
    sc.write_text("pegout_limit 1\n")
    assert main(["run", str(sc)]) == 2
    assert "unknown key 'pegout_limit'" in capsys.readouterr().err


EVERY_KEY = """
name every-key
seed 5
functionaries 4
denomination 200000000
vmxos 3
pegins 3
pegouts 2
fee_rate 5
challenge_window 30
watch_threshold 70
adversary 1 FakeProofProver
leak_all true
censor f1 10 4
t_sep 1
"""


def test_every_scenario_field_is_settable():
    # a Scenario field that neither file format can set is a knob nobody
    # sets, and scenario files and grids share the keys of harness._FIELDS
    from bridgesim.harness import (_FIELDS, Scenario, parse_grid,
                                   parse_scenario)
    keyed = {field.key: name for name, field in _FIELDS.items() if field.key}
    keys = {line.split()[0] for line in EVERY_KEY.strip().splitlines()}
    # the file sets the strategy on its adversary line
    assert keys | {"strategy"} == set(keyed) | {"name", "censor"}
    sc, default = parse_scenario(EVERY_KEY), Scenario()
    # vars(Scenario()) names every field, as test_record_types pins
    assert [name for name in vars(default)
            if getattr(sc, name) == getattr(default, name)] == []
    values = {key: getattr(sc, name) for key, name in keyed.items()}
    [swept] = parse_grid("".join(f"{key} {getattr(value, 'value', value)}\n"
                                 for key, value in values.items()))
    assert {name: getattr(swept, name) for name in keyed.values()} == \
        {name: getattr(sc, name) for name in keyed.values()}


def test_cli_knows_nothing_of_the_format():
    # harness reads scenario files and grids; cli only calls its readers
    assert not {"_FIELDS", "Scenario", "Strategy", "itertools"} & \
        vars(cli).keys()


def test_run_a_key_leaker_set_by_strategy(tmp_path, capsys):
    # a file names a strategy without an adversary by its strategy key: the
    # leak_all negative control, whose log names no adversary
    sc = tmp_path / "leaked.scenario"
    sc.write_text("name leaked\nseed 99\nfunctionaries 3\npegouts 0\n"
                  "strategy KeyLeaker\nleak_all yes\n")
    log = tmp_path / "leaked.log"
    assert main(["run", str(sc), "--log", str(log)]) == 1
    assert "  [FAIL] safety theft of pkt0:vmxo0 by f0\n" in \
        capsys.readouterr().out
    assert " adversary=- " in log.read_text()


def test_grid_writes_the_leak_all_negative_control(tmp_path, capsys):
    # a grid's leak_all sets no default adversary: the grid reads the
    # scenario the file with the same keys reads, and its run fails safety
    keys = "functionaries 3\nstrategy KeyLeaker\nleak_all yes\n"
    [swept], sc = harness.parse_grid(keys), harness.parse_scenario(keys)
    assert vars(swept) == {**vars(sc), "name": "sweep-3-KeyLeaker-True"}
    grid = tmp_path / "leaked.grid"
    grid.write_text(keys)
    assert main(["sweep", "--grid", str(grid)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "[FAIL] sweep-3-KeyLeaker-True safety",
        "sweep: 1 scenarios, 1 failures"]
