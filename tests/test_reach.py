"""Reach: every function in ``src/bridgesim`` runs in some scenario or CLI
command, apart from a written allow-list.

A ``sys.setprofile`` collector records each function entered while the
bundled corpus, the 500-scenario adversarial sweep and the ``run``,
``check``, ``sweep`` and ``deposit-table`` commands run in this process.
Code objects are keyed by file and first line, so the test reads the same
on every supported Python.
"""

import sys
import types
from pathlib import Path

import bridgesim
from bridgesim import chain, txgraph
from bridgesim.cli import main as cli_main
from bridgesim.harness import (generate_adversarial_scenarios, run_scenario,
                               scenario_corpus)

SRC = Path(bridgesim.__file__).resolve().parent

# functions no scenario or command enters, each with why it stays
ALLOWED = {
    "econ.py:CostTable.default": "imported by the acceptance suite",
    "econ.py:TimingParams.__init__": "imported by the acceptance suite",
    "econ.py:min_separation": "imported by the acceptance suite",
    "econ.py:max_parallelism": "imported by the acceptance suite",
    "dispute.py:run_search": "imported by the acceptance suite",
    "dispute.py:run_search.delay": "imported by the acceptance suite",
    "protocol.py:Bridge.events": "read by perfbench",
    "harness.py:RunReport.dispute_costs":
        "read by the acceptance suite and perfbench",
    "dispute.py:ExecutionTrace.digest": "a test reference",
    # what a record's readers outside a run use: a test compares outcomes
    # and scenarios, and a failed assertion names its scenario; a template
    # refuses assignment, which no run attempts, and compares and hashes
    # by its content
    "dispute.py:Outcome.__eq__": "read by the dispute tests",
    "harness.py:Scenario.__eq__": "read by test_record_types",
    "harness.py:Scenario.__repr__": "read by failed assertions",
    "txgraph.py:SimTx.__eq__": "read by test_record_types",
    "txgraph.py:SimTx.__hash__": "read by test_record_types",
    "txgraph.py:SimTx._content": "read by test_record_types",
    "txgraph.py:SimTx.__setattr__": "read by test_txgraph",
    # the contest calls it when a counter-proof is defeated; the
    # ForkProver's counter-proof comes from the canonical chain, so only an
    # honest verifier censored past its budget loses it
    "dispute.py:resolve_no_challenge":
        "run by test_run_past_the_budget_ends_in_a_report",
    # open: the kick-off's light-client claim is to be checked by it
    "lightclient.py:check_chain": "open: no kick-off input runs it yet",
    # open: a slash is to spend the loser terminal and deposit outputs
    "txgraph.py:PacketGraph._deposit": "open: no slash spends it yet",
    "txgraph.py:PacketGraph._kill": "open: no slash spends it yet",
    "txgraph.py:PacketGraph._terminal": "open: no slash spends it yet",
}


def _functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> ``file:qualname`` of every named function in
    the package; class bodies, lambdas and comprehensions are left out."""
    found = {}

    def walk(code: types.CodeType, path: str, prefix: str) -> None:
        for const in code.co_consts:
            if not isinstance(const, types.CodeType) \
                    or const.co_name.startswith("<"):
                continue
            name = prefix + const.co_name
            if const.co_flags & 0x2:  # CO_NEWLOCALS: a function body
                found[path, const.co_firstlineno] = \
                    f"{Path(path).name}:{name}"
            walk(const, path, name + ".")

    for file in sorted(SRC.glob("*.py")):
        path = str(file)
        walk(compile(file.read_text(), path, "exec"), path, "")
    return found


def _entered(work) -> set[tuple[str, int]]:
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        work()
    finally:
        sys.setprofile(None)
    return {(str(Path(f).resolve()), line) for f, line in seen}


def _every_run(tmp_path: Path, capsys) -> None:
    for sc in scenario_corpus() + generate_adversarial_scenarios(500):
        run_scenario(sc)
    scenario = tmp_path / "fork.scenario"
    scenario.write_text("name fork\nseed 11\nfunctionaries 3\nvmxos 3\n"
                        "pegins 3\npegouts 2\nadversary 0 ForkProver\n")
    log = tmp_path / "fork.log"
    grid = tmp_path / "grid"
    grid.write_text("functionaries 2 3\nstrategy Honest SilentProver\n")
    cli_main(["run", str(scenario), "--log", str(log)])
    cli_main(["check", str(log)])
    cli_main(["sweep", "--grid", str(grid)])
    cli_main(["deposit-table"])
    capsys.readouterr()


def test_every_function_is_reached_or_allowed(tmp_path, capsys):
    # a cached id or header would skip the function that makes it
    txgraph._TEMPLATE_CACHE.clear()
    chain._header.cache_clear()
    functions = _functions()
    entered = _entered(lambda: _every_run(tmp_path, capsys))
    never = {name for key, name in functions.items() if key not in entered}
    assert never == set(ALLOWED), (
        f"newly unreached: {sorted(never - set(ALLOWED))}; "
        f"reached now, drop from ALLOWED: {sorted(set(ALLOWED) - never)}")
