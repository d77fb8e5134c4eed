"""Reach: every statement in a function of ``src/bridgesim`` runs in some
scenario, CLI command or dispute game, apart from a written table.

A ``sys.settrace`` collector records the line events of frames whose code
lies in the package while the bundled corpus, the 500-scenario adversarial
sweep, every ``leak_all`` run, the N = 100 runs, the ``run``, ``check``,
``sweep`` and ``deposit-table`` commands and a set of dispute games run in
this process.  A statement counts as reached when an event fires on its
first line.  Docstrings, ``raise`` statements and the bodies of ``except``
handlers are exempt, and so is code outside any function, which the
package's import runs.  Each statement belongs to its innermost function,
and the test compares each function's count of unreached statements with
``UNREACHED``.

Run as a script (``PYTHONPATH=src python tests/test_reach.py``), it needs
no pytest: it prints every function's count and unreached lines, so a
change that moves a statement can rewrite the table, and exits 1 when the
counts differ from it.
"""

import ast
import contextlib
import io
import itertools
import sys
import tempfile
from pathlib import Path

import bridgesim
import pins
from bridgesim import chain, txgraph
from bridgesim.chain import SECONDARY, SOURCE, ChainView
from bridgesim.cli import main as cli_main
from bridgesim.dispute import (ExecutionTrace, challenge, open_game,
                               resolve_no_challenge, run_search,
                               settle_counter_proof)
from bridgesim.errors import DifficultyNotHigher, TimeoutExpired
from bridgesim.harness import (Strategy, generate_adversarial_scenarios,
                               run_scenario, scenario_corpus)
from bridgesim.lightclient import AltChainInput

SRC = Path(bridgesim.__file__).resolve().parent

# functions with statements that no run enters: their count of such
# statements, and why each stays
UNREACHED = {
    # read by the acceptance suite or the bench
    "econ.py:CostTable.default": (1, "imported by the acceptance suite"),
    "econ.py:TimingParams.__init__": (
        4, "imported by the acceptance suite"),
    "econ.py:min_separation": (1, "imported by the acceptance suite"),
    "econ.py:max_parallelism": (2, "imported by the acceptance suite"),
    "harness.py:RunReport.dispute_costs": (
        1, "read by the acceptance suite and perfbench"),
    "protocol.py:Bridge.events": (1, "read by perfbench"),
    # open ROADMAP items
    "lightclient.py:check_chain": (
        7, "open, ROADMAP item 6: no kick-off input runs it yet"),
    "txgraph.py:PacketGraph._deposit": (
        1, "open, ROADMAP item 2: no slash spends it yet"),
    "txgraph.py:PacketGraph._kill": (
        3, "open, ROADMAP item 2: no slash spends it yet"),
    "txgraph.py:PacketGraph._terminal": (
        5, "open, ROADMAP item 2: no slash spends it yet"),
    # capacity evictions
    "chain.py:_header": (
        1, "the kept tier's eviction, past 8 * HEADER_CACHE_SIZE headers "
           "seen twice, which no pinned run fills: "
           "test_the_kept_tier_evicts_its_oldest_past_its_bound"),
    "txgraph.py:PacketGraph._shared": (
        1, "the template cache's eviction, which the runs of "
           "pins.HORIZON_LOGS reach"),
    # checker failure branches
    "harness.py:check_invariants": (
        5, "failing verdicts: test_crafted_logs_match_reference, "
           "test_mutated_logs_match_reference and "
           "test_checker_flags_a_total_that_drifts_with_every_final_matching"),
    "harness.py:RunReport.deposit_sufficient": (
        1, "a pot short of the fees: "
           "test_deposit_sufficient_at_exact_equality"),
    "protocol.py:read_log": (
        4, "the details of a refusal: test_check_rejects_malformed_log"),
    # refusals and API semantics, each with the test that enters it
    "chain.py:InclusionProof.verify": (
        2, "a proof of another block, or of a tx not in its path: "
           "test_inclusion_proof_wrong_header_fails and "
           "test_inclusion_proof_of_a_tx_not_in_its_path_fails"),
    "chain.py:ChainView.mine_block": (
        1, "a block mined again: test_block_mined_again_changes_nothing"),
    "chain.py:ChainView.confirmations": (
        1, "a block off the canonical chain: test_reorg_across_fork_point"),
    "dispute.py:ExecutionTrace.first_divergence": (
        1, "two different programs: test_narrow_matches_digest_reference"),
    "lightclient.py:check_alt_chain": (
        1, "the contested block inside the alt chain: "
           "test_alt_chain_containing_pegout_false"),
    "protocol.py:Bridge.link_pegout": (
        1, "the continue past a linked VMXO: "
           "test_link_skips_a_linked_vmxo_behind_a_raw_kickoff"),
    "txgraph.py:PacketGraph.burn_enablers": (
        1, "a second burn: test_burn_enablers_all_live_to_burnt"),
    "txgraph.py:PacketGraph.enabler_state": (
        1, "a consumed enabler: test_burn_skips_consumed_enabler"),
}


def _function_statements(path: Path) -> list[tuple[int, str]]:
    """(first line, ``file:qualname`` of the innermost function) of each
    statement of ``path`` that the test counts."""
    found, functions = [], (ast.FunctionDef, ast.AsyncFunctionDef)

    def walk(node: ast.AST, function: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler):
                continue
            docstring = (isinstance(node, functions)
                         and child is node.body[0]
                         and isinstance(child, ast.Expr)
                         and isinstance(child.value, ast.Constant)
                         and isinstance(child.value.value, str))
            if function and isinstance(child, ast.stmt) \
                    and not isinstance(child, ast.Raise) and not docstring:
                found.append((child.lineno, f"{path.name}:{function}"))
            if isinstance(child, functions):
                name = prefix + child.name
                walk(child, name, name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, function, prefix + child.name + ".")
            else:
                walk(child, function, prefix)

    walk(ast.parse(path.read_text(), str(path)), "", "")
    return found


def _reached(work) -> set[tuple[str, int]]:
    """(file, line) of each line event in the package while ``work``
    runs."""
    lines, inside = set(), {}

    def local(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = Path(name).resolve().parent == SRC
        return local if inside[name] else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        work()
    finally:
        sys.settrace(previous)
    return {(str(Path(name).resolve()), line) for name, line in lines}


def _dispute_games() -> None:
    """Games at 16 and 4**8 steps, arity 2 and 4: a corrupt prover, a
    griefer, a stall by either party, and alt-chain counter-proofs
    refused, upheld and defeated, the defeated one then resolved."""
    src, sec = ChainView(SOURCE), ChainView(SECONDARY)
    pegin = src.mine_block(src.genesis.id, ["pegin"])
    anchor = sec.mine_block(sec.genesis.id, ["ack:pegin"], difficulty=2)
    contested = sec.mine_block(anchor.id, ["pegout"], difficulty=2)
    alt = (anchor, sec.mine_block(anchor.id, [], difficulty=4))
    proof = src.prove_inclusion("pegin", pegin.id)
    forged = proof._replace(path=("pegin", "forged"))
    for n, arity in itertools.product((16, 4 ** 8), (2, 4)):
        honest = ExecutionTrace.honest("prog", n)
        corrupt = honest.corrupted_at(n // 3)
        # a delay of 65 runs out the default stop watch threshold of 64
        for prover, delays in ((corrupt, (1, 1)), (honest, (1, 1)),
                               (corrupt, (65, 1)), (corrupt, (1, 65))):
            g = open_game("p", "v", None, prover, honest, arity=arity)
            challenge(g)
            with contextlib.suppress(TimeoutExpired):
                run_search(g, *delays)
        # the main chain weighs 4 and the alt chain 6: a claim of 4 is
        # refused and one of 6 upheld, or defeated with a forged peg-in
        # proof
        for claimed, pegin_proof in ((4, proof), (6, proof), (6, forged)):
            g = open_game("p", "v", None, honest, honest, arity=arity)
            alt_input = AltChainInput(alt, pegin_proof,
                                      src.headers[pegin.id], contested.id,
                                      claimed)
            try:
                challenge(g, "AltChain", alt_input=alt_input,
                          main_difficulty=4, main_anchor_id=anchor.id)
            except DifficultyNotHigher:
                continue
            challenge(g.nested)
            run_search(g.nested)
            settle_counter_proof(g)
            if g.outcome is None:
                resolve_no_challenge(g)


def _every_run(tmp: Path) -> None:
    scenarios = itertools.chain(
        scenario_corpus(), generate_adversarial_scenarios(500),
        pins.leak_all_scenarios(), map(pins.n100_scenario, Strategy))
    for sc in scenarios:
        run_scenario(sc)
    scenario = tmp / "fork.scenario"
    scenario.write_text("# a fork with one censored challenger\n"
                        "name fork\nseed 11\nfunctionaries 3\nvmxos 3\n\n"
                        "pegins 3\npegouts 2\nadversary 0 ForkProver\n"
                        "censor f1 10 4\n")
    log = tmp / "fork.log"
    grid = tmp / "grid"
    grid.write_text("functionaries 2 3\nstrategy Honest SilentProver\n")
    with contextlib.redirect_stdout(io.StringIO()):
        cli_main(["run", str(scenario), "--seed", "12", "--log", str(log)])
        cli_main(["check", str(log)])
        cli_main(["sweep", "--grid", str(grid)])
        cli_main(["deposit-table"])
    _dispute_games()


def unreached(tmp: Path) -> dict[str, list[int]]:
    """``file:qualname`` -> the first lines of its unreached statements,
    for each function that has any."""
    # a cached id or header would skip the code that makes it
    txgraph._TEMPLATE_CACHE.clear()
    chain._FIRST_SIGHT.clear()
    chain._KEPT.clear()
    reached = _reached(lambda: _every_run(tmp))
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for line, function in _function_statements(path):
            if (str(path), line) not in reached:
                found.setdefault(function, []).append(line)
    return found


def differences(found: dict[str, list[int]]) -> dict[str, tuple[int, int]]:
    """Each function whose count of unreached statements in ``found``
    differs from ``UNREACHED``'s -> (that count, the table's)."""
    diff = {}
    for function in sorted(found.keys() | UNREACHED.keys()):
        count = len(found.get(function, ()))
        tabled = UNREACHED.get(function, (0, ""))[0]
        if count != tabled:
            diff[function] = count, tabled
    return diff


def test_every_statement_is_reached_or_tabled(tmp_path):
    assert differences(unreached(tmp_path)) == {}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        found = unreached(Path(tmp))
    for function, lines in sorted(found.items()):
        print(f"{function} {len(lines)}  lines {' '.join(map(str, lines))}")
    diff = differences(found)
    for function, (count, tabled) in diff.items():
        print(f"differs from UNREACHED: {function} {count}, tabled {tabled}")
    sys.exit(bool(diff))
