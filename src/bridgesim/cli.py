"""Command line front end: run scenarios, sweep parameter grids, print the
deposit table, and re-check invariants over a saved event log.  `run` and
`check` print one report read from the log's rows alone: the verdicts, the
deposit against the honest parties' dispute costs (the meta lines name the
deposit and the honest set), and the lines of `harness.OUTCOME_KINDS`.
`sweep` prints a line per scenario, a failed one followed by the names of
its failed verdicts.

Exit status is 0 only when every invariant check passed; 1 means an
invariant failed, and 2 marks input that cannot be run or checked (an
invalid scenario, grid or deposit-table axis, a malformed log, a file that
cannot be read or written).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .econ import format_deposit_table, reproduce_deposit_table
from .errors import InvalidScenario, MalformedInput
from .harness import (RunReport, parse_grid, parse_scenario, read_log,
                      run_scenario)


class _Unusable(Exception):
    """A file a command cannot read or write; the command exits 2."""


def _file(path: str, text: str | None = None) -> str:
    """The UTF-8 text of ``path``, or, given ``text``, ``text`` written
    there; ``_Unusable`` with the reason if that fails."""
    try:
        if text is None:
            return Path(path).read_text(encoding="utf-8")
        Path(path).write_text(text, encoding="utf-8")
        return text
    except (OSError, UnicodeError) as exc:
        verb = "read" if text is None else "write"
        reason = getattr(exc, "strerror", None) or exc
        raise _Unusable(f"cannot {verb} {path}: {reason}") from exc


def _cmd_run(args: argparse.Namespace) -> int:
    text = _file(args.scenario)
    try:
        scenario = parse_scenario(text)
    except InvalidScenario as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        scenario.seed = args.seed
    report = run_scenario(scenario)
    if args.log:
        _file(args.log, "\n".join(report.log) + "\n")
    print(report.to_text())
    return 0 if report.all_passed else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        scenarios = parse_grid(_file(args.grid))
    except InvalidScenario as exc:
        print(f"invalid grid: {exc}", file=sys.stderr)
        return 2
    failures = 0
    for sc in scenarios:
        try:
            report = run_scenario(sc)
        except InvalidScenario as exc:
            print(f"skip {sc.name}: {exc}")
            continue
        failed = [v.name for v in report.verdicts if not v.passed]
        failures += bool(failed)
        status = "FAIL" if failed else "PASS"
        print(" ".join([f"[{status}] {sc.name}", *failed]))
    print(f"sweep: {len(scenarios)} scenarios, {failures} failures")
    return 0 if failures == 0 else 1


def _cmd_deposit_table(args: argparse.Namespace) -> int:
    try:
        rows = reproduce_deposit_table(args.fee_rates, args.functionaries)
    except ValueError as exc:
        print(f"invalid deposit table: {exc}", file=sys.stderr)
        return 2
    print(format_deposit_table(rows))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        rows = read_log(_file(args.log_file).splitlines())
    except MalformedInput as exc:
        print(f"malformed log: {exc}", file=sys.stderr)
        return 2
    report = RunReport(rows)
    print(report.to_text())
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bridgesim",
        description="Deterministic bridge-protocol simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario's seed")
    p_run.add_argument("--log", default=None,
                       help="write the event log to this path")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a cartesian parameter grid")
    p_sweep.add_argument("--grid", required=True)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_dep = sub.add_parser("deposit-table",
                           help="print required deposits per functionary "
                                "count and fee rate")
    p_dep.add_argument("--fee-rates", type=int, nargs="+", default=None)
    p_dep.add_argument("--functionaries", type=int, nargs="+", default=None)
    p_dep.set_defaults(func=_cmd_deposit_table)

    p_check = sub.add_parser("check",
                             help="re-check invariants over a saved log")
    p_check.add_argument("log_file")
    p_check.set_defaults(func=_cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Unusable as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
