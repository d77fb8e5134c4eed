"""Command line front end: run scenarios, sweep parameter grids, print the
deposit table, and re-check invariants over a saved event log.

Exit status is 0 only when every invariant check passed; 1 means an
invariant failed, and 2 marks input that cannot be run or checked (an
invalid scenario or grid, a malformed log, a file that cannot be read or
written).
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

from .econ import format_deposit_table, reproduce_deposit_table
from .errors import InvalidScenario, MalformedInput
from .harness import (INT_KEYS, Scenario, Strategy, check_invariants,
                      parse_scenario, read_log, run_scenario)


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


def _parse_grid(text: str) -> list[Scenario]:
    axes: list[tuple[str, list]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, *values = line.split()
        if key not in INT_KEYS and key != "strategy":
            raise InvalidScenario(f"grid line {lineno}: unknown key {key!r}")
        if not values:
            raise InvalidScenario(f"grid line {lineno}: {key} has no values")
        try:
            if key == "strategy":
                axes.append((key, [Strategy(v) for v in values]))
            else:
                axes.append((INT_KEYS[key], [int(v) for v in values]))
        except ValueError as exc:
            raise InvalidScenario(f"grid line {lineno}: {raw!r}: {exc}") \
                from exc
    if not axes:
        raise InvalidScenario("grid has no keys")
    scenarios = []
    keys = [k for k, _ in axes]
    for combo in itertools.product(*(vals for _, vals in axes)):
        sc = Scenario(name="sweep")
        for k, v in zip(keys, combo):
            setattr(sc, k, v)
        if sc.strategy != Strategy.HONEST and sc.adversary is None:
            sc.adversary = sc.n_functionaries - 1
        sc.name = "sweep-" + "-".join(
            v.value if isinstance(v, Strategy) else str(v) for v in combo)
        scenarios.append(sc)
    return scenarios


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        scenarios = _parse_grid(_file(args.grid))
    except InvalidScenario as exc:
        print(f"invalid grid: {exc}", file=sys.stderr)
        return 2
    failures = 0
    for sc in scenarios:
        try:
            sc.validate()
        except InvalidScenario as exc:
            print(f"skip {sc.name}: {exc}")
            continue
        report = run_scenario(sc)
        status = "PASS" if report.all_passed else "FAIL"
        if not report.all_passed:
            failures += 1
        print(f"[{status}] {sc.name}")
    print(f"sweep: {len(scenarios)} scenarios, {failures} failures")
    return 0 if failures == 0 else 1


def _cmd_deposit_table(args: argparse.Namespace) -> int:
    rows = reproduce_deposit_table(args.fee_rates or None,
                                   args.functionaries or None)
    print(format_deposit_table(rows))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        rows = read_log(_file(args.log_file).splitlines())
    except MalformedInput as exc:
        print(f"malformed log: {exc}", file=sys.stderr)
        return 2
    verdicts = check_invariants(rows)
    for v in verdicts:
        status = "PASS" if v.passed else "FAIL"
        print(f"[{status}] {v.name} {v.detail}".rstrip())
    return 0 if all(v.passed for v in verdicts) else 1


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
