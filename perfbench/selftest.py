"""Fast self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json keeps its format, that every workload prints
every metric BENCHMARK.json names, with its unit, untraced and traced, that
no op returns a wrong result and the digests agree, that the speed meter
leaves its own probes out of a call's time, and that the benchmark refuses
to run in a directory holding only BENCHMARK.json and this directory.  Exits non-zero on
the first failure.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def check_doc(doc: dict) -> None:
    check(set(doc) == {"command", "paths", "run_seconds", "workloads",
                       "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(1 <= len(doc["paths"]) <= 16 and all(
        PATH.fullmatch(p) and ".." not in p.split("/") and not p.startswith("/")
        for p in doc["paths"]), "paths")
    check(isinstance(doc["command"], list) and len(doc["command"]) <= 32
          and all(isinstance(a, str) and len(a) <= 200 and not a.startswith("/")
                  for a in doc["command"]), "command")
    check(isinstance(doc["run_seconds"], int)
          and 1 <= doc["run_seconds"] <= 60, "run_seconds")
    check(2 <= len(doc["workloads"]) <= 8, "workload count")
    names = []
    for w in doc["workloads"]:
        check(set(w) == {"name", "why"} and NAME.fullmatch(w["name"])
              and len(w["why"]) <= 200 and "\n" not in w["why"],
              f"workload {w}")
        names.append(w["name"])
    check(1 <= len(doc["end_to_end"]) <= 16, "end_to_end count")
    check(1 <= len(doc["per_layer"]) <= 128, "per_layer count")
    for m in doc["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}
              and 0 < m["bound"] <= 0.25, f"end_to_end {m}")
    for m in doc["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"per_layer {m}")
    for m in doc["end_to_end"] + doc["per_layer"]:
        check(NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
              and m["better"] in ("higher", "lower"), f"metric {m}")
        names.append(m["name"])
    check(len(names) == len(set(names)), "names used once")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"]),
          "setup_s with the largest bound")
    check(len(json.dumps(doc)) <= 64 * 1024, "file size")


def run(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_run(doc: dict, workload: str, trace: int) -> None:
    proc = run(workload, trace)
    what = f"{workload} trace={trace}"
    check(proc.returncode == 0, f"{what} exit {proc.returncode}: "
          f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{what} result keys")
    # failed ops are the program's (a known crash class raises on sweep);
    # a wrong result or a determinism break makes `correct` false
    check(result["correct"] is True and result["attempted"] >= 1
          and 0 <= result["failed"] <= result["attempted"],
          f"{what} correctness {result}")
    expected = doc["per_layer"] if trace else doc["end_to_end"]
    metrics = result["metrics"]
    check(set(metrics) == {m["name"] for m in expected},
          f"{what} metric names")
    for m in expected:
        got = metrics[m["name"]]
        check(got["unit"] == m["unit"]
              and isinstance(got["value"], (int, float)),
              f"{what} {m['name']} {got}")
        check(any(line.startswith(f"{m['name']} ")
                  and line.endswith(f" {m['unit']}") for line in lines[:-1]),
              f"{what} prints {m['name']} with its unit")
        if not trace:
            check(got["value"] > 0, f"{what} {m['name']} is zero")
    check(any(line.startswith("digest ") and "match=yes" in line
              for line in lines), f"{what} digest matches the reference")
    check(any(line.startswith("determinism:") and line.endswith("agree")
              for line in lines), f"{what} determinism")
    print(f"ok {what}: {result['attempted']} ops")


def check_meter() -> None:
    """The meter probes inside a long call and leaves those probes out of
    the call's host seconds."""
    def spin(seconds: float) -> None:
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            pass

    meter = probe.Meter(probe.BRIDGE_RUNS)
    spin_s = 4 * probe.INTERVAL_S
    meter.call(spin, spin_s)
    check(0 < meter.host_s < spin_s - 0.001 and meter.seconds > 0,
          f"meter: {meter.host_s} host s for a {spin_s} s call")
    print(f"ok meter: {meter.host_s:.4f} host s of a {spin_s} s call")


def check_bare() -> None:
    """Without the package source the benchmark exits non-zero and prints
    no result."""
    bare = HERE / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run("sweep", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    check(proc.returncode != 0 and not last.startswith("{"),
          "refuses to run without the package source")
    print("ok bare directory: exit", proc.returncode)


def main() -> int:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_doc(doc)
    layers = json.loads((HERE / "layers.json").read_text())
    check(set(layers["per_layer"]) == {m["name"] for m in doc["per_layer"]},
          "layers.json maps every per-layer metric")
    check({w["name"] for w in doc["workloads"]} == set(layers["workloads"]),
          "layers.json describes every workload")
    for w in doc["workloads"]:
        for trace in (0, 1):
            check_run(doc, w["name"], trace)
    check_meter()
    check_bare()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
