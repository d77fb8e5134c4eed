"""bridgesim benchmark: one workload, closed loop, one process, one thread.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  `--seconds` sets the amount of work: a
fixed number of ops per second of budget for each workload, chosen so that
a run at this version takes about that long, and the same seed always
attempts the same ops.  Set-up (importing the package and making the inputs
from the seed) is repeated several times and its median reported.  The ops
then run back to back, and every result is checked against its oracle.
Every timed piece of work sits between two runs of a fixed speed probe, and
its time is reported in seconds at the probe's reference speed (see
`probe.py`); the unscaled host seconds go to the result file.  Afterwards
the behaviour digest is computed in this process and in two child
interpreters with different PYTHONHASHSEED values; all three must agree.

With `--trace 0` the last line of output carries the end-to-end metrics;
with `--trace 1` it carries the per-layer metrics of a traced pass over the
first half of the ops, which an untraced pass ran first, and the difference
between the two passes is the tracing overhead.  Human-readable lines come
before the last line, and a result file with the environment goes to
`perfbench/results/`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import digest
import probe
import source
import spans
import workloads

SETUPS = 15
RESULTS = Path(__file__).resolve().parent / "results"
LAYERS_DOC = Path(__file__).resolve().parent / "layers.json"


def tail(durations: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it; the
    maximum when there are too few samples for one."""
    s = sorted(durations)
    n = len(s)
    if n < 11:
        return s[-1], f"max of {n}"
    return s[n - 11], f"p{100 * (n - 10) / n:.1f} of {n}"


def set_up(workload, seed: int, size: dict, count: int):
    """Import the package and make the inputs, SETUPS times; return the
    last set-up and the median reference-speed seconds of one."""
    def one():
        bs = source.load()
        return bs, workload.make(bs, seed, size, count)

    times = []
    meter = probe.Meter(workload.probe_mix)
    for _ in range(SETUPS):
        bs, ops = meter.call(one)
        times.append(meter.seconds)
    return bs, ops, statistics.median(times)


class Loop:
    """Results of running a list of ops: the reference-speed and the host
    seconds of each good op, and the failed ops by kind."""

    def __init__(self):
        self.attempted = 0
        self.good: list = []
        self.durations: list[float] = []
        self.host_durations: list[float] = []
        self.errors: dict[str, int] = {}
        self.wrong = 0

    @property
    def failed(self) -> int:
        return self.attempted - len(self.durations)


def run_ops(bs, workload, ops: list, tracer=None,
            interval_s: float = probe.INTERVAL_S) -> Loop:
    """Run the ops back to back under the speed meter, and check every
    result after the op has been timed."""
    loop = Loop()
    gc.collect()
    meter = probe.Meter(workload.probe_mix, interval_s)
    for spec in ops:
        loop.attempted += 1
        try:
            if tracer is None:
                result = meter.call(workload.execute, bs, spec)
            else:
                result = meter.call(tracer.op_span, loop.attempted,
                                    workload.execute, bs, spec)
        except Exception as exc:  # a failed op: counted, never skipped
            name = type(exc).__name__
            loop.errors[name] = loop.errors.get(name, 0) + 1
            continue
        if workload.check(bs, spec, result):
            loop.good.append(spec)
            loop.durations.append(meter.seconds)
            loop.host_durations.append(meter.host_s)
        else:
            loop.wrong += 1
    return loop


def determinism(bs, seed: int) -> dict:
    """Digest in this process and in two fresh interpreters, and the deposit
    headroom over the same runs, which are too costly to repeat."""
    script = Path(__file__).resolve().parent / "digest.py"
    hash_seeds = [str(2 * seed % 4294967295), str((2 * seed + 1) % 4294967295)]
    children = [subprocess.Popen([sys.executable, str(script)],
                                 env={**os.environ, "PYTHONHASHSEED": hs},
                                 stdout=subprocess.PIPE, text=True)
                for hs in hash_seeds]
    try:
        here, runs = digest.behaviour_digest(bs.harness)
        outs = [c.communicate(timeout=120)[0] for c in children]
    finally:
        for c in children:
            if c.poll() is None:
                c.kill()
                c.wait()
    child = {hs: (out.strip().splitlines() or ["?"])[-1]
             for hs, out in zip(hash_seeds, outs)}
    if any(c.returncode != 0 for c in children):
        child = {hs: "error" for hs in hash_seeds}
    return {"in_process": here, "children": child,
            "agree": all(v == here for v in child.values()),
            "headroom": digest.deposit_headroom(runs)}


def git_commit() -> str | None:
    if not (source.ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(source.ROOT), "rev-parse",
                              "HEAD"], capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg": os.getloadavg(),
        "git_commit": git_commit(),
        "src_sha256": source.source_digest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the self-test only")
    args = ap.parse_args(argv)

    started = perf_counter()
    workload = workloads.WORKLOADS[args.workload]
    size_name = "tiny" if args.tiny else "paper"
    # a fixed amount of work per run, so that the same seed attempts the
    # same ops, whatever the speed of the machine
    count = max(1, round(args.seconds * workload.per_second))
    try:
        bs, ops, setup_s = set_up(workload, args.seed,
                                  workloads.SIZES[size_name], count)
    except source.SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    reference = json.loads(LAYERS_DOC.read_text())["digest"]["reference"]

    print(f"bridgesim benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} sizes={size_name}")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "sizes": size_name, "ops": len(ops),
              "environment": environment()}
    lines = []
    tracer = None
    if args.trace:
        # an untraced pass, then a traced pass over the first half of the
        # ops; the difference is the tracing overhead.  Both probe only
        # between ops, so that no probe falls inside a span.
        ops = ops[:max(1, len(ops) // 2)]
        plain = run_ops(bs, workload, ops, interval_s=0)
        tracer = spans.Tracer()
        tracer.install(bs)
        loop = run_ops(bs, workload, ops, tracer=tracer, interval_s=0)
        traced_s = sum(loop.durations)
        plain_s = sum(plain.durations)
        metrics = spans.layer_metrics(tracer, loop.attempted)
        top, top_s = spans.largest_self_time(tracer)
        RESULTS.mkdir(parents=True, exist_ok=True)
        span_file = RESULTS / (f"{size_name}-{args.workload}-seed{args.seed}"
                               f"-spans.tsv")
        tracer.write(span_file)
        overhead = {"ops": loop.attempted, "untraced_s": plain_s,
                    "traced_s": traced_s, "overhead_s": traced_s - plain_s,
                    "overhead_frac": (traced_s - plain_s) / plain_s
                    if plain_s else 0.0}
        record.update(tracing_overhead=overhead, spans=len(tracer.spans),
                      span_file=str(span_file.relative_to(source.ROOT)),
                      largest_self_time=[top, top_s],
                      untraced_targets=tracer.missing)
        lines.append(f"tracing overhead: {overhead['overhead_s']:+.4f} s "
                     f"({100 * overhead['overhead_frac']:+.1f}%) over "
                     f"{loop.attempted} ops, traced minus untraced")
        lines.append(f"largest self time: {top} {top_s:.4f} s")
        if tracer.missing:
            lines.append("not traced (absent in this build): "
                         + ", ".join(tracer.missing))
        tracer.reset()
        failed_plain = plain.failed
        wrong = plain.wrong + loop.wrong
    else:
        loop = run_ops(bs, workload, ops)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        good = loop.durations
        p50 = statistics.median(good) if good else 0.0
        tail_s, tail_label = tail(good) if good else (0.0, "none")
        metrics = {"ops_per_s": len(good) / sum(good) if good else 0.0,
                   "op_s.p50": p50, "op_s.tail": tail_s,
                   "peak_rss_mb": peak_rss_mb, "setup_s": setup_s}
        host = loop.host_durations
        record["host_seconds"] = {
            "ops_per_s": len(host) / sum(host) if host else 0.0,
            "op_s.p50": statistics.median(host) if host else 0.0,
            "op_s.tail": tail(host)[0] if host else 0.0}
        lines.append(f"times are seconds at the probe's reference speed; "
                     f"tail is {tail_label} ops; setup_s is the median of "
                     f"{SETUPS} set-ups")
        lines.append("unscaled host seconds: " + ", ".join(
            f"{k} {v:.6g}" for k, v in record["host_seconds"].items()))
        if workload.name == "committee":
            for n in workloads.SIZES[size_name]["committee"]:
                runs = [t for spec, t in zip(loop.good, loop.durations)
                        if spec.n_functionaries == n]
                if runs:
                    record[f"run_s.n{n}"] = statistics.median(runs)
                    lines.append(f"run_s.n{n} {statistics.median(runs):.6g} "
                                 f"s (median of {len(runs)} runs)")
        failed_plain = 0
        wrong = loop.wrong

    # the in-process digest of a traced run goes through the wrappers
    det = determinism(bs, args.seed)
    if tracer is not None:
        tracer.uninstall()
        metrics["econ.deposit_headroom"] = det["headroom"]
    failed_frac = loop.failed / loop.attempted
    lines.append(f"failed_frac {failed_frac:.6f} ({loop.failed} of "
                 f"{loop.attempted} ops; raised: {loop.errors or 'none'}; "
                 f"wrong result: {loop.wrong})")
    lines.append(f"digest {det['in_process']} reference {reference} "
                 f"match={'yes' if det['in_process'] == reference else 'NO'}")
    lines.append("determinism: PYTHONHASHSEED "
                 + ", ".join(f"{k}={v}" for k, v in det["children"].items())
                 + f" -> {'agree' if det['agree'] else 'DISAGREE'}")

    doc = json.loads((source.ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in doc["end_to_end"] + doc["per_layer"]}
    out = {name: {"value": value, "unit": units.get(name, "?")}
           for name, value in metrics.items()}
    correct = wrong == 0 and det["agree"]
    record.update(correct=correct, attempted=loop.attempted,
                  failed=loop.failed, failed_frac=failed_frac,
                  errors=loop.errors, wrong=wrong,
                  untraced_pass_failed=failed_plain,
                  digest=det["in_process"], digest_reference=reference,
                  digest_match=det["in_process"] == reference,
                  determinism=det["children"], metrics=out,
                  wall_s=perf_counter() - started)
    RESULTS.mkdir(parents=True, exist_ok=True)
    result_file = RESULTS / (f"{size_name}-{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    result_file.write_text(json.dumps(record, indent=1) + "\n")

    for name, m in out.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for line in lines:
        print(line)
    print(f"result file: {result_file.relative_to(source.ROOT)}")
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
