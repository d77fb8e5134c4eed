"""The benchmark calls bridgesim by name: the traced run wraps functions,
and a span whose target is gone is only reported as missing, and each
workload builds, runs and checks its ops through the package's API.  Pin
both here, and the behaviour digest the benchmark compares against its
reference."""

import ast
import importlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pins

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
LAYERS_DOC = SPANS.with_name("layers.json")


def load_targets():
    """`TARGETS` of the bench's span module, read from its source without
    importing it."""
    tree = ast.parse(SPANS.read_text())
    node = next(n for n in tree.body if isinstance(n, ast.Assign)
                and getattr(n.targets[0], "id", None) == "TARGETS")
    return ast.literal_eval(node.value)


def resolve(path):
    """A TARGETS owner path, "module" or "module.Class", in bridgesim."""
    module, _, cls = path.partition(".")
    owner = importlib.import_module(f"bridgesim.{module}")
    return getattr(owner, cls) if cls else owner


def test_every_span_target_resolves():
    targets = load_targets()
    assert targets
    for name, owners, attr, _ in targets:
        # the first owner defines the function; the others import it
        defining, *_ = [resolve(path) for path in owners]
        assert attr in vars(defining), f"{name}: {owners[0]}.{attr}"


def bench_modules(*names):
    """Modules of the bench, imported from its directory."""
    bench = str(SPANS.parent)
    sys.path.insert(0, bench)
    try:
        return [importlib.import_module(name) for name in names]
    finally:
        sys.path.remove(bench)


def load_workloads():
    """The bench's workload module, and its layer namespace built from the
    bridgesim modules this process imports; `source.load()` is not called,
    since it would import the package afresh."""
    source, workloads = bench_modules("source", "workloads")
    bs = SimpleNamespace(**{name: importlib.import_module(f"bridgesim.{name}")
                            for name in source.LAYERS + ("errors",)})
    return workloads, bs


def test_every_workload_op_runs_and_checks():
    # the bench calls into the package by name; a tiny run of each workload
    # shows a renamed or deleted entry point, or an op its oracle rejects
    workloads, bs = load_workloads()
    for w in workloads.WORKLOADS.values():
        for spec in w.make(bs, 1, workloads.SIZES["tiny"], 5):
            assert w.check(bs, spec, w.execute(bs, spec)), (w.name, spec)


def test_traced_op_of_each_workload_runs_and_counts():
    # the traced pass counts graph attributes that no other test reads: one
    # traced op of each workload must run and pass its oracle, a committee
    # op's every built template carries each functionary's signature, and
    # a run's checker gets one item per event as its first argument, which
    # the span counts as the log's lines
    workloads, bs = load_workloads()
    (spans,) = bench_modules("spans")
    tracer = spans.Tracer()
    tracer.install(bs)
    try:
        for w in workloads.WORKLOADS.values():
            (spec,) = w.make(bs, 1, workloads.SIZES["tiny"], 1)
            tracer.reset()
            result = tracer.op_span(0, w.execute, bs, spec)
            assert w.check(bs, spec, result), (w.name, spec)
            counts = tracer.counts
            if w.name in ("sweep", "committee"):
                assert counts["log_lines"] == counts["events"] > 0, w.name
            if w.name == "committee":
                assert counts["templates"] > 0
                assert counts["signatures"] == (counts["templates"]
                                                * spec.n_functionaries)
    finally:
        tracer.uninstall()


def test_behaviour_digest_matches_reference():
    # every event log of the digest's fixed scenario set is byte-identical
    # to the pinned one; CI runs it again under another PYTHONHASHSEED
    (digest,) = bench_modules("digest")
    harness = importlib.import_module("bridgesim.harness")
    value, runs = digest.behaviour_digest(harness)
    assert (value, len(runs)) == pins.BEHAVIOUR_DIGEST
    # the bench's own copy of the pin, which only a change to the bench
    # may edit: a change that moves log bytes updates both in one commit
    reference = json.loads(LAYERS_DOC.read_text())["digest"]["reference"]
    assert reference == pins.BEHAVIOUR_DIGEST[0]
