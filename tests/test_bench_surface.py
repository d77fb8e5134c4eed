"""The benchmark calls bridgesim by name: the traced run wraps functions,
and a span whose target is gone is only reported as missing, and each
workload builds, runs and checks its ops through the package's API.  Pin
both here."""

import ast
import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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


def load_workloads():
    """The bench's workload module, and its layer namespace built from the
    bridgesim modules this process imports; `source.load()` is not called,
    since it would import the package afresh."""
    bench = str(SPANS.parent)
    sys.path.insert(0, bench)
    try:
        source = importlib.import_module("source")
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(bench)
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
