"""The traced benchmark run wraps bridgesim functions by name; a span whose
target is gone is only reported as missing, so pin the names here."""

import ast
import importlib
from pathlib import Path

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
