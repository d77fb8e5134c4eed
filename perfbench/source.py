"""Locate and import the bridgesim package from the checkout's own source.

The benchmark runs from the root of a checkout and never uses an installed
copy of the package: it imports `src/bridgesim` next to this directory, and
refuses to run when that source tree is missing.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "bridgesim"

# `cli` is a thin front end and `errors` holds only types, so neither is a
# layer; `errors` is still imported for its exception classes.
LAYERS = ("chain", "lightclient", "txgraph", "dispute", "stopwatch",
          "protocol", "econ", "harness")


class SourceMissing(RuntimeError):
    """The checkout holds no bridgesim source tree to benchmark."""


def load() -> SimpleNamespace:
    """Import every layer afresh from the checkout's `src/`.

    Earlier imports of the package are dropped first, so every call pays the
    whole import cost; set-up time is measured over several calls.
    """
    init = SRC / PACKAGE / "__init__.py"
    if not init.is_file():
        raise SourceMissing(f"no package source at {init}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules
                 if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    modules = {name: importlib.import_module(f"{PACKAGE}.{name}")
               for name in LAYERS + ("errors",)}
    loaded = Path(sys.modules[PACKAGE].__file__).resolve()
    if SRC not in loaded.parents:
        raise SourceMissing(f"imported {loaded}, not the checkout's source")
    return SimpleNamespace(**modules)


def source_digest() -> str:
    """SHA-256 over the package's source files, to tell builds apart when
    the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]
