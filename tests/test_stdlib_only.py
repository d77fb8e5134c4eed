"""The package runs on the standard library alone: every import in
`src/bridgesim` is relative or names a standard-library module."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bridgesim"


def imported_modules(path: Path):
    """(line, top-level module) of every absolute import in the file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    outside = [f"{path.name}:{line} {module}"
               for path in files for line, module in imported_modules(path)
               if module not in sys.stdlib_module_names]
    assert outside == []


# run in a fresh interpreter: the standard-library modules the package
# imports, then the package, noting after each which of these are loaded
FRESH_IMPORT = """
import sys
{stdlib}
print(*sorted({{"dataclasses", "inspect"}} & set(sys.modules)), sep=",")
import bridgesim.cli
print(*sorted({{"dataclasses", "inspect"}} & set(sys.modules)), sep=",")
"""


def test_import_loads_neither_dataclasses_nor_inspect():
    # dataclasses, with the inspect module it imports, would add to every
    # command's start-up.  An interpreter that loads inspect before the
    # package does, at start-up or from a standard-library module the
    # package imports, is checked for dataclasses only: of CPython 3.10.13,
    # 3.11.7, 3.12.1 and 3.13.0 none does, while an Anaconda build of
    # 3.13.13 loads inspect at start-up, through importlib.resources
    stdlib = sorted({module for path in sorted(PACKAGE.glob("*.py"))
                     for _, module in imported_modules(path)}
                    - {"dataclasses", "inspect"})
    code = FRESH_IMPORT.format(stdlib="\n".join(f"import {m}" for m in stdlib))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    before, after = (set(line.split(",")) - {""}
                     for line in out.splitlines())
    assert "dataclasses" not in after
    if "inspect" not in before:
        assert "inspect" not in after
