"""The package runs on the standard library alone: every import in
`src/bridgesim` is relative or names a standard-library module."""

import ast
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
