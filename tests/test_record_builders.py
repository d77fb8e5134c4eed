"""Only the bridge builds peg records.

``Bridge.request_pegin`` and ``request_pegout`` build each ``PegIn`` and
``PegOut`` and hand back its index, which every other peg call takes, so
the bridge holds no record that it did not issue.  This scan of the package
and its tests keeps it so: outside ``protocol.py``, the one call of either
class is ``ScanningBridge``'s, the frozen reference in ``test_protocol``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORDS = {"PegIn", "PegOut"}
# (file, enclosing class) of each call allowed outside protocol.py
ALLOWED = {("test_protocol.py", "ScanningBridge")}


def record_calls(path: Path):
    """(line, enclosing class or None) of each call of a peg record class
    by name, ``PegOut(...)`` or ``protocol.PegOut(...)``, in the file."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                if name in RECORDS:
                    yield child.lineno, owner
            yield from walk(child, child.name if isinstance(
                child, ast.ClassDef) else owner)
    yield from walk(ast.parse(path.read_text()), None)


def test_peg_records_are_built_only_by_the_bridge():
    files = sorted((ROOT / "src" / "bridgesim").glob("*.py")) + \
        sorted((ROOT / "tests").glob("*.py"))
    assert any(path.name == "protocol.py" for path in files)
    found = [(path.name, line, owner) for path in files
             if path.name != "protocol.py"
             for line, owner in record_calls(path)]
    assert [(name, line) for name, line, owner in found
            if (name, owner) not in ALLOWED] == []
    # the reference still builds its peg-ins, so the scan sees calls
    assert [owner for _, _, owner in found] == ["ScanningBridge"]
