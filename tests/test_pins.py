"""Each pinned digest is written once, in the table of ``tests/pins.py``."""

import re
from pathlib import Path


def test_no_test_file_but_the_pin_table_writes_a_digest():
    # a quoted run of 16 hex digits, the way a pinned digest is written
    pinned = re.compile(r"""(["'])[0-9a-fA-F]{16}\1""")
    tests = Path(__file__).resolve().parent
    assert pinned.search((tests / "pins.py").read_text())
    assert [path.name for path in sorted(tests.glob("*.py"))
            if path.name != "pins.py" and pinned.search(path.read_text())
            ] == []
