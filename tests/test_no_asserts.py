"""Correctness gates raise named errors: `python -O` strips `assert`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hsep"


def test_no_assert_statements():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno) for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == [], "assert statements at %s" % ", ".join(found)
