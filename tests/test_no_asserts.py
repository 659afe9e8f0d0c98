"""The package checks its invariants with exceptions, never with assert.

`python -O` strips every assert statement, so a check written as one would
silently vanish there.  This parses each module of the package and fails
on any assert statement.
"""

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "src" / "pbwdeg"


def test_package_has_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PKG.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert sorted(PKG.glob("*.py"))
    assert not found, found
