"""Every name the package imports is used in the module that imports it.

An import that nothing reads is a dependency the module only claims: it
costs a load and a compile, and it hides where a name really lives once
code moves between modules.  This parses each module of the package and
fails on an imported name that the module never reads as a name (an
attribute access `np.zeros` reads `np`).  The package writes annotations
unquoted under `from __future__ import annotations`, so they are names
too.  Imports from __future__ are directives, not names, and are skipped.
"""

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "src" / "pbwdeg"


def _imported(tree):
    """(bound name, line) of every import outside __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno


def test_every_import_is_used():
    unused = []
    for path in sorted(PKG.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in _imported(tree) if name not in used]
    assert not unused, unused
