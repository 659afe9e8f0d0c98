"""Every public name of the package is reached from outside tests.

A public function, class or method that only tests call is code the
program carries for its tests: a hook that rewrites a built object, or a
second form of a result that nothing else reads.  This parses each module
of the package for its public top-level functions and classes and the
public methods of those classes, and fails on any whose name appears
nowhere in the package, the benchmark harness, the demos or
pyproject.toml apart from its own definition.  Names count where code
uses them (names, attributes, imports) and in string constants, which is
how the benchmark tracer names its targets; docstrings do not count, and
pyproject.toml counts word by word.  A method matches by its own name alone, so an
attribute of that name on any object counts as a use: the scan errs
toward passing.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "pbwdeg"

#: public names that only tests reach, each kept for a reason
ALLOWED = {
    "BlockOp.toarray": "the dense view that every operator test compares "
                       "against",
    "StructureConstants.n_constant": "the N(alpha, beta) that the frozen "
                                     "structure-constant tables are stated in",
}


def _public_defs(tree):
    """Public top-level functions and classes, and the public methods of
    those classes as Class.method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or \
                node.name.startswith("_"):
            continue
        yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and \
                        not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}"


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) \
                and node.body and isinstance(node.body[0], ast.Expr) and \
                isinstance(node.body[0].value, ast.Constant):
            yield node.body[0].value


def _used_names(tree):
    """Names a module uses in its code and its string constants."""
    skip = {id(n) for n in _docstrings(tree)}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in skip:
            out.update(re.findall(r"\w+", node.value))
    return out


def test_every_public_name_is_used_outside_tests():
    sources = [*sorted(PKG.glob("*.py")),
               *sorted((ROOT / "perfbench").glob("*.py")),
               *sorted((ROOT / "demos").glob("*.py"))]
    trees = {path: ast.parse(path.read_text()) for path in sources}
    defined = {name for path in sorted(PKG.glob("*.py"))
               for name in _public_defs(trees[path])}
    used = set(re.findall(r"\w+", (ROOT / "pyproject.toml").read_text()))
    for tree in trees.values():
        used |= _used_names(tree)
    unused = {name for name in defined
              if name.split(".")[-1] not in used}
    assert defined
    assert unused == set(ALLOWED), sorted(unused ^ set(ALLOWED))
