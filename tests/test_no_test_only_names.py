"""Every public name of the package is reached from outside tests.

A public function, class or method that only tests call is code the
program carries for its tests: a hook that rewrites a built object, or a
second form of a result that nothing else reads.  This parses each module
of the package for its public top-level functions and classes and the
public methods of those classes, and fails on any whose name appears
nowhere in the package, the benchmark harness, the demos or
pyproject.toml apart from its own definition.  A function or class
counts where code uses its name (names, attributes, imports), as a word
of a string constant, which is how the benchmark tracer names its
targets, or as a word of pyproject.toml.  A method counts only through an
attribute access (`.name`) or as "Class.method" in a string constant, the
tracer's form for methods; a bare word in a string, such as a column
header, is not a use.  Docstrings do not count.  A method still matches
an attribute of its name on any object, so the scan errs toward passing.
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


def _uses(tree):
    """What a module uses: names, imported names and string words, which
    count for functions and classes, and attributes and "Class.method"
    strings, which count for methods too."""
    skip = {id(n) for n in _docstrings(tree)}
    names, methods = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            methods.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in skip:
            names.update(re.findall(r"\w+", node.value))
            methods.update(re.findall(r"\w+\.\w+", node.value))
    return names | methods, methods


def test_every_public_name_is_used_outside_tests():
    sources = [*sorted(PKG.glob("*.py")),
               *sorted((ROOT / "perfbench").glob("*.py")),
               *sorted((ROOT / "demos").glob("*.py"))]
    trees = {path: ast.parse(path.read_text()) for path in sources}
    defined = {name for path in sorted(PKG.glob("*.py"))
               for name in _public_defs(trees[path])}
    used = set(re.findall(r"\w+", (ROOT / "pyproject.toml").read_text()))
    used_methods = set()
    for tree in trees.values():
        names, methods = _uses(tree)
        used |= names
        used_methods |= methods

    def is_used(name):
        if "." in name:  # Class.method
            return name in used_methods or \
                name.split(".")[-1] in used_methods
        return name in used

    unused = {name for name in defined if not is_used(name)}
    assert defined
    assert unused == set(ALLOWED), sorted(unused ^ set(ALLOWED))
