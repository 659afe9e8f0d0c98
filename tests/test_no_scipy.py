"""The package runs on numpy alone: no module imports scipy.

Every pbwdeg process would otherwise pay for `import scipy.sparse` at
start-up, about half of the import time of the CLI.  The operators are
block operators (weylmod.BlockOp) throughout, so nothing needs it.  This
parses each module of the package for a scipy import, then runs the
commands that reach every operator path in a fresh interpreter and checks
that scipy never got loaded.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "src" / "pbwdeg"


def _imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_package_never_imports_scipy():
    found = [f"{path.name}: {name}"
             for path in sorted(PKG.glob("*.py"))
             for name in _imports(ast.parse(path.read_text()))
             if name.split(".")[0] == "scipy"]
    assert sorted(PKG.glob("*.py"))
    assert not found, found


CODE = """
import contextlib, io, json, sys, tempfile
from pbwdeg import cli, weylmod
codes = []
with tempfile.TemporaryDirectory() as cache, \\
        contextlib.redirect_stdout(io.StringIO()):
    for argv in (
            ["check-f0", "--cartan", "G2", "--p", "2", "--cache-dir", cache],
            ["check-f0", "--cartan", "G2", "--p", "2", "--cache-dir", cache],
            ["check-mult", "--cartan", "C2", "--p", "3", "--lambda", "1,0",
             "--mu", "0,1"],
            ["hilbert", "--cartan", "A2", "--p", "2", "--lambda", "1,1",
             "--n-max", "2"],
            ["validate", "--cartan", "A2", "--p", "3", "--weight", "4,4"],
            ["pbw-dims", "--cartan", "B3", "--p", "2", "--weight", "0,1,0"]):
        codes.append(cli.main(argv))
fallback = weylmod._MODP_CACHE[("B3", 2, (0, 1, 0), "peeled")]
print(json.dumps({
    "codes": codes,
    "fallback": type(fallback).__name__,
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
}))
"""


def test_commands_run_without_loading_scipy():
    """check-f0 cold then warm through the cache, check-mult, hilbert,
    validate (with the norm-form order check) and the lattice fallback of
    B3 omega_2 at p = 2."""
    proc = subprocess.run([sys.executable, "-c", CODE], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "cache miss" in proc.stderr and "cache hit" in proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["codes"] == [0] * 6
    assert out["fallback"] == "LatticeModuleP"
    assert out["scipy"] == []
