"""Standard-library modules that the package loads only where it uses them.

Every pbwdeg call is a fresh process, so what the package imports at the
top is paid by every run.  `hashlib` loads OpenSSL's libcrypto (about
3.6 MB of resident memory after numpy); `logging`, `argparse` and
`fractions` with `decimal` add well under a megabyte each.  Only the
command line parses arguments, and only the lattice fallback and a failed
invariance check log, so none of them may load at import.  The cache
hashes with the interpreter's built-in SHA-256 (about 28 KB), so a cached
run never loads `hashlib` at all.  Each check runs in a fresh
interpreter, because this test process has loaded all of them already.
"""

import importlib.util
import json
import subprocess
import sys

import pytest

LAZY = ("hashlib", "_hashlib", "logging", "argparse", "fractions", "decimal")


def _loaded(code: str, names) -> list[str]:
    """Which of names are in sys.modules after code runs in a fresh
    interpreter."""
    probe = code + f"\nprint(json.dumps([m for m in {list(names)!r} " \
                   "if m in sys.modules]))"
    proc = subprocess.run([sys.executable, "-c", "import json, sys\n" + probe],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_every_module_loads_none_of_the_lazy_ones():
    assert _loaded("from pbwdeg import chevrep, cli, degenring, pbwgrade, "
                   "rootsys, weylmod", LAZY) == []


def test_check_f0_without_a_cache_hashes_nothing():
    """argparse loads here, for the command line; degenring does not."""
    code = ("import pbwdeg.cli as cli\n"
            "assert cli.main(['check-f0', '--cartan', 'A2', '--p', '3']) "
            "== 0")
    assert _loaded(code, ("hashlib", "pbwdeg.degenring")) == []


@pytest.mark.skipif(
    importlib.util.find_spec("_sha2" if sys.version_info >= (3, 12)
                             else "_sha256") is None,
    reason="this interpreter has no built-in SHA-256, the cache uses "
           "hashlib")
def test_check_f0_with_a_cache_hashes_without_hashlib(tmp_path):
    """A cold run writes the entry and a warm run reads it; neither loads
    hashlib or OpenSSL."""
    run = ("assert cli.main(['check-f0', '--cartan', 'A2', '--p', '3', "
           f"'--cache-dir', {str(tmp_path)!r}]) == 0\n")
    code = "import pbwdeg.cli as cli\n" + run + run
    assert _loaded(code, ("hashlib", "_hashlib", "pbwdeg.degenring")) == []
    assert len(list(tmp_path.iterdir())) == 1
