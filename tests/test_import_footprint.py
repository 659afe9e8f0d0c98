"""Standard-library modules that the package loads only where it uses them.

Every pbwdeg call is a fresh process, so what the package imports at the
top is paid by every run.  `hashlib` loads OpenSSL's libcrypto (about
3.6 MB of resident memory after numpy); `logging`, `argparse` and
`fractions` with `decimal` add well under a megabyte each.  Only the
cache hashes, only the command line parses arguments, and only the
lattice fallback and a failed invariance check log, so none of them may
load at import.  Each check runs in a fresh interpreter, because this
test process has loaded all of them already.
"""

import json
import subprocess
import sys

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


def test_check_f0_with_a_cache_loads_hashlib(tmp_path):
    code = ("import pbwdeg.cli as cli\n"
            "assert cli.main(['check-f0', '--cartan', 'A2', '--p', '3', "
            f"'--cache-dir', {str(tmp_path)!r}]) == 0")
    assert _loaded(code, ("hashlib", "pbwdeg.degenring")) == ["hashlib"]
