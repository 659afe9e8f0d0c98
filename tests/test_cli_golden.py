"""Stdout and exit code of every command, pinned byte for byte.

Each case runs `pbwdeg.cli.main` in-process and records its exit code and
its stdout.  The expected text is `tests/cli_golden.txt`; nothing is
stripped or normalised before the comparison, so any change to a verdict,
a table, a CSV cell or a JSON key shows up here.  To rewrite the file
after a deliberate change to the output, run

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff.
"""

import contextlib
import io
from pathlib import Path

from pbwdeg.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.txt")

#: commands run in each of the three formats
FORMATTED = [
    ("root-system", "--cartan", "A2"),
    ("weyl-dim", "--cartan", "C3", "--weight", "0,0,1", "--weight", "1,0,0"),
    ("build-module", "--cartan", "A2", "--weight", "1,1", "--p", "2"),
    # B3 (0,1,0) at p=2 collapses in the span and comes from the lattice
    ("build-module", "--cartan", "B3", "--weight", "0,1,0", "--p", "2"),
    ("pbw-dims", "--cartan", "A2", "--weight", "1,1", "--p", "2"),
    ("pbw-dims", "--cartan", "B3", "--weight", "0,1,0", "--p", "2"),
    ("check-f0", "--cartan", "A2", "--p", "2"),
    ("check-f0", "--cartan", "C2", "--p", "2"),
    # A2 at p=3 needs dim 125 and is skipped under this ceiling
    ("check-f0-sweep", "--cartans", "A1,A2", "--primes", "2,3",
     "--size-ceiling", "30"),
    ("check-mult", "--cartan", "A2", "--lambda", "1,0", "--mu", "0,1",
     "--p", "2"),
    ("check-gen", "--cartan", "A2", "--lambda", "1,0", "--p", "2",
     "--n-max", "3"),
    ("hilbert", "--cartan", "A2", "--lambda", "1,0", "--p", "2",
     "--n-max", "3"),
    ("validate", "--cartan", "A2", "--weight", "1,1", "--p", "2"),
    ("validate", "--cartan", "A1", "--weight", "2", "--p", "2",
     "--trials", "3"),
    # refusals: over the size ceiling (exit 2), user errors (exit 1)
    ("check-f0", "--cartan", "A2", "--p", "2", "--size-ceiling", "10"),
    ("weyl-dim", "--cartan", "Z9", "--weight", "1"),
    ("build-module", "--cartan", "A2", "--weight", "1,1", "--p", "4"),
]

CASES = [(*argv, "--format", fmt) for argv in FORMATTED
         for fmt in ("table", "json", "csv")]


def render() -> str:
    """The transcript of every case: command line, exit code, stdout."""
    parts = []
    for argv in CASES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
        parts.append(f"$ pbwdeg {' '.join(argv)}\nexit {code}\n"
                     f"{out.getvalue()}")
    return "".join(parts)


def test_stdout_and_exit_codes_match_golden():
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(render())
