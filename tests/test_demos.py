"""Each script in demos/ runs to completion and prints what it printed when
its expected output under tests/demo_outputs/ was recorded."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.stem for p in (ROOT / "demos").glob("*.py"))


def test_every_demo_has_an_expected_output():
    recorded = sorted(p.stem for p in (ROOT / "tests" / "demo_outputs")
                      .glob("*.txt"))
    assert DEMOS == recorded


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    expected = (ROOT / "tests" / "demo_outputs" / f"{name}.txt").read_text()
    assert proc.stdout == expected
