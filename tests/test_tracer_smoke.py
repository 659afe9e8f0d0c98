"""A traced run of the program, as the benchmark's `--trace 1` makes it.

perfbench/tracer.py reads results of the calls it wraps: `.nnz` of every
operator matrix and the truth of every echelon insert.  A target whose
return type drifts would break only the traced benchmark; this runs the
tracer on a Z lattice, a check_f0 and a check_mult_surjective so that it
breaks here.  A lone traced module build shows that the span walk, which
lives in weylmod, is still counted under its pbwgrade name.
Tracer.install() patches the package globally, hence the subprocess.
"""

import json
import subprocess
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

INSTALL = f"""
import importlib.util, json
spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                              {str(TRACER)!r})
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
t = tracer.Tracer()
t.install()
"""

CODE = INSTALL + """
from pbwdeg.chevrep import chevalley_constants
from pbwdeg.degenring import check_mult_surjective
from pbwdeg.pbwgrade import check_f0
from pbwdeg.rootsys import build_root_system
from pbwdeg.weylmod import build_weyl_lattice
rs = build_root_system("A2")
lat = build_weyl_lattice(rs, (1, 1))
sc = chevalley_constants(rs)
f0 = check_f0(rs, sc, 2)
mult = check_mult_surjective(rs, sc, (1, 0), (0, 1), 2)
print(json.dumps({"dim": lat.dim, "nonzero": f0.nonzero,
                  "gr": mult.gr_injective, "counts": t.counts,
                  "calls": {k: v["calls"] for k, v in t.stats.items()}}))
"""

MODULE_BUILD = INSTALL + """
from pbwdeg.rootsys import build_root_system
from pbwdeg.weylmod import build_weyl_module_p
build_weyl_module_p(build_root_system("A2"), 2, (1, 1))
print(json.dumps({k: v["calls"] for k, v in t.stats.items()}))
"""


def test_traced_run_reads_every_result():
    proc = subprocess.run([sys.executable, "-c", CODE], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["dim"] == 8
    assert out["nonzero"] is True and out["gr"] is True
    counts = out["counts"]
    assert counts["weylmod.op.nnz"] > 0
    # the Z span: every image goes through apply_vec into an HNF
    calls = out["calls"]
    assert calls["weylmod.apply_vec"] > 0
    assert 0 < counts["exactla.hnf_add.accepted"] <= calls["exactla.hnf_add"]


def test_module_stages_are_traced_as_filter_from_seed():
    """A2 (1,1) at p = 2 is built in two peeled stages, V(1,0) and then
    V(1,1); each spans its module with one filter_from_seed walk."""
    proc = subprocess.run([sys.executable, "-c", MODULE_BUILD],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout)
    assert calls["weylmod.build_weyl_module_p"] == 2
    assert calls["pbwgrade.filter_from_seed"] == 2
