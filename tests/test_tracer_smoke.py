"""A traced run of the program, as the benchmark's `--trace 1` makes it.

perfbench/tracer.py reads results of the calls it wraps: `.nnz` of every
operator matrix and the truth of every echelon insert.  A target whose
return type drifts would break only the traced benchmark; this runs the
tracer on a Z lattice, a check_f0 and a check_mult_surjective so that it
breaks here.
Tracer.install() patches the package globally, hence the subprocess.
"""

import json
import subprocess
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

CODE = f"""
import importlib.util, json
spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                              {str(TRACER)!r})
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
t = tracer.Tracer()
t.install()
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
print(json.dumps({{"dim": lat.dim, "nonzero": f0.nonzero,
                  "gr": mult.gr_injective, "counts": t.counts,
                  "calls": {{k: v["calls"] for k, v in t.stats.items()}}}}))
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
