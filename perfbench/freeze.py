"""Regenerate perfbench/frozen.json: workload instances and their answers.

    PYTHONPATH=src python3 perfbench/freeze.py

Run from the repository root, with the test requirements installed. Answers
come from the current code and are cross-checked once against the dense
reference in tests/dense_oracle.py (multiplication tables, Hilbert values)
and the Weyl dimension formula (lattice ranks). Regenerate only when a
workload changes; the benchmark compares every run against this file.
"""

import json
import subprocess
import sys
from itertools import combinations_with_replacement
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from dense_oracle import dense_hilbert_value, dense_mult_verdict  # noqa: E402
from test_acceptance import weight_suite  # noqa: E402

from pbwdeg.chevrep import chevalley_constants  # noqa: E402
from pbwdeg.degenring import check_mult_surjective, hilbert_function  # noqa: E402
from pbwdeg.pbwgrade import check_f0  # noqa: E402
from pbwdeg.rootsys import SUPPORTED_TYPES, build_root_system  # noqa: E402
from pbwdeg.weylmod import build_weyl_lattice, weyl_dim  # noqa: E402

RS = {t: build_root_system(t) for t in SUPPORTED_TYPES}

# Each workload keeps one pass to a few seconds on a 2-core machine, so that
# several fresh-interpreter passes fit in one run.
LATTICE_MAX_DIM = 100
MULT_MAX_DIM = 27
# B3 omega_2 at p = 2 is the smallest case of the lattice-reduction fallback
MULT_FALLBACK = [("B3", (0, 1, 0), (0, 0, 1), 2),
                 ("B3", (0, 1, 0), (0, 0, 1), 3)]
HILBERT = ("A2", (1, 1), 2, 3)
F0 = [("G2", 2)]
CLI_CASES = [("G2", 2), ("A2", 3)]


def fund(rs, i):
    return tuple(1 if j == i else 0 for j in range(rs.rank))


def mult_instances():
    """The 83 pairs of test_incremental_tables_equal_dense_oracle."""
    insts = []
    for name in SUPPORTED_TYPES:
        rs = RS[name]
        for i, j in combinations_with_replacement(range(rs.rank), 2):
            lam, mu = fund(rs, i), fund(rs, j)
            tot = tuple(a + b for a, b in zip(lam, mu))
            if weyl_dim(rs, tot) <= 200:
                insts += [(name, lam, mu, 2), (name, lam, mu, 3)]
    insts += [("A1", (2,), (3,), 2), ("A1", (2,), (3,), 3),
              ("A2", (1, 1), (1, 0), 2)]
    assert len(insts) == 83, len(insts)
    return insts


def mult_entry(name, lam, mu, p):
    rep = check_mult_surjective(RS[name], chevalley_constants(RS[name]),
                                lam, mu, p)
    inj, strict, table = dense_mult_verdict(RS[name], lam, mu, p)
    assert (rep.injective_ungraded, rep.strict, rep.table) == \
        (inj, strict, table), (name, lam, mu, p)
    return {"kind": "mult",
            "args": {"cartan": name, "lam": list(lam), "mu": list(mu), "p": p},
            "answer": {"table": [list(r) for r in table],
                       "injective": inj, "strict": strict}}


def cli_csv(name, p):
    proc = subprocess.run(
        [sys.executable, "-m", "pbwdeg.cli", "check-f0", "--cartan", name,
         "--p", str(p), "--format", "csv"],
        capture_output=True, text=True, check=True, cwd=ROOT,
        env={"PYTHONPATH": str(ROOT / "src")})
    return proc.stdout


def one_case_per_line(out: dict) -> str:
    """JSON text of the frozen file with one case or reference per line."""
    def items(entries):
        return ",\n".join("   " + json.dumps(e) for e in entries)

    sections = []
    for section, groups in out.items():
        body = ",\n".join(f"  {json.dumps(name)}: [\n{items(entries)}\n  ]"
                           for name, entries in groups.items())
        sections.append(f" {json.dumps(section)}: {{\n{body}\n }}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


def main():
    lattice = []
    for name, lam in weight_suite():
        dim = weyl_dim(RS[name], lam)
        if dim <= LATTICE_MAX_DIM:
            assert build_weyl_lattice(RS[name], lam).dim == dim, (name, lam)
        lattice.append({"kind": "lattice",
                        "args": {"cartan": name, "lam": list(lam)},
                        "answer": {"dim": dim}})
    assert len(lattice) == 108, len(lattice)

    mult = [mult_entry(*inst) for inst in mult_instances()]
    fallback = [mult_entry(*inst) for inst in MULT_FALLBACK]

    name, lam, p, n_max = HILBERT
    hil = hilbert_function(RS[name], chevalley_constants(RS[name]), lam, p,
                           n_max)
    for n, h, _ in hil.values[1:]:
        assert dense_hilbert_value(RS[name], lam, p, n) == h, n
    hilbert = {"kind": "hilbert",
               "args": {"cartan": name, "lam": list(lam), "p": p,
                        "n_max": n_max},
               "answer": {"values": [list(v) for v in hil.values]}}

    f0 = []
    for name, p in F0:
        rep = check_f0(RS[name], chevalley_constants(RS[name]), p)
        f0.append({"kind": "f0", "args": {"cartan": name, "p": p},
                   "answer": {"nonzero": rep.nonzero, "degree": rep.degree,
                              "graded_dims": list(rep.graded_dims)}})

    cli = []
    for name, p in CLI_CASES:
        csv = cli_csv(name, p)
        args = {"cartan": name, "p": p}
        cli.append([{"kind": "cli-cold", "args": args,
                     "answer": {"csv": csv, "cache": "miss"}},
                    {"kind": "cli-warm", "args": args,
                     "answer": {"csv": csv, "cache": "hit"}}])

    def dim_of(e):
        a = e["args"]
        tot = [x + y for x, y in zip(a["lam"], a["mu"])]
        return weyl_dim(RS[a["cartan"]], tot)

    out = {
        "workloads": {
            "f0-g2": [[e] for e in f0],
            "lattice-z": [[e] for e in lattice
                          if e["answer"]["dim"] <= LATTICE_MAX_DIM],
            "ring-degen": [[e] for e in mult if dim_of(e) <= MULT_MAX_DIM]
            + [[e] for e in fallback] + [[hilbert]],
            "cli-cache": cli,
        },
        "reference": {"lattice": lattice, "mult": mult},
    }
    (HERE / "frozen.json").write_text(one_case_per_line(out))
    for w, cases in out["workloads"].items():
        print(w, len(cases), "cases")


if __name__ == "__main__":
    main()
