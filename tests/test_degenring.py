"""Tests for the Cartan component map, graded multiplication surjectivity,
degree-1 generation and Hilbert functions.

Frozen tables come from tests/dense_oracle.py (dense Kronecker realization
of the component map, literal monomial filtrations, rank-formula meets),
computed before this module's engine was written.
"""

import json
import subprocess
import sys
from itertools import count

import pytest

from pbwdeg import __version__, cli, degenring, weylmod
from pbwdeg.chevrep import chevalley_constants
from pbwdeg.degenring import (CartanComponentMap, GenReport, HilbertReport,
                              MultReport, cartan_component_map,
                              check_degree_one_generation,
                              check_mult_surjective, hilbert_function)
from pbwdeg.exactla import _is_prime
from pbwdeg.pbwgrade import SizeCeilingExceeded, pbw_filtration
from pbwdeg.rootsys import build_root_system, star_weight
from pbwdeg.weylmod import (RankMismatch, build_weyl_module_p,
                            freudenthal_multiplicities, weyl_dim)

from dense_oracle import DensePairMap, dense_mult_verdict, gauss_rank

RS = {n: build_root_system(n)
      for n in ["A1", "A2", "A3", "B2", "C2", "G2"]}


def sc(name):
    return chevalley_constants(RS[name])


# oracle-frozen: (type, lam, mu, p, per-degree table); all of these are
# injective and strict, so both columns agree row by row
MULT_FROZEN = [
    ("A1", (1,), (1,), 2, [(0, 1, 1), (1, 2, 2), (2, 3, 3)]),
    ("A2", (1, 0), (0, 1), 2, [(0, 1, 1), (1, 4, 4), (2, 8, 8)]),
    ("A2", (1, 0), (0, 1), 3, [(0, 1, 1), (1, 4, 4), (2, 8, 8)]),
    ("A2", (1, 0), (1, 0), 2, [(0, 1, 1), (1, 3, 3), (2, 6, 6)]),
    ("A2", (1, 0), (1, 0), 3, [(0, 1, 1), (1, 3, 3), (2, 6, 6)]),
    ("A2", (0, 1), (0, 1), 2, [(0, 1, 1), (1, 3, 3), (2, 6, 6)]),
    ("A2", (0, 1), (0, 1), 3, [(0, 1, 1), (1, 3, 3), (2, 6, 6)]),
    ("C2", (1, 0), (1, 0), 2, [(0, 1, 1), (1, 4, 4), (2, 10, 10)]),
    ("C2", (1, 0), (0, 1), 2, [(0, 1, 1), (1, 5, 5), (2, 13, 13),
                               (3, 16, 16)]),
    ("C2", (0, 1), (0, 1), 2, [(0, 1, 1), (1, 4, 4), (2, 10, 10),
                               (3, 13, 13), (4, 14, 14)]),
    ("G2", (1, 0), (1, 0), 2, [(0, 1, 1), (1, 6, 6), (2, 21, 21),
                               (3, 26, 26), (4, 27, 27)]),
    ("B2", (1, 0), (0, 1), 2, [(0, 1, 1), (1, 5, 5), (2, 13, 13),
                               (3, 16, 16)]),
]


@pytest.mark.parametrize("name,lam,mu,p,table", MULT_FROZEN)
def test_mult_frozen_tables(name, lam, mu, p, table):
    rep = check_mult_surjective(RS[name], sc(name), lam, mu, p)
    assert rep.injective_ungraded
    assert rep.strict
    assert rep.gr_injective
    assert rep.verdict_mult_surjective
    assert rep.table == table


ORACLE_PAIRS = [
    ("A2", (1, 1), (1, 0), 2),
    ("B2", (1, 0), (1, 0), 2),
    ("A3", (1, 0, 0), (0, 0, 1), 2),
    ("A1", (2,), (3,), 2),
    ("C2", (1, 1), (1, 0), 2),
]


@pytest.mark.parametrize("name,lam,mu,p", ORACLE_PAIRS)
def test_mult_matches_dense_oracle(name, lam, mu, p):
    rep = check_mult_surjective(RS[name], sc(name), lam, mu, p)
    inj, strict, table = dense_mult_verdict(RS[name], lam, mu, p)
    assert rep.injective_ungraded == inj
    assert rep.strict == strict
    assert rep.table == table


@pytest.mark.parametrize("name,lam,mu,p", ORACLE_PAIRS)
def test_weyl_caps_leave_the_image_filtration_unchanged(name, lam, mu, p):
    """The walk caps each weight of the image of phi at its Freudenthal
    multiplicity in V(lam + mu), of which the image is a quotient; the
    capped filtration has the dims of the dense oracle's literal monomial
    span, degree by degree."""
    cm = cartan_component_map(RS[name], sc(name), lam, mu, p)
    _, table = DensePairMap(RS[name], [lam, mu], p).report_table()
    cum = list(cm.image.cumulative_dims())
    assert cum + cum[-1:] * (len(table) - len(cum)) == \
        [a for _, a, _ in table]
    mults = freudenthal_multiplicities(RS[name], cm.total)
    for w, rows in cm.image.rows_by_weight(cm.image.n_top).items():
        assert len(rows) <= mults.get(w, 0), w


def test_factor_filtrations_are_shared_per_module():
    """Two component maps with the same factor module reuse its PBW
    filtration; the filtration is that of pbw_filtration."""
    rs = RS["A2"]
    a = cartan_component_map(rs, sc("A2"), (1, 0), (0, 1), 2)
    b = cartan_component_map(rs, sc("A2"), (1, 0), (1, 0), 2)
    assert a.factors[0] is b.factors[0]
    assert a.factor_graded[0] is b.factor_graded[0] is \
        b.factor_graded[1]
    assert a.factor_graded[0].cumulative_dims() == \
        pbw_filtration(a.factors[0]).cumulative_dims()


def test_dependent_convolution_row_raises_under_python_O():
    """A basis row of T_n that the rows before it already span is a defect,
    also with asserts stripped: here the products at the highest weight
    carry their one row twice."""
    code = "\n".join([
        "import numpy as np",
        "from pbwdeg.chevrep import chevalley_constants",
        "from pbwdeg.degenring import (CartanComponentMap,",
        "                              check_mult_surjective)",
        "from pbwdeg.rootsys import IntegrityError, build_root_system",
        "print(__debug__)",
        "real = CartanComponentMap._tagged_products",
        "def doubled(self):",
        "    out = real(self)",
        "    degs, rows = out[self.total]",
        "    out[self.total] = (np.repeat(degs, 2), np.repeat(rows, 2, axis=0))",
        "    return out",
        "CartanComponentMap._tagged_products = doubled",
        "rs = build_root_system('A2')",
        "try:",
        "    check_mult_surjective(rs, chevalley_constants(rs), (1, 0),",
        "                          (0, 1), 2)",
        "except IntegrityError as exc:",
        "    print('raised', 'depends' in str(exc))",
    ])
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "raised", "True"]


G2_PAIRS = [((1, 0), (1, 0)), ((1, 0), (0, 1)), ((0, 1), (0, 1)),
            ((1, 1), (1, 0)), ((1, 1), (0, 1))]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("lam,mu", G2_PAIRS)
def test_g2_mult_gr_injective(lam, mu, p):
    """G2 is the paper's new case: the component map is gr-injective on the
    pairs of fundamental weights and of rho with a fundamental weight."""
    rs = RS["G2"]
    rep = check_mult_surjective(rs, sc("G2"), lam, mu, p)
    assert rep.gr_injective and rep.verdict_mult_surjective
    assert rep.table[-1][1] == weyl_dim(rs, tuple(map(sum, zip(lam, mu))))


def test_mult_symmetry():
    for name, lam, mu, p in [("A2", (1, 0), (0, 1), 2),
                             ("C2", (1, 0), (0, 1), 2)]:
        a = check_mult_surjective(RS[name], sc(name), lam, mu, p)
        b = check_mult_surjective(RS[name], sc(name), mu, lam, p)
        assert a.table == b.table
        assert a.gr_injective == b.gr_injective


def test_mult_table_shape_invariants():
    rep = check_mult_surjective(RS["C2"], sc("C2"), (0, 1), (0, 1), 2)
    ns = [r[0] for r in rep.table]
    assert ns == list(range(len(ns)))
    phis = [r[1] for r in rep.table]
    meets = [r[2] for r in rep.table]
    assert all(a <= b for a, b in zip(phis, phis[1:]))
    assert all(a <= b for a, b in zip(meets, meets[1:]))
    assert all(a <= b for a, b in zip(phis, meets))
    assert rep.table[0][1] == rep.table[0][2] == 1
    assert rep.table[-1][1] == rep.table[-1][2]


def test_mult_zero_weight_trivial():
    rs = RS["A2"]
    rep = check_mult_surjective(rs, sc("A2"), (0, 0), (1, 0), 2)
    assert rep.gr_injective
    assert rep.table[-1][1] == weyl_dim(rs, (1, 0))


def _stdout(capsys, *argv) -> str:
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


def test_mult_report_serialization(capsys):
    rs = RS["A2"]
    rep = check_mult_surjective(rs, sc("A2"), (1, 0), (0, 1), 2)
    args = ("check-mult", "--cartan", "A2", "--lambda", "1,0", "--mu", "0,1",
            "--p", "2", "--format")
    out = _stdout(capsys, *args, "json")
    payload = json.loads(out)
    assert payload["cartan"] == "A2"
    assert payload["lambda"] == [1, 0]
    assert payload["mu"] == [0, 1]
    assert payload["verdict_mult_surjective"] is True
    assert payload["table"] == [list(row) for row in rep.table]
    assert payload["note"] == rep.note
    assert payload["tool_version"] == __version__
    # the ring-side translation is spelled out with starred weights
    lam_star = list(star_weight(rs, (1, 0)))
    assert str(lam_star) in payload["note"] or "0, 1" in payload["note"]
    lines = _stdout(capsys, *args, "csv").strip().splitlines()
    assert lines[0] == "n,phi_dim,meet_dim"
    assert len(lines) == 1 + len(rep.table)
    assert lines[1:] == [f"{n},{a},{b}" for n, a, b in rep.table]
    assert _stdout(capsys, *args, "json") == out


def test_mult_size_ceiling():
    with pytest.raises(SizeCeilingExceeded):
        check_mult_surjective(RS["A2"], sc("A2"), (1, 1), (1, 1), 2,
                              size_ceiling=20)


# -- component map ----------------------------------------------------------


def test_component_map_exposes_filtrations():
    cm = cartan_component_map(RS["A1"], sc("A1"), (1,), (1,), 2)
    assert len(cm.factor_graded) == 2
    assert cm.factor_graded[0].graded_dims == (1, 1)
    assert cm.image.cumulative_dims() == (1, 2, 3)
    assert cm.rank_phi == 3
    # T_n = sum over i + j <= n of V_i x V_j has sum g_i g_j basis rows,
    # with g = (1, 1) the graded dims of each factor
    for n, rows in [(0, 1), (1, 3), (2, 4)]:
        t = cm.t_rows_by_weight(n)
        assert sum(r.shape[0] for r in t.values()) == rows
        assert all(gauss_rank(r, 2) == r.shape[0] for r in t.values())


def test_component_map_int64_limit():
    """Meets reduce image rows against T_n at single width, so the int64
    limit is set by the tensor weight spaces alone: the weight-0 space of
    V(1) x V(1) has dimension 2, and p is safe exactly when
    2 (p - 1)^2 < 2^63, i.e. p <= 2^31."""
    rs = RS["A1"]
    below = next(n for n in range(1 << 31, 0, -1) if _is_prime(n))
    above = next(n for n in count((1 << 31) + 1) if _is_prime(n))
    tables = [check_mult_surjective(rs, sc("A1"), (1,), (1,), q).table
              for q in (below, 1000003)]
    assert tables[0] == tables[1] == [(0, 1, 1), (1, 2, 2), (2, 3, 3)]
    with pytest.raises(ValueError, match="largest safe p"):
        check_mult_surjective(rs, sc("A1"), (1,), (1,), above)


def test_stabilization_guard_survives_python_O():
    """With T_n reported empty the meets never reach rank(phi); the guard
    must still stop the degree loop when asserts are stripped."""
    code = "\n".join([
        "from pbwdeg.chevrep import chevalley_constants",
        "from pbwdeg.degenring import (CartanComponentMap,",
        "                              check_mult_surjective)",
        "from pbwdeg.rootsys import IntegrityError, build_root_system",
        "print(__debug__)",
        "CartanComponentMap.t_rows_by_weight = lambda self, n: {}",
        "rs = build_root_system('A1')",
        "try:",
        "    check_mult_surjective(rs, chevalley_constants(rs), (1,), (1,), 2)",
        "except IntegrityError:",
        "    print('raised')",
    ])
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "raised"]


# -- generation and Hilbert -------------------------------------------------


def test_generation_a2_adjoint():
    rep = check_degree_one_generation(RS["A2"], sc("A2"), (1, 1), 2, 3)
    assert isinstance(rep, GenReport)
    assert rep.generated
    assert [n for n, _ in rep.per_n] == [2, 3]
    assert all(v for _, v in rep.per_n)


def test_generation_a1():
    rep = check_degree_one_generation(RS["A1"], sc("A1"), (1,), 2, 3)
    assert rep.generated


def test_generation_zero_weight_vacuous():
    rep = check_degree_one_generation(RS["A2"], sc("A2"), (0, 0), 2, 2)
    assert rep.generated


def test_generation_requires_nmax():
    with pytest.raises(ValueError):
        check_degree_one_generation(RS["A1"], sc("A1"), (1,), 2, 1)


def test_foreign_structure_constants_refused():
    """Structure constants of another system are a usage error, with or
    without asserts."""
    for call in (lambda: cartan_component_map(RS["A2"], sc("B2"), (1, 0),
                                              (0, 1), 2),
                 lambda: hilbert_function(RS["A2"], sc("B2"), (1, 0), 2, 2)):
        with pytest.raises(ValueError, match="structure constants of B2"):
            call()


def test_generation_serialization(capsys):
    args = ("check-gen", "--cartan", "A1", "--lambda", "1", "--p", "2",
            "--n-max", "2", "--format")
    payload = json.loads(_stdout(capsys, *args, "json"))
    assert payload["generated"] is True
    assert payload["lambda"] == [1]
    assert payload["per_n"] == [[2, True]]
    assert _stdout(capsys, *args, "csv") == "n,gr_injective\n2,true\n"


def test_hilbert_a2_adjoint_matches_weyl_dims():
    rs = RS["A2"]
    rep = hilbert_function(rs, sc("A2"), (1, 1), 2, 3)
    assert isinstance(rep, HilbertReport)
    assert rep.values == ((0, 1, 1), (1, 8, 8), (2, 27, 27), (3, 64, 64))
    assert rep.values[0][1] == 1
    assert rep.values[1][1] == weyl_dim(rs, (1, 1))
    # the degenerate profile of the 1-fold map is the module's own profile
    mod = build_weyl_module_p(rs, 2, (1, 1))
    assert tuple(rep.profiles[1]) == pbw_filtration(mod).graded_dims


def test_hilbert_profiles_match_dense_oracle():
    rs = RS["A2"]
    rep = hilbert_function(rs, sc("A2"), (1, 1), 2, 3)
    for n in (2, 3):
        assert list(rep.profiles[n]) == \
            DensePairMap(rs, [(1, 1)] * n, 2).graded_image_dims()


def test_hilbert_a1_projective_line():
    rep = hilbert_function(RS["A1"], sc("A1"), (1,), 2, 3)
    assert [h for _, h, _ in rep.values] == [1, 2, 3, 4]
    assert [w for _, _, w in rep.values] == [1, 2, 3, 4]


def test_hilbert_bound_invariant():
    rep = hilbert_function(RS["B2"], sc("B2"), (1, 0), 2, 2)
    for n, h, w in rep.values:
        assert h <= w
        assert w == weyl_dim(RS["B2"], tuple(n * x for x in (1, 0)))


def test_hilbert_serialization(capsys):
    args = ("hilbert", "--cartan", "A1", "--lambda", "1", "--p", "2",
            "--n-max", "2", "--format")
    payload = json.loads(_stdout(capsys, *args, "json"))
    assert payload["values"] == [[0, 1, 1], [1, 2, 2], [2, 3, 3]]
    assert payload["profiles"] == {"0": [1], "1": [1, 1], "2": [1, 1, 1]}
    lines = _stdout(capsys, *args, "csv").strip().splitlines()
    assert lines[0] == "n,h,weyl_dim"
    assert lines[1] == "0,1,1"
    assert lines[1:] == ["0,1,1", "1,2,2", "2,3,3"]


# -- the pairwise chain -----------------------------------------------------


def test_hilbert_a2_adjoint_reaches_n5():
    """Step 5 maps into V(4,4) x V(1,1), of dim 1000; the 5-fold tensor
    power, 8^5 = 32768, was over the default size ceiling."""
    rep = hilbert_function(RS["A2"], sc("A2"), (1, 1), 2, 5)
    assert [n for n, _, _ in rep.values] == [0, 1, 2, 3, 4, 5]
    assert rep.values[4:] == ((4, 125, 125), (5, 216, 216))


@pytest.mark.parametrize("name,lam,p,n_max", [
    ("A2", (1, 1), 2, 5),
    ("B2", (1, 0), 3, 4),
    ("G2", (1, 0), 2, 4),
    ("C2", (0, 1), 2, 4),
    ("A3", (0, 1, 0), 3, 3),
    ("G2", (1, 0), 3, 3),
    ("G2", (0, 1), 3, 3),
])
def test_hilbert_profiles_are_pbw_graded_dims(name, lam, p, n_max):
    """Where generation holds, h(n) is dim V(n lam) and the profile of step
    n is the PBW graded dims of V(n lam), built and filtered on its own."""
    rs = RS[name]
    rep = hilbert_function(rs, sc(name), lam, p, n_max)
    assert sorted(rep.profiles) == list(range(n_max + 1))
    assert [h for _, h, _ in rep.values] == \
        [weyl_dim(rs, tuple(n * x for x in lam)) for n in range(n_max + 1)]
    for n in range(1, n_max + 1):
        mod = build_weyl_module_p(rs, p, tuple(n * x for x in lam))
        assert rep.profiles[n] == pbw_filtration(mod).graded_dims, n


@pytest.fixture
def step3_fails(monkeypatch):
    """Step n = 3 of the chain, V(3 lam) -> V(2 lam) x V(lam), reports a
    map that is not strict.  Returns the list of first weights of every
    pair the chain analyses."""
    real = degenring._pair_analysis
    seen = []

    def patched(rs, sc_, lam, mu, p, size_ceiling):
        seen.append(tuple(lam))
        inj, strict, table, grdims = real(rs, sc_, lam, mu, p, size_ceiling)
        strict = strict and tuple(lam) != tuple(2 * x for x in mu)
        return inj, strict, table, grdims

    monkeypatch.setattr(degenring, "_pair_analysis", patched)
    return seen


def test_generation_stops_at_first_failure(step3_fails):
    rep = check_degree_one_generation(RS["A1"], sc("A1"), (1,), 2, 4)
    assert rep.per_n == ((2, True), (3, False))
    assert rep.generated is False
    assert rep.n_max == 4
    assert step3_fails == [(1,), (2,)]  # step 4 is never analysed


def test_hilbert_stops_at_first_failure(step3_fails):
    rep = hilbert_function(RS["A1"], sc("A1"), (1,), 2, 4)
    assert rep.values == ((0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4))
    assert rep.profiles == {0: (1,), 1: (1, 1), 2: (1, 1, 1),
                            3: (1, 1, 1, 1)}
    assert step3_fails == [(0,), (1,), (2,)]


FIRST_FAILURE_CLI = {
    ("check-gen", "table"): "cartan: A1\nlambda: 1\np: 2\nn_max: 4\n"
                            "  n=2: gr_injective=true\n"
                            "  n=3: gr_injective=false\n"
                            "generated: false\n",
    ("check-gen", "csv"): "n,gr_injective\n2,true\n3,false\n",
    ("check-gen", "json"): {"cartan": "A1", "p": 2, "lambda": [1],
                            "n_max": 4, "per_n": [[2, True], [3, False]],
                            "generated": False},
    ("hilbert", "table"): "cartan: A1\nlambda: 1\np: 2\nn  h  weyl_dim\n"
                          "0  1  1\n1  2  2\n2  3  3\n3  4  4\n",
    ("hilbert", "csv"): "n,h,weyl_dim\n0,1,1\n1,2,2\n2,3,3\n3,4,4\n",
    ("hilbert", "json"): {"cartan": "A1", "p": 2, "lambda": [1], "n_max": 4,
                          "values": [[0, 1, 1], [1, 2, 2], [2, 3, 3],
                                     [3, 4, 4]],
                          "profiles": {"0": [1], "1": [1, 1], "2": [1, 1, 1],
                                       "3": [1, 1, 1, 1]}},
}


def _cli_stdout(capsys, fmt, *argv):
    """Exit code and stdout of one in-process CLI run; json is parsed and
    its tool_version, the last key, is checked and dropped."""
    code = cli.main([*argv, "--format", fmt])
    out = capsys.readouterr().out
    if fmt == "json":
        out = json.loads(out)
        assert list(out)[-1] == "tool_version"
        assert out.pop("tool_version") == __version__
    return code, out


@pytest.mark.parametrize("command,fmt", sorted(FIRST_FAILURE_CLI))
def test_first_failure_cli(capsys, step3_fails, command, fmt):
    code, out = _cli_stdout(capsys, fmt, command, "--cartan", "A1",
                            "--lambda", "1", "--p", "2", "--n-max", "4")
    assert code == 0
    assert out == FIRST_FAILURE_CLI[command, fmt]
    assert (3,) not in step3_fails


# -- negative check-mult verdicts and the lattice branch --------------------


def test_lattice_not_built_when_rank_is_full(monkeypatch):
    calls = []
    monkeypatch.setattr(degenring, "build_weyl_lattice",
                        lambda rs, lam, **_: calls.append(lam))
    assert check_mult_surjective(RS["A2"], sc("A2"), (1, 0), (0, 1),
                                 2).gr_injective
    assert hilbert_function(RS["A2"], sc("A2"), (1, 1), 2,
                            3).values[3] == (3, 64, 64)
    assert calls == []


def _claim_extra_dimension(monkeypatch, module, weight):
    """Make module.weyl_dim report one more than the truth at weight."""
    real = module.weyl_dim
    monkeypatch.setattr(module, "weyl_dim", lambda rs, lam: real(rs, lam) +
                        (tuple(lam) == weight))


@pytest.fixture
def rank_short(monkeypatch):
    """rank(phi) < weyl_dim(lam + mu) for A2 (1,0) x (0,1); the Z lattice of
    (1,1) is still full rank.  Returns the weights the lattice is built for."""
    _claim_extra_dimension(monkeypatch, degenring, (1, 1))
    real = degenring.build_weyl_lattice
    calls = []

    def spy(rs, lam, **kwargs):
        calls.append(tuple(lam))
        return real(rs, lam, **kwargs)

    monkeypatch.setattr(degenring, "build_weyl_lattice", spy)
    return calls


@pytest.fixture
def not_strict(monkeypatch):
    """dim(im phi cap T_1) is reported one above dim phi(V_1)."""
    real = degenring._degree_table

    def patched(cm):
        table, grdims = real(cm)
        n, a, b = table[1]
        table[1] = (n, a, b + 1)
        return table, grdims

    monkeypatch.setattr(degenring, "_degree_table", patched)


def test_mult_rank_short_builds_full_rank_lattice(rank_short):
    rep = check_mult_surjective(RS["A2"], sc("A2"), (1, 0), (0, 1), 2)
    assert rank_short == [(1, 1)]
    assert (rep.injective_ungraded, rep.strict, rep.gr_injective,
            rep.verdict_mult_surjective) == (False, True, False, False)
    assert rep.table == [(0, 1, 1), (1, 4, 4), (2, 8, 8)]


def test_mult_not_strict(not_strict):
    rep = check_mult_surjective(RS["A2"], sc("A2"), (1, 0), (0, 1), 2)
    assert (rep.injective_ungraded, rep.strict, rep.gr_injective,
            rep.verdict_mult_surjective) == (True, False, False, False)
    assert rep.table == [(0, 1, 1), (1, 4, 5), (2, 8, 8)]


def _mult_expected(fmt, table, injective, strict):
    flags = [("injective_ungraded", injective), ("strict", strict),
             ("gr_injective", False), ("verdict_mult_surjective", False)]
    if fmt == "csv":
        return "n,phi_dim,meet_dim\n" + "".join(
            f"{n},{a},{b}\n" for n, a, b in table)
    if fmt == "table":
        return ("cartan: A2\nlambda: 1 0\nmu: 0 1\np: 2\n"
                "n  phi_dim  meet_dim\n"
                + "".join(f"{n}  {a}  {b}\n" for n, a, b in table)
                + "".join(f"{k}: {str(v).lower()}\n" for k, v in flags))
    return {"cartan": "A2", "p": 2, "lambda": [1, 0], "mu": [0, 1],
            **dict(flags), "table": [list(r) for r in table],
            "note": "ring side: multiplication H0a([0, 1]) (x) H0a([1, 0])"
                    " -> H0a([1, 1]) is surjective iff this map is "
                    "gr-injective"}


MULT_ARGS = ("check-mult", "--cartan", "A2", "--lambda", "1,0", "--mu",
             "0,1", "--p", "2")


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_mult_rank_short_cli(capsys, rank_short, fmt):
    code, out = _cli_stdout(capsys, fmt, *MULT_ARGS)
    assert code == 0
    assert out == _mult_expected(fmt, [(0, 1, 1), (1, 4, 4), (2, 8, 8)],
                                 False, True)


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_mult_not_strict_cli(capsys, not_strict, fmt):
    code, out = _cli_stdout(capsys, fmt, *MULT_ARGS)
    assert code == 0
    assert out == _mult_expected(fmt, [(0, 1, 1), (1, 4, 5), (2, 8, 8)],
                                 True, False)


def test_mult_rank_short_over_z_exits_3(capsys, monkeypatch, rank_short,
                                       fresh_modules):
    """If the Z lattice falls short as well, that is a defect, not a
    verdict: RankMismatch, exit 3."""
    _claim_extra_dimension(monkeypatch, weylmod, (1, 1))
    with pytest.raises(RankMismatch):
        check_mult_surjective(RS["A2"], sc("A2"), (1, 0), (0, 1), 2)
    code = cli.main(list(MULT_ARGS))
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal defect:"), \
        captured.err
    assert rank_short == [(1, 1), (1, 1)]
