"""Tests for the PBW filtration, graded dimensions and the norm-form check.

Frozen profiles below were produced by tests/dense_oracle.py (literal
ordered-monomial spans with exact integer divided powers, dense Gauss)
before the incremental engine was written.
"""

import json
import logging
import subprocess
import sys

import numpy as np
import pytest

from pbwdeg import __version__, cli, pbwgrade
from pbwdeg.chevrep import chevalley_constants
from pbwdeg.degenring import cartan_component_map
from pbwdeg.exactla import DenseEchelonModP, _is_prime
from pbwdeg.rootsys import IntegrityError, build_root_system, splitting_weight
from pbwdeg.pbwgrade import (DEFAULT_SIZE_CEILING, F0Report, PBWGraded,
                             SizeCeilingExceeded, _require_prime,
                             check_f0, check_F0_order_invariance,
                             norm_form, pbw_filtration)
from pbwdeg.weylmod import BlockOp, build_weyl_module_p

from dense_oracle import DenseModule, f0_nonzero_in_graded
from dense_oracle import graded_dims as oracle_graded_dims
from faults import inject_fault

RS = {n: build_root_system(n)
      for n in ["A1", "A2", "A3", "B2", "C2", "G2"]}


# oracle-frozen (type, lam, p) -> graded dims of the degenerate module
PROFILES = [
    ("A1", (4,), 2, (1, 1, 1, 1, 1)),
    ("A2", (1, 1), 2, (1, 3, 4)),
    ("A2", (1, 1), 3, (1, 3, 4)),
    ("A2", (1, 1), 5, (1, 3, 4)),
    ("A2", (2, 1), 2, (1, 3, 5, 6)),
    ("C2", (1, 1), 2, (1, 4, 8, 3)),
    ("G2", (1, 0), 2, (1, 5, 1)),
    ("A3", (1, 0, 1), 2, (1, 5, 9)),
    ("B2", (1, 1), 3, (1, 4, 8, 3)),
]

# oracle-frozen norm-form verdicts on the splitting weight 2(p-1)rho:
# (type, p, lam, degree, nonzero, graded profile)
F0_CASES = [
    ("A1", 2, (2,), 1, True, (1, 1, 1)),
    ("A1", 3, (4,), 2, True, (1, 1, 1, 1, 1)),
    ("A1", 5, (8,), 4, True, (1, 1, 1, 1, 1, 1, 1, 1, 1)),
    ("A2", 2, (2, 2), 3, True, (1, 3, 6, 8, 9)),
    ("C2", 2, (2, 2), 4, True, (1, 4, 10, 18, 27, 15, 6)),
    ("B2", 2, (2, 2), 4, True, (1, 4, 10, 18, 27, 15, 6)),
]


@pytest.mark.parametrize("name,lam,p,profile", PROFILES)
def test_frozen_profiles(name, lam, p, profile):
    mod = build_weyl_module_p(RS[name], p, lam)
    g = pbw_filtration(mod)
    assert g.graded_dims == profile
    assert sum(g.graded_dims) == mod.dim
    assert g.n_top == len(profile) - 1
    assert g.graded_dims[0] == 1
    cum = g.cumulative_dims()
    assert all(a <= b for a, b in zip(cum, cum[1:]))
    assert cum[-1] == mod.dim


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("m", range(7))
def test_a1_profile_all_ones(m, p):
    mod = build_weyl_module_p(RS["A1"], p, (m,))
    g = pbw_filtration(mod)
    assert g.graded_dims == (1,) * (m + 1)


def test_zero_weight_profile():
    mod = build_weyl_module_p(RS["A2"], 2, (0, 0))
    g = pbw_filtration(mod)
    assert g.graded_dims == (1,)
    assert g.n_top == 0


@pytest.mark.parametrize("name,lam,p", [
    ("A2", (1, 1), 2),
    ("A2", (2, 1), 2),
    ("C2", (1, 1), 2),
    ("G2", (1, 0), 2),
    ("A1", (5,), 3),
])
def test_profiles_match_dense_oracle(name, lam, p):
    mod = build_weyl_module_p(RS[name], p, lam)
    g = pbw_filtration(mod)
    assert list(g.graded_dims) == oracle_graded_dims(DenseModule(RS[name],
                                                                 lam, p))


def _basis_upto(g, n, dim):
    """Basis rows of V_n in global coordinates, from tagged_blocks()."""
    out = np.zeros((0, dim), dtype=np.int64)
    for _, indices, degs, rows in g.tagged_blocks():
        wide = np.zeros((int((degs <= n).sum()), dim), dtype=np.int64)
        wide[:, indices] = rows[degs <= n]
        out = np.vstack([out, wide])
    return out


def _filtration(name, lams, p):
    """The graded span of one weight's PBW filtration, or of the image of
    a component map of a pair, with the index it starts at and the
    dimension of its space."""
    rs = build_root_system(name)
    if len(lams) == 2:
        cm = cartan_component_map(rs, chevalley_constants(rs), *lams, p)
        return cm.image, cm.space.hw_index, cm.space.dim
    mod = build_weyl_module_p(rs, p, lams[0])
    return pbw_filtration(mod), mod.hw_index, mod.dim


@pytest.mark.parametrize("name,lams,p", [
    pytest.param("A2", [(1, 1)], 2, id="A2-p2"),
    pytest.param("B2", [(1, 1)], 2, id="B2-p2"),
    pytest.param("G2", [(1, 1)], 2, id="G2-p2"),
    pytest.param("A2", [(1, 1)], 3, id="A2-p3"),
    pytest.param("A2", [(1, 0), (0, 1)], 2, id="A2-image-p2"),
    pytest.param("B3", [(0, 1, 0)], 2, id="B3-fallback-p2")])
def test_filtration_basis_counts_and_seed(name, lams, p):
    """The dims of a PBWGraded are counted from the degree tags of its
    rows, so the tags must carry them: cumulative_dims()[n] is the number
    of rows tagged <= n, which span V_n, n_top is the largest tag, and the
    one row of degree 0 is the unit vector at the index the walk starts
    from."""
    g, hw, dim = _filtration(name, lams, p)
    tags = np.concatenate([degs for _, _, degs, _ in g.tagged_blocks()])
    assert g.n_top == tags.max()
    cum = g.cumulative_dims()
    assert len(cum) == g.n_top + 1
    for n in range(g.n_top + 1):
        assert cum[n] == (tags <= n).sum() == _basis_upto(g, n, dim).shape[0]
    b0 = _basis_upto(g, 0, dim)
    assert b0.shape == (1, dim)
    assert b0[0, hw] == 1 and b0.sum() == 1


def test_lowering_respects_filtration_degrees():
    # F_beta^(k) V_n lands in V_{n+k}
    mod = build_weyl_module_p(RS["C2"], 2, (1, 1))
    g = pbw_filtration(mod)
    for beta in RS["C2"].positive_roots:
        for k in (1, 2):
            for n in range(g.n_top + 1):
                m = min(n + k, g.n_top)
                target = DenseEchelonModP(2, mod.dim)
                for row in _basis_upto(g, m, mod.dim):
                    target.add_row(row)
                op = mod.op("F", beta, k)
                for row in _basis_upto(g, n, mod.dim):
                    img = (op @ row) % 2
                    assert target.contains(img)


def test_build_f0_a1_matches_divided_powers():
    for p, k in [(2, 1), (3, 2)]:
        mod = build_weyl_module_p(RS["A1"], p, splitting_weight(RS["A1"], p))
        f0 = norm_form(mod, (1,))
        expect = mod.op("F", (1,), k).toarray()
        assert isinstance(f0, BlockOp)
        assert np.array_equal(f0.toarray(), expect % p)


def test_build_f0_order_independent_a2():
    mod = build_weyl_module_p(RS["A2"], 2, (2, 2))
    assert norm_form(mod, (1, 2, 3)) == norm_form(mod, (3, 2, 1))


def test_build_f0_rejects_bad_orders():
    mod = build_weyl_module_p(RS["A2"], 2, (2, 2))
    with pytest.raises(ValueError):
        norm_form(mod, (1, 1, 2))
    with pytest.raises(ValueError):
        norm_form(mod, (0, 1, 2))
    with pytest.raises(ValueError):
        norm_form(mod, (1, 2))


@pytest.mark.parametrize("name,p,lam,degree,nonzero,profile", F0_CASES)
def test_check_f0_frozen(name, p, lam, degree, nonzero, profile):
    rs = RS[name]
    rep = check_f0(rs, chevalley_constants(rs), p)
    assert rep.cartan == name
    assert rep.p == p
    assert rep.lam == lam == splitting_weight(rs, p)
    assert rep.degree == degree
    assert rep.nonzero == nonzero
    assert tuple(rep.graded_dims) == profile


@pytest.mark.parametrize("name", ["A2", "C2", "B2"])
def test_check_f0_agrees_with_oracle(name):
    rs = RS[name]
    rep = check_f0(rs, chevalley_constants(rs), 2)
    dense = DenseModule(rs, splitting_weight(rs, 2), 2)
    assert rep.nonzero == f0_nonzero_in_graded(dense)


def test_f0_report_json_schema(capsys):
    assert cli.main(["check-f0", "--cartan", "A1", "--p", "3",
                     "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("}\n") and out.count("\n") == 1
    payload = json.loads(out)
    assert list(payload) == ["cartan", "p", "weight", "degree", "nonzero",
                             "graded_dims", "tool_version"]
    assert payload["cartan"] == "A1"
    assert payload["weight"] == [4]
    assert payload["degree"] == 2
    assert payload["nonzero"] is True
    assert payload["graded_dims"] == [1, 1, 1, 1, 1]
    assert payload["tool_version"] == __version__


def test_f0_report_deterministic(fresh_modules):
    rs = RS["A2"]
    sc = chevalley_constants(rs)
    a = check_f0(rs, sc, 2)
    fresh_modules()
    assert check_f0(rs, sc, 2) == a


def test_size_ceiling_refusal():
    rs = RS["A2"]
    with pytest.raises(SizeCeilingExceeded) as exc:
        check_f0(rs, chevalley_constants(rs), 2, size_ceiling=10)
    assert exc.value.required == 27
    assert exc.value.ceiling == 10
    assert DEFAULT_SIZE_CEILING == 20000


def test_check_f0_refuses_module_of_another_type():
    """Every rank-2 type has the splitting weight (2, 2) at p = 2, so a
    prebuilt module is checked for its type along with p and the weight:
    a B2 module passed for A2 is refused, not read as A2's filtration."""
    a2, b2 = RS["A2"], RS["B2"]
    mod = build_weyl_module_p(b2, 2, splitting_weight(b2, 2))
    assert mod.lam == splitting_weight(a2, 2) == (2, 2)
    with pytest.raises(ValueError, match=r"of B2 mod 2 passed for "
                                         r"V\(\(2, 2\)\) of A2 mod 2"):
        check_f0(a2, chevalley_constants(a2), 2, module=mod)
    rep = check_f0(b2, chevalley_constants(b2), 2, module=mod)
    assert rep.cartan == "B2" and sum(rep.graded_dims) == mod.dim == 81


@pytest.mark.parametrize("name,p,lam,nonzero", [
    ("A2", 2, (2, 2), True), ("A2", 3, (4, 4), True),
    ("A2", 3, (1, 0), False), ("C2", 2, (2, 2), True),
    ("C2", 3, (4, 4), True), ("G2", 2, (2, 2), True),
    ("G2", 3, (1, 1), False)])
def test_norm_form_image_block_by_block(name, p, lam, nonzero):
    """F0 v as check_f0 forms it, lowering one weight block at a time, is
    the product of the dense operators with v, where it vanishes too (A2
    (1, 0) at p = 3 has no F^(2); G2 at p = 3 is taken at rho, whose
    module is small enough for dense operators)."""
    mod = build_weyl_module_p(RS[name], p, lam)
    want = mod.hw_vector()
    for beta in reversed(mod.rs.positive_roots):
        want = mod.op("F", beta, p - 1).toarray() @ want % p
    got = pbwgrade._norm_form_image(mod)
    assert got.dtype == np.int64
    assert got.tolist() == want.tolist()
    assert bool(want.any()) is nonzero


# -- the negative branch of the splitting criterion ------------------------


@pytest.fixture(params=["vanishes", "lands_low"])
def f0_faulted(request, monkeypatch, fresh_modules):
    """check_f0 on A1 at p = 3 sees a module whose F^(2) is faulted on the
    highest weight vector v: F0 v = F^(2) v either vanishes or lands in V_1.
    The filtration spans with F^(1) and F^(3) only, so it is unaffected."""
    real = pbwgrade.build_weyl_module_p

    def faulted(rs, p, lam, **_):
        mod = real(rs, p, lam)
        hw, beta = mod.hw_index, (1,)
        low = mod.weights.index((0,))
        inject_fault(mod, "F", beta, 2, row=low, col=hw,
                     delta=-int(mod.op("F", beta, 2).toarray()[low, hw]))
        if request.param == "lands_low":
            inject_fault(mod, "F", beta, 2, row=mod.weights.index((2,)),
                         col=hw, delta=1)
        return mod

    monkeypatch.setattr(pbwgrade, "build_weyl_module_p", faulted)


def test_check_f0_not_nonzero(f0_faulted):
    rep = check_f0(RS["A1"], chevalley_constants(RS["A1"]), 3)
    assert (rep.cartan, rep.p, rep.lam, rep.degree) == ("A1", 3, (4,), 2)
    assert rep.nonzero is False
    assert rep.graded_dims == (1, 1, 1, 1, 1)


NOT_NONZERO_CLI = {
    "table": "cartan: A1\np: 3\nweight: 4\ndegree: 2\nnonzero: false\n"
             "graded_dims: 1 1 1 1 1\ntool_version: " + __version__ + "\n",
    "csv": "field,value\ncartan,A1\np,3\nweight,4\ndegree,2\n"
           "nonzero,false\ngraded_dims,1 1 1 1 1\ntool_version,"
           + __version__ + "\n",
    "json": '{"cartan": "A1", "p": 3, "weight": [4], "degree": 2, '
            '"nonzero": false, "graded_dims": [1, 1, 1, 1, 1], '
            '"tool_version": "' + __version__ + '"}\n',
}


@pytest.mark.parametrize("fmt", sorted(NOT_NONZERO_CLI))
def test_check_f0_not_nonzero_cli(capsys, f0_faulted, fmt):
    code = cli.main(["check-f0", "--cartan", "A1", "--p", "3",
                     "--format", fmt])
    assert code == 0
    assert capsys.readouterr().out == NOT_NONZERO_CLI[fmt]


def test_faulted_ppower_breaks_filtration_completeness(fresh_modules):
    """Zeroing F^(1) on v_lam in V(2) of A1 at p = 2 leaves the weight 0
    unreachable: F^(2) v_lam still reaches -2, but nothing reaches 0, so the
    filtration spans 2 of 3 dimensions and says so."""
    mod = build_weyl_module_p(RS["A1"], 2, (2,))
    assert pbw_filtration(mod).graded_dims == (1, 1, 1)
    hw, mid = mod.hw_index, mod.weights.index((0,))
    inject_fault(mod, "F", (1,), 1, row=mid, col=hw,
                 delta=-int(mod.op("F", (1,), 1).toarray()[mid, hw]))
    with pytest.raises(IntegrityError, match="spans 2 of 3 dimensions"):
        pbw_filtration(mod)


def test_filtration_checks_survive_python_O():
    """The completeness check of the filtration, and the module
    precondition of check_f0, hold with asserts stripped."""
    code = "\n".join([
        "from pbwdeg.chevrep import chevalley_constants",
        "from pbwdeg.pbwgrade import check_f0, pbw_filtration",
        "from pbwdeg.rootsys import IntegrityError, build_root_system",
        "from pbwdeg import weylmod",
        "from pbwdeg.weylmod import WeylModuleP, build_weyl_module_p",
        "rs = build_root_system('A2')",
        "mod = build_weyl_module_p(rs, 2, (1, 1))",
        "def attempt(f, *args, error=IntegrityError):",
        "    try:",
        "        f(*args)",
        "    except error:",
        "        print('raised')",
        "attempt(check_f0, rs, chevalley_constants(build_root_system('B2')),",
        "        2, error=ValueError)",
        "attempt(lambda: check_f0(rs, chevalley_constants(rs), 2,",
        "                         module=mod), error=ValueError)",
        "WeylModuleP._ppower = lambda self, kind, beta, pe: {}",
        # only V(1, 1) is built again: its factor V(1, 0) is still the one
        # built before the patch, so the span has full rank
        "del weylmod._MODP_CACHE[('A2', 2, (1, 1), 'peeled')]",
        "attempt(pbw_filtration, build_weyl_module_p(rs, 2, (1, 1)))",
    ])
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised"] * 3


@pytest.mark.parametrize("name,p", [("A1", 2), ("A1", 3), ("A2", 2),
                                    ("C2", 2)])
def test_f0_order_invariance(name, p):
    rs = RS[name]
    mod = build_weyl_module_p(rs, p, splitting_weight(rs, p))
    assert check_F0_order_invariance(mod, trials=5) is True


def test_failed_order_invariance_is_logged(caplog, fresh_modules):
    """A fault in F_(1,0)^(1) on the highest weight vector of the A2
    splitting module at p = 2 makes the norm form depend on the root
    order: a WARNING on pbwdeg.pbwgrade, from the check itself, names the
    two orders."""
    rs = RS["A2"]
    mod = build_weyl_module_p(rs, 2, splitting_weight(rs, 2))
    inject_fault(mod, "F", (1, 0), 1, row=mod.weights.index((0, 3)),
                 col=mod.hw_index, delta=1)
    caplog.set_level(logging.WARNING, logger="pbwdeg.pbwgrade")
    assert check_F0_order_invariance(mod, trials=5) is False
    assert [(r.name, r.levelno, r.funcName, r.getMessage())
            for r in caplog.records] == \
        [("pbwdeg.pbwgrade", logging.WARNING, "check_F0_order_invariance",
          "norm form differs between orders (1, 2, 3) and (1, 3, 2)")]


def test_f0_commutes_with_simple_lowerings():
    # centrality at the module level, checked directly on matrices
    rs = RS["A2"]
    mod = build_weyl_module_p(rs, 2, (2, 2))
    n = len(rs.positive_roots)
    f0 = norm_form(mod, tuple(range(1, n + 1))).toarray()
    for beta in rs.positive_roots:
        a = mod.op("F", beta, 1).toarray()
        assert np.array_equal((f0 @ a) % 2, (a @ f0) % 2)


# -- primality --------------------------------------------------------------


def _trial_division_prime(n):
    return n >= 2 and all(n % q for q in range(2, int(n ** 0.5) + 1))


def test_prime_check_agrees_with_trial_division():
    for n in range(10 ** 4):
        assert _is_prime(n) == _trial_division_prime(n), n


@pytest.mark.parametrize("n", [561, 41041, 3215031751, 2 ** 61 + 1,
                               (2 ** 31 - 1) * (2 ** 31 - 1)])
def test_prime_check_rejects_pseudoprimes_and_composites(n):
    # 561 and 41041 are Carmichael numbers; 3215031751 is a strong
    # pseudoprime to the bases 2, 3, 5 and 7
    assert not _is_prime(n)
    with pytest.raises(ValueError, match="not prime"):
        _require_prime(n)


@pytest.mark.parametrize("n", [2, 3, 37, 41, 2 ** 31 - 1, 4294967311,
                               2 ** 61 - 1, 2 ** 64 - 59])
def test_prime_check_accepts_large_primes(n):
    assert _is_prime(n)
    _require_prime(n)


def test_prime_check_refuses_beyond_64_bits():
    with pytest.raises(ValueError, match="64-bit"):
        _require_prime(2 ** 89 - 1)
