"""Tests for the PBW filtration, graded dimensions and the norm-form check.

Frozen profiles below were produced by tests/dense_oracle.py (literal
ordered-monomial spans with exact integer divided powers, dense Gauss)
before the incremental engine was written.
"""

import json

import numpy as np
import pytest

from pbwdeg import __version__
from pbwdeg.chevrep import chevalley_constants
from pbwdeg.exactla import DenseEchelonModP, SparsePrimeMatrix
from pbwdeg.rootsys import build_root_system, splitting_weight
from pbwdeg.pbwgrade import (DEFAULT_SIZE_CEILING, F0Report, PBWGraded,
                             SizeCeilingExceeded, _is_prime, _require_prime,
                             build_F0, check_f0, check_F0_order_invariance,
                             pbw_filtration)
from pbwdeg.weylmod import build_weyl_module_p

from dense_oracle import DenseModule, f0_nonzero_in_graded
from dense_oracle import graded_dims as oracle_graded_dims

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
    assert g.complete
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


def test_filtration_basis_counts_and_seed():
    mod = build_weyl_module_p(RS["A2"], 2, (1, 1))
    g = pbw_filtration(mod)
    cum = g.cumulative_dims()
    b0 = g.filtration_basis(0)
    assert b0.shape == (1, mod.dim)
    assert b0[0, mod.hw_index] == 1 and b0.sum() == 1
    for n in range(g.n_top + 1):
        assert g.filtration_basis(n).shape[0] == cum[n]


def test_lowering_respects_filtration_degrees():
    # F_beta^(k) V_n lands in V_{n+k}
    mod = build_weyl_module_p(RS["C2"], 2, (1, 1))
    g = pbw_filtration(mod)
    for beta in RS["C2"].positive_roots:
        for k in (1, 2):
            for n in range(g.n_top + 1):
                m = min(n + k, g.n_top)
                target = DenseEchelonModP(2, mod.dim)
                for row in g.filtration_basis(m):
                    target.add_row(row)
                op = mod.op("F", beta, k)
                for row in g.filtration_basis(n):
                    img = (op @ row) % 2
                    assert target.contains(img)


def test_n_max_truncation():
    mod = build_weyl_module_p(RS["A2"], 2, (2, 1))
    full = pbw_filtration(mod)
    part = pbw_filtration(mod, n_max=2)
    assert part.cumulative_dims() == full.cumulative_dims()[:3]
    assert not part.complete
    assert full.complete


def test_build_f0_a1_matches_divided_powers():
    for p, k in [(2, 1), (3, 2)]:
        mod = build_weyl_module_p(RS["A1"], p, splitting_weight(RS["A1"], p))
        f0 = build_F0(mod, (1,))
        expect = mod.op("F", (1,), k).toarray()
        assert isinstance(f0, SparsePrimeMatrix)
        assert np.array_equal(f0.to_dense(), expect % p)


def test_build_f0_order_independent_a2():
    mod = build_weyl_module_p(RS["A2"], 2, (2, 2))
    assert build_F0(mod, (1, 2, 3)) == build_F0(mod, (3, 2, 1))


def test_build_f0_rejects_bad_orders():
    mod = build_weyl_module_p(RS["A2"], 2, (2, 2))
    with pytest.raises(ValueError):
        build_F0(mod, (1, 1, 2))
    with pytest.raises(ValueError):
        build_F0(mod, (0, 1, 2))
    with pytest.raises(ValueError):
        build_F0(mod, (1, 2))


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
    assert rep.elapsed_ms >= 0


@pytest.mark.parametrize("name", ["A2", "C2", "B2"])
def test_check_f0_agrees_with_oracle(name):
    rs = RS[name]
    rep = check_f0(rs, chevalley_constants(rs), 2)
    dense = DenseModule(rs, splitting_weight(rs, 2), 2)
    assert rep.nonzero == f0_nonzero_in_graded(dense)


def test_f0_report_json_schema():
    rs = RS["A1"]
    rep = check_f0(rs, chevalley_constants(rs), 3)
    payload = json.loads(rep.to_json())
    assert set(payload) == {"cartan", "p", "weight", "degree", "nonzero",
                            "graded_dims", "elapsed_ms", "tool_version"}
    assert payload["cartan"] == "A1"
    assert payload["weight"] == [4]
    assert payload["degree"] == 2
    assert payload["nonzero"] is True
    assert payload["graded_dims"] == [1, 1, 1, 1, 1]
    assert payload["tool_version"] == __version__


def test_f0_report_deterministic_up_to_timing():
    rs = RS["A2"]
    sc = chevalley_constants(rs)
    a = json.loads(check_f0(rs, sc, 2).to_json())
    b = json.loads(check_f0(rs, sc, 2).to_json())
    a["elapsed_ms"] = b["elapsed_ms"] = 0
    assert a == b


def test_size_ceiling_refusal():
    rs = RS["A2"]
    with pytest.raises(SizeCeilingExceeded) as exc:
        check_f0(rs, chevalley_constants(rs), 2, size_ceiling=10)
    assert exc.value.required == 27
    assert exc.value.ceiling == 10
    assert DEFAULT_SIZE_CEILING == 20000


@pytest.mark.parametrize("name,p", [("A1", 2), ("A1", 3), ("A2", 2),
                                    ("C2", 2)])
def test_f0_order_invariance(name, p):
    rs = RS[name]
    mod = build_weyl_module_p(rs, p, splitting_weight(rs, p))
    assert check_F0_order_invariance(mod, trials=5) is True


def test_f0_commutes_with_simple_lowerings():
    # centrality at the module level, checked directly on matrices
    rs = RS["A2"]
    mod = build_weyl_module_p(rs, 2, (2, 2))
    n = len(rs.positive_roots)
    f0 = build_F0(mod, tuple(range(1, n + 1))).to_dense()
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
