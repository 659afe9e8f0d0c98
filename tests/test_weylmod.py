"""Tests for Weyl module construction over Z and over prime fields.

Frozen values are classical: fundamental and adjoint dimensions, dim V(rho)
= 2^(number of positive roots), dim V(2(p-1)rho) = (2p-1)^(number of
positive roots), hook content dims in type A, and sl2 string coefficients.
"""

import dataclasses
import math
import subprocess
import sys
from itertools import product

import numpy as np
import pytest

from pbwdeg.chevrep import (NonIntegralDividedPower, chevalley_constants,
                            divided_power_matrix, fundamental_rep,
                            root_lowering_operator, root_raising_operator)
from pbwdeg.rootsys import (IntegrityError, build_root_system,
                            splitting_weight, star_weight)
from pbwdeg.weylmod import (
    FundFactor,
    RankMismatch,
    TensorAmbient,
    WeylModuleP,
    build_weyl_lattice,
    build_weyl_module_p,
    freudenthal_multiplicities,
    reduce_mod_p,
    validate_lattice_relations,
    validate_relations,
    weyl_dim,
)

RS = {t: build_root_system(t) for t in
      ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "D4", "G2")}


# ---------------------------------------------------------------------------
# Weyl dimension formula

FROZEN_DIMS = [
    ("A1", (0,), 1), ("A1", (1,), 2), ("A1", (5,), 6), ("A1", (11,), 12),
    ("A2", (1, 0), 3), ("A2", (1, 1), 8), ("A2", (3, 0), 10),
    ("A2", (2, 1), 15), ("A2", (2, 2), 27),
    ("A3", (1, 0, 0), 4), ("A3", (0, 1, 0), 6), ("A3", (1, 0, 1), 15),
    ("A3", (0, 2, 0), 20), ("A3", (1, 1, 1), 64),
    ("B2", (1, 0), 5), ("B2", (0, 1), 4), ("B2", (2, 0), 14),
    ("B2", (0, 2), 10), ("B2", (1, 1), 16), ("B2", (2, 2), 81),
    ("B3", (1, 0, 0), 7), ("B3", (0, 1, 0), 21), ("B3", (0, 0, 1), 8),
    ("B3", (1, 1, 1), 512),
    ("C2", (1, 0), 4), ("C2", (0, 1), 5), ("C2", (2, 0), 10),
    ("C2", (0, 2), 14), ("C2", (1, 1), 16),
    ("C3", (1, 0, 0), 6), ("C3", (0, 1, 0), 14), ("C3", (0, 0, 1), 14),
    ("C3", (2, 0, 0), 21), ("C3", (1, 1, 1), 512),
    ("D4", (1, 0, 0, 0), 8), ("D4", (0, 1, 0, 0), 28),
    ("D4", (0, 0, 1, 0), 8), ("D4", (0, 0, 0, 1), 8),
    ("D4", (2, 0, 0, 0), 35), ("D4", (0, 0, 2, 0), 35),
    ("D4", (0, 0, 0, 2), 35), ("D4", (1, 1, 1, 1), 4096),
    ("G2", (1, 0), 7), ("G2", (0, 1), 14), ("G2", (2, 0), 27),
    ("G2", (1, 1), 64), ("G2", (3, 0), 77), ("G2", (0, 2), 77),
]


@pytest.mark.parametrize("name,lam,dim", FROZEN_DIMS)
def test_weyl_dim_frozen(name, lam, dim):
    assert weyl_dim(RS[name], lam) == dim


@pytest.mark.parametrize("name", sorted(RS))
@pytest.mark.parametrize("p", [2, 3, 5])
def test_weyl_dim_splitting_weight(name, p):
    rs = RS[name]
    assert weyl_dim(rs, splitting_weight(rs, p)) == (2 * p - 1) ** rs.n_positive


@pytest.mark.parametrize("name,lam", [
    ("A2", (2, 0)), ("A3", (1, 2, 0)), ("D4", (0, 1, 2, 3)), ("G2", (4, 1)),
])
def test_weyl_dim_star_symmetric(name, lam):
    rs = RS[name]
    assert weyl_dim(rs, lam) == weyl_dim(rs, star_weight(rs, lam))


# ---------------------------------------------------------------------------
# Freudenthal multiplicities

def test_freudenthal_a2_adjoint():
    rs = RS["A2"]
    m = freudenthal_multiplicities(rs, (1, 1))
    assert m == {(1, 1): 1, (-1, 2): 1, (2, -1): 1, (0, 0): 2,
                 (-2, 1): 1, (1, -2): 1, (-1, -1): 1}


def test_freudenthal_g2_seven():
    rs = RS["G2"]
    m = freudenthal_multiplicities(rs, (1, 0))
    assert sum(m.values()) == 7
    assert all(v == 1 for v in m.values())
    assert m[(0, 0)] == 1


@pytest.mark.parametrize("name,lam", [
    ("B2", (2, 0)), ("B3", (0, 1, 0)), ("C3", (2, 0, 0)),
    ("D4", (0, 1, 0, 0)), ("G2", (0, 1)),
])
def test_freudenthal_adjoint_zero_weight(name, lam):
    # in the adjoint module the zero weight space is the Cartan subalgebra
    rs = RS[name]
    m = freudenthal_multiplicities(rs, lam)
    zero = tuple(0 for _ in range(rs.rank))
    assert m[zero] == rs.rank
    assert all(v == 1 for w, v in m.items() if w != zero)
    assert sum(m.values()) == weyl_dim(rs, lam)


@pytest.mark.parametrize("name,lam", [
    ("A2", (2, 1)), ("A3", (0, 2, 0)), ("B2", (1, 1)), ("B3", (1, 0, 1)),
    ("C2", (1, 1)), ("C3", (1, 0, 1)), ("D4", (1, 0, 0, 1)), ("G2", (1, 1)),
])
def test_freudenthal_total_matches_weyl_dim(name, lam):
    rs = RS[name]
    m = freudenthal_multiplicities(rs, lam)
    assert sum(m.values()) == weyl_dim(rs, lam)
    # multiplicity is invariant under the diagram symmetry behind -w0
    star = star_weight(rs, lam)
    mstar = freudenthal_multiplicities(rs, star)
    assert sorted(m.values()) == sorted(mstar.values())


# ---------------------------------------------------------------------------
# tensor ambient against a dense Kronecker oracle

def _dense_op(ambient, kind, beta, k, p=None):
    """Sum over compositions of Kronecker products, assembled densely."""
    mats = []
    for factor in ambient.factors:
        per_k = {}
        for kk in range(k + 1):
            cols = factor.op_cols(kind, beta, kk)
            m = np.zeros((factor.dim, factor.dim), dtype=object)
            for c, pairs in cols.items():
                for r, v in pairs:
                    m[r, c] = v
            per_k[kk] = m
        mats.append(per_k)
    total = np.zeros((ambient.dim, ambient.dim), dtype=object)
    splits = [c for c in product(range(k + 1), repeat=len(mats))
              if sum(c) == k]
    for split in splits:
        term = np.eye(1, dtype=object)
        for factor_mats, kk in zip(mats, split):
            term = np.kron(term, factor_mats[kk])
        total = total + term
    if p is not None:
        total = total % p
    return total


@pytest.mark.parametrize("name,funds,kind,beta,k", [
    ("A2", (1, 2), "F", (1, 0), 1),
    ("A2", (1, 2), "F", (1, 0), 2),
    ("A2", (1, 2), "F", (1, 1), 2),
    ("A2", (1, 2), "E", (0, 1), 1),
    ("B2", (1, 2), "F", (1, 1), 2),
    ("B2", (1, 2), "E", (1, 2), 1),
    ("G2", (1, 1), "F", (2, 1), 2),
])
def test_tensor_apply_matches_kron(name, funds, kind, beta, k):
    rs = RS[name]
    ambient = TensorAmbient.over_z(rs, [fundamental_rep(rs, i) for i in funds])
    dense = _dense_op(ambient, kind, beta, k)
    for col in range(ambient.dim):
        got = ambient.apply_vec(kind, beta, k, {col: 1})
        want = {r: int(v) for r, v in enumerate(dense[:, col]) if v}
        assert got == want, (col, got, want)


def _dense_rep_power(rs, rep, kind, beta, a, p):
    sc = chevalley_constants(rs)
    op = root_lowering_operator if kind == "F" else root_raising_operator
    m = divided_power_matrix(op(rep, sc, beta), a)
    return np.array(m % p, dtype=np.int64)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name,lam", [("A2", (1, 1)), ("B2", (1, 1)),
                                      ("G2", (2, 0))])
def test_block_op_matrix_matches_kron_mod_p(name, lam, p):
    """Peeled ambient V_p(prev) (x) V(omega): every weight block of the
    coproduct operator equals the dense sum of np.kron products of the
    factor matrices, restricted to the source and target blocks."""
    rs = RS[name]
    mod = build_weyl_module_p(rs, p, lam, use_cache=False)
    ambient = mod.ambient
    prev, last = ambient.factors
    assert isinstance(prev, WeylModuleP) and isinstance(last, FundFactor)
    blocks = ambient.blocks()
    for kind, sign in (("E", 1), ("F", -1)):
        for beta in rs.positive_roots:
            shift = rs.root_fund(beta)
            for k in (1, p):
                dense = np.zeros((ambient.dim, ambient.dim), dtype=np.int64)
                for a in range(k + 1):
                    left = prev.op(kind, beta, a).toarray() % p
                    right = _dense_rep_power(rs, last.rep, kind, beta,
                                             k - a, p)
                    dense = (dense + np.kron(left, right)) % p
                covered = 0
                with ambient.op_scope():
                    for mu, src in blocks.items():
                        target = tuple(m + sign * k * s
                                       for m, s in zip(mu, shift))
                        dst = blocks.get(target)
                        if dst is None:
                            continue
                        index = {f: i for i, f in enumerate(dst)}
                        got = ambient.block_op_matrix(kind, beta, k, src,
                                                      index).toarray() % p
                        want = dense[np.ix_(dst, src)]
                        assert np.array_equal(got, want), (kind, beta, k, mu)
                        covered += int(np.count_nonzero(want))
                assert ambient._scope is None
                # the blocks account for every nonzero entry of the operator
                assert covered == int(np.count_nonzero(dense))


# ---------------------------------------------------------------------------
# exact weight arithmetic under corrupted root data


def _corrupt_gram(rs):
    gram = [list(row) for row in rs.gram]
    gram[0][0] += 1
    return dataclasses.replace(rs, gram=tuple(tuple(r) for r in gram))


@pytest.mark.parametrize("name", ["A2", "A3", "B2", "B3", "C2", "C3", "D4",
                                  "G2"])
def test_corrupted_gram_raises_integrity_error(name):
    rs = RS[name]
    bad = _corrupt_gram(rs)
    omega1 = tuple(1 if i == 0 else 0 for i in range(rs.rank))
    with pytest.raises(IntegrityError):
        freudenthal_multiplicities(bad, omega1)
    with pytest.raises(IntegrityError):
        weyl_dim(bad, omega1)
    # the untouched system is unaffected
    assert sum(freudenthal_multiplicities(rs, omega1).values()) == \
        weyl_dim(rs, omega1)


def test_corrupted_adjugate_breaks_weight_box():
    rs = RS["A2"]
    adj = [list(row) for row in rs.cartan_adj]
    adj[0][1] += 1
    bad = dataclasses.replace(rs, cartan_adj=tuple(tuple(r) for r in adj))
    with pytest.raises(IntegrityError, match="not integral"):
        freudenthal_multiplicities(bad, (1, 1))


def test_integrity_checks_survive_python_O():
    code = "\n".join([
        "import dataclasses",
        "from pbwdeg.rootsys import IntegrityError, build_root_system",
        "from pbwdeg.weylmod import freudenthal_multiplicities, weyl_dim",
        "rs = build_root_system('B2')",
        "g = [list(r) for r in rs.gram]",
        "g[0][0] += 1",
        "bad = dataclasses.replace(rs, gram=tuple(map(tuple, g)))",
        "for f in (freudenthal_multiplicities, weyl_dim):",
        "    try:",
        "        f(bad, (1, 0))",
        "    except IntegrityError:",
        "        print('raised')",
    ])
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised", "raised"]


# ---------------------------------------------------------------------------
# Z lattices

def test_a1_lattice_frozen():
    rs = RS["A1"]
    lat = build_weyl_lattice(rs, (2,))
    assert lat.dim == 3
    assert lat.weights == ((2,), (0,), (-2,))
    f = lat.op_int("F", (1,), 1).to_dense()
    assert f == [[0, 0, 0], [1, 0, 0], [0, 2, 0]]
    e = lat.op_int("E", (1,), 1).to_dense()
    assert e == [[0, 2, 0], [0, 0, 1], [0, 0, 0]]
    f2 = lat.op_int("F", (1,), 2).to_dense()
    assert f2 == [[0, 0, 0], [0, 0, 0], [1, 0, 0]]


LATTICE_SUITE = [
    ("A1", (4,)), ("A2", (1, 1)), ("A2", (2, 1)), ("A3", (1, 0, 1)),
    ("B2", (1, 1)), ("C2", (1, 1)), ("G2", (1, 0)), ("G2", (0, 1)),
]


@pytest.mark.parametrize("name,lam", LATTICE_SUITE)
def test_lattice_rank_and_multiplicities(name, lam):
    rs = RS[name]
    lat = build_weyl_lattice(rs, lam)
    assert lat.dim == weyl_dim(rs, lam)
    assert lat.weight_multiplicities() == freudenthal_multiplicities(rs, lam)
    assert lat.weights[lat.hw_index] == lam


@pytest.mark.parametrize("name,lam", LATTICE_SUITE)
def test_lattice_stability_under_divided_powers(name, lam):
    """Every E/F divided power for every positive root maps the lattice
    into itself; op_int would raise otherwise."""
    rs = RS[name]
    lat = build_weyl_lattice(rs, lam)
    for beta in rs.positive_roots:
        top = max((abs(rs.pairing(mu, beta)) for mu in lat.weights),
                  default=0)
        for k in range(1, top + 2):
            for kind in ("E", "F"):
                lat.op_int(kind, beta, k)
    assert not validate_lattice_relations(lat)


@pytest.mark.parametrize("name,lam", [("A2", (1, 1)), ("C2", (1, 1)),
                                      ("G2", (1, 0)), ("A1", (4,))])
def test_lattice_sl2_strings_on_highest_weight(name, lam):
    rs = RS[name]
    lat = build_weyl_lattice(rs, lam)
    hw = lat.hw_index
    for i in range(rs.rank):
        alpha = rs.simple_root(i)
        for a in range(1, lam[i] + 1):
            fa = lat.op_int("F", alpha, a)
            ea = lat.op_int("E", alpha, a)
            prod_col = {}
            for (r, c), v in fa.entries.items():
                if c == hw:
                    for (r2, c2), v2 in ea.entries.items():
                        if c2 == r:
                            prod_col[r2] = prod_col.get(r2, 0) + v2 * v
            prod_col = {r: v for r, v in prod_col.items() if v}
            assert prod_col == {hw: math.comb(lam[i], a)}, (i, a)


def test_lattice_divided_power_product_rule():
    lat = build_weyl_lattice(RS["A2"], (2, 1))
    beta = (1, 1)
    f1 = np.array(lat.op_int("F", beta, 1).to_dense(), dtype=object)
    f2 = np.array(lat.op_int("F", beta, 2).to_dense(), dtype=object)
    f3 = np.array(lat.op_int("F", beta, 3).to_dense(), dtype=object)
    assert np.array_equal(f1 @ f1, 2 * f2)
    assert np.array_equal(f1 @ f2, 3 * f3)


def test_nonintegral_divided_power_on_corrupted_lattice():
    """Shrinking one lattice line breaks admissibility and the integer
    solve for F^(2) must report it."""
    rs = RS["A1"]
    lat = build_weyl_lattice(rs, (2,))
    bad = lat.corrupt_block((-2,), scale=2)
    with pytest.raises(NonIntegralDividedPower):
        bad.op_int("F", (1,), 2)


# ---------------------------------------------------------------------------
# modules over F_p: direct span vs reduction of the Z lattice

MODP_SUITE = [
    ("A1", (3,), 2), ("A1", (4,), 3), ("A2", (1, 1), 2), ("A2", (1, 1), 3),
    ("A2", (2, 1), 2), ("B2", (1, 1), 2), ("C2", (1, 1), 2),
    ("C2", (0, 1), 3), ("G2", (1, 0), 2), ("A3", (1, 0, 1), 2),
]


@pytest.mark.parametrize("name,lam,p", MODP_SUITE)
def test_direct_span_equals_lattice_reduction(name, lam, p):
    """The two construction routes must produce the same per weight bases
    (both are reduced echelon in the same flat ambient) and operators."""
    rs = RS[name]
    direct = build_weyl_module_p(rs, p, lam, ambient_mode="flat",
                                 use_cache=False)
    reduced = reduce_mod_p(build_weyl_lattice(rs, lam), p)
    assert direct.dim == weyl_dim(rs, lam)
    assert direct.weights == reduced.weights
    for mod_w, red_w in zip(direct.block_weights(), reduced.block_weights()):
        assert mod_w == red_w
        assert np.array_equal(direct.block_rows(mod_w),
                              reduced.block_rows(red_w))
    for kind, beta, k in [("F", rs.simple_root(0), 1),
                          ("E", rs.simple_root(rs.rank - 1), 1),
                          ("F", rs.positive_roots[-1], 2)]:
        a = direct.op(kind, beta, k)
        b = reduced.op(kind, beta, k)
        assert (a != b).nnz == 0


@pytest.mark.parametrize("name,lam,p", [("A2", (1, 1), 2), ("C2", (1, 1), 2),
                                        ("A2", (2, 1), 3)])
def test_peeled_ambient_route_agrees(name, lam, p):
    rs = RS[name]
    flat = build_weyl_module_p(rs, p, lam, ambient_mode="flat",
                               use_cache=False)
    peeled = build_weyl_module_p(rs, p, lam, ambient_mode="peeled",
                                 use_cache=False)
    assert flat.dim == peeled.dim
    assert flat.weight_multiplicities() == peeled.weight_multiplicities()
    from pbwdeg.exactla import SparsePrimeMatrix, rank_mod_p

    for kind, beta, k in [("F", rs.simple_root(0), 1),
                          ("F", rs.positive_roots[-1], 1),
                          ("E", rs.simple_root(0), 2)]:
        ra = rank_mod_p(SparsePrimeMatrix.from_dense(
            flat.op(kind, beta, k).toarray(), p))
        rb = rank_mod_p(SparsePrimeMatrix.from_dense(
            peeled.op(kind, beta, k).toarray(), p))
        assert ra == rb


def test_modp_weight_dims_match_freudenthal():
    for name, lam, p in MODP_SUITE[:6]:
        rs = RS[name]
        mod = build_weyl_module_p(rs, p, lam)
        assert mod.weight_multiplicities() == \
            freudenthal_multiplicities(rs, lam)


def test_a1_p2_frozen_operators():
    rs = RS["A1"]
    mod = build_weyl_module_p(rs, 2, (2,), use_cache=False)
    assert mod.weights == ((2,), (0,), (-2,))
    assert mod.op("F", (1,), 1).toarray().tolist() == \
        [[0, 0, 0], [1, 0, 0], [0, 0, 0]]
    assert mod.op("F", (1,), 2).toarray().tolist() == \
        [[0, 0, 0], [0, 0, 0], [1, 0, 0]]
    assert mod.op("E", (1,), 1).toarray().tolist() == \
        [[0, 0, 0], [0, 0, 1], [0, 0, 0]]
    assert mod.op("E", (1,), 2).toarray().tolist() == \
        [[0, 0, 1], [0, 0, 0], [0, 0, 0]]


def test_modp_sl2_string_on_highest_weight():
    rs = RS["A2"]
    for p in (2, 3):
        mod = build_weyl_module_p(rs, p, (2, 2), use_cache=False)
        v = np.zeros(mod.dim, dtype=np.int64)
        v[mod.hw_index] = 1
        for i in range(rs.rank):
            alpha = rs.simple_root(i)
            for a in (1, 2):
                w = mod.op("E", alpha, a) @ (mod.op("F", alpha, a) @ v)
                expect = v * (math.comb(2, a) % p)
                assert np.array_equal(w % p, expect), (p, i, a)


def test_modp_lucas_divided_power_consistency():
    rs = RS["A2"]
    mod = build_weyl_module_p(rs, 3, (2, 1), use_cache=False)
    beta = (1, 1)
    f1 = mod.op("F", beta, 1).toarray()
    f2 = mod.op("F", beta, 2).toarray()
    f3 = mod.op("F", beta, 3).toarray()
    f4 = mod.op("F", beta, 4).toarray()
    assert np.array_equal((f1 @ f1) % 3, (2 * f2) % 3)
    assert np.array_equal((f1 @ f3) % 3, f4 % 3)  # C(4,1) = 4 = 1 mod 3
    assert not np.array_equal(f2, np.zeros_like(f2)) or mod.dim < 3


def test_modp_determinism():
    rs = RS["C2"]
    a = build_weyl_module_p(rs, 2, (1, 1), use_cache=False)
    b = build_weyl_module_p(rs, 2, (1, 1), use_cache=False)
    assert a.weights == b.weights
    for w in a.block_weights():
        assert np.array_equal(a.block_rows(w), b.block_rows(w))
    for beta in rs.positive_roots:
        assert (a.op("F", beta, 1) != b.op("F", beta, 1)).nnz == 0


def test_rank_mismatch_on_bad_seed():
    """Spanning from a vector that is not a highest weight vector of the
    claimed weight cannot reach the full Weyl module."""
    rs = RS["A1"]
    with pytest.raises(RankMismatch):
        build_weyl_module_p(rs, 3, (2,), use_cache=False,
                            seed_override={2: 1})


def test_validate_relations_clean():
    mod = build_weyl_module_p(RS["A2"], 2, (1, 1), use_cache=False)
    assert validate_relations(mod) == []


def test_validate_relations_locates_fault():
    mod = build_weyl_module_p(RS["A2"], 2, (1, 1), use_cache=False)
    mod.inject_fault("F", (1, 0), 1, row=1, col=mod.hw_index, delta=1)
    witnesses = validate_relations(mod)
    assert witnesses
    w = witnesses[0]
    assert "E_1" in w.relation and "F_1" in w.relation
    # the reported column must genuinely violate [E_1, F_1] = H_1
    a = (1, 0)
    ei = mod.op("E", a, 1).toarray()
    fi = mod.op("F", a, 1).toarray()
    defect = (ei @ fi - fi @ ei) % 2
    for j, mu in enumerate(mod.weights):
        defect[j, j] = (defect[j, j] - RS["A2"].pairing(mu, a)) % 2
    assert np.any(defect[:, w.basis_index])


def test_trivial_weight():
    rs = RS["A2"]
    assert weyl_dim(rs, (0, 0)) == 1
    mod = build_weyl_module_p(rs, 2, (0, 0), use_cache=False)
    assert mod.dim == 1
    assert mod.op("F", (1, 0), 1).toarray().tolist() == [[0]]


def test_heights_nondecreasing_in_basis_order():
    rs = RS["B2"]
    mod = build_weyl_module_p(rs, 2, (1, 1), use_cache=False)
    lam = (1, 1)
    hts = []
    for mu in mod.weights:
        c = rs.to_root_coords(tuple(a - b for a, b in zip(lam, mu)))
        hts.append(sum(c))
    assert hts == sorted(hts)
    assert mod.hw_index == 0
