"""Tests for Weyl module construction over Z and over prime fields.

Frozen values are classical: fundamental and adjoint dimensions, dim V(rho)
= 2^(number of positive roots), dim V(2(p-1)rho) = (2p-1)^(number of
positive roots), hook content dims in type A, and sl2 string coefficients.
"""

import dataclasses
import hashlib
import logging
import math
import re
import subprocess
import sys
from itertools import product

import numpy as np
import pytest

from pbwdeg import chevrep, weylmod
from pbwdeg.chevrep import (NonIntegralDividedPower, chevalley_constants,
                            divided_power_matrix, fundamental_rep,
                            root_operator)
from pbwdeg.degenring import cartan_component_map
from pbwdeg.exactla import DenseEchelonModP, _is_prime
from pbwdeg.pbwgrade import pbw_filtration
from pbwdeg.rootsys import (IntegrityError, build_root_system,
                            splitting_weight, star_weight)
from faults import inject_fault, set_block_rows, shrink_weight_space
from pbwdeg.weylmod import (
    FundFactor,
    TensorAmbient,
    WeightBlocks,
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
    # the walk caps a span at these values for its seed weight, so a weight
    # that is not dominant is refused rather than given a bogus character
    with pytest.raises(ValueError, match="dominant"):
        freudenthal_multiplicities(rs, (-1, 2))
    assert (-1, 2) not in rs.multiplicities


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


@pytest.mark.parametrize("name,lam", [("C3", (2, 2, 2)),
                                      ("D4", (1, 1, 1, 1))])
def test_freudenthal_total_matches_weyl_dim_on_large_weights(name, lam):
    """19683 and 4096 dimensions, from few dominant weights."""
    rs = RS[name]
    assert sum(freudenthal_multiplicities(rs, lam).values()) == \
        weyl_dim(rs, lam)


@pytest.mark.parametrize("name", sorted(RS))
def test_freudenthal_cached_on_root_system(name, monkeypatch):
    """A second call for the same (rs, lam) reads the cache kept on rs; a
    copy of rs starts empty, recomputes, and finds the same values.  The
    cache takes no part in equality or hashing."""
    rs = dataclasses.replace(RS[name])
    lam = rs.rho
    first = freudenthal_multiplicities(rs, lam)
    boxes = []
    real_box = weylmod._WeightBox
    monkeypatch.setattr(weylmod, "_WeightBox",
                        lambda *args: boxes.append(args) or real_box(*args))
    assert freudenthal_multiplicities(rs, list(lam)) is first
    assert boxes == []
    copy = dataclasses.replace(rs)
    assert freudenthal_multiplicities(copy, lam) == first
    assert len(boxes) == 1
    assert sum(first.values()) == weyl_dim(rs, lam)
    assert copy == rs and hash(copy) == hash(rs) == hash(RS[name])


# ---------------------------------------------------------------------------
# tensor ambient against a dense Kronecker oracle

def _factor_powers(ambient, kind, beta, k):
    """X^(0), ..., X^(k) on each factor, straight from divided_power_matrix
    (not from the factors' tables)."""
    sc = chevalley_constants(ambient.rs)
    return [[divided_power_matrix(root_operator(f.rep, sc, kind, beta), a)
             for a in range(k + 1)] for f in ambient.factors]


def _dense_op(mats, k):
    """Sum over compositions of k of Kronecker products of the factor
    powers mats[j][a], assembled densely; compositions through a zero
    power are skipped."""
    dim = math.prod(m[0].shape[0] for m in mats)
    total = np.zeros((dim, dim), dtype=object)
    for split in product(range(k + 1), repeat=len(mats)):
        if sum(split) != k or any(not m[a].any()
                                  for m, a in zip(mats, split)):
            continue
        term = np.eye(1, dtype=object)
        for m, a in zip(mats, split):
            term = np.kron(term, m[a])
        total = total + term
    return total


def _top_order(powers) -> int:
    """The last nonzero order; every later one is checked to be zero."""
    top = max(a for a, m in enumerate(powers) if m.any())
    assert top < len(powers) - 1
    return top


@pytest.mark.parametrize("name,funds,kind,beta,k", [
    ("A2", (1, 2), "F", (1, 0), 1),
    ("A2", (1, 2), "F", (1, 0), 2),
    ("A2", (1, 2), "F", (1, 1), 2),
    ("A2", (1, 2), "E", (0, 1), 1),
    ("B2", (1, 2), "F", (1, 1), 2),
    ("B2", (1, 2), "E", (1, 2), 1),
    ("G2", (1, 1), "F", (2, 1), 2),
    # every order from 0 to one past the sum of the factors' top orders
    pytest.param("A2", (1, 2, 1, 2), "F", (1, 1), None, id="A2x4-F-all"),
    pytest.param("A2", (1, 2, 1, 2), "E", (1, 1), None, id="A2x4-E-all"),
    pytest.param("B2", (1, 2, 1), "F", (1, 1), None, id="B2x3-F-all"),
    pytest.param("B2", (2, 1, 2), "E", (1, 2), None, id="B2x3-E-all"),
    pytest.param("B2", (2, 2, 2, 2), "F", (1, 2), None, id="B2x4-F-all"),
    pytest.param("B2", (2, 2, 2, 2), "E", (1, 1), None, id="B2x4-E-all"),
    pytest.param("G2", (1, 1, 1), "F", (2, 1), None, id="G2x3-F-all"),
    pytest.param("G2", (1, 1, 1), "E", (3, 2), None, id="G2x3-E-all"),
    pytest.param("G2", (1, 1, 1), "E", (1, 1), None, id="G2x3-E-short"),
    # the bootstrapped type C fundamentals and the exterior power of D4
    pytest.param("C3", (2, 3), "F", (1, 1, 1), None, id="C3x2-F-all"),
    pytest.param("C3", (3, 2), "E", (0, 2, 1), None, id="C3x2-E-all"),
    pytest.param("D4", (2, 3), "F", (0, 1, 1, 1), None, id="D4x2-F-all"),
    pytest.param("D4", (4, 2), "E", (1, 2, 1, 1), None, id="D4x2-E-all"),
])
def test_tensor_apply_matches_kron(name, funds, kind, beta, k):
    """apply_vec on every basis vector equals the column of the dense sum
    of Kronecker products.  With k None, every order is checked, up to
    one past the sum of the factors' top orders, where the image is {}."""
    rs = RS[name]
    ambient = TensorAmbient.over_z(rs, [fundamental_rep(rs, i) for i in funds])
    if k is None:
        mats = _factor_powers(ambient, kind, beta, 4)
        total = sum(map(_top_order, mats))
        mats = _factor_powers(ambient, kind, beta, total + 1)
        orders = range(total + 2)
    else:
        mats = _factor_powers(ambient, kind, beta, k)
        orders = [k]
    for kk in orders:
        dense = _dense_op(mats, kk)
        for col in range(ambient.dim):
            got = ambient.apply_vec(kind, beta, kk, {col: 1})
            want = {r: int(v) for r, v in enumerate(dense[:, col]) if v}
            assert got == want, (kk, col, got, want)


def test_divided_powers_computed_once_per_rep(fresh_modules, monkeypatch):
    """Two lattices of one type, then a module mod p of that type: every
    tensor factor reads its representation's one table, so no order of
    a root operator on a representation is computed a second time."""
    monkeypatch.setattr(chevrep, "_FUND_CACHE", {})
    assert not hasattr(weylmod, "divided_power_matrix")
    calls, kept = [], []
    real = chevrep.divided_power_matrix

    def counted(m, k):
        kept.append(m)  # keeps id(m) unique while the test runs
        calls.append((id(m), k))
        return real(m, k)

    monkeypatch.setattr(chevrep, "divided_power_matrix", counted)
    rs = RS["B2"]
    build_weyl_lattice(rs, (1, 1))
    assert calls
    build_weyl_lattice(rs, (2, 1))
    build_weyl_module_p(rs, 2, (1, 2))
    assert len(set(calls)) == len(calls), calls


# sha256 of the HNF rows of build_weyl_lattice, per weight block, and of
# op_int("F", alpha_1, 1) on G2 (1, 1), recorded from the walk over every
# composition of k, before it was pruned
LATTICE_PIN_CASES = [
    ("A2", (2, 1)), ("A3", (1, 0, 1)), ("B2", (1, 1)), ("B3", (0, 1, 0)),
    ("C2", (1, 1)), ("C3", (0, 1, 0)), ("G2", (1, 0)), ("G2", (0, 1)),
    ("A2", (3, 0)), ("B2", (0, 3)), ("C2", (1, 2)), ("G2", (1, 1))]
LATTICE_PIN = \
    "2454543029285802cd5bd65b9cfd8e6ae240ccccdbea10118ac0c349add7e3f1"
OP_INT_PIN = \
    "9c32717a9d52ec3e402b1f9a3e407a3e5c71c24a227f84396ff2cb250b03d46d"


def test_lattice_bases_pinned():
    """The lattice bases, which reduce_mod_p and LatticeModuleP read, and
    one lattice operator are bit for bit the recorded ones."""
    h = hashlib.sha256()
    for name, lam in LATTICE_PIN_CASES:
        lat = build_weyl_lattice(RS[name], lam)
        assert lat.dim == weyl_dim(RS[name], lam) <= 100
        h.update(repr((name, lam, [
            (b.weight, [sorted(r.items()) for r in b.final.rows])
            for b in lat.blocks])).encode())
    assert h.hexdigest() == LATTICE_PIN
    rs = RS["G2"]
    ops = build_weyl_lattice(rs, (1, 1)).op_int("F", rs.simple_root(0), 1)
    assert hashlib.sha256(repr(sorted(ops.entries.items())).encode()) \
        .hexdigest() == OP_INT_PIN


@pytest.mark.parametrize("name,lam", [
    ("B3", (0, 1, 0)), ("C3", (0, 1, 0)), ("G2", (1, 1))])
def test_z_span_applies_lowerings_only_inside_the_module(
        fresh_modules, monkeypatch, name, lam):
    """The Z span follows each alpha_i-string only as far as V(lam)
    reaches: every apply_vec call of a fresh lattice build lands on a
    weight of positive multiplicity.  The Weyl character is only this
    test's oracle; the walk reads its own blocks.  Each call is one step
    of a ladder, k = 1."""
    rs = RS[name]
    # built first: the type C bootstrap reaches apply_vec through op_int,
    # whose check that an image leaves the lattice lowers off the module
    for i in range(1, rs.rank + 1):
        fundamental_rep(rs, i)
    mults = freudenthal_multiplicities(rs, lam)
    real = TensorAmbient.apply_vec
    targets = []

    def traced(self, kind, beta, k, vec):
        assert k == 1, (kind, beta, k)
        src = self.weight_of(next(iter(vec)))
        shift = rs.root_fund(beta)
        targets.append(tuple(a - k * s for a, s in zip(src, shift)))
        return real(self, kind, beta, k, vec)

    with monkeypatch.context() as m:
        m.setattr(TensorAmbient, "apply_vec", traced)
        lat = build_weyl_lattice(rs, lam)
    assert lat.dim == weyl_dim(rs, lam)
    assert targets
    outside = sum(not mults.get(t) for t in targets)
    assert outside == 0, f"{outside} of {len(targets)} calls leave V({lam})"


# sha256 of the weights and the per weight echelon rows and pivots of
# build_weyl_module_p, recorded from the span walk by weight-box height
# before the module build moved onto filter_from_seed
MODULE_PIN_CASES = [
    ("A2", (2, 1), 3, "peeled"), ("B2", (1, 1), 2, "peeled"),
    ("C3", (0, 1, 1), 2, "peeled"), ("D4", (0, 1, 0, 0), 3, "peeled"),
    ("G2", (1, 1), 2, "peeled"), ("G2", (1, 1), 3, "peeled"),
    ("B3", (0, 1, 1), 2, "peeled"), ("A2", (1, 1), 2, "flat"),
    ("G2", (1, 1), 2, "flat")]
MODULE_PIN = \
    "2e10e02e74adf4d7e8cc1115c162105419bf2521c387890831258d26205a6acc"


def test_module_bases_pinned():
    """The mod-p module bases, which every operator and filtration reads,
    are bit for bit the recorded ones, peeled and flat."""
    h = hashlib.sha256()
    for name, lam, p, mode in MODULE_PIN_CASES:
        mod = build_weyl_module_p(RS[name], p, lam, ambient_mode=mode)
        assert isinstance(mod, WeylModuleP)
        h.update(repr((mod.weights, [(b.weight, b.rows.tolist(), b.pivots)
                                     for b in mod.blocks])).encode())
    assert h.hexdigest() == MODULE_PIN


# sha256 of the degree-tagged rows of filter_from_seed, which the T rows of
# degenring are built from, recorded from the walk that offered each image
# to its block as it was made: the PBW filtrations of four check_f0
# modules, then the image and factor filtrations of three component maps
# (B3 (0,1,0) at p=2 is the lattice fallback)
TAGGED_PIN_F0 = [("A2", 3), ("C2", 2), ("C2", 3), ("G2", 2)]
TAGGED_PIN_MULT = [("G2", (1, 0), (0, 1), 3), ("A2", (1, 1), (1, 0), 2),
                   ("B3", (0, 1, 0), (0, 0, 1), 2)]
TAGGED_PIN = \
    "5b0d60ae3a60c681924430714da0112e97a0a39c1b34e77507fe713fcfe4c54b"


def test_tagged_rows_pinned():
    """Every tagged row and its degree, not only the graded dims, stay the
    recorded ones."""
    graded = [pbw_filtration(build_weyl_module_p(
        RS[name], p, splitting_weight(RS[name], p)))
        for name, p in TAGGED_PIN_F0]
    for name, lam, mu, p in TAGGED_PIN_MULT:
        cm = cartan_component_map(RS[name], chevalley_constants(RS[name]),
                                  lam, mu, p)
        graded += [cm.image, *cm.factor_graded]
    h = hashlib.sha256()
    for g in graded:
        for w, _, degs, rows in g.tagged_blocks():
            h.update(repr((w, degs.tolist(), rows.tolist())).encode())
    assert h.hexdigest() == TAGGED_PIN


LADDER_CHECK = "\n".join([
    "from pbwdeg import weylmod",
    "from pbwdeg.chevrep import fundamental_rep",
    "from pbwdeg.rootsys import IntegrityError, build_root_system",
    "rs = build_root_system('B2')",
    "amb = weylmod.TensorAmbient.over_z(rs, [fundamental_rep(rs, 1)])",
    "beta = (0, 1)",
    "print(amb.apply_vec('F', beta, 2, {1: 1}))",
    "# F e_1 = e_2 and F e_2 = 2 e_3: make the second entry 3",
    "stride, dim, cols = amb._tables['F', beta][0]",
    "(shift, v), = cols[2]",
    "cols[2] = ((shift, v + 1),)",
    "for f, *args in ((amb.apply_vec, 'F', beta, 2, {1: 1}),",
    "                 (weylmod._lattice, rs, (1, 0), amb)):",
    "    try:",
    "        f(*args)",
    "    except IntegrityError as exc:",
    "        print(exc)",
])


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_ladder_refuses_a_quotient_that_is_not_exact(flags):
    """With one X^(1) entry of an ambient corrupted, F F v is no longer
    divisible by 2: apply_vec and the Z span each raise IntegrityError
    naming the kind, the root and the order, with asserts on or
    stripped, instead of flooring the quotient."""
    proc = subprocess.run([sys.executable, *flags, "-c", LADDER_CHECK],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    first, *errors = proc.stdout.splitlines()
    assert first == "{3: 1}"
    assert len(errors) == 2
    for line in errors:
        assert line.startswith("F^(2) at root (0, 1) is not integral"), line
        assert line.endswith("2 does not divide 3 at 3"), line


def test_ambient_operators_refuse_the_other_ring():
    """apply_vec is the exact action over Z and block_op_matrix a block of
    the operator mod p: each refuses an ambient over the other ring."""
    rs = RS["A2"]
    rep = fundamental_rep(rs, 1)
    with pytest.raises(ValueError, match="over Z"):
        TensorAmbient(rs, [FundFactor(rs, rep)], 2).apply_vec(
            "F", (1, 0), 1, {0: 1})
    with pytest.raises(ValueError, match="over F_p"):
        TensorAmbient.over_z(rs, [rep]).block_op_matrix("F", (1, 0), 1,
                                                        (1, 0))


def _dense_rep_power(rs, rep, kind, beta, a, p):
    sc = chevalley_constants(rs)
    m = divided_power_matrix(root_operator(rep, sc, kind, beta), a)
    return np.array(m % p, dtype=np.int64)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name,lam", [
    ("A2", (1, 1)), ("B2", (1, 1)), ("G2", (2, 0)),
    pytest.param("A2", ((1, 0), (1, 1)), id="A2-pair")])
def test_block_op_matrix_matches_kron_mod_p(name, lam, p):
    """Peeled ambient V_p(prev) (x) V(omega), and the component map's
    space V_p(lam) (x) V_p(mu) for a pair of weights: the whole coproduct
    operator and every weight block of it equal the dense sum of np.kron
    products of the factor matrices."""
    rs = RS[name]
    if isinstance(lam[0], tuple):
        prev, last = (build_weyl_module_p(rs, p, w) for w in lam)
        ambient = TensorAmbient(rs, [prev, last], p)

        def right(kind, beta, a):
            return last.op(kind, beta, a).toarray() % p
    else:
        mod = build_weyl_module_p(rs, p, lam)
        ambient = mod.ambient
        prev, last = ambient.factors
        assert isinstance(prev, WeylModuleP) and isinstance(last, FundFactor)

        def right(kind, beta, a):
            return _dense_rep_power(rs, last.rep, kind, beta, a, p)
    blocks = ambient.layout.flats
    for kind in ("E", "F"):
        for beta in rs.positive_roots:
            for k in (1, p):
                dense = np.zeros((ambient.dim, ambient.dim), dtype=np.int64)
                for a in range(k + 1):
                    left = prev.op(kind, beta, a).toarray() % p
                    dense = (dense + np.kron(left, right(kind, beta, k - a))) \
                        % p
                assert np.array_equal(
                    ambient.op(kind, beta, k).toarray() % p, dense)
                covered = 0
                for mu, src in blocks.items():
                    got = ambient.block_op_matrix(kind, beta, k, mu)
                    want = np.zeros_like(dense)
                    want[:, src] = dense[:, src]
                    assert np.array_equal(got.toarray(), want), \
                        (kind, beta, k, mu)
                    assert got.nnz == np.count_nonzero(want)
                    covered += got.nnz
                # the blocks account for every nonzero entry of the operator
                assert covered == int(np.count_nonzero(dense))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name,lam", [("A2", (2, 1)), ("G2", (2, 1))])
def test_flat_coproduct_matches_kron_mod_p(name, lam, p):
    """Three fundamental factors, omega_1 (x) omega_1 (x) omega_2: the
    coproduct of every divided power equals the dense sum of np.kron
    products over the compositions of its order, and keeps no zero
    entry.  The G2 factors have exact entries 2 and 3, which vanish mod
    p, so the factors' residues drop entries there."""
    rs = RS[name]
    reps = [fundamental_rep(rs, i) for i in (1, 1, 2)]
    ambient = TensorAmbient(rs, [FundFactor(rs, r) for r in reps], p)
    vanish = False
    for kind in ("E", "F"):
        for beta in rs.positive_roots:
            for k in (1, p):
                dense = np.zeros((ambient.dim, ambient.dim), dtype=np.int64)
                for a in range(k + 1):
                    for b in range(k - a + 1):
                        m = [_dense_rep_power(rs, r, kind, beta, e, p)
                             for r, e in zip(reps, (a, b, k - a - b))]
                        dense = (dense + np.kron(np.kron(m[0], m[1]), m[2])) \
                            % p
                got = ambient.op(kind, beta, k)
                assert np.array_equal(got.toarray(), dense), (kind, beta, k)
                assert got.nnz == np.count_nonzero(dense)
                vanish |= any(
                    v % p == 0 for f in ambient.factors
                    for table in f.powers(kind, beta)[:k]
                    for pairs in table.values() for _, v in pairs)
    assert vanish == (name == "G2")


def test_prime_beyond_int64_bound_refused():
    """A2 (2,1) at p near 2^32 overflowed int64 residue products and
    stopped on a closure assertion; it is now refused before the build,
    and the largest p the message names builds correctly."""
    rs = RS["A2"]
    with pytest.raises(ValueError, match="largest safe p") as exc:
        build_weyl_module_p(rs, 4294967311, (2, 1))
    width, limit = map(int, re.findall(r"\d+", str(exc.value))[-2:])
    assert width * (limit - 1) ** 2 < 2 ** 63 <= width * limit ** 2
    q = next(n for n in range(limit, 0, -1) if _is_prime(n))
    graded = [pbw_filtration(build_weyl_module_p(rs, r, (2, 1))).graded_dims
              for r in (q, 1000003)]
    assert graded[0] == graded[1] == (1, 3, 5, 6)


NONPRIME_CHECK = "\n".join([
    "import resource, sys",
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))",
    "from pbwdeg import degenring, weylmod",
    "from pbwdeg.rootsys import build_root_system",
    "rs, p = build_root_system('A2'), int(sys.argv[1])",
    "lat = weylmod.build_weyl_lattice(rs, (1, 1))",
    "mods = [weylmod.build_weyl_module_p(rs, 2, w) for w in ((1, 0), (0, 1))]",
    "for make in (lambda: weylmod.build_weyl_module_p(rs, p, (1, 1)),",
    "             lambda: weylmod.reduce_mod_p(lat, p),",
    "             lambda: degenring.CartanComponentMap(",
    "                 rs, p, [(1, 0), (0, 1)], mods),",
    "             lambda: weylmod.filter_from_seed(weylmod.TensorAmbient(",
    "                 rs, lat.ambient.factors, p))):",
    "    try:",
    "        make()",
    "    except ValueError as exc:",
    "        print(exc)",
    "    else:",
    "        print('accepted')",
])


@pytest.mark.parametrize("p", [0, 1, 4, 6])
def test_mod_p_ambient_refuses_a_modulus_that_is_not_prime(p):
    """p = 0 or 1 never ended the walk's loop over the powers of p, and
    p = 4 or 6 failed deep inside on a residue with no inverse: every
    mod-p ambient refuses them when it is made.  Each case runs in a
    child with a time limit and an address-space cap, so a regression
    fails here instead of hanging or taking the machine's memory."""
    proc = subprocess.run([sys.executable, "-c", NONPRIME_CHECK, str(p)],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"{p} is not prime"] * 4


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


def test_module_checks_survive_python_O():
    """The highest weight line, the reduction rank and the Lucas unit are
    checked with asserts stripped."""
    code = "\n".join([
        "from pbwdeg import weylmod",
        "from pbwdeg.rootsys import IntegrityError, build_root_system",
        "from pbwdeg.weylmod import (WeylLatticeZ, WeylModuleP,",
        "    build_weyl_lattice, build_weyl_module_p, lucas_assemble,",
        "    reduce_mod_p)",
        "def attempt(f, *args):",
        "    try:",
        "        f(*args)",
        "    except IntegrityError:",
        "        print('raised')",
        "rs = build_root_system('A2')",
        "mod = build_weyl_module_p(rs, 2, (1, 1))",
        "lat = build_weyl_lattice(rs, (1, 1))",
        "attempt(WeylModuleP, rs, 2, (2, 2), mod.ambient, mod.blocks)",
        "attempt(WeylLatticeZ, rs, (2, 2), lat.ambient, lat.blocks)",
        "attempt(reduce_mod_p, build_weyl_lattice(build_root_system('B3'),",
        "                                         (0, 1, 0)), 2)",
        "real = weylmod.factorial",
        "weylmod.factorial = lambda n: 2 * real(n) if n == 3 else real(n)",
        "attempt(lucas_assemble, 2, 3,",
        "        lambda pw: mod.op('F', (1, 0), pw))",
    ])
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised"] * 4


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


def test_nonintegral_divided_power_on_corrupted_lattice(fresh_modules):
    """Shrinking one lattice line breaks admissibility and the integer
    solve for F^(2) must report it."""
    rs = RS["A1"]
    bad = build_weyl_lattice(rs, (2,))
    shrink_weight_space(bad, (-2,), scale=2)
    with pytest.raises(NonIntegralDividedPower):
        bad.op_int("F", (1,), 2)


def test_lattice_relation_witnesses_on_corrupted_operator(fresh_modules):
    """One entry of F_2 raised by 1 on A2 (1, 1): the relation check names
    the first failing column of each broken [E_i, F_2], its entries by
    ascending row."""
    rs = RS["A2"]
    lat = build_weyl_lattice(rs, (1, 1))
    f2 = lat.op_int("F", rs.simple_root(1), 1)
    f2.entries[sorted(f2.entries)[2]] += 1
    assert [dataclasses.astuple(w) for w in
            validate_lattice_relations(lat)] == [
        ("[E_1, F_2] = 0", 6, "got {5: -1}, expected {}"),
        ("[E_2, F_2] = H_2", 3, "got {4: 1}, expected {}")]


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
    direct = build_weyl_module_p(rs, p, lam, ambient_mode="flat")
    reduced = reduce_mod_p(build_weyl_lattice(rs, lam), p)
    assert direct.dim == weyl_dim(rs, lam)
    assert direct.weights == reduced.weights
    assert len(direct.blocks) == len(reduced.blocks)
    for a, b in zip(direct.blocks, reduced.blocks):
        assert a.weight == b.weight
        assert np.array_equal(a.rows, b.rows)
    for kind, beta, k in [("F", rs.simple_root(0), 1),
                          ("E", rs.simple_root(rs.rank - 1), 1),
                          ("F", rs.positive_roots[-1], 2)]:
        a = direct.op(kind, beta, k)
        b = reduced.op(kind, beta, k)
        assert np.array_equal(a.toarray(), b.toarray())


@pytest.mark.parametrize("name,lam,p", [("A2", (1, 1), 2), ("C2", (1, 1), 2),
                                        ("A2", (2, 1), 3)])
def test_peeled_ambient_route_agrees(name, lam, p):
    rs = RS[name]
    flat = build_weyl_module_p(rs, p, lam, ambient_mode="flat")
    peeled = build_weyl_module_p(rs, p, lam, ambient_mode="peeled")
    assert flat.dim == peeled.dim
    assert flat.weight_multiplicities() == peeled.weight_multiplicities()

    def rank(m):
        m = m.toarray()
        ech = DenseEchelonModP(p, m.shape[1])
        for row in m:
            ech.add_row(row)
        return ech.rank

    for kind, beta, k in [("F", rs.simple_root(0), 1),
                          ("F", rs.positive_roots[-1], 1),
                          ("E", rs.simple_root(0), 2)]:
        assert rank(flat.op(kind, beta, k)) == rank(peeled.op(kind, beta, k))


DEFECTIVE_FACTOR = "\n".join([
    "from pbwdeg import weylmod",
    "from pbwdeg.rootsys import IntegrityError, build_root_system",
    "weylmod.WeylModuleP._ppower = lambda self, kind, beta, k: {}",
    "try:",
    "    weylmod.build_weyl_module_p(build_root_system('A2'), 2, (1, 1))",
    "except IntegrityError as exc:",
    "    print('raised' if 'keeps its rank' in str(exc) else exc)",
])


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_defective_factor_is_not_hidden_by_the_fallback(flags):
    """With every p-power operator of V(1,0) zeroed, the peeled span of
    A2 (1,1) at p = 2 collapses.  Its Z lattice keeps its rank mod 2, so
    the collapse is a defect of the factor: IntegrityError, not the
    lattice reduction, with asserts on or stripped."""
    proc = subprocess.run([sys.executable, *flags, "-c", DEFECTIVE_FACTOR],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised"]


IMAGE_RANK = "\n".join([
    "from pbwdeg import weylmod",
    "from pbwdeg.rootsys import IntegrityError, build_root_system",
    "mod = weylmod.build_weyl_module_p(build_root_system('D4'), 2,",
    "                                  (0, 1, 0, 0))",
    "print(type(mod).__name__)",
    "finish = weylmod._finish_modp",
    "def one_short(*args):",
    "    try:",
    "        return finish(*args)",
    "    except weylmod.RankMismatch as exc:",
    "        raise weylmod.RankMismatch(exc.lam, exc.expected, exc.found - 1)",
    "weylmod._finish_modp = one_short",
    "try:",
    "    weylmod.build_weyl_module_p(build_root_system('B3'), 2, (0, 1, 0))",
    "except IntegrityError as exc:",
    "    print(exc)",
])


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_fallback_span_has_the_lattice_rank_mod_p(flags):
    """Without peeling, a span that collapses is the image of the Z lattice
    mod p, so its rank is the lattice's rank mod p: 27 for D4 omega_2 and
    20 for B3 omega_2 at p = 2, and both fall back.  With the span of B3
    omega_2 reported one short, the build raises IntegrityError instead of
    falling back, with asserts on or stripped."""
    proc = subprocess.run([sys.executable, *flags, "-c", IMAGE_RANK],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "LatticeModuleP",
        "the ambient span mod 2 of V((0, 1, 0)) for B3 has rank 19, but "
        "the Z lattice has rank 20 mod 2"]


@pytest.mark.parametrize("kind", ["E", "F"])
def test_lattice_fallback_general_k_is_op_int_mod_p(kind):
    """LatticeModuleP assembles a non-p-power k from its p-power factors by
    Lucas; that must equal the exact integral divided power reduced mod p.
    B3 omega_2 at p = 2 is the fallback the builder takes, where k = 3 is
    the product of the nonzero factors k = 1 and k = 2; the lattice
    reductions of B3 omega_2 at p = 3 and of A2 (3, 1) at p = 2 also have
    nonzero non-p-power orders.  The fallback is taken because the Z
    lattice loses rank mod 2, and it keeps the Freudenthal multiplicities."""
    rs = RS["B3"]
    with pytest.raises(IntegrityError, match="mod 2"):
        reduce_mod_p(build_weyl_lattice(rs, (0, 1, 0)), 2)
    fallback = build_weyl_module_p(rs, 2, (0, 1, 0))
    assert isinstance(fallback, weylmod.LatticeModuleP)
    assert fallback.weight_multiplicities() == \
        freudenthal_multiplicities(rs, (0, 1, 0))
    cases = [(fallback, (3,)),
             (weylmod.LatticeModuleP(fallback.lattice, 3), (2, 4)),
             (weylmod.LatticeModuleP(build_weyl_lattice(RS["A2"], (3, 1)),
                                     2), (3, 5, 6, 7))]
    nonzero = 0
    for mod, ks in cases:
        for beta in mod.rs.positive_roots:
            for k in ks:
                exact = np.zeros((mod.dim, mod.dim), dtype=np.int64)
                for (r, c), v in mod.lattice.op_int(kind, beta,
                                                    k).entries.items():
                    exact[r, c] = v % mod.p
                assert np.array_equal(mod.op(kind, beta, k).toarray(),
                                      exact), (mod.p, beta, k)
                nonzero += bool(exact.any())
    assert all(fallback.op(kind, beta, pe).nnz
               for beta in rs.positive_roots[:3] for pe in (1, 2))
    assert nonzero >= 10


def test_lattice_fallback_is_logged(caplog, fresh_modules):
    """The fallback announces itself at INFO on pbwdeg.weylmod, with the
    rank the ambient span reached and the Weyl dimension."""
    caplog.set_level(logging.INFO, logger="pbwdeg.weylmod")
    mod = build_weyl_module_p(RS["B3"], 2, (0, 1, 0))
    assert isinstance(mod, weylmod.LatticeModuleP)
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] \
        == [("pbwdeg.weylmod", logging.INFO,
             "ambient span mod 2 for B3 (0, 1, 0) has rank 20, expected 21; "
             "falling back to the lattice reduction")]


def test_modp_weight_dims_match_freudenthal():
    for name, lam, p in MODP_SUITE[:6]:
        rs = RS[name]
        mod = build_weyl_module_p(rs, p, lam)
        assert mod.weight_multiplicities() == \
            freudenthal_multiplicities(rs, lam)


def test_a1_p2_frozen_operators():
    rs = RS["A1"]
    mod = build_weyl_module_p(rs, 2, (2,))
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
        mod = build_weyl_module_p(rs, p, (2, 2))
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
    mod = build_weyl_module_p(rs, 3, (2, 1))
    beta = (1, 1)
    f1 = mod.op("F", beta, 1).toarray()
    f2 = mod.op("F", beta, 2).toarray()
    f3 = mod.op("F", beta, 3).toarray()
    f4 = mod.op("F", beta, 4).toarray()
    assert np.array_equal((f1 @ f1) % 3, (2 * f2) % 3)
    assert np.array_equal((f1 @ f3) % 3, f4 % 3)  # C(4,1) = 4 = 1 mod 3
    assert not np.array_equal(f2, np.zeros_like(f2)) or mod.dim < 3


def test_modp_determinism(fresh_modules):
    rs = RS["C2"]
    a = build_weyl_module_p(rs, 2, (1, 1))
    fresh_modules()
    b = build_weyl_module_p(rs, 2, (1, 1))
    assert a is not b
    assert a.weights == b.weights
    assert [x.weight for x in a.blocks] == [x.weight for x in b.blocks]
    for x, y in zip(a.blocks, b.blocks):
        assert np.array_equal(x.rows, y.rows)
    for beta in rs.positive_roots:
        assert np.array_equal(a.op("F", beta, 1).toarray(),
                              b.op("F", beta, 1).toarray())


SEED_CHECKS = "\n".join([
    "import dataclasses",
    "from pbwdeg import weylmod",
    "from pbwdeg.chevrep import fundamental_rep",
    "from pbwdeg.rootsys import IntegrityError, build_root_system",
    "def attempt(f, *args):",
    "    try:",
    "        f(*args)",
    "    except IntegrityError:",
    "        print('raised')",
    "rs = build_root_system('A1')",
    "rep = fundamental_rep(rs, 1)",
    "vec = weylmod.FundFactor(rs, rep)",
    "amb = weylmod.TensorAmbient(rs, [vec, vec], 3)",
    "attempt(weylmod._finish_modp, rs, 3, (0,), amb)",
    "attempt(weylmod._lattice, rs, (0,),",
    "        weylmod.TensorAmbient.over_z(rs, [rep, rep]))",
    "twin = dataclasses.replace(rep, weights=(rep.weights[0],) * 2)",
    "attempt(weylmod.FundFactor, rs, twin)",
])


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_span_seed_checks_survive_python_O(flags):
    """The span refuses an ambient whose highest weight is not the weight
    spanned, over F_p and over Z; a representation whose top weight is not
    unique has no highest weight index.  Each raises IntegrityError, with
    asserts on or stripped."""
    proc = subprocess.run([sys.executable, *flags, "-c", SEED_CHECKS],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised"] * 3


def test_validate_relations_clean():
    mod = build_weyl_module_p(RS["A2"], 2, (1, 1))
    assert validate_relations(mod) == []


def test_validate_relations_large_prime():
    """(F_i)^p = 0 is checked by repeated squaring: about 2 log2(p)
    products rather than p of them."""
    mod = build_weyl_module_p(RS["A2"], 1000003, (2, 1))
    assert validate_relations(mod) == []


def test_validate_relations_locates_fault(fresh_modules):
    mod = build_weyl_module_p(RS["A2"], 2, (1, 1))
    inject_fault(mod, "F", (1, 0), 1, row=2, col=mod.hw_index, delta=1)
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


def test_op_rejects_block_not_closed_under_operators(fresh_modules):
    """A weight block whose rows no longer span the images of the operators
    is a defect: IntegrityError, which python -O keeps."""
    mod = build_weyl_module_p(RS["A2"], 2, (1, 1))
    blk = mod._by_weight[(0, 0)]
    set_block_rows(blk, np.roll(blk.rows, 1, axis=1))
    with pytest.raises(IntegrityError, match=r"not closed under F\^\(1\)"):
        mod.op("F", (1, 0), 1)


def test_op_rejects_a_residue_past_the_first_word(fresh_modules):
    """Over F_2 the images are cleared by the target block's rows at their
    pivot bits, and whatever is left must be zero at every bit: a basis row
    of a block wider than 64 changed at a non-pivot column past 64 leaves
    the images that use it outside the span."""
    rs = RS["G2"]
    mod = build_weyl_module_p(rs, 2, (2, 2))
    assert mod.dim < mod.ambient.dim
    alpha = rs.simple_root(0)
    key = ("F", alpha, 1)
    dst_w, rows, _, _ = next(e for e in mod.op(*key).blocks.values()
                             if mod._by_weight[e[0]].width > 64)
    dst = mod._by_weight[dst_w]
    col = max(set(range(64, dst.width)) - set(dst.pivots))
    del mod._ops[key]
    dst.basis[rows[0]] ^= 1 << col
    with pytest.raises(IntegrityError, match=r"not closed under F\^\(1\)"):
        mod.op(*key)


def _roll_an_identity_block(mod):
    """Roll the rows of a block of mod with at least two rows; mod fills
    its one-factor ambient, so every block holds the identity."""
    assert mod.dim == mod.ambient.dim and len(mod.ambient.factors) == 1
    blk = next(b for b in mod.blocks if b.rank > 1)
    assert np.array_equal(blk.rows, np.identity(blk.rank, dtype=np.int64))
    set_block_rows(blk, np.roll(blk.rows, 1, axis=0))


@pytest.mark.parametrize("name,lam,p", [("G2", (0, 1), 2),
                                        ("C3", (0, 1, 0), 3),
                                        ("D4", (0, 1, 0, 0), 5)])
def test_filled_ambient_rejects_rolled_block(fresh_modules, name, lam, p):
    """A module that fills its ambient takes the ambient's blocks without
    a product, but still checks its rows: a block whose rows are no longer
    the identity is not closed, under E and F alike."""
    mod = build_weyl_module_p(RS[name], p, lam)
    _roll_an_identity_block(mod)
    with pytest.raises(IntegrityError, match=r"not closed under F\^\(1\)"):
        mod.op("F", RS[name].simple_root(0), 1)
    with pytest.raises(IntegrityError, match=r"not closed under E\^\(1\)"):
        mod.op("E", RS[name].positive_roots[-1], 1)


@pytest.mark.parametrize("name,lam,p", [("A2", (1, 1), 2),
                                        ("G2", (0, 1), 3),
                                        ("A2", (1, 1), 3)])
def test_op_rejects_images_at_a_weight_the_module_lacks(fresh_modules, name,
                                                         lam, p):
    """With the zero weight dropped from the module's blocks by weight, the
    images of F_1 at the weight alpha_1 land where the module has no
    basis, and must vanish there: they do not, so the module is not
    closed.  A2 (1, 1) is spanned inside V(omega_1) x V(omega_2), and G2
    omega_2 fills its one-factor ambient."""
    rs = RS[name]
    mod = build_weyl_module_p(rs, p, lam)
    assert (mod.dim == mod.ambient.dim) == (name == "G2")
    del mod._by_weight[(0,) * rs.rank]
    with pytest.raises(IntegrityError, match=r"not closed under F\^\(1\)"):
        mod.op("F", rs.simple_root(0), 1)


FUNDAMENTALS = [(name, tuple(int(j == i) for j in range(RS[name].rank)))
                for name in sorted(RS) for i in range(RS[name].rank)]


def _basis_in_rep(mod):
    """The module's basis vectors as the rows of an int64 matrix over the
    coordinates of its fundamental representation."""
    if isinstance(mod, WeylModuleP):
        flats = mod.ambient.layout.flats
        parts = [(flats[b.weight], b.rows) for b in mod.blocks]
        dim = mod.ambient.dim
    else:
        lat = mod.lattice
        parts = [(np.arange(lat.ambient.dim), np.array(
            [[row.get(f, 0) for f in range(lat.ambient.dim)]
             for row in b.final.rows], dtype=np.int64)) for b in lat.blocks]
        dim = lat.ambient.dim
    out = np.zeros((mod.dim, dim), dtype=np.int64)
    i = 0
    for cols, rows in parts:
        out[i:i + len(rows), cols] = rows
        i += len(rows)
    return out


@pytest.mark.parametrize("name,lam", FUNDAMENTALS)
@pytest.mark.parametrize("p", [2, 3, 5])
def test_fundamental_operators_equal_the_reps_divided_powers(name, lam, p):
    """Every divided power on the module V_p(omega_i), from order 0 to one
    past the last nonzero one, is the representation's own
    divided_power_matrix(root_operator(...), k) mod p, read by chevrep
    alone, in the module's order of basis vectors.  These modules fill
    their one-factor ambient, so their basis is a permutation of the
    representation's.  B3 omega_2 and D4 omega_2 at p = 2 are the
    lattice reductions instead, whose basis B is the lattice's: there the
    operator M satisfies X B^T = B^T M mod p."""
    rs = RS[name]
    sc = chevalley_constants(rs)
    mod = build_weyl_module_p(rs, p, lam)
    rep = fundamental_rep(rs, lam.index(1) + 1)
    basis = _basis_in_rep(mod)
    filled = isinstance(mod, WeylModuleP)
    assert filled == ((name, lam, p) not in {("B3", (0, 1, 0), 2),
                                             ("D4", (0, 1, 0, 0), 2)})
    if filled:
        assert mod.dim == mod.ambient.dim == rep.dim
        perm = basis.argmax(axis=1)
        assert np.array_equal(basis, np.identity(rep.dim,
                                                 dtype=np.int64)[perm])
        assert sorted(perm.tolist()) == list(range(rep.dim))
    nonzero = 0
    for kind in ("E", "F"):
        for beta in rs.positive_roots:
            x = root_operator(rep, sc, kind, beta)
            for k in range(mod.max_power(beta) + 2):
                want = divided_power_matrix(x, k) % p
                got = mod.op(kind, beta, k).toarray()
                if filled:
                    assert np.array_equal(got, want[np.ix_(perm, perm)]), \
                        (kind, beta, k)
                else:
                    assert np.array_equal(want @ basis.T % p,
                                          basis.T @ got % p), (kind, beta, k)
                nonzero += bool(got.any())
    assert nonzero >= 2 * len(rs.positive_roots)


def test_trivial_weight():
    rs = RS["A2"]
    assert weyl_dim(rs, (0, 0)) == 1
    mod = build_weyl_module_p(rs, 2, (0, 0))
    assert mod.dim == 1
    assert mod.op("F", (1, 0), 1).toarray().tolist() == [[0]]


def test_heights_nondecreasing_in_basis_order():
    rs = RS["B2"]
    mod = build_weyl_module_p(rs, 2, (1, 1))
    lam = (1, 1)
    hts = []
    for mu in mod.weights:
        c = rs.to_root_coords(tuple(a - b for a, b in zip(lam, mu)))
        hts.append(sum(c))
    assert hts == sorted(hts)
    assert mod.hw_index == 0


def test_block_op_algebra_matches_dense_matrices():
    """Composition, powers and images of vectors of block operators equal
    the dense products mod p, and equal operators compare equal whatever
    product formed them (the block form is canonical)."""
    rs, p = RS["A2"], 3
    mod = build_weyl_module_p(rs, p, (2, 1))
    ops = [mod.op(kind, beta, k) for kind in ("E", "F")
           for beta in rs.positive_roots for k in (1, 2, 3)]
    rng = np.random.default_rng(5)
    vec = rng.integers(0, p, mod.dim)
    for a in ops[::2]:
        dense_a = a.toarray()
        assert np.array_equal(a @ vec, dense_a @ vec % p)
        assert np.array_equal(a.power(2).toarray(), dense_a @ dense_a % p)
        for b in ops[1::2]:
            ab = a @ b
            assert np.array_equal(ab.toarray(), dense_a @ b.toarray() % p)
            assert ab.nnz == np.count_nonzero(ab.toarray())
            rows, cols, vals = ab.coo()
            regrouped = weylmod.BlockOp(mod.layout, p,
                                        mod.layout.group(rows, cols, vals))
            assert regrouped == ab and not regrouped != ab
    f1, f2 = mod.op("F", (1, 0), 1), mod.op("F", (1, 0), 2)
    assert f1 != f2 and f1 @ f1 == weylmod.BlockOp(
        mod.layout, p, {w: (t, r, c, 2 * v % p)
                        for w, (t, r, c, v) in f2.blocks.items()})


def test_block_grouping_refuses_repeated_and_mixed_entries():
    """The ambient coproduct has one entry per (row, col).  A doctored COO
    that lists an entry twice, or that sends one weight block into two,
    has no block form: densifying by assignment would drop the repeat."""
    mod = build_weyl_module_p(RS["A2"], 2, (1, 1))
    ambient = mod.ambient
    rows, cols, vals = ambient._coproduct("F", (1, 0), 1)
    layout = WeightBlocks(ambient.weights)
    ops = layout.group(rows, cols, vals)
    assert sum(len(v) for *_, v in ops.values()) == len(vals)
    with pytest.raises(IntegrityError, match="one entry twice"):
        layout.group(np.append(rows, rows[3]), np.append(cols, cols[3]),
                     np.append(vals, vals[3]))
    # the same column also reaching a block of another weight
    other = next(i for i, w in enumerate(ambient.weights)
                 if w != ambient.weights[rows[0]])
    with pytest.raises(IntegrityError, match="not weight homogeneous"):
        layout.group(np.append(rows, other), np.append(cols, cols[0]),
                     np.append(vals, 1))

