"""Chevalley structure constants and integral fundamental representations.

Frozen constants below were derived by hand from the string condition
(|N(alpha,beta)| = r+1 with r the depth of the alpha-string below beta) and
the sign convention that N(alpha_i, beta - alpha_i) > 0 for the canonical
decomposition (lex-smallest simple alpha_i with beta - alpha_i a root).
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import subprocess
import sys
from itertools import combinations, product

import numpy as np
import pytest

from pbwdeg import chevrep
from pbwdeg.rootsys import IntegrityError, build_root_system
from pbwdeg.chevrep import (
    IntegralRep,
    NonIntegralDividedPower,
    chevalley_constants,
    divided_power_matrix,
    divided_powers,
    fundamental_rep,
    root_operator,
)

SUPPORTED = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D4", "G2"]

FROZEN_FUND_DIMS = {
    "A1": [2],
    "A2": [3, 3],
    "A3": [4, 6, 4],
    "B2": [5, 4],
    "B3": [7, 21, 8],
    "C2": [4, 5],
    "C3": [6, 14, 14],
    "D4": [8, 28, 8, 8],
    "G2": [7, 14],
}


def bracket(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def as_obj(m) -> np.ndarray:
    return np.array(m, dtype=object)


# ---------------------------------------------------------------------------
# structure constants

def test_frozen_constants_a2():
    rs = build_root_system("A2")
    sc = chevalley_constants(rs)
    assert sc.n_constant((1, 0), (0, 1)) == 1
    assert sc.n_constant((0, 1), (1, 0)) == -1


def test_frozen_constants_b2():
    rs = build_root_system("B2")
    sc = chevalley_constants(rs)
    assert sc.n_constant((1, 0), (0, 1)) == 1
    assert sc.n_constant((0, 1), (1, 1)) == 2


def test_frozen_constants_g2():
    rs = build_root_system("G2")
    sc = chevalley_constants(rs)
    assert sc.n_constant((1, 0), (0, 1)) == 1
    assert sc.n_constant((1, 0), (1, 1)) == 2
    assert sc.n_constant((1, 0), (2, 1)) == 3
    assert sc.n_constant((0, 1), (3, 1)) == 1


def _string_depth(rs, alpha, beta):
    """Largest r with beta - r*alpha a root (of either sign)."""
    pos = set(rs.positive_roots)

    def is_root(c):
        return c in pos or tuple(-x for x in c) in pos

    r = 0
    cur = beta
    while True:
        cur = tuple(b - a for b, a in zip(cur, alpha))
        if is_root(cur):
            r += 1
        else:
            return r


@pytest.mark.parametrize("name", SUPPORTED)
def test_constant_magnitudes_and_antisymmetry(name):
    rs = build_root_system(name)
    sc = chevalley_constants(rs)
    pos = set(rs.positive_roots)
    for alpha, beta in product(rs.positive_roots, repeat=2):
        s = tuple(a + b for a, b in zip(alpha, beta))
        if s not in pos:
            continue
        n = sc.n_constant(alpha, beta)
        assert abs(n) == _string_depth(rs, alpha, beta) + 1
        assert sc.n_constant(beta, alpha) == -n


def jacobi_sum(sc, x, y, z) -> dict:
    """[[x, y], z] + [[y, z], x] + [[z, x], y] read off the table."""
    acc: dict = {}
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        for elem, coeff in sc.abstract_bracket(a, b).items():
            for e2, c2 in sc.abstract_bracket(elem, c).items():
                acc[e2] = acc.get(e2, 0) + coeff * c2
    return acc


@pytest.mark.parametrize("name", SUPPORTED)
def test_jacobi_on_bracket_table(name):
    rs = build_root_system(name)
    sc = chevalley_constants(rs)
    basis = sc.adjoint_basis()
    for x, y, z in product(basis[: len(basis)], repeat=3):
        acc = jacobi_sum(sc, x, y, z)
        assert all(v == 0 for v in acc.values()), (x, y, z)


@pytest.mark.parametrize("name,nth", [
    ("A2", 0), ("A2", 5), ("B2", 3), ("G2", 0), ("G2", 11), ("C3", 7),
    ("D4", 40)])
def test_jacobi_check_names_first_failing_triple(name, nth):
    """With the sign of one coefficient of the table flipped, the pairwise
    check raises and names the triple x < y < z that a loop over all
    triples, in basis order, finds first."""
    sc = chevalley_constants(build_root_system(name))
    basis = sc.adjoint_basis()
    key, elem = [(k, e) for k, v in sc.table.items() for e in v][nth]
    table = {k: dict(v) for k, v in sc.table.items()}
    table[key][elem] *= -1
    bad = dataclasses.replace(sc, table=table)
    first = next((basis[i], basis[j], basis[k])
                 for i, j, k in combinations(range(len(basis)), 3)
                 if any(jacobi_sum(bad, basis[i], basis[j], basis[k])
                        .values()))
    with pytest.raises(IntegrityError) as err:
        chevrep._check_jacobi(bad, basis)
    assert str(err.value) == f"Jacobi fails on {first}"
    chevrep._check_jacobi(sc, basis)


def test_half_sum_refuses_a_non_integral_weight():
    """eps_1 + eps_2 of B2 halves to the spin weight omega_2; eps_1 alone
    does not halve."""
    rs = build_root_system("B2")
    assert chevrep._half_sum(rs, {1: 1, 2: 1}) == (0, 1)
    with pytest.raises(IntegrityError, match="not integral"):
        chevrep._half_sum(rs, {1: 1})


# sha256 of _canonical_dump per type, recorded before the root operators,
# the H part of the table and the spin models were each built one way.
FROZEN_DIGESTS = {
    "A1": "fbdfd02f1b0b2f638ad68a4c1672a7d6892af118ba95e6d5e767021468ba59ff",
    "A2": "498ea2090c619163b4298e6511ce32e23d49d77aa77820b488f3b0de2ba42445",
    "A3": "0bd8aa16a296fe925d141ccb31cda35fab5e877bde1fb2e187c9222516b0ed33",
    "B2": "adf762ffcaa60952b397844e2b9469ba40c8e897047523360b815005317d1e62",
    "B3": "aba381a53f41b8ce5f62715889e506aea702fc3e108110ce2da3c7b3a5ae877f",
    "C2": "833c74fb93451e77b62dd54b4f936f76c619ad121aee9f8ba93182f722ed4224",
    "C3": "61aeecf7df1c6c1f0fb3afba8db56438603ce4c828bd43b0910c065562869975",
    "D4": "b2daec1f89c2fe7bf09d1a470f55c81279d052407d60c3fd920f5d2b7b90b275",
    "G2": "1a8598b96af31cf3634abf2f3f5e8ad99ca3adf0b1d3e15f63f127e83021c4de",
}


def _canonical_dump(name) -> bytes:
    """The bracket table, the decomposition and every fundamental rep
    (name, dim, weights, simple lowering and raising matrices), sorted and
    rendered with plain ints."""
    rs = build_root_system(name)
    sc = chevalley_constants(rs)
    table = sorted((repr(k), sorted((repr(e), int(c)) for e, c in v.items()))
                   for k, v in sc.table.items())
    decomp = sorted((repr(b), int(i), repr(g))
                    for b, (i, g) in sc.decomp.items())
    reps = []
    for i in range(1, rs.rank + 1):
        rep = fundamental_rep(rs, i)
        mats = [[[int(x) for x in row] for row in m]
                for m in rep.simple_lowering + rep.simple_raising]
        reps.append((rep.name, rep.dim,
                     [tuple(int(x) for x in w) for w in rep.weights], mats))
    return repr((table, decomp, reps)).encode()


@pytest.mark.parametrize("name", SUPPORTED)
def test_constants_and_fundamentals_match_frozen_digest(name):
    digest = hashlib.sha256(_canonical_dump(name)).hexdigest()
    assert digest == FROZEN_DIGESTS[name]


# ---------------------------------------------------------------------------
# fundamental representations

@pytest.mark.parametrize("name", SUPPORTED)
def test_fundamental_dims(name):
    rs = build_root_system(name)
    dims = [fundamental_rep(rs, i + 1).dim for i in range(rs.rank)]
    assert dims == FROZEN_FUND_DIMS[name]


@pytest.mark.parametrize("name", SUPPORTED)
def test_fundamental_commutation_relations(name):
    rs = build_root_system(name)
    for i in range(1, rs.rank + 1):
        rep = fundamental_rep(rs, i)
        h = [np.diag([w[k] for w in rep.weights]).astype(object)
             for k in range(rs.rank)]
        for a in range(rs.rank):
            for b in range(rs.rank):
                got = bracket(as_obj(rep.simple_raising[a]),
                              as_obj(rep.simple_lowering[b]))
                want = h[a] if a == b else np.zeros_like(got)
                assert np.array_equal(got, want), (name, i, a, b)


@pytest.mark.parametrize("name", SUPPORTED)
def test_fundamental_weight_grading(name):
    rs = build_root_system(name)
    for i in range(1, rs.rank + 1):
        rep = fundamental_rep(rs, i)
        for a in range(rs.rank):
            alpha_f = rs.root_fund(rs.simple_root(a))
            m = rep.simple_lowering[a]
            for r in range(rep.dim):
                for c in range(rep.dim):
                    if m[r][c]:
                        assert tuple(x - y for x, y in
                                     zip(rep.weights[c], alpha_f)) == rep.weights[r]


@pytest.mark.parametrize("name", SUPPORTED)
def test_highest_vector_and_sl2_strings(name):
    rs = build_root_system(name)
    for i in range(1, rs.rank + 1):
        rep = fundamental_rep(rs, i)
        omega = tuple(1 if k == i - 1 else 0 for k in range(rs.rank))
        hw = [j for j, w in enumerate(rep.weights) if w == omega]
        assert len(hw) == 1
        j = hw[0]
        for a in range(rs.rank):
            e = as_obj(rep.simple_raising[a])
            col = e[:, j]
            assert all(x == 0 for x in col.flat), (name, i, a)
        # E^(a) F^(a) v = binom(<omega, alpha^vee>, a) v on the highest vector
        v = np.zeros(rep.dim, dtype=object)
        v[j] = 1
        for a in range(rs.rank):
            top = omega[a]
            for k in range(1, top + 1):
                fk = divided_power_matrix(as_obj(rep.simple_lowering[a]), k)
                ek = divided_power_matrix(as_obj(rep.simple_raising[a]), k)
                got = ek @ (fk @ v)
                assert got[j] == math.comb(top, k)


def _first_rep_defect(rs, rep) -> str | None:
    """The message of the first broken entry of a row-major scan over the
    simple operators, lowering before raising, then of the first pair
    (a, b) with [E_a, F_b] not delta_ab H_a, in plain Python ints."""
    n, dim = rs.rank, rep.dim
    for a in range(n):
        alpha_f = rs.root_fund(rs.simple_root(a))
        for sign, mats in ((-1, rep.simple_lowering), (1, rep.simple_raising)):
            for r, c in product(range(dim), repeat=2):
                if mats[a][r][c] and rep.weights[r] != tuple(
                        x + sign * y for x, y in zip(rep.weights[c], alpha_f)):
                    return (f"{rep.name}: entry ({r}, {c}) of simple "
                            f"operator {a + 1} breaks the weight grading")
    for a, b in product(range(n), repeat=2):
        got = bracket(as_obj(rep.simple_raising[a]),
                      as_obj(rep.simple_lowering[b]))
        want = np.diag([w[a] if a == b else 0 for w in rep.weights])
        if not np.array_equal(got, want):
            return (f"{rep.name}: [E_{a + 1}, F_{b + 1}] is not "
                    f"{'H' if a == b else '0'}")
    return None


def _with_entries(rep, a, changes):
    """rep with entries (r, c) -> v of its lowering operator a changed."""
    low = [list(map(list, m)) for m in rep.simple_lowering]
    for (r, c), v in changes.items():
        low[a][r][c] = v
    return dataclasses.replace(
        rep, simple_lowering=tuple(tuple(map(tuple, m)) for m in low))


@pytest.mark.parametrize("name,i,a", [
    ("A2", 1, 0), ("B3", 2, 1), ("D4", 2, 3), ("G2", 2, 0), ("C3", 3, 2)])
def test_validate_rep_names_first_broken_entry(name, i, a):
    """One entry, then two, of one lowering operator moved off the weight
    grading, the later row holding the earlier column: the raise names
    the entry a row-major scan finds first.  Doubling a graded entry keeps
    the grading and breaks a bracket, named as the scan over (a, b) names
    it."""
    rs = build_root_system(name)
    rep = fundamental_rep(rs, i)
    alpha_f = rs.root_fund(rs.simple_root(a))
    off = [(r, c) for r, c in product(range(rep.dim), repeat=2)
           if rep.weights[r] != tuple(x - y for x, y in
                                      zip(rep.weights[c], alpha_f))]
    first = next(rc for rc in off if rc[1] > 0)
    later = next((r, c) for r, c in off if r > first[0] and c < first[1])
    for changes, named in (({off[-1]: 1}, off[-1]),
                           ({later: 1, first: -1}, first)):
        broken = _with_entries(rep, a, changes)
        want = _first_rep_defect(rs, broken)
        assert f"entry {named}" in want
        with pytest.raises(IntegrityError) as err:
            chevrep._validate_rep(rs, broken)
        assert str(err.value) == want
    r, c = next((r, c) for r, c in product(range(rep.dim), repeat=2)
                if rep.simple_lowering[a][r][c])
    doubled = _with_entries(rep, a, {(r, c): 2 * rep.simple_lowering[a][r][c]})
    want = _first_rep_defect(rs, doubled)
    assert "is not" in want
    with pytest.raises(IntegrityError) as err:
        chevrep._validate_rep(rs, doubled)
    assert str(err.value) == want
    chevrep._validate_rep(rs, rep)


def test_g2_seven_dim_weights():
    rs = build_root_system("G2")
    rep = fundamental_rep(rs, 1)
    assert sorted(rep.weights) == sorted(
        [(1, 0), (-1, 1), (2, -1), (0, 0), (-2, 1), (1, -1), (-1, 0)])


def test_b2_spin_weights():
    rs = build_root_system("B2")
    rep = fundamental_rep(rs, 2)
    assert sorted(rep.weights) == sorted([(0, 1), (-1, 1), (1, -1), (0, -1)])
    for m in rep.simple_lowering + rep.simple_raising:
        arr = as_obj(m)
        assert np.array_equal(arr @ arr, np.zeros_like(arr))
        assert all(x in (-1, 0, 1) for x in arr.flat)


def test_d4_spin_reps_are_eight_dimensional_with_distinct_weights():
    rs = build_root_system("D4")
    r3 = fundamental_rep(rs, 3)
    r4 = fundamental_rep(rs, 4)
    assert r3.dim == r4.dim == 8
    assert set(r3.weights) != set(r4.weights)
    assert (0, 0, 1, 0) in r3.weights
    assert (0, 0, 0, 1) in r4.weights


# ---------------------------------------------------------------------------
# root operators beyond the simples

@pytest.mark.parametrize("name", ["A2", "B2", "C2", "G2", "A3", "B3", "C3", "D4"])
def test_root_operators_satisfy_ef_commutation(name):
    rs = build_root_system(name)
    sc = chevalley_constants(rs)
    for i in range(1, rs.rank + 1):
        rep = fundamental_rep(rs, i)
        for beta in rs.positive_roots:
            f = root_operator(rep, sc, "F", beta)
            e = root_operator(rep, sc, "E", beta)
            m = rs.coroot_coords(beta)
            h = np.diag([sum(mm * w[k] for k, mm in enumerate(m))
                         for w in rep.weights]).astype(object)
            assert np.array_equal(bracket(as_obj(e), as_obj(f)), h), (name, i, beta)


def test_root_operator_decomposition_independent_up_to_sign():
    # [F_gamma, F_alpha]/N is the same operator up to overall sign for every
    # admissible split beta = alpha + gamma; magnitudes must agree exactly.
    for name in ["B2", "G2", "C3"]:
        rs = build_root_system(name)
        sc = chevalley_constants(rs)
        pos = set(rs.positive_roots)
        rep = fundamental_rep(rs, 1)
        for beta in rs.positive_roots:
            if sum(beta) == 1:
                continue
            canonical = as_obj(root_operator(rep, sc, "F", beta))
            for a in range(rs.rank):
                alpha = rs.simple_root(a)
                gamma = tuple(b - x for b, x in zip(beta, alpha))
                if gamma not in pos:
                    continue
                fa = as_obj(root_operator(rep, sc, "F", alpha))
                fg = as_obj(root_operator(rep, sc, "F", gamma))
                r = _string_depth(rs, alpha, gamma)
                num = bracket(fg, fa)
                got = np.array([x // (r + 1) for x in num.flat],
                               dtype=object).reshape(num.shape)
                assert np.array_equal(num, got * (r + 1))   # divides exactly
                same = np.array_equal(got, canonical)
                neg = np.array_equal(got, -canonical)
                assert same or neg


# ---------------------------------------------------------------------------
# divided powers

def test_divided_power_admissible_sl2():
    # basis v, Fv, F^(2)v of the weight-2 sl2 module
    f = as_obj([[0, 0, 0], [1, 0, 0], [0, 2, 0]])
    f2 = divided_power_matrix(f, 2)
    assert np.array_equal(f2, as_obj([[0, 0, 0], [0, 0, 0], [1, 0, 0]]))
    assert np.array_equal(divided_power_matrix(f, 3), np.zeros((3, 3), dtype=object))


def test_divided_power_rejects_non_admissible_lattice():
    # basis v, Fv, F^2 v: the F^(2) image is outside this lattice
    f = as_obj([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    with pytest.raises(NonIntegralDividedPower):
        divided_power_matrix(f, 2)


def test_divided_power_zero_and_one():
    f = as_obj([[0, 0], [3, 0]])
    assert np.array_equal(divided_power_matrix(f, 0), np.eye(2, dtype=object))
    assert np.array_equal(divided_power_matrix(f, 1), f)


def test_divided_power_refuses_int64_overflow():
    """A power whose entries may leave int64 is refused with a clear error,
    never returned wrapped; past float64's 2^53 the int64 products are
    exact, checked against Python ints."""
    big = as_obj([[0, 2 ** 40], [2 ** 40, 0]])
    with pytest.raises(ValueError, match="overflow int64"):
        divided_power_matrix(big, 2)
    with pytest.raises(ValueError, match="overflows int64"):
        divided_power_matrix(as_obj([[0, 2 ** 63], [0, 0]]), 1)
    for e in (2 ** 26 - 1, 2 ** 26 + 1, 2 ** 30):
        m = as_obj([[e, e], [e, -e]])
        want = as_obj([[x // 2 for x in row] for row in (m @ m).tolist()])
        got = divided_power_matrix(m, 2)
        assert got.dtype == np.int64
        assert got.tolist() == want.tolist()


def test_divided_power_product_rule():
    rs = build_root_system("A1")
    # weight 4 string: basis F^(k)v, F acts with coefficients k+1
    n = 5
    f = np.zeros((n, n), dtype=object)
    for k in range(n - 1):
        f[k + 1][k] = k + 1
    for j, k in [(1, 1), (1, 2), (2, 2), (1, 3)]:
        lhs = divided_power_matrix(f, j) @ divided_power_matrix(f, k)
        rhs = math.comb(j + k, j) * divided_power_matrix(f, j + k)
        assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize("name", ["A2", "B2", "C3", "G2"])
def test_divided_power_table_matches_divided_power_matrix(name):
    """Each table holds X^(1), ..., X^(top) column by column, exactly as
    divided_power_matrix gives them, X^(top + 1) is zero, and a second
    call returns the same table."""
    rs = build_root_system(name)
    sc = chevalley_constants(rs)
    for i in range(1, rs.rank + 1):
        rep = fundamental_rep(rs, i)
        for kind, beta in product("EF", rs.positive_roots):
            table = divided_powers(rep, sc, kind, beta)
            assert divided_powers(rep, sc, kind, beta) is table
            x = root_operator(rep, sc, kind, beta)
            for a in range(1, len(table) + 2):
                dense = np.zeros((rep.dim, rep.dim), dtype=object)
                if a <= len(table):
                    assert all(list(pairs) == sorted(pairs)
                               for pairs in table[a - 1].values())
                    for c, pairs in table[a - 1].items():
                        for r, v in pairs:
                            assert v
                            dense[r, c] = v
                assert np.array_equal(dense, divided_power_matrix(x, a))
            assert len(table) >= 1


def test_root_operator_memo_not_shared_by_copies(monkeypatch):
    """A second call for the same rep reads the memo kept on it; a copy
    made by dataclasses.replace starts empty and recomputes, so a copy with
    zeroed lowering matrices sees its own zero operators.  The memo takes
    no part in equality."""
    rs = build_root_system("A2")
    sc = chevalley_constants(rs)
    rep = dataclasses.replace(fundamental_rep(rs, 1))
    brackets = []
    real = chevrep._bracket
    monkeypatch.setattr(chevrep, "_bracket",
                        lambda a, b: brackets.append(1) or real(a, b))
    first = root_operator(rep, sc, "F", (1, 1))
    assert len(brackets) == 1
    assert root_operator(rep, sc, "F", (1, 1)) is first
    assert len(brackets) == 1
    copy = dataclasses.replace(rep)
    assert copy == rep
    again = root_operator(copy, sc, "F", (1, 1))
    assert len(brackets) == 2
    assert again is not first and np.array_equal(again, first)
    zero = tuple(tuple(0 for _ in row) for row in rep.simple_lowering[0])
    zeroed = dataclasses.replace(
        rep, simple_lowering=(zero,) + rep.simple_lowering[1:])
    assert not root_operator(zeroed, sc, "F", (1, 0)).any()
    assert divided_powers(zeroed, sc, "F", (1, 0)) == ()
    assert root_operator(rep, sc, "F", (1, 0)).any()
    assert len(divided_powers(rep, sc, "F", (1, 0))) == 1


def test_corrupted_seed_rep_checks_survive_python_O():
    """With one entry of F_1 doubled in the vector representation of B2 or
    A2, the structure constants cannot be read off it, and it fails as the
    first fundamental representation; each raises IntegrityError with
    asserts stripped, naming the failing table entry or bracket.  On A2
    the doubled entry gives [E_1, F_1] = 2 H_1, which the check of the H
    part of the table against the seed catches first."""
    code = "\n".join([
        "import dataclasses",
        "from pbwdeg import chevrep",
        "from pbwdeg.rootsys import IntegrityError, build_root_system",
        "real = chevrep._vector_rep",
        "def corrupt(rs):",
        "    rep = real(rs)",
        "    low = [list(map(list, m)) for m in rep.simple_lowering]",
        "    r, c = next((r, c) for r in range(rep.dim)",
        "                for c in range(rep.dim) if low[0][r][c])",
        "    low[0][r][c] *= 2",
        "    return dataclasses.replace(",
        "        rep, simple_lowering=tuple(tuple(map(tuple, m)) for m in low))",
        "chevrep._vector_rep = corrupt",
        "for name in ('B2', 'A2'):",
        "    rs = build_root_system(name)",
        "    for f in (chevrep.chevalley_constants,",
        "              lambda rs: chevrep.fundamental_rep(rs, 1)):",
        "        try:",
        "            f(rs)",
        "        except IntegrityError as exc:",
        "            print(exc)",
    ])
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    table = ("bracket table entry (('F', (1, 0)), ('E', (1, 0))) does not "
             "match the seed matrices")
    assert proc.stdout.splitlines() == [
        line for name in ("B2", "A2")
        for line in (table, f"{name}-vector: [E_1, F_1] is not H")]
