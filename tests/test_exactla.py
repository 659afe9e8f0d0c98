"""Exact linear algebra: frozen small cases and algebraic properties.

HNF expectations below were computed by hand (row reduction over Z with
unimodular operations), so they pin the canonical form: pivots positive,
entries above a pivot reduced into [0, pivot), rows ordered by pivot column.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pbwdeg.exactla import (
    DenseEchelonModP,
    IncrementalHNF,
    LatticeBasis,
    SparsePrimeMatrix,
    read_triplet_text,
    subspace_intersection_mod_p,
    write_triplet_text,
)


def dense_rows(basis: LatticeBasis) -> list[list[int]]:
    return [[row.get(c, 0) for c in range(basis.ambient_dim)]
            for row in basis.rows]


def hnf_lattice_basis(gens, ambient_dim: int) -> LatticeBasis:
    h = IncrementalHNF(ambient_dim)
    for g in gens:
        h.add(g)
    return h.finalize()


def echelon(rows, p: int, width: int) -> DenseEchelonModP:
    ech = DenseEchelonModP(p, width)
    for row in rows:
        ech.add_row(np.asarray(row, dtype=np.int64))
    return ech


@pytest.mark.parametrize("gens,dim,expected", [
    ([(2, 0), (0, 2), (1, 1)], 2, [[1, 1], [0, 2]]),
    ([(4, 6), (2, 2)], 2, [[2, 0], [0, 2]]),
    ([(6,), (10,)], 1, [[2]]),
    ([(0, 3), (0, 5)], 2, [[0, 1]]),
    ([(2, 4, 6)], 3, [[2, 4, 6]]),
    ([(1, 2, 3), (4, 5, 6), (7, 8, 9)], 3, [[1, 2, 3], [0, 3, 6]]),
    ([(2, 1), (0, 3)], 2, [[2, 1], [0, 3]]),
    ([(-1, 0), (0, -1)], 2, [[1, 0], [0, 1]]),
    ([], 2, []),
])
def test_hnf_frozen(gens, dim, expected):
    basis = hnf_lattice_basis(gens, dim)
    assert dense_rows(basis) == expected
    assert basis.rank == len(expected)


def test_hnf_solve_frozen():
    basis = hnf_lattice_basis([(1, 1), (0, 2)], 2)
    assert basis.solve({0: 3, 1: 5}) == [3, 1]
    assert basis.solve({0: 1}) is None          # (1,0) not in the lattice
    assert basis.solve({}) == [0, 0]
    assert basis.solve({0: 2, 1: 0}) is not None   # (2,0) = 2(1,1) - (0,2)


def test_hnf_incremental_change_reporting():
    h = IncrementalHNF(2)
    assert h.add({0: 2}) is True
    assert h.add({0: 4}) is False       # already inside
    assert h.add({0: 1}) is True        # refines the pivot, same rank
    assert h.rank == 1
    assert h.add({0: 3}) is False


@settings(max_examples=60)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=1, max_size=5))
def test_hnf_properties(rows):
    basis = hnf_lattice_basis(rows, 3)
    # every generator lies in the lattice, with integer coordinates
    for r in rows:
        vec = {i: x for i, x in enumerate(r) if x}
        assert basis.solve(vec) is not None
    # canonical: independent of generator order and duplication
    basis2 = hnf_lattice_basis(list(reversed(rows)) + rows, 3)
    assert dense_rows(basis) == dense_rows(basis2)
    # pivots positive, entries above pivots reduced
    d = dense_rows(basis)
    pivots = [next(i for i, x in enumerate(row) if x) for row in d]
    assert pivots == sorted(pivots)
    for k, row in enumerate(d):
        assert row[pivots[k]] > 0
        for j in range(k):
            assert 0 <= d[j][pivots[k]] < row[pivots[k]]


@pytest.mark.parametrize("rows,p,expected", [
    ([[1, 2], [3, 4]], 5, 2),
    ([[1, 2], [3, 4]], 2, 1),
    ([[2, 4], [6, 8]], 2, 0),
    ([[1, 1], [1, 1]], 2, 1),
    ([[0, 0]], 3, 0),
])
def test_rank_mod_p_frozen(rows, p, expected):
    assert echelon(rows, p, len(rows[0])).rank == expected


def test_membership_mod_p_frozen():
    assert echelon([[1, 0], [1, 1]], 2, 2).contains(np.array([0, 1]))
    assert echelon([[1, 1]], 3, 2).contains(np.array([2, 2]))
    assert not echelon([[1, 1]], 3, 2).contains(np.array([1, 2]))
    assert echelon([], 5, 2).contains(np.array([0, 0]))
    assert not echelon([], 5, 2).contains(np.array([1, 0]))


def test_intersection_mod_p_frozen():
    out = subspace_intersection_mod_p([[1, 0], [0, 1]], [[1, 1]], 5)
    assert out == [[1, 1]]
    assert subspace_intersection_mod_p([[1, 0]], [[0, 1]], 5) == []


@settings(max_examples=60)
@given(st.integers(0, 2), st.data())
def test_intersection_dimension_formula(seed, data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    dim = 4
    u = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=dim,
                                    max_size=dim), min_size=0, max_size=3))
    w = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=dim,
                                    max_size=dim), min_size=0, max_size=3))
    inter = subspace_intersection_mod_p(u, w, p)
    eu, ew = echelon(u, p, dim), echelon(w, p, dim)
    assert len(inter) == eu.rank + ew.rank - echelon(u + w, p, dim).rank
    for v in inter:
        assert eu.contains(np.array(v)) and ew.contains(np.array(v))


def test_triplet_roundtrip_prime(tmp_path):
    m = SparsePrimeMatrix(2, 2, 5, {(0, 0): 3, (1, 1): 4})
    path = tmp_path / "m.txt"
    write_triplet_text(m, path)
    m2 = read_triplet_text(path)
    assert isinstance(m2, SparsePrimeMatrix)
    assert (m2.p, m2.entries) == (5, m.entries)
    assert path.read_text().splitlines()[0] == "2 2 5"


def test_triplet_deterministic_bytes(tmp_path):
    m = SparsePrimeMatrix(2, 2, 5, {(1, 0): 4, (0, 1): 3})
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    write_triplet_text(m, p1)
    write_triplet_text(m, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text() == "2 2 5\n0 1 3\n1 0 4\n"
