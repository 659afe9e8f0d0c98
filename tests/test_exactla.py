"""Exact linear algebra: frozen small cases and algebraic properties.

HNF expectations below were computed by hand (row reduction over Z with
unimodular operations), so they pin the canonical form: pivots positive,
entries above a pivot reduced into [0, pivot), rows ordered by pivot column.
"""

from __future__ import annotations

from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pbwdeg import exactla
from pbwdeg.exactla import (
    DenseEchelonModP,
    IncrementalHNF,
    LatticeBasis,
    SMALL_PRODUCT,
    _column_masks,
    _coordinates,
    _image_bits,
    _is_prime,
    _pack_bits,
    _pack_rows,
    _unpack_bits,
    matmul_mod,
    read_triplet_text,
    subspace_intersection_mod_p,
    write_triplet_text,
)
from pbwdeg.weylmod import _EchelonBlock, block_dense


def dense_rows(basis: LatticeBasis, width: int) -> list[list[int]]:
    return [[row.get(c, 0) for c in range(width)] for row in basis.rows]


def hnf_lattice_basis(gens) -> LatticeBasis:
    h = IncrementalHNF()
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
    basis = hnf_lattice_basis(gens)
    assert dense_rows(basis, dim) == expected
    assert basis.rank == len(expected)


def test_hnf_solve_frozen():
    basis = hnf_lattice_basis([(1, 1), (0, 2)])
    assert basis.solve({0: 3, 1: 5}) == [3, 1]
    assert basis.solve({0: 1}) is None          # (1,0) not in the lattice
    assert basis.solve({}) == [0, 0]
    assert basis.solve({0: 2, 1: 0}) is not None   # (2,0) = 2(1,1) - (0,2)


def test_hnf_incremental_change_reporting():
    h = IncrementalHNF()
    assert h.add({0: 2}) is True
    assert h.add({0: 4}) is False       # already inside
    assert h.add({0: 1}) is True        # refines the pivot, same rank
    assert h.rank == 1
    assert h.add({0: 3}) is False


@settings(max_examples=60)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=1, max_size=5))
def test_hnf_properties(rows):
    basis = hnf_lattice_basis(rows)
    # every generator lies in the lattice, with integer coordinates
    for r in rows:
        vec = {i: x for i, x in enumerate(r) if x}
        assert basis.solve(vec) is not None
    # canonical: independent of generator order and duplication
    basis2 = hnf_lattice_basis(list(reversed(rows)) + rows)
    assert dense_rows(basis, 3) == dense_rows(basis2, 3)
    # pivots positive, entries above pivots reduced
    d = dense_rows(basis, 3)
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


def _coo(entries):
    return tuple(np.array(x, dtype=np.int64)
                 for x in zip(*((r, c, v) for (r, c), v in entries.items())))


def test_triplet_roundtrip_prime(tmp_path):
    entries = {(0, 0): 3, (1, 1): 4}
    path = tmp_path / "m.txt"
    write_triplet_text(path, (2, 2), 5, *_coo(entries))
    shape, p, rows, cols, vals = read_triplet_text(path.read_text())
    assert all(x.dtype == np.int64 for x in (rows, cols, vals))
    assert (shape, p) == ((2, 2), 5)
    assert dict(zip(zip(rows.tolist(), cols.tolist()), vals.tolist())) == \
        entries
    assert path.read_text().splitlines()[0] == "2 2 5"


def test_triplet_deterministic_bytes(tmp_path):
    entries = {(1, 0): 4, (0, 1): 3}
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    write_triplet_text(p1, (2, 2), 5, *_coo(entries))
    write_triplet_text(p2, (2, 2), 5, *_coo(entries))
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text() == "2 2 5\n0 1 3\n1 0 4\n"


@pytest.mark.parametrize("body", ["0 1\n1 0\n0 0\n", "0 1 3 4\n",
                                  "0 2 1\n", "-1 0 1\n", "0 x 1\n"])
def test_triplet_reader_refuses_malformed_entries(body):
    """A line without exactly three integers, or an entry outside the
    header's shape (a negative index would wrap around in numpy), is a
    ValueError, which the cache reader treats as a miss."""
    with pytest.raises(ValueError):
        read_triplet_text("2 2 5\n" + body)


# -- the exact mod-p product and the batched echelon -------------------------

WIDTH = 64


def _prime_below(n: int) -> int:
    while not _is_prime(n):
        n -= 1
    return n


def _prime_above(n: int) -> int:
    n += 1
    while not _is_prime(n):
        n += 1
    return n


#: the largest prime with WIDTH * (p - 1)^2 < 2^53, and the next prime
P_FLOAT = _prime_below(isqrt(((1 << 53) - 1) // WIDTH) + 1)
P_INT = _prime_above(P_FLOAT)


def _reference_product(a, b, p):
    return [[sum(int(x) * int(y) for x, y in zip(row, col)) % p
             for col in zip(*b)] for row in a]


@pytest.fixture
def int64_route(monkeypatch):
    """A list that gets one entry for each product matmul_mod runs in
    int64: the route calls require_int64_safe, and the float64 one does
    not."""
    calls = []
    check = exactla.require_int64_safe

    def spy(p, width):
        calls.append((p, width))
        check(p, width)

    monkeypatch.setattr(exactla, "require_int64_safe", spy)
    return calls


@pytest.mark.parametrize("p", [P_FLOAT, P_INT])
def test_matmul_mod_on_both_sides_of_the_float_threshold(p, int64_route):
    """Every product here has more than SMALL_PRODUCT multiply-adds, so at
    P_FLOAT it takes the float64 route, with sums of the largest residues
    just below 2^53, and at P_INT the int64 one; all give the Python-int
    product."""
    assert (WIDTH * (P_FLOAT - 1) ** 2 < 1 << 53) and \
        (WIDTH * (P_INT - 1) ** 2 >= 1 << 53)
    rng = np.random.default_rng(p % 1000)
    top = np.full((17, WIDTH), p - 1, dtype=np.int64)
    cases = [(top, top.T.copy()),
             (rng.integers(0, p, (5, WIDTH)),
              rng.integers(0, p, (WIDTH, 7))),
             (rng.integers(p - 3, p, (5, WIDTH)),
              rng.integers(p - 3, p, (WIDTH, 5)).astype(np.float64))]
    for a, b in cases:
        assert a.shape[0] * WIDTH * b.shape[1] > SMALL_PRODUCT
        got = matmul_mod(a, b, p)
        assert got.dtype == np.int64
        assert got.tolist() == _reference_product(a.tolist(), b.tolist(), p)
    assert len(int64_route) == (0 if p == P_FLOAT else len(cases))


def test_matmul_mod_refuses_past_int64():
    p = _prime_above(isqrt(((1 << 63) - 1) // WIDTH) + 1)
    a = np.ones((1, WIDTH), dtype=np.int64)
    with pytest.raises(ValueError, match="overflows int64"):
        matmul_mod(a, a.T, p)


#: (m, k, n) on both sides of SMALL_PRODUCT, the 1-row products of the
#: echelon's reduction among them
SIZE_RULE_SHAPES = [(1, 3, 1), (1, 9, 9), (4, 16, 16), (4, 16, 17),
                    (1, 64, 17), (8, 8, 8), (21, 102, 102)]


@pytest.mark.parametrize("p", [2, 3, 5, 65537])
def test_matmul_mod_routes_agree_across_the_size_rule(p, int64_route):
    """Products of at most SMALL_PRODUCT multiply-adds take the int64
    route and larger ones float64; on random residues both give the
    Python-int product, from int64 or float64 operands alike."""
    rng = np.random.default_rng(p)
    small = [m * k * n <= SMALL_PRODUCT for m, k, n in SIZE_RULE_SHAPES]
    assert any(small) and not all(small)
    for (m, k, n), is_small in zip(SIZE_RULE_SHAPES, small):
        a, b = rng.integers(0, p, (m, k)), rng.integers(0, p, (k, n))
        want = _reference_product(a.tolist(), b.tolist(), p)
        for x, y in [(a, b), (a, b.astype(np.float64)),
                     (a.astype(np.float64), b.astype(np.float64))]:
            int64_route.clear()
            got = matmul_mod(x, y, p)
            assert len(int64_route) == is_small, (m, k, n)
            assert got.dtype == np.int64
            assert got.tolist() == want, (m, k, n, x.dtype, y.dtype)
        vec = a[0]  # a vector times a matrix, as the echelon reduces one
        int64_route.clear()
        assert matmul_mod(vec, b, p).tolist() == want[0]
        assert len(int64_route) == (k * n <= SMALL_PRODUCT)


@pytest.mark.parametrize("shape", [(1, WIDTH, 1), (32, WIDTH, 32)])
def test_matmul_mod_near_the_int64_bound(shape, int64_route):
    """The largest prime that int64 holds a width-WIDTH sum of products
    for is computed exactly, by a small product and a large one alike,
    and the next prime is refused by both."""
    m, k, n = shape
    edge = isqrt(((1 << 63) - 1) // k) + 1
    p_ok, p_past = _prime_below(edge - 1), _prime_above(edge)
    assert k * (p_ok - 1) ** 2 < 1 << 63 <= k * (p_past - 1) ** 2
    rng = np.random.default_rng(m)
    a = rng.integers(p_ok - 5, p_ok, (m, k))
    b = rng.integers(p_ok - 5, p_ok, (k, n))
    assert matmul_mod(a, b, p_ok).tolist() == \
        _reference_product(a.tolist(), b.tolist(), p_ok)
    assert int64_route == [(p_ok, k)]
    with pytest.raises(ValueError, match="overflows int64"):
        matmul_mod(a, b, p_past)


P_PAST_FLOAT = 100000007  # (p - 1)^2 alone exceeds 2^53


def _reference_residue(rows, pivots, v, p):
    """v mod p reduced by every stored row at that row's pivot."""
    v = [x % p for x in v]
    for r, c in zip(rows, pivots):
        f = v[c]
        if f:
            v = [(x - f * y) % p for x, y in zip(v, r)]
    return v


def _reference_echelon(p, width, batches):
    """Incremental RREF in Python ints, one row at a time: a row is reduced
    by every stored row at that row's pivot, and if something is left it
    is scaled to a unit pivot, stored, and cleared from the stored rows.
    Per batch it gives the indices taken and the rows as stored then; at
    the end, the stored rows and their pivot columns."""
    rows: list[list[int]] = []
    pivots: list[int] = []
    per_batch = []
    for batch in batches:
        taken, stored = [], []
        for i, v in enumerate(batch):
            v = _reference_residue(rows, pivots, v, p)
            if not any(v):
                continue
            c = next(j for j, x in enumerate(v) if x)
            inv = pow(v[c], -1, p)
            v = [x * inv % p for x in v]
            rows[:] = [[(x - r[c] * y) % p for x, y in zip(r, v)]
                       if r[c] else r for r in rows]
            rows.append(v)
            pivots.append(c)
            taken.append(i)
            stored.append(v)
        per_batch.append((taken, stored))
    assert len(rows) <= width
    return per_batch, rows, pivots


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 65521, P_PAST_FLOAT]), st.data())
def test_add_rows_matches_add_row_loop(p, data):
    """add_rows against the Python reference: the rows taken, the rows as
    stored at acceptance, and the RREF and pivot columns after each batch,
    on batches that fill the width too."""
    width = data.draw(st.integers(1, 12))
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    row = st.lists(entry, min_size=width, max_size=width)
    before = data.draw(st.lists(row, max_size=4))
    batch = data.draw(st.lists(row, max_size=12))
    # dependent rows: sums of earlier ones
    for i, j in data.draw(st.lists(st.tuples(st.integers(0, 11),
                                             st.integers(0, 11)), max_size=4)):
        if i < len(batch) and j < len(batch):
            batch.append([(x + y) % p for x, y in zip(batch[i], batch[j])])
    if data.draw(st.booleans()):
        # a basis of F_p^width scattered through the batch fills the width
        units = [[int(k == j) * data.draw(st.integers(1, p - 1))
                  for k in range(width)] for j in range(width)]
        batch = batch[:16 - width]
        for u in units:
            batch.insert(data.draw(st.integers(0, len(batch))), u)
    ref, rows, pivots = _reference_echelon(p, width, [before, batch])
    ech = DenseEchelonModP(p, width)
    for rows_in, (taken, stored) in zip([before, batch], ref):
        got_taken, got_stored = ech.add_rows(
            np.array(rows_in, dtype=np.int64).reshape(-1, width))
        assert got_taken == taken
        assert got_stored.tolist() == stored
    assert ech.basis_matrix().tolist() == rows
    assert ech.pivot_cols.tolist() == pivots
    assert ech.rank == len(rows)


#: widths on both sides of a byte and of a 64-bit word
F2_WIDTHS = [0, 1, 7, 8, 9, 62, 63, 64, 65, 127, 128, 129, 200]


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.sampled_from(F2_WIDTHS), st.integers(0, 200)), st.data())
def test_add_rows_over_f2_across_word_widths(width, data):
    """Over F_2 the rows are bitsets, so widths past a machine word are a
    path of their own.  After every batch (empty, sparse, dense, with
    dependent rows, with entries outside {0, 1}, or running past the full
    width) the rows taken, the rows stored, the RREF, the pivot columns,
    the rank, residues and membership all match the Python reference."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))

    def rows(n, density):
        return (rng.random((n, width)) < density).astype(np.int64)

    batches = []
    for _ in range(data.draw(st.integers(1, 3))):
        batch = rows(data.draw(st.integers(0, 12)),
                     data.draw(st.sampled_from([0.02, 0.1, 0.5])))
        if len(batch) >= 2:  # dependent rows: sums of two earlier ones
            i, j = rng.integers(0, len(batch), (2, 3))
            batch = np.vstack([batch, batch[i] + batch[j]])
        if data.draw(st.booleans()):
            batch = batch * rng.choice([1, -1, 3], batch.shape)
        batches.append(batch)
    if data.draw(st.booleans()):
        # a basis of F_2^width among other rows, then rows past the full width
        fill = np.vstack([np.eye(width, dtype=np.int64), rows(4, 0.5)])
        batches.append(np.vstack([fill[rng.permutation(len(fill))],
                                  rows(3, 0.5)]))
    ech = DenseEchelonModP(2, width)
    for k, batch in enumerate(batches):
        ref, basis, pivots = _reference_echelon(
            2, width, [b.tolist() for b in batches[:k + 1]])
        taken, stored = ech.add_rows(batch)
        assert taken == ref[k][0]
        assert stored.dtype == np.int64
        assert stored.shape == (len(taken), width)
        assert stored.tolist() == ref[k][1]
        assert ech.basis_matrix().tolist() == basis
        assert ech.pivot_cols.tolist() == pivots
        assert ech.rank == len(basis)
        in_span = np.zeros(width, dtype=np.int64)
        for r in basis:
            in_span = (in_span + rng.integers(0, 2) * np.array(r)) % 2
        probes = np.vstack([rows(4, 0.3), in_span, 3 * in_span])
        want = [_reference_residue(basis, pivots, v, 2)
                for v in probes.tolist()]
        assert ech.residue(probes).tolist() == want
        for v, r in zip(probes, want):
            assert ech.residue(v).tolist() == r
            assert ech.contains(v) is (not any(r))
        assert ech.contains(in_span)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.sampled_from(F2_WIDTHS), st.integers(0, 200)),
       st.one_of(st.sampled_from(F2_WIDTHS), st.integers(0, 200)), st.data())
def test_image_over_f2_across_word_widths(n_src, n_dst, data):
    """The F_2 image of bitset rows, the XOR of the column masks at their
    set bits, equals matmul_mod of the int64 rows with the dense block,
    on blocks and rows that are empty, sparse or dense, with source and
    target widths on either side of a 64-bit word."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    density = data.draw(st.sampled_from([0.0, 0.02, 0.1, 0.5, 1.0]))
    # the entries of a block, sorted by column, then row, as BlockOp keeps
    c, r = np.nonzero(rng.random((n_src, n_dst)) < density)
    rows = (rng.random((data.draw(st.integers(0, 12)), n_src))
            < data.draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])))
    rows = rows.astype(np.int64)
    want = matmul_mod(rows, block_dense((n_src, n_dst), c, r,
                                        np.ones(len(r), dtype=np.int64)), 2)
    got = _image_bits(_column_masks(n_src, r, c), _pack_bits(rows))
    assert len(got) == len(rows)
    assert _unpack_bits(got, n_dst).tolist() == want.tolist()


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.sampled_from(F2_WIDTHS), st.integers(0, 200)), st.data())
def test_coords_over_f2_find_or_refuse(width, data):
    """Coordinates of bitset images in an RREF basis over F_2: each image
    in the span is the sum of the basis rows at its coordinates, listed
    by image, then basis row; an image with a residue anywhere, past the
    first 64 bits too, is refused."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    gens = (rng.random((data.draw(st.integers(0, 12)), width))
            < data.draw(st.sampled_from([0.05, 0.5]))).astype(np.int64)
    ech = DenseEchelonModP(2, width)
    ech.add_rows(gens)
    order = np.argsort(ech.pivot_cols)
    basis = ech.basis_matrix()[order]
    mask = sum(1 << c for c in ech.pivot_cols.tolist())  # the pivot bits
    coeffs = rng.integers(0, 2, (data.draw(st.integers(0, 6)), len(basis)))
    images = coeffs @ basis % 2
    found = _coordinates(_pack_bits(images), _pack_bits(basis), mask, 2)
    j, i = np.nonzero(coeffs)  # by image j, then basis row i
    assert [x.tolist() for x in found] == \
        [i.tolist(), j.tolist(), [1] * len(i)]
    assert [x.dtype for x in found] == [np.int32, np.int32, np.int64]
    outside = [c for c in range(width) if not ech.contains(
        np.identity(width, dtype=np.int64)[c])]
    if outside and len(images):
        c = data.draw(st.sampled_from(outside))
        images[-1, c] ^= 1
        assert _coordinates(_pack_bits(images), _pack_bits(basis), mask,
                            2) is None


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.sampled_from(F2_WIDTHS), st.integers(0, 200)), st.data())
def test_echelon_block_over_f2_keeps_the_echelons_bitsets(width, data):
    """Over F_2 a module block reads the echelon's bitsets by ascending
    pivot: the basis that packing the basis matrix sorted by pivot gives,
    rows that unpack to it and pack back, and the mask of the pivot bits,
    by which _coordinates finds each basis row as itself."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    ech = DenseEchelonModP(2, width)
    for _ in range(data.draw(st.integers(0, 3))):  # pivots out of order
        ech.add_rows((rng.random((data.draw(st.integers(0, 8)), width))
                      < data.draw(st.sampled_from([0.05, 0.5])))
                     .astype(np.int64))
    want = ech.basis_matrix()[np.argsort(ech.pivot_cols)]
    blk = _EchelonBlock((0,), ech)
    assert blk.basis == _pack_rows(want, 2)
    assert blk.rows.tolist() == want.tolist()
    assert _pack_rows(blk.rows, 2) == blk.basis
    assert blk.pivots == sorted(ech.pivot_cols.tolist())
    assert blk.at == sum(1 << c for c in blk.pivots)
    found = _coordinates(blk.basis, blk.basis, blk.at, 2)
    assert [x.tolist() for x in found] == \
        [list(range(blk.rank))] * 2 + [[1] * blk.rank]
