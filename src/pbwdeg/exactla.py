"""Exact sparse linear algebra over Z and over prime fields.

Z-side lattices use Hermite normal form with arbitrary-precision ints;
mod-p work is done natively over F_p (int64 rows, explicit modular
inverse), never by reducing a rational computation.  Over other primes
than 2, dense mod-p products go through matmul_mod: small ones in int64,
large ones in float64 BLAS while every partial sum is exact there.  Over
F_2 a row is an int bitset, bit j for column j, from the span walk through
the module operators: the echelon eliminates by XOR, an image is the XOR
of one column mask per set bit (_image_bits), and coordinates in an RREF
basis are the pivot bits that clear an image (_coordinates).

Sparse vectors are dicts column -> nonzero value.  The triplet text format
for matrices mod p is one header line ``nrows ncols p`` followed by
``row col value`` lines sorted by (row, col); it is written from and read
into int64 COO arrays (rows, cols, values).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt
from pathlib import Path

import numpy as np

Vec = dict[int, int]


def _to_vec(v) -> Vec:
    if isinstance(v, dict):
        return {c: x for c, x in v.items() if x}
    return {c: x for c, x in enumerate(v) if x}


def vec_add_scaled(v: Vec, w: Vec, c: int) -> None:
    """v += c*w in place, dropping zeros."""
    if c == 0:
        return
    for col, x in w.items():
        new = v.get(col, 0) + c * x
        if new:
            v[col] = new
        else:
            v.pop(col, None)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) = x*a + y*b, g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


# ---------------------------------------------------------------------------
# matrices

@dataclass
class SparseIntMatrix:
    nrows: int
    ncols: int
    entries: dict[tuple[int, int], int] = field(default_factory=dict)

    def to_dense(self) -> list[list[int]]:
        out = [[0] * self.ncols for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out


def write_triplet_text(path, shape, p: int, rows, cols, vals) -> None:
    """Write the entries given as COO arrays, one per (row, col)."""
    order = np.lexsort((cols, rows))
    lines = [f"{shape[0]} {shape[1]} {p}"] + [
        f"{r} {c} {v}" for r, c, v in
        zip(*(x[order].tolist() for x in (rows, cols, vals)))]
    Path(path).write_text("\n".join(lines) + "\n")


def read_triplet_text(text: str):
    """((nrows, ncols), p, rows, cols, vals) of the triplet text, the
    entries as int64 arrays; ValueError on a malformed line or an entry
    outside the matrix."""
    header, *body = text.splitlines()
    nr, nc, p = (int(x) for x in header.split())
    rows, cols, vals = np.array(
        [(r, c, v) for r, c, v in (line.split() for line in body
                                   if line.strip())],
        dtype=np.int64).reshape(-1, 3).T
    if np.any((rows < 0) | (rows >= nr) | (cols < 0) | (cols >= nc)):
        raise ValueError(f"an entry lies outside its {nr} x {nc} matrix")
    return (nr, nc), p, rows, cols, vals


# ---------------------------------------------------------------------------
# Hermite normal form lattices

class IncrementalHNF:
    """Row lattice accumulated one generator at a time.

    Pivot rows are kept by leading column; gcd combinations keep pivots as
    small as possible.  ``add`` reports whether the lattice actually grew,
    which is what spanning loops key their worklists on.
    """

    def __init__(self):
        self.pivots: dict[int, Vec] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, v) -> bool:
        v = _to_vec(v)
        changed = False
        while v:
            c = min(v)
            if c not in self.pivots:
                if v[c] < 0:
                    v = {col: -x for col, x in v.items()}
                self.pivots[c] = v
                return True
            row = self.pivots[c]
            a, b = row[c], v[c]
            if b % a == 0:
                vec_add_scaled(v, row, -(b // a))
                continue
            g, x, y = _xgcd(a, b)
            new_row: Vec = {}
            vec_add_scaled(new_row, row, x)
            vec_add_scaled(new_row, v, y)
            # v loses its leading entry; the pivot shrinks to the gcd
            v2: Vec = {}
            vec_add_scaled(v2, v, a // g)
            vec_add_scaled(v2, row, -(b // g))
            self.pivots[c] = new_row
            v = v2
            changed = True
        return changed

    def finalize(self) -> "LatticeBasis":
        cols = sorted(self.pivots)
        rows = [dict(self.pivots[c]) for c in cols]
        # normalize: positive pivots, entries above a pivot reduced mod pivot
        for k, c in enumerate(cols):
            if rows[k][c] < 0:
                rows[k] = {col: -x for col, x in rows[k].items()}
        for k, c in enumerate(cols):
            piv = rows[k][c]
            for j in range(k):
                q = rows[j].get(c, 0) // piv
                if q:
                    vec_add_scaled(rows[j], rows[k], -q)
        return LatticeBasis(rows, tuple(cols))


@dataclass
class LatticeBasis:
    """HNF basis of a sublattice of Z^n (rows sorted by pivot)."""

    rows: list[Vec]
    pivot_cols: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.rows)

    def solve(self, v) -> list[int] | None:
        """Integer coordinates of v in this basis, or None if outside."""
        v = _to_vec(v)
        coords = []
        for row, c in zip(self.rows, self.pivot_cols):
            a = v.get(c, 0)
            q, r = divmod(a, row[c])
            if r:
                return None
            coords.append(q)
            vec_add_scaled(v, row, -q)
        return coords if not v else None


# ---------------------------------------------------------------------------
# prime fields

#: the first twelve primes; as Miller-Rabin bases they decide primality
#: for every n below 3.3e24, in particular every 64-bit n
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 0 <= n < 2^64."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int) -> None:
    if p >= 1 << 64:
        raise ValueError(f"{p} is above 2^64; primality is only decided "
                         "for 64-bit p")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")


def require_int64_safe(p: int, width: int) -> None:
    """Refuse p when int64 row arithmetic mod p can overflow.

    Rows are int64 numpy arrays, and a product of matrices or an echelon
    reduction sums up to `width` products of two residues before reducing
    mod p, so every intermediate stays below 2^63 exactly when
    width * (p - 1)^2 does.
    """
    if width * (p - 1) ** 2 >= 1 << 63:
        limit = isqrt(((1 << 63) - 1) // width) + 1
        raise ValueError(f"p = {p} overflows int64 arithmetic on rows of "
                         f"up to {width} entries; the largest safe p is "
                         f"{limit}")


#: products of at most this many multiply-adds (m * k * n) run in int64
SMALL_PRODUCT = 1024


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p as int64, exactly, for matrices of residues in [0, p)
    held as int64 or float64.

    Each entry is a sum of `width` products below (p - 1)^2.  When that sum
    stays below 2^53 every partial sum is an integer that float64 holds
    exactly, whatever order BLAS adds in, so a large product runs in
    float64 BLAS with one reduction at the end (the delayed modular
    reduction of FFLAS-FFPACK).  A product of at most SMALL_PRODUCT
    multiply-adds, or one past 2^53, runs in numpy's int64 loop under
    require_int64_safe, which also keeps p below 2^32, so float64 inputs
    hold their residues exactly.  The choice reads the shapes and p alone.

    The break-even was measured on a 2-core x86-64 machine with numpy 2.4,
    each product including the dense block built from COO entries: the
    routes cost the same, about 5 us, at 1000 to 3000 multiply-adds; below
    that int64 takes about 0.8 of the float64 time (3.1 against 4.2 us at
    (4x8)@(8x8)), and above it BLAS wins (20 against 115 us at
    (21x102)@(102x102)).
    """
    width = a.shape[-1]
    work = a.size * (b.shape[-1] if b.ndim > 1 else 1)
    if work > SMALL_PRODUCT and width * (p - 1) ** 2 < 1 << 53:
        out = a.astype(np.float64, copy=False) @ \
            b.astype(np.float64, copy=False)
        return out.astype(np.int64) % p
    require_int64_safe(p, width)
    return (a.astype(np.int64, copy=False) @
            b.astype(np.int64, copy=False)) % p


def _inv_mod(x: int, p: int) -> int:
    return pow(int(x), -1, p)


def _pack_bits(mat: np.ndarray) -> list[int]:
    """The rows of an integer matrix mod 2 as ints, bit j for column j."""
    packed = np.packbits(np.asarray(mat, dtype=np.int64) & 1, axis=1,
                         bitorder="little")
    data, nb = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[k * nb:k * nb + nb], "little")
            for k in range(len(packed))]


def _unpack_bits(rows: list[int], width: int) -> np.ndarray:
    """The int64 matrix whose rows have the bits of rows."""
    nb = (width + 7) // 8
    data = b"".join(x.to_bytes(nb, "little") for x in rows)
    packed = np.frombuffer(data, dtype=np.uint8).reshape(len(rows), nb)
    return np.unpackbits(packed, axis=1, count=width,
                         bitorder="little").astype(np.int64)


# Rows of a weight block as the mod-p route keeps them, from span walk to
# module operator: int bitsets over F_2, int64 matrices over other primes.

def _pack_rows(mat: np.ndarray, p: int):
    """The rows of an int64 matrix in the route's form."""
    return _pack_bits(mat) if p == 2 else mat


def _unpack_rows(rows, width: int, p: int) -> np.ndarray:
    """Rows in the route's form as an int64 matrix of the given width."""
    if p == 2:
        return _unpack_bits(rows, width)
    return np.asarray(rows, dtype=np.int64).reshape(-1, width)


def _joined(parts: list, p: int):
    """Batches of rows in the route's form as one."""
    if p == 2:
        return [x for rows in parts for x in rows]
    return parts[0] if len(parts) == 1 else np.vstack(parts)


def _column_masks(n_src: int, rows, cols) -> list[int]:
    """Over F_2, the n_src column masks of a matrix whose ones are at
    (rows, cols): bit r of mask c is entry (r, c)."""
    masks = [0] * n_src
    for r, c in zip(rows.tolist(), cols.tolist()):
        masks[c] |= 1 << r
    return masks


def _image_bits(masks: list[int], rows: list[int]) -> list[int]:
    """Over F_2, the images of bitset rows under the matrix of the column
    masks: each image is the XOR of the masks at the set bits of its row
    (the word-wide XOR of M4RI, with one mask per column in place of its
    tables of row combinations)."""
    out = []
    for x in rows:
        acc = 0
        while x:
            low = x & -x
            acc ^= masks[low.bit_length() - 1]
            x ^= low
        out.append(acc)
    return out


def _coordinates(images, basis, pivots, p: int):
    """The coordinates of images in an RREF basis over F_p whose rows are
    sorted by their pivot columns, as arrays (basis rows, images, values)
    of the nonzero ones (int32, int32, int64), sorted by image, then basis
    row; None once an image leaves the span.  Over F_2 the rows are int
    bitsets and pivots their mask: each image is cleared by the basis rows
    at its set pivot bits (the row of a bit is the count of pivot bits
    below it), which must leave nothing.  Else pivots is the list of pivot
    columns of int64 rows, and the coordinates are the images there."""
    if p != 2:
        coords = images[:, pivots]
        if not np.array_equal(matmul_mod(coords, basis, p), images):
            return None
        i, j = np.nonzero(coords)
        return j.astype(np.int32), i.astype(np.int32), coords[i, j]
    rows: list[int] = []
    cols: list[int] = []
    for j, x in enumerate(images):
        m = x & pivots
        while m:
            low = m & -m
            i = (pivots & (low - 1)).bit_count()
            x ^= basis[i]
            rows.append(i)
            cols.append(j)
            m ^= low
        if x:
            return None
    return (np.array(rows, dtype=np.int32), np.array(cols, dtype=np.int32),
            np.ones(len(rows), dtype=np.int64))


class DenseEchelonModP:
    """Reduced row echelon form over F_p, grown a batch at a time.

    Between calls the stored rows are the unique RREF of their span (unit
    pivots, zeros above and below), so the residue of a vector is canonical.
    For p > 2 the rows are int64 numpy rows; within a call the
    back-substitution is put off until the batch is eliminated, and reaches
    the old rows as one product (the delayed reduction of FFLAS-FFPACK).
    Over F_2 each row is an int bitset, bit j for column j, kept by pivot
    column: a vector is cleared by XOR with the rows at its set pivot bits,
    and an accepted row is XORed at once into every row that holds its
    pivot bit (the word-wide elimination of M4RI).  The span walk feeds
    bitsets to _add_bits and keeps the bitsets it returns; rows cross to
    and from int64 arrays only in add_rows, basis_matrix and residue.
    """

    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width
        if p == 2:
            #: over F_2, pivot column -> row bits, in the order taken
            self._bits: dict[int, int] = {}
            self._mask = 0  # the pivot bits
        else:
            self._rows = np.zeros((8, width), dtype=np.int64)
        self._n = 0
        #: pivot column of each stored row, in the order they were taken
        self.pivot_cols = np.zeros(0, dtype=np.intp)

    @property
    def rank(self) -> int:
        return self._n

    def basis_matrix(self) -> np.ndarray:
        if self.p == 2:
            return _unpack_bits(list(self._bits.values()), self.width)
        return self._rows[:self._n]

    def _clear(self, x: int) -> int:
        """The residue of a row over F_2: the stored rows are zero at each
        other's pivots, so each set pivot bit of x is cleared by one XOR."""
        bits = self._bits
        m = x & self._mask
        while m:
            low = m & -m
            x ^= bits[low.bit_length() - 1]
            m ^= low
        return x

    def _add_bits(self, rows: list[int]) -> tuple[list[int], list[int]]:
        """add_rows over F_2 on bitset rows, returning the stored rows as
        bitsets: each row is cleared by the rows stored so far, this
        batch's included, and a row that is left is stored at once."""
        bits = self._bits
        taken: list[int] = []
        cols: list[int] = []
        stored: list[int] = []
        for i, x in enumerate(rows):
            if self._n == self.width:
                break
            x = self._clear(x)
            if not x:
                continue
            low = x & -x
            for k, row in bits.items():
                if row & low:
                    bits[k] = row ^ x
            c = low.bit_length() - 1
            bits[c] = x
            self._mask |= low
            self._n += 1
            taken.append(i)
            cols.append(c)
            stored.append(x)
        if taken:
            self.pivot_cols = np.concatenate([self.pivot_cols, cols])
        return taken, stored

    def _reduce(self, vec: np.ndarray) -> np.ndarray:
        """Subtract the components along every pivot row, not just the leading
        one, so residues are canonical.  A matrix is reduced row by row."""
        vec = np.asarray(vec, dtype=np.int64) % self.p
        if self._n:
            coeffs = vec[..., self.pivot_cols]
            if coeffs.any():
                vec = (vec - matmul_mod(coeffs, self._rows[:self._n],
                                        self.p)) % self.p
        return vec

    def add_rows(self, mat: np.ndarray) -> tuple[list[int], np.ndarray]:
        """Add the rows of mat in order; returns the indices of the rows that
        were independent of the span so far and those rows as stored at
        acceptance (reduced, unit pivot), exactly as add_row would store them
        one at a time.

        For p > 2 the whole batch is reduced against the stored rows by one
        product; each accepted row then clears its pivot column from the
        rows after it, which is what reducing them against it would do.
        _store does the back-substitution the one-at-a-time feed would have
        done on every acceptance, once per call.  Over F_2, _add_bits feeds
        the rows one at a time; the span walk calls it on bitsets.
        """
        if self.p == 2:
            taken, stored = self._add_bits(_pack_bits(np.atleast_2d(mat)))
            return taken, _unpack_bits(stored, self.width)
        res = self._reduce(np.atleast_2d(mat))
        p = self.p
        taken: list[int] = []
        cols: list[int] = []
        i = 0
        while self._n + len(taken) < self.width:
            live = res[i:].any(axis=1).nonzero()[0]
            if not live.size:
                break
            i += int(live[0])
            row = res[i]
            c = int(row.nonzero()[0][0])
            if row[c] != 1:
                row[:] = row * _inv_mod(row[c], p) % p
            taken.append(i)
            cols.append(c)
            i += 1
            rest = res[i:]
            hit = rest[:, c].nonzero()[0]
            if hit.size:
                rest[hit] = (rest[hit] - np.outer(rest[hit, c], row)) % p
        stored = res[taken]
        if taken:
            self._store(stored, cols)
        return taken, stored

    def _store(self, new: np.ndarray, cols: list[int]) -> None:
        """Append rows with unit pivots in cols, each zero at the old pivot
        columns and at the pivot columns of the rows before it.  The rows
        are first cleared within themselves, last pivot first, and then the
        old rows lose the new pivot columns by one product, so the stored
        rows stay the RREF."""
        n, k, p = self._n, len(new), self.p
        if k > 1:
            new = new.copy()
            for j in range(k - 1, 0, -1):
                hit = new[:j, cols[j]].nonzero()[0]
                if hit.size:
                    new[hit] = (new[hit]
                                - np.outer(new[hit, cols[j]], new[j])) % p
        old = self._rows[:n]
        if n:
            coeffs = old[:, cols]
            if coeffs.any():
                old[:] = (old - matmul_mod(coeffs, new, p)) % p
        if n + k > len(self._rows):
            grown = np.zeros((max(n + k, 2 * n), self.width), dtype=np.int64)
            grown[:n] = old
            self._rows = grown
        self._rows[n:n + k] = new
        self.pivot_cols = np.concatenate([self.pivot_cols, cols])
        self._n = n + k

    def add_row(self, vec: np.ndarray) -> bool:
        return bool(self.add_rows(vec)[0])

    def residue(self, vec: np.ndarray) -> np.ndarray:
        if self.p == 2:
            vec = np.asarray(vec)
            rows = _pack_bits(np.atleast_2d(vec))
            return _unpack_bits([self._clear(x) for x in rows],
                                self.width).reshape(vec.shape)
        return self._reduce(vec)

    def contains(self, vec: np.ndarray) -> bool:
        return not np.any(self.residue(vec))


def subspace_intersection_mod_p(u_basis, w_basis, p: int) -> list[list[int]]:
    """Basis of the intersection of two row spans over F_p (Zassenhaus).

    Rows [u | u] for u in U and [w | 0] for w in W are echelonized; rows with
    vanishing left half carry the intersection in their right half.
    """
    u_basis = [list(map(int, r)) for r in u_basis]
    w_basis = [list(map(int, r)) for r in w_basis]
    if not u_basis or not w_basis:
        return []
    dim = len(u_basis[0])
    ech = DenseEchelonModP(p, 2 * dim)
    for u in u_basis:
        ech.add_row(np.array(u + u, dtype=np.int64))
    for w in w_basis:
        ech.add_row(np.array(w + [0] * dim, dtype=np.int64))
    rows = ech.basis_matrix()
    right = [row[dim:] for row in rows if not np.any(row[:dim])]
    out = DenseEchelonModP(p, dim)
    for r in right:
        out.add_row(r)
    return [list(map(int, row)) for row in out.basis_matrix()]
