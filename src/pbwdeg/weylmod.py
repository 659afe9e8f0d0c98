"""Weyl modules over Z and over prime fields.

Construction is by spanning: starting from a highest weight vector inside a
tensor product of explicit integral representations, close the span under
divided powers of the simple lowering operators.  Over Z this produces the
minimal admissible lattice as a Hermite normal form per weight space; over
F_p the span under p-power divided powers is echelonized per weight space
and checked against the Weyl dimension, which pins the result down as the
reduction of the universal highest weight module.

Tensor factors are either explicit fundamental representations or
previously built modules, so a large weight can be built stage by stage
with one fundamental factor peeled off at a time.

The per weight bases are reduced echelon rows sorted by pivot column, which
are canonical for the subspace they span: two runs, or two construction
routes through the same ambient, produce identical matrices.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import count, permutations, product
from math import factorial, prod

import numpy as np
import scipy.sparse as sp

from .chevrep import (
    IntegralRep,
    NonIntegralDividedPower,
    chevalley_constants,
    divided_power_matrix,
    root_lowering_operator,
    root_raising_operator,
)
from .exactla import (
    DenseEchelonModP,
    IncrementalHNF,
    LatticeBasis,
    SparseIntMatrix,
    Vec,
    vec_add_scaled,
)
from .rootsys import IntegrityError, Root, RootSystemData, Weight, star_weight

log = logging.getLogger(__name__)


class RankMismatch(RuntimeError):
    """The spanned module does not have the Weyl dimension."""

    def __init__(self, lam, expected: int, found: int):
        super().__init__(
            f"span for weight {lam} has rank {found}, expected {expected}")
        self.lam = lam
        self.expected = expected
        self.found = found


@dataclass(frozen=True)
class RelationWitness:
    """Pinpointed failure of a defining relation on a module basis vector."""

    relation: str
    basis_index: int
    detail: str = ""


def _add(a: Weight, b: Weight) -> Weight:
    return tuple(x + y for x, y in zip(a, b))


def _sub(a: Weight, b: Weight) -> Weight:
    return tuple(x - y for x, y in zip(a, b))


def _neg(a: Weight) -> Weight:
    return tuple(-x for x in a)


# ---------------------------------------------------------------------------
# characters

def weyl_dim(rs: RootSystemData, lam) -> int:
    """Dimension of the Weyl module by the Weyl dimension formula.

    prod_beta (lam + rho, beta) / (rho, beta), with both products taken
    over the integers through the scaled Gram data (the determinant of the
    Cartan matrix cancels in every factor).
    """
    lam = tuple(lam)
    if len(lam) != rs.rank or any(x < 0 for x in lam):
        raise ValueError(f"invalid dominant weight {lam} for {rs.name}")
    top = _add(lam, rs.rho)
    num = den = 1
    for g in rs.root_gram:
        a, b = _dot(top, g), _dot(rs.rho, g)
        if a <= 0 or b <= 0:
            raise IntegrityError(
                f"(lam + rho, beta) = {a}, (rho, beta) = {b} for {lam} in "
                f"{rs.name}: a positive root pairs nonpositively")
        num *= a
        den *= b
    out, rem = divmod(num, den)
    if rem:
        raise IntegrityError(
            f"Weyl dimension of {lam} for {rs.name} is {num}/{den}, "
            "not an integer")
    return out


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


class _WeightBox:
    """Weights mu with lambda - mu and mu - w0(lambda) both in Q^+.

    A weight is located by c = root coordinates of lambda - mu, and it lies
    in the box exactly when c is integral with 0 <= c <= cmax.
    """

    def __init__(self, rs: RootSystemData, lam: Weight):
        self.rs = rs
        self.lam = lam
        self.low = _neg(star_weight(rs, lam))  # w0(lambda)
        cmax = rs.root_coords_int(_sub(lam, self.low))
        if cmax is None:
            raise IntegrityError(
                f"lambda - w0(lambda) for {lam} has root coordinates "
                f"{rs.to_root_coords(_sub(lam, self.low))}, not integral")
        self.cmax = cmax
        #: simple roots in fundamental coordinates
        self.simple_funds = [rs.root_fund(rs.simple_root(i))
                             for i in range(rs.rank)]

    def coords(self, mu: Weight) -> tuple[int, ...] | None:
        """c for a weight inside the box, else None."""
        c = self.rs.root_coords_int(_sub(self.lam, mu))
        if c is None or any(x < 0 or x > m for x, m in zip(c, self.cmax)):
            return None
        return c

    def height(self, mu: Weight) -> int | None:
        c = self.coords(mu)
        return None if c is None else sum(c)

    def all_weights(self):
        """Box weights as (height, weight, c), ascending by height then
        weight."""
        rs = self.rs
        out = []
        for c in product(*(range(x + 1) for x in self.cmax)):
            shift = rs.root_fund(c)
            out.append((sum(c), _sub(self.lam, shift), c))
        out.sort(key=lambda t: (t[0], tuple(-x for x in t[1])))
        return out


def freudenthal_multiplicities(rs: RootSystemData, lam) -> dict[Weight, int]:
    """Exact weight multiplicities of V(lambda) by Freudenthal recursion.

    Inner products are taken as cartan_det times their value, which is an
    integer; the factor cancels in the quotient.  Weights nu = mu + j beta
    above mu are located by their box coordinates c_mu - j beta.
    """
    lam = tuple(lam)
    box = _WeightBox(rs, lam)
    top = _add(lam, rs.rho)
    norm_top = rs.inner_scaled(top, top)
    # per root: beta, G beta (mu . G beta = det (mu, beta)), det (beta, beta)
    roots = [(beta, g, _dot(rs.root_fund(beta), g))
             for beta, g in zip(rs.positive_roots, rs.root_gram)]
    mults: dict[Weight, int] = {}
    by_coords: dict[tuple[int, ...], int] = {}
    for ht, mu, c in box.all_weights():
        if ht == 0:
            mults[mu] = by_coords[c] = 1
            continue
        shifted = _add(mu, rs.rho)
        denom = norm_top - rs.inner_scaled(shifted, shifted)
        if denom == 0:
            continue  # mu + rho is singular-conjugate to lam + rho: not a weight
        acc = 0
        for beta, g, bb in roots:
            base = _dot(mu, g)
            cn = c
            j = 0
            while True:
                cn = tuple(x - b for x, b in zip(cn, beta))
                if any(x < 0 for x in cn):
                    break
                j += 1
                m = by_coords.get(cn)
                if m:
                    acc += m * (base + j * bb)  # det (mu + j beta, beta)
        val, rem = divmod(2 * acc, denom)
        if rem or val < 0:
            raise IntegrityError(
                f"Freudenthal value at {mu} in V({lam}) for {rs.name} is "
                f"{2 * acc}/{denom}, not a nonnegative integer")
        if val:
            mults[mu] = by_coords[c] = val
    return mults


# ---------------------------------------------------------------------------
# tensor ambients

def _coo(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entries of a sparse matrix as int64 (rows, cols, vals) arrays."""
    m = m.tocsr()
    rows = np.repeat(np.arange(m.shape[0], dtype=np.int64), np.diff(m.indptr))
    return rows, m.indices.astype(np.int64), m.data.astype(np.int64)


def kron_coproduct(factor_op, dims, k: int, p: int):
    """Coproduct of a divided power on a tensor product, mod p.

    factor_op(j, a) is the csr matrix of the a-th divided power on factor j
    (a = 0 the identity), dims the factor dimensions.  Delta(X^(k)) is the
    sum over compositions k_1 + ... + k_m = k of X^(k_1) (x) ... (x)
    X^(k_m); the partial sums over the trailing factors,
    S_j(r) = sum_a X_j^(a) (x) S_{j+1}(r - a), are formed once each.
    Flat indices are row major over the factors, matching np.kron.

    Returns the nonzero entries as COO arrays (rows, cols, vals), vals in
    [1, p); products are reduced after every Kronecker step, so no
    intermediate exceeds p^2 in int64.
    """
    empty = (np.zeros(0, np.int64),) * 3
    one = (np.zeros(1, np.int64), np.zeros(1, np.int64),
           np.ones(1, np.int64))
    tail = {0: one}  # S_m: the 1 x 1 identity at r = 0
    width = 1
    for j in reversed(range(len(dims))):
        need = range(k + 1) if j else (k,)
        level = {}
        for r in need:
            parts = []
            for a in range(r + 1):
                rest = tail.get(r - a)
                if rest is None or not rest[0].size:
                    continue
                fr, fc, fv = _coo(factor_op(j, a))
                if not fr.size:
                    continue
                rr, rc, rv = rest
                parts.append(((fr[:, None] * width + rr).ravel(),
                              (fc[:, None] * width + rc).ravel(),
                              (fv[:, None] * rv % p).ravel()))
            level[r] = tuple(np.concatenate(x) for x in zip(*parts)) \
                if parts else empty
        tail = level
        width *= dims[j]
    rows, cols, vals = tail.get(k, empty)
    keep = vals != 0
    return rows[keep], cols[keep], vals[keep]


class FundFactor:
    """Tensor factor backed by an explicit integral representation."""

    def __init__(self, rs: RootSystemData, rep: IntegralRep, p: int | None = None):
        self.rs = rs
        self.rep = rep
        self.p = p
        self.dim = rep.dim
        self.weights = rep.weights
        self._cols: dict = {}
        self._ops: dict = {}

    def hw_index(self, weight: Weight) -> int:
        matches = [i for i, w in enumerate(self.weights) if w == weight]
        assert len(matches) == 1, (self.rep.name, weight)
        return matches[0]

    def op_cols(self, kind: str, beta: Root, k: int):
        """Divided power as a column dict {col: [(row, value)]}, exact over
        Z (reduced mod p when the factor has a prime)."""
        key = (kind, beta, k)
        if key in self._cols:
            return self._cols[key]
        sc = chevalley_constants(self.rs)
        if kind == "F":
            m = root_lowering_operator(self.rep, sc, beta)
        else:
            m = root_raising_operator(self.rep, sc, beta)
        m = divided_power_matrix(m, k)
        cols: dict[int, list[tuple[int, int]]] = {}
        for (r, c), v in np.ndenumerate(m):
            v = int(v)
            if self.p is not None:
                v %= self.p
            if v:
                cols.setdefault(int(c), []).append((int(r), v))
        self._cols[key] = cols
        return cols

    def op(self, kind: str, beta: Root, k: int) -> sp.csr_matrix:
        """Divided power as a csr matrix mod p."""
        key = (kind, beta, k)
        if key not in self._ops:
            rows, cols, data = [], [], []
            for c, pairs in self.op_cols(kind, beta, k).items():
                for r, v in pairs:
                    rows.append(r)
                    cols.append(c)
                    data.append(v)
            self._ops[key] = sp.csr_matrix(
                (data, (rows, cols)), shape=(self.dim, self.dim),
                dtype=np.int64)
        return self._ops[key]


class TensorAmbient:
    """Tensor product of factors with divided powers acting by coproduct."""

    def __init__(self, rs: RootSystemData, factors, p: int | None = None):
        self.rs = rs
        self.factors = list(factors)
        self.p = p
        self.dims = [f.dim for f in self.factors]
        self.dim = prod(self.dims) if self.factors else 1
        strides = []
        acc = 1
        for d in reversed(self.dims):
            strides.append(acc)
            acc *= d
        self.strides = list(reversed(strides))
        self._block_map: dict[Weight, list[int]] | None = None
        self._block_of: np.ndarray | None = None
        self._block_pos: np.ndarray | None = None
        self._scope: dict | None = None

    @classmethod
    def over_z(cls, rs: RootSystemData, reps) -> "TensorAmbient":
        return cls(rs, [FundFactor(rs, r) for r in reps])

    @classmethod
    def over_p(cls, rs: RootSystemData, reps, p: int) -> "TensorAmbient":
        return cls(rs, [FundFactor(rs, r, p) for r in reps], p)

    def multi(self, flat: int) -> tuple[int, ...]:
        out = []
        for d in reversed(self.dims):
            flat, r = divmod(flat, d)
            out.append(r)
        return tuple(reversed(out))

    def flat(self, multi) -> int:
        return sum(i * s for i, s in zip(multi, self.strides))

    def weight_of(self, flat: int) -> Weight:
        acc = tuple(0 for _ in range(self.rs.rank))
        for f, i in zip(self.factors, self.multi(flat)):
            acc = _add(acc, f.weights[i])
        return acc

    def blocks(self) -> dict[Weight, list[int]]:
        """Flat indices per weight, ascending; also fixes, per flat index,
        its block number and its position inside the block."""
        if self._block_map is None:
            m: dict[Weight, list[int]] = {}
            for flat in range(self.dim):
                m.setdefault(self.weight_of(flat), []).append(flat)
            self._block_map = m
            self._block_of = np.empty(self.dim, dtype=np.int64)
            self._block_pos = np.empty(self.dim, dtype=np.int64)
            for b, flats in enumerate(m.values()):
                ix = np.array(flats, dtype=np.int64)
                self._block_of[ix] = b
                self._block_pos[ix] = np.arange(len(flats))
        return self._block_map

    def apply_vec(self, kind: str, beta: Root, k: int, vec: Vec) -> Vec:
        """Coproduct action on a sparse vector, in exact Python integers
        (reduced mod p when the ambient has a prime).

        The vector is pushed through the factors one at a time, tracking
        for each partial image the order r still to be spent on the later
        factors; the last factor spends all of it.
        """
        states: dict[tuple[int, int], int] = {(f, k): c
                                               for f, c in vec.items()}
        last = len(self.factors) - 1
        for j, factor in enumerate(self.factors):
            stride, d = self.strides[j], self.dims[j]
            nxt: dict[tuple[int, int], int] = {}
            for (flat, r), c in states.items():
                idx = flat // stride % d
                base = flat - idx * stride
                for a in ((r,) if j == last else range(r + 1)):
                    if a == 0:
                        key = (flat, r)
                        nxt[key] = nxt.get(key, 0) + c
                        continue
                    for row, v in factor.op_cols(kind, beta, a).get(idx, ()):
                        key = (base + row * stride, r - a)
                        nxt[key] = nxt.get(key, 0) + c * v
            states = nxt
        out: Vec = {}
        for (flat, r), c in states.items():
            if r == 0:
                if self.p is not None:
                    c %= self.p
                if c:
                    out[flat] = c
        return out

    @contextmanager
    def op_scope(self):
        """Keep assembled ambient operators for the length of one span or
        module operator build.  They are dropped when the scope ends, so
        memory does not grow with the number of operators used."""
        if self._scope is not None:
            yield
            return
        self._scope = {}
        try:
            yield
        finally:
            self._scope = None

    def _grouped_op(self, kind: str, beta: Root, k: int):
        """Ambient operator entries in block-local coordinates, sorted by
        source block and then by local row, with the start of each source
        block's run."""
        key = (kind, beta, k)
        if self._scope is not None and key in self._scope:
            return self._scope[key]
        n_blocks = len(self.blocks())
        rows, cols, vals = kron_coproduct(
            lambda j, a: self.factors[j].op(kind, beta, a),
            self.dims, k, self.p)
        src = self._block_of[cols]
        rows, cols = self._block_pos[rows], self._block_pos[cols]
        order = np.lexsort((cols, rows, src))
        starts = np.searchsorted(src[order], np.arange(n_blocks + 1))
        out = (starts, rows[order], cols[order], vals[order])
        if self._scope is not None:
            self._scope[key] = out
        return out

    def block_op_matrix(self, kind: str, beta: Root, k: int,
                        src_flats, dst_index: dict[int, int]) -> sp.csr_matrix:
        """Matrix of the op from one weight block to another, mod p.

        src_flats and dst_index must be whole weight blocks of blocks(),
        in that order.  The ambient operator is assembled by
        kron_coproduct once per op inside op_scope(), else once per call.
        """
        if self.p is None:
            raise ValueError("block_op_matrix needs an ambient over F_p")
        shape = (len(dst_index), len(src_flats))
        if not len(src_flats):
            return sp.csr_matrix(shape, dtype=np.int64)
        starts, rows, cols, vals = self._grouped_op(kind, beta, k)
        b = self._block_of[src_flats[0]]
        lo, hi = starts[b], starts[b + 1]
        indptr = np.searchsorted(rows[lo:hi], np.arange(shape[0] + 1))
        return sp.csr_matrix((vals[lo:hi], cols[lo:hi], indptr), shape=shape)


# ---------------------------------------------------------------------------
# spanning over Z

class _ZBlock:
    def __init__(self, weight: Weight):
        self.weight = weight
        self.hnf = IncrementalHNF(0)
        self.final: LatticeBasis | None = None
        self.offset = -1


def _ops_from(box: _WeightBox, mu: Weight,
              powers_factory) -> list[tuple[int, int, Weight, int]]:
    """Lowering ops applicable at mu inside the box, as (simple index,
    power, target weight, target height).

    F_i^(k) moves the box coordinates from c to c + k e_i, so it stays in
    the box exactly when k <= cmax_i - c_i.
    """
    c = box.coords(mu)
    ht = sum(c)
    out = []
    for i, alpha_f in enumerate(box.simple_funds):
        room = box.cmax[i] - c[i]
        for k in powers_factory():
            if k > room:
                break
            out.append((i, k, _sub(mu, tuple(k * x for x in alpha_f)),
                        ht + k))
    return out


def _span_z(rs: RootSystemData, ambient: TensorAmbient, seed: Vec,
            lam: Weight) -> list[_ZBlock]:
    box = _WeightBox(rs, lam)
    seed_weights = {ambient.weight_of(f) for f in seed}
    assert len(seed_weights) == 1, "seed vector must be weight homogeneous"
    seed_weight = seed_weights.pop()
    by_height: dict[int, dict[Weight, _ZBlock]] = {}

    def block_at(mu: Weight, ht: int) -> _ZBlock:
        level = by_height.setdefault(ht, {})
        if mu not in level:
            level[mu] = _ZBlock(mu)
        return level[mu]

    h0 = box.height(seed_weight)
    assert h0 is not None, "seed weight outside the weight box"
    block_at(seed_weight, h0).hnf.add(seed)

    max_height = sum(box.cmax)
    for h in range(max_height + 1):
        level = by_height.get(h)
        if not level:
            continue
        for mu in sorted(level, key=lambda w: tuple(-x for x in w)):
            blk = level[mu]
            blk.final = blk.hnf.finalize()
            for i, k, target, tht in _ops_from(box, mu, lambda: count(1)):
                dst = block_at(target, tht)
                alpha = rs.simple_root(i)
                for row in blk.final.rows:
                    img = ambient.apply_vec("F", alpha, k, row)
                    if img:
                        dst.hnf.add(img)
    blocks = []
    for h in sorted(by_height):
        for mu in sorted(by_height[h], key=lambda w: tuple(-x for x in w)):
            blk = by_height[h][mu]
            if blk.final is None:
                blk.final = blk.hnf.finalize()
            if blk.final.rank:
                blocks.append(blk)
    offset = 0
    for blk in blocks:
        blk.offset = offset
        offset += blk.final.rank
    return blocks


class WeylLatticeZ:
    """Minimal admissible lattice of V(lambda), by per weight HNF bases."""

    def __init__(self, rs: RootSystemData, lam: Weight,
                 ambient: TensorAmbient, blocks: list[_ZBlock]):
        self.rs = rs
        self.lam = lam
        self.ambient = ambient
        self.blocks = blocks
        self._by_weight = {b.weight: b for b in blocks}
        self.dim = sum(b.final.rank for b in blocks)
        self.weights = tuple(b.weight for b in blocks
                             for _ in range(b.final.rank))
        hw = self._by_weight.get(lam)
        assert hw is not None and hw.final.rank == 1
        self.hw_index = hw.offset
        self._op_cache: dict = {}

    def weight_multiplicities(self) -> dict[Weight, int]:
        return {b.weight: b.final.rank for b in self.blocks}

    def basis_rows(self) -> list[Vec]:
        return [row for b in self.blocks for row in b.final.rows]

    def op_int(self, kind: str, beta: Root, k: int) -> SparseIntMatrix:
        """Matrix of a divided power in the lattice basis, exact over Z.

        Raises NonIntegralDividedPower if the image of a basis vector does
        not lie in the lattice, i.e. the lattice fails admissibility.
        """
        key = (kind, beta, k)
        if key in self._op_cache:
            return self._op_cache[key]
        if k == 0:
            out = SparseIntMatrix(self.dim, self.dim,
                                  {(i, i): 1 for i in range(self.dim)})
            self._op_cache[key] = out
            return out
        shift = self.rs.root_fund(beta)
        if kind == "F":
            shift = _neg(shift)
        entries: dict[tuple[int, int], int] = {}
        for blk in self.blocks:
            target = _add(blk.weight, tuple(k * x for x in shift))
            dst = self._by_weight.get(target)
            for i, row in enumerate(blk.final.rows):
                img = self.ambient.apply_vec(kind, beta, k, row)
                if not img:
                    continue
                if dst is None:
                    raise NonIntegralDividedPower(
                        f"{kind}^({k}) at root {beta} leaves the lattice "
                        f"(no weight space at {target})")
                coords = dst.final.solve(img)
                if coords is None:
                    raise NonIntegralDividedPower(
                        f"{kind}^({k}) at root {beta} maps a basis vector "
                        f"of weight {blk.weight} outside the lattice")
                for j, c in enumerate(coords):
                    if c:
                        entries[(dst.offset + j, blk.offset + i)] = c
        out = SparseIntMatrix(self.dim, self.dim, entries)
        self._op_cache[key] = out
        return out

    def corrupt_block(self, weight: Weight, scale: int) -> "WeylLatticeZ":
        """Copy with one weight space shrunk to a sublattice (for tests)."""
        blocks = []
        for b in self.blocks:
            nb = _ZBlock(b.weight)
            rows = [dict(r) for r in b.final.rows]
            if b.weight == weight:
                rows = [{c: scale * v for c, v in r.items()} for r in rows]
            nb.final = LatticeBasis(b.final.ambient_dim, rows,
                                    b.final.pivot_cols)
            nb.offset = b.offset
            blocks.append(nb)
        return WeylLatticeZ(self.rs, self.lam, self.ambient, blocks)


_LATTICE_CACHE: dict = {}


def _fund_list(rs: RootSystemData, lam: Weight) -> list[int]:
    return [i + 1 for i in range(rs.rank) for _ in range(lam[i])]


def build_weyl_lattice(rs: RootSystemData, lam, *,
                       use_cache: bool = True) -> WeylLatticeZ:
    """Minimal admissible lattice inside a tensor of fundamental reps."""
    from .chevrep import fundamental_rep

    lam = tuple(lam)
    key = (rs.name, lam)
    if use_cache and key in _LATTICE_CACHE:
        return _LATTICE_CACHE[key]
    if weyl_dim(rs, lam) == 1:
        ambient = TensorAmbient(rs, [])
        blocks = _span_z(rs, ambient, {0: 1}, lam)
    else:
        reps = [fundamental_rep(rs, i) for i in _fund_list(rs, lam)]
        ambient = TensorAmbient.over_z(rs, reps)
        flat = ambient.flat([f.hw_index(_hw_weight(rs, f.rep))
                             for f in ambient.factors])
        blocks = _span_z(rs, ambient, {flat: 1}, lam)
    lat = WeylLatticeZ(rs, lam, ambient, blocks)
    if lat.dim != weyl_dim(rs, lam):
        raise RankMismatch(lam, weyl_dim(rs, lam), lat.dim)
    if use_cache:
        _LATTICE_CACHE[key] = lat
    return lat


def _hw_weight(rs: RootSystemData, rep: IntegralRep) -> Weight:
    """Highest weight of a representation, as the height maximum."""
    return max(rep.weights, key=lambda w: _height_key(rs, w))


def _height_key(rs: RootSystemData, w: Weight):
    # the height scaled by cartan_det > 0 orders weights like the height
    return (sum(rs.root_coords_scaled(w)), w)


def validate_lattice_relations(lat: WeylLatticeZ) -> list[RelationWitness]:
    """Check [E_i, F_j] = delta_ij H_i on the lattice basis, exactly."""
    rs = lat.rs
    out = []
    for i in range(rs.rank):
        ei = lat.op_int("E", rs.simple_root(i), 1)
        for j in range(rs.rank):
            fj = lat.op_int("F", rs.simple_root(j), 1)
            comm = _sparse_commutator(ei.entries, fj.entries)
            name = f"[E_{i+1}, F_{j+1}] = " + (f"H_{i+1}" if i == j else "0")
            for col in range(lat.dim):
                expect = {}
                if i == j:
                    h = rs.pairing(lat.weights[col], rs.simple_root(i))
                    if h:
                        expect[col] = h
                got = {r: v for (r, c), v in comm.items() if c == col}
                if got != expect:
                    out.append(RelationWitness(name, col,
                                               f"got {got}, expected {expect}"))
                    break
    return out


def _sparse_commutator(a: dict, b: dict) -> dict:
    def mul(x, y):
        out: dict[tuple[int, int], int] = {}
        x_by_col: dict[int, list] = {}
        for (r, c), v in x.items():
            x_by_col.setdefault(c, []).append((r, v))
        for (r, c), v in y.items():
            for r2, v2 in x_by_col.get(r, ()):
                key = (r2, c)
                out[key] = out.get(key, 0) + v2 * v
        return {k: v for k, v in out.items() if v}

    ab = mul(a, b)
    ba = mul(b, a)
    out = dict(ab)
    for k, v in ba.items():
        new = out.get(k, 0) - v
        if new:
            out[k] = new
        else:
            out.pop(k, None)
    return out


# ---------------------------------------------------------------------------
# spanning over F_p

class _PBlock:
    def __init__(self, weight: Weight, flats: list[int], p: int, expected: int):
        self.weight = weight
        self.flats = flats
        self.index = {f: i for i, f in enumerate(flats)}
        self.expected = expected
        self.ech = DenseEchelonModP(p, len(flats))
        self.rows: np.ndarray | None = None
        self.pivots: list[int] | None = None
        self.offset = -1

    @property
    def saturated(self) -> bool:
        return self.expected > 0 and self.ech.rank == self.expected

    def finalize(self) -> None:
        order = np.argsort(np.array(self.ech.pivot_cols, dtype=np.int64),
                           kind="stable")
        self.rows = self.ech.basis_matrix()[order].copy()
        self.pivots = sorted(self.ech.pivot_cols)


def _p_powers(p: int):
    k = 1
    while True:
        yield k
        k *= p


def _span_modp(rs: RootSystemData, p: int, ambient: TensorAmbient,
               seed: Vec, lam: Weight) -> list[_PBlock]:
    box = _WeightBox(rs, lam)
    mults = freudenthal_multiplicities(rs, lam)
    amb_blocks = ambient.blocks()
    seed_weights = {ambient.weight_of(f) for f in seed}
    assert len(seed_weights) == 1, "seed vector must be weight homogeneous"
    seed_weight = seed_weights.pop()
    h0 = box.height(seed_weight)
    assert h0 is not None, "seed weight outside the weight box"

    by_height: dict[int, dict[Weight, _PBlock]] = {}

    def block_at(mu: Weight, ht: int) -> _PBlock:
        level = by_height.setdefault(ht, {})
        if mu not in level:
            level[mu] = _PBlock(mu, amb_blocks.get(mu, []), p,
                                mults.get(mu, 0))
        return level[mu]

    seed_block = block_at(seed_weight, h0)
    dense = np.zeros(len(seed_block.flats), dtype=np.int64)
    for f, v in seed.items():
        dense[seed_block.index[f]] = v % p
    seed_block.ech.add_row(dense)

    max_height = sum(box.cmax)
    with ambient.op_scope():
        for h in range(max_height + 1):
            level = by_height.get(h)
            if not level:
                continue
            for mu in sorted(level, key=lambda w: tuple(-x for x in w)):
                blk = level[mu]
                blk.finalize()
                if blk.ech.rank == 0:
                    continue
                for i, k, target, tht in _ops_from(box, mu,
                                                   lambda: _p_powers(p)):
                    dst = block_at(target, tht)
                    if dst.saturated or not dst.flats:
                        continue
                    alpha = rs.simple_root(i)
                    opm = ambient.block_op_matrix("F", alpha, k,
                                                  blk.flats, dst.index)
                    images = (opm @ blk.rows.T).T % p
                    for row in images:
                        if dst.saturated:
                            break
                        dst.ech.add_row(row)
    blocks = []
    for h in sorted(by_height):
        for mu in sorted(by_height[h], key=lambda w: tuple(-x for x in w)):
            blk = by_height[h][mu]
            if blk.rows is None:
                blk.finalize()
            if blk.ech.rank:
                blocks.append(blk)
    offset = 0
    for blk in blocks:
        blk.offset = offset
        offset += blk.ech.rank
    return blocks


def _is_ppower_digit(p: int, k: int) -> bool:
    """k is p^e for some e, i.e. a single base p digit equal to 1."""
    while k % p == 0:
        k //= p
    return k == 1


def lucas_assemble(p: int, dim: int, k: int, ppower) -> sp.csr_matrix:
    """Divided power of general order from its p-power factors mod p.

    ppower(p^e) must return the matrix of the p-power divided power; the
    base p digits of k add without carries, so the ordered product of the
    digit factors equals the divided power up to the unit k! / prod (p^e)!.
    """
    digits = []
    kk, power = k, 1
    while kk:
        kk, d = divmod(kk, p)
        digits.append((power, d))
        power *= p
    acc = sp.identity(dim, dtype=np.int64, format="csr")
    denom = 1
    for power, d in digits:
        if not d:
            continue
        base = ppower(power)
        for _ in range(d):
            acc = acc @ base
            acc.data %= p
            acc.eliminate_zeros()
        denom *= factorial(power) ** d
    unit = factorial(k) // denom
    assert unit % p != 0
    acc = acc * pow(unit % p, -1, p)
    acc.data %= p
    acc.eliminate_zeros()
    return acc


class WeylModuleP:
    """Weyl module over F_p with canonical per weight echelon bases."""

    def __init__(self, rs: RootSystemData, p: int, lam: Weight,
                 ambient: TensorAmbient, blocks: list[_PBlock]):
        self.rs = rs
        self.p = p
        self.lam = lam
        self.ambient = ambient
        self.blocks = blocks
        self._by_weight = {b.weight: b for b in blocks}
        self.dim = sum(b.ech.rank for b in blocks)
        self.weights = tuple(b.weight for b in blocks
                             for _ in range(b.ech.rank))
        hw = self._by_weight.get(lam)
        assert hw is not None and hw.ech.rank == 1
        self.hw_index = hw.offset
        self._op_cache: dict = {}

    # -- bookkeeping ------------------------------------------------------

    def block_weights(self) -> list[Weight]:
        return [b.weight for b in self.blocks]

    def block_rows(self, weight: Weight) -> np.ndarray:
        return self._by_weight[weight].rows

    def weight_multiplicities(self) -> dict[Weight, int]:
        return {b.weight: b.ech.rank for b in self.blocks}

    def max_power(self, beta: Root) -> int:
        return max((rs_pair for mu in self._by_weight
                    if (rs_pair := self.rs.pairing(mu, beta)) > 0),
                   default=0)

    def hw_vector(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=np.int64)
        v[self.hw_index] = 1
        return v

    # -- operators --------------------------------------------------------

    def _op_ppower(self, kind: str, beta: Root, k: int) -> sp.csr_matrix:
        shift = self.rs.root_fund(beta)
        if kind == "F":
            shift = _neg(shift)
        rows, cols, data = [], [], []
        with self.ambient.op_scope():
            for blk in self.blocks:
                target = _add(blk.weight, tuple(k * x for x in shift))
                dst = self._by_weight.get(target)
                if dst is None:
                    continue  # the target weight space is zero
                opm = self.ambient.block_op_matrix(kind, beta, k,
                                                   blk.flats, dst.index)
                images = (opm @ blk.rows.T).T % self.p
                coords = images[:, dst.pivots]
                if not np.array_equal((coords @ dst.rows) % self.p, images):
                    raise AssertionError(
                        f"module not closed under {kind}^({k}) at {beta}")
                nz = np.nonzero(coords)
                for i, j in zip(*nz):
                    rows.append(dst.offset + int(j))
                    cols.append(blk.offset + int(i))
                    data.append(int(coords[i, j]))
        return sp.csr_matrix((data, (rows, cols)),
                             shape=(self.dim, self.dim), dtype=np.int64)

    def op(self, kind: str, beta: Root, k: int) -> sp.csr_matrix:
        """Matrix of a divided power of a root operator, mod p.

        General k is assembled from p-power divided powers; the product of
        p-power factors is a unit multiple of the divided power because the
        base p digits of k add without carries.
        """
        if kind not in ("E", "F"):
            raise ValueError(kind)
        if beta not in self.rs.positive_roots:
            raise ValueError(f"{beta} is not a positive root")
        key = (kind, beta, k)
        if key in self._op_cache:
            return self._op_cache[key]
        if k == 0:
            out = sp.identity(self.dim, dtype=np.int64, format="csr")
        elif _is_ppower_digit(self.p, k):
            out = self._op_ppower(kind, beta, k)
        else:
            out = lucas_assemble(self.p, self.dim, k,
                                 lambda pw: self.op(kind, beta, pw))
        self._op_cache[key] = out
        return out

    def inject_fault(self, kind: str, beta: Root, k: int,
                     row: int, col: int, delta: int) -> None:
        """Perturb one entry of a cached operator matrix (for testing)."""
        m = self.op(kind, beta, k).tolil(copy=True)
        m[row, col] = (m[row, col] + delta) % self.p
        self._op_cache[(kind, beta, k)] = m.tocsr()


def validate_relations(mod: WeylModuleP) -> list[RelationWitness]:
    """Check defining relations on the module; return located failures.

    Covered: [E_i, F_j] = delta_ij H_i, E_i annihilates the highest weight
    vector, and F_i^p = 0 (the p-fold product of single lowering steps).
    """
    rs, p = mod.rs, mod.p
    out = []
    for i in range(rs.rank):
        ei = mod.op("E", rs.simple_root(i), 1)
        col = ei[:, [mod.hw_index]].toarray().ravel() % p
        if np.any(col):
            out.append(RelationWitness(
                f"E_{i+1} v+ = 0", mod.hw_index,
                f"nonzero rows {np.nonzero(col)[0].tolist()}"))
        for j in range(rs.rank):
            fj = mod.op("F", rs.simple_root(j), 1)
            comm = (ei @ fj - fj @ ei).toarray() % p
            if i == j:
                h = np.array([rs.pairing(w, rs.simple_root(i)) % p
                              for w in mod.weights], dtype=np.int64)
                expect = np.diag(h)
            else:
                expect = np.zeros_like(comm)
            if not np.array_equal(comm, expect):
                bad = np.nonzero(np.any(comm != expect, axis=0))[0]
                name = f"[E_{i+1}, F_{j+1}] = " + \
                    (f"H_{i+1}" if i == j else "0")
                out.append(RelationWitness(name, int(bad[0]),
                                           f"{len(bad)} bad columns"))
    for i in range(rs.rank):
        fi = mod.op("F", rs.simple_root(i), 1)
        acc = sp.identity(mod.dim, dtype=np.int64, format="csr")
        for _ in range(p):
            acc = acc @ fi
            acc.data %= p
            acc.eliminate_zeros()
        if acc.nnz:
            col = int(acc.nonzero()[1][0])
            out.append(RelationWitness(f"(F_{i+1})^{p} = 0", col,
                                       f"nnz {acc.nnz}"))
    return out


# ---------------------------------------------------------------------------
# builders

_MODP_CACHE: dict = {}


def build_weyl_module_p(rs: RootSystemData, p: int, lam, *,
                        ambient_mode: str = "peeled",
                        use_cache: bool = True,
                        seed_override: Vec | None = None):
    """Construct V_p(lambda) by spanning under p-power divided powers.

    ambient_mode "peeled" builds up one fundamental factor at a time,
    nesting the previous stage as a tensor factor; "flat" spans inside the
    full tensor product of fundamental representations directly.  Either
    way the span is the image of the minimal lattice mod p; when that
    image collapses below the Weyl dimension (the lattice is not saturated
    at p in the ambient) the module is rebuilt as the abstract reduction
    of the Z lattice instead, so the result always has the Weyl dimension.
    """
    from .chevrep import fundamental_rep

    lam = tuple(lam)
    if ambient_mode not in ("peeled", "flat"):
        raise ValueError(ambient_mode)
    key = (rs.name, p, lam, ambient_mode)
    cacheable = use_cache and seed_override is None
    if cacheable and key in _MODP_CACHE:
        return _MODP_CACHE[key]

    def finish(ambient, seed):
        try:
            return _finish_modp(rs, p, lam, ambient, seed)
        except RankMismatch as exc:
            if seed_override is not None:
                raise  # custom seeds must not be silently replaced
            log.info("ambient span mod %d for %s %s has rank %d, expected "
                     "%d; falling back to the lattice reduction",
                     p, rs.name, lam, exc.found, exc.expected)
            lat = build_weyl_lattice(rs, lam, use_cache=use_cache)
            return LatticeModuleP(lat, p)

    funds = _fund_list(rs, lam)
    if not funds:
        ambient = TensorAmbient(rs, [], p)
        mod = finish(ambient, seed_override or {0: 1})
    elif ambient_mode == "flat" or len(funds) == 1:
        factors = [FundFactor(rs, fundamental_rep(rs, i), p) for i in funds]
        ambient = TensorAmbient(rs, factors, p)
        seed = seed_override
        if seed is None:
            seed = {ambient.flat([f.hw_index(_hw_weight(rs, f.rep))
                                  for f in factors]): 1}
        mod = finish(ambient, seed)
    else:
        prev_lam = tuple(lam[i] - (1 if i == funds[-1] - 1 else 0)
                         for i in range(rs.rank))
        prev = build_weyl_module_p(rs, p, prev_lam,
                                   ambient_mode="peeled", use_cache=True)
        last = FundFactor(rs, fundamental_rep(rs, funds[-1]), p)
        ambient = TensorAmbient(rs, [prev, last], p)
        seed = seed_override
        if seed is None:
            flat = prev.hw_index * last.dim + \
                last.hw_index(_hw_weight(rs, last.rep))
            seed = {flat: 1}
        mod = finish(ambient, seed)
    if cacheable:
        _MODP_CACHE[key] = mod
    return mod


def _finish_modp(rs, p, lam, ambient, seed) -> WeylModuleP:
    blocks = _span_modp(rs, p, ambient, seed, lam)
    total = sum(b.ech.rank for b in blocks)
    expected = weyl_dim(rs, lam)
    if total != expected:
        raise RankMismatch(lam, expected, total)
    return WeylModuleP(rs, p, lam, ambient, blocks)


def reduce_mod_p(lat: WeylLatticeZ, p: int) -> WeylModuleP:
    """Reduction of the Z lattice: a second, independent route to V_p."""
    rs = lat.rs
    factors = [FundFactor(rs, f.rep, p) for f in lat.ambient.factors]
    ambient = TensorAmbient(rs, factors, p)
    amb_blocks = ambient.blocks()
    mults = freudenthal_multiplicities(rs, lat.lam)
    box = _WeightBox(rs, lat.lam)
    blocks = []
    for zb in lat.blocks:
        flats = amb_blocks.get(zb.weight, [])
        pb = _PBlock(zb.weight, flats, p, mults.get(zb.weight, 0))
        for row in zb.final.rows:
            dense = np.zeros(len(flats), dtype=np.int64)
            for f, v in row.items():
                dense[pb.index[f]] = v % p
            pb.ech.add_row(dense)
        assert pb.ech.rank == zb.final.rank, zb.weight
        pb.finalize()
        blocks.append(pb)
    offset = 0
    order_key = {}
    for pb in blocks:
        order_key[pb.weight] = (box.height(pb.weight),
                                tuple(-x for x in pb.weight))
    blocks.sort(key=lambda b: order_key[b.weight])
    for pb in blocks:
        pb.offset = offset
        offset += pb.ech.rank
    return WeylModuleP(rs, p, lat.lam, ambient, blocks)


class LatticeModuleP:
    """Weyl module over F_p in the coordinates of its own Z lattice basis.

    The span inside the ambient tensor product computes the image of
    V_Z (x) F_p there, which collapses exactly when the minimal lattice
    has index divisible by p in its saturation (B3 omega_2 at p = 2 is the
    smallest supported case).  Reducing the lattice in its own basis always
    has the Weyl dimension; operators are the exact integral divided
    powers taken mod p, and the module stays cyclic over the hyperalgebra
    because U_Z . v surjects onto V_Z / p V_Z.
    """

    def __init__(self, lat: WeylLatticeZ, p: int):
        self.rs = lat.rs
        self.p = p
        self.lam = lat.lam
        self.lattice = lat
        self.dim = lat.dim
        self.weights = lat.weights
        self.hw_index = lat.hw_index
        self._op_cache: dict = {}

    def block_weights(self) -> list[Weight]:
        return [b.weight for b in self.lattice.blocks]

    def weight_multiplicities(self) -> dict[Weight, int]:
        return self.lattice.weight_multiplicities()

    def max_power(self, beta: Root) -> int:
        return max((pr for mu in set(self.weights)
                    if (pr := self.rs.pairing(mu, beta)) > 0), default=0)

    def hw_vector(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=np.int64)
        v[self.hw_index] = 1
        return v

    def op(self, kind: str, beta: Root, k: int) -> sp.csr_matrix:
        if kind not in ("E", "F"):
            raise ValueError(kind)
        if beta not in self.rs.positive_roots:
            raise ValueError(f"{beta} is not a positive root")
        key = (kind, beta, k)
        if key in self._op_cache:
            return self._op_cache[key]
        rows, cols, data = [], [], []
        for (r, c), v in self.lattice.op_int(kind, beta, k).entries.items():
            if v % self.p:
                rows.append(r)
                cols.append(c)
                data.append(v % self.p)
        out = sp.csr_matrix((data, (rows, cols)),
                            shape=(self.dim, self.dim), dtype=np.int64)
        self._op_cache[key] = out
        return out


# ---------------------------------------------------------------------------
# bootstrap of type C fundamentals

def bootstrap_cartan_component(rs: RootSystemData, vec_rep: IntegralRep,
                               k: int) -> IntegralRep:
    """Fundamental representation omega_k carved out of the k-th tensor
    power of the vector representation, starting from the antisymmetrized
    highest weight vector."""
    lam = tuple(1 if i == k - 1 else 0 for i in range(rs.rank))
    ambient = TensorAmbient.over_z(rs, [vec_rep] * k)
    seed: Vec = {}
    for perm in permutations(range(k)):
        sign = _perm_sign(perm)
        flat = ambient.flat(perm)
        seed[flat] = seed.get(flat, 0) + sign
    blocks = _span_z(rs, ambient, seed, lam)
    lat = WeylLatticeZ(rs, lam, ambient, blocks)
    if lat.dim != weyl_dim(rs, lam):
        raise RankMismatch(lam, weyl_dim(rs, lam), lat.dim)
    lowering, raising = [], []
    for i in range(rs.rank):
        alpha = rs.simple_root(i)
        low = [[0] * lat.dim for _ in range(lat.dim)]
        high = [[0] * lat.dim for _ in range(lat.dim)]
        for (r, c), v in lat.op_int("F", alpha, 1).entries.items():
            low[r][c] = v
        for (r, c), v in lat.op_int("E", alpha, 1).entries.items():
            high[r][c] = v
        lowering.append(tuple(tuple(row) for row in low))
        raising.append(tuple(tuple(row) for row in high))
    return IntegralRep(f"{rs.name}-w{k}", lat.dim, lat.weights,
                       tuple(lowering), tuple(raising))


def _perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign
