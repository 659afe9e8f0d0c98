"""Weyl modules over Z and over prime fields.

Construction is by spanning: starting from a highest weight vector inside a
tensor product of explicit integral representations, close the span under
divided powers of the simple lowering operators.  Over Z this produces the
minimal admissible lattice as a Hermite normal form per weight space
(_span, by weight-box height, following each alpha_i-string only as far as
the span reaches).  Over F_p the span under the simple p-power
divided powers is the degree-tagged walk filter_from_seed, whose PBWGraded
result is also every PBW filtration, with each weight capped at its
Freudenthal multiplicity; its echelon per weight space is checked against
the Weyl dimension, which pins the result down as the reduction of the
universal highest weight module.

Tensor factors are either explicit fundamental representations or
previously built modules, so a large weight can be built stage by stage
with one fundamental factor peeled off at a time.

The per weight bases are reduced echelon rows sorted by pivot column, which
are canonical for the subspace they span: two runs, or two construction
routes through the same ambient, produce identical matrices.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import factorial, prod
from operator import sub

import numpy as np

from .chevrep import (
    IntegralRep,
    NonIntegralDividedPower,
    chevalley_constants,
    divided_powers,
)
from .exactla import (
    DenseEchelonModP,
    IncrementalHNF,
    LatticeBasis,
    SparseIntMatrix,
    Vec,
    _column_masks,
    _coordinates,
    _image_bits,
    _joined,
    _pack_rows,
    _require_prime,
    _unpack_rows,
    matmul_mod,
    require_int64_safe,
)
from .rootsys import IntegrityError, Root, RootSystemData, Weight, star_weight


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

    def height(self, mu: Weight) -> int | None:
        """The sum of c for a weight inside the box, else None."""
        c = self.rs.root_coords_int(_sub(self.lam, mu))
        if c is None or any(x < 0 or x > m for x, m in zip(c, self.cmax)):
            return None
        return sum(c)


def _check_gram(rs: RootSystemData) -> None:
    """2 (omega_j, alpha_i) = delta_ij (alpha_i, alpha_i), the left side from
    the scaled Gram matrix and the right side from the Cartan matrix and its
    symmetrizer: every inner product Freudenthal takes rests on it."""
    det, d, a = rs.cartan_det, rs.symmetrizer, rs.cartan_matrix
    for i in range(rs.rank):
        g = rs.root_gram[rs.root_index(rs.simple_root(i))]
        for j in range(rs.rank):
            if 2 * g[j] != (i == j) * det * d[i] * a[i][i]:
                raise IntegrityError(
                    f"Gram data of {rs.name} gives det (omega_{j + 1}, "
                    f"alpha_{i + 1}) = {g[j]}, not "
                    f"{(i == j) * det * d[i]}")


def _dominant_weights(rs: RootSystemData, lam: Weight) -> list[Weight]:
    """Dominant weights mu <= lambda, by depth (the height of lambda - mu)
    and then by descending weight.  Each one is reached from lambda through
    dominant weights, one positive root at a time (Stembridge), so the walk
    that keeps only dominant weights finds all of them."""
    shifts = [(sum(beta), rs.root_fund(beta)) for beta in rs.positive_roots]
    depth = {lam: 0}
    todo = [lam]
    for mu in todo:
        for ht, s in shifts:
            nu = _sub(mu, s)
            if min(nu) >= 0 and nu not in depth:
                depth[nu] = depth[mu] + ht
                todo.append(nu)
    return sorted(depth, key=lambda mu: (depth[mu], _neg(mu)))


def _orbit(mu: Weight, simple_funds) -> list[Weight]:
    """W-orbit of a dominant weight: lower by s_i wherever <nu, alpha_i^vee>
    is positive, which reaches every element."""
    out = [mu]
    seen = {mu}
    for nu in out:
        for i, a in enumerate(simple_funds):
            if nu[i] > 0:
                r = tuple(x - nu[i] * y for x, y in zip(nu, a))
                if r not in seen:
                    seen.add(r)
                    out.append(r)
    return out


def freudenthal_multiplicities(rs: RootSystemData, lam) -> dict[Weight, int]:
    """Exact weight multiplicities of V(lambda) by Freudenthal recursion.

    The recursion runs on the dominant weights only (Moody-Patera), taken
    by depth below lambda; each value is copied over its W-orbit at once.
    A weight nu = mu + j beta above a dominant mu has its dominant
    representative higher still, so m(nu) is known when mu is reached, and
    the beta-string of mu ends at the first nu that is not a weight.
    Inner products are taken as cartan_det times their value, which is an
    integer; the factor cancels in the quotient.  The Gram data is checked
    first: a minuscule lambda has no dominant weight to recurse on.  The
    result is kept on rs per lam and shared by later calls: do not mutate.
    """
    lam = tuple(lam)
    if lam in rs.multiplicities:
        return rs.multiplicities[lam]
    if len(lam) != rs.rank or min(lam) < 0:
        raise ValueError(f"invalid dominant weight {lam} for {rs.name}")
    box = _WeightBox(rs, lam)
    _check_gram(rs)
    top = _add(lam, rs.rho)
    norm_top = rs.inner_scaled(top, top)
    # per root: beta in fundamental coords, G beta (mu . G beta = det (mu,
    # beta)), det (beta, beta)
    roots = [(bf, g, _dot(bf, g)) for bf, g in
             zip(map(rs.root_fund, rs.positive_roots), rs.root_gram)]
    mults = dict.fromkeys(_orbit(lam, box.simple_funds), 1)
    for mu in _dominant_weights(rs, lam)[1:]:
        shifted = _add(mu, rs.rho)
        denom = norm_top - rs.inner_scaled(shifted, shifted)
        acc = 0
        for bf, g, bb in roots:
            base = _dot(mu, g)
            nu, j = mu, 1
            while m := mults.get(nu := _add(nu, bf)):
                acc += m * (base + j * bb)  # det (mu + j beta, beta)
                j += 1
        if denom <= 0 or acc <= 0 or 2 * acc % denom:
            raise IntegrityError(
                f"Freudenthal value at {mu} in V({lam}) for {rs.name} is "
                f"{2 * acc}/{denom}, not a positive integer")
        mults.update(dict.fromkeys(_orbit(mu, box.simple_funds),
                                   2 * acc // denom))
    rs.multiplicities[lam] = mults
    return mults


# ---------------------------------------------------------------------------
# tensor ambients

def kron_coproduct(factor_op, dims, k: int, p: int):
    """Coproduct of a divided power on a tensor product, mod a prime p.

    factor_op(j, a) gives the a-th divided power on factor j (a = 0 the
    identity) as COO arrays (rows, cols, vals) of its nonzero residues,
    vals in [1, p); dims are the factor dimensions.
    Delta(X^(k)) is the sum over compositions k_1 + ... + k_m = k of
    X^(k_1) (x) ... (x) X^(k_m); the partial sums over the trailing factors,
    S_j(r) = sum_a X_j^(a) (x) S_{j+1}(r - a), are formed once each, from
    the last factor's own X^(r).  Flat indices are row major over the
    factors, matching np.kron.

    Returns the nonzero entries as COO arrays, vals in [1, p) since a
    product of nonzero residues mod a prime is nonzero; each Kronecker
    step reduces, so no intermediate exceeds p^2 in int64.
    """
    empty = (np.zeros(0, np.int64),) * 3
    if not dims:  # the empty product: X^(0) = 1 and X^(k) = 0 for k > 0
        return tuple(np.full(int(k == 0), x, np.int64) for x in (0, 0, 1))
    last, width = len(dims) - 1, dims[-1]
    tail = {r: factor_op(last, r) for r in (range(k + 1) if last else (k,))}
    for j in reversed(range(last)):
        level = {}
        for r in range(k + 1) if j else (k,):
            parts = []
            for a in range(r + 1):
                rr, rc, rv = tail[r - a]
                if not rr.size:
                    continue
                fr, fc, fv = factor_op(j, a)
                if fr.size:
                    parts.append(((fr[:, None] * width + rr).ravel(),
                                  (fc[:, None] * width + rc).ravel(),
                                  (fv[:, None] * rv % p).ravel()))
            level[r] = parts[0] if len(parts) == 1 else tuple(
                np.concatenate(x) for x in zip(empty, *parts))
        tail = level
        width *= dims[j]
    return tail[k]


class FundFactor:
    """Tensor factor backed by an explicit integral representation.

    Its divided powers are views of the representation's own table
    (chevrep.divided_powers): computed once per (rep, kind, beta), up to
    the last nonzero order, and shared by every factor on that rep, over Z
    and over F_p.  apply_vec reads only its X^(1) columns; coo() keeps
    one form of an order, its nonzero residues mod the ambient's prime,
    which is the form kron_coproduct multiplies.
    """

    def __init__(self, rs: RootSystemData, rep: IntegralRep):
        self.rs = rs
        self.rep = rep
        self.dim = rep.dim
        self.weights = rep.weights
        # the highest weight is the one weight of the greatest height
        heights = [sum(rs.root_coords_scaled(w)) for w in rep.weights]
        tops = heights.count(max(heights))
        if tops != 1:
            raise IntegrityError(f"{rep.name} has {tops} weights of the "
                                 "greatest height, expected 1")
        self.hw_index = heights.index(max(heights))
        self._ops: dict = {}

    @cached_property
    def _sc(self):
        return chevalley_constants(self.rs)

    def powers(self, kind: str, beta: Root) -> tuple:
        """The exact table of X^(1), ..., X^(top) as column dicts
        {col: ((row, value), ...)}; X^(a) is zero for every a > top."""
        return divided_powers(self.rep, self._sc, kind, beta)

    def coo(self, kind: str, beta: Root, k: int, p: int):
        """Divided power as int64 COO arrays (rows, cols, vals) of its
        nonzero residues mod the prime p, vals in [1, p): the identity at
        k = 0, else read off the table."""
        key = (kind, beta, k, p)
        if key not in self._ops:
            if k == 0:
                entries = [(c, c, 1) for c in range(self.dim)]
            else:
                table = self.powers(kind, beta)
                cols = table[k - 1] if k <= len(table) else {}
                entries = [(r, c, x) for c, pairs in cols.items()
                           for r, v in pairs if (x := v % p)]
            self._ops[key] = tuple(np.array(entries, dtype=np.int64)
                                   .reshape(-1, 3).T.copy())
        return self._ops[key]


class WeightBlocks:
    """Coordinates grouped into weight blocks, in order of first appearance.

    Each coordinate gets its block number and its position inside the
    block.  A weight-homogeneous operator is held per source block (see
    BlockOp).
    """

    def __init__(self, weights):
        self.dim = len(weights)
        groups: dict[Weight, list[int]] = {}
        for i, w in enumerate(weights):
            groups.setdefault(w, []).append(i)
        #: the flat indices of each block, ascending
        self.flats = {w: np.array(ix, dtype=np.int64)
                      for w, ix in groups.items()}
        self.keys = list(groups)
        self.block_of = np.empty(len(weights), dtype=np.int32)
        self.block_pos = np.empty(len(weights), dtype=np.int32)
        for b, ix in enumerate(self.flats.values()):
            self.block_of[ix] = b
            self.block_pos[ix] = np.arange(len(ix))
        # the place of each flat index in the order block after block
        starts = np.cumsum([0] + [len(ix) for ix in groups.values()])
        self._place = starts[self.block_of] + self.block_pos

    def group(self, rows, cols, vals) -> dict:
        """The blocks of a BlockOp whose nonzero entries are given as COO
        arrays in global coordinates, each sorted by local column, then row.

        Densifying a block by assignment would keep only one of two equal
        entries, and a source block reaching two target blocks has no block
        form, so either is an IntegrityError.
        """
        order = np.argsort(self._place[cols] * len(self.block_pos)
                           + self.block_pos[rows])
        src, dst = self.block_of[cols][order], self.block_of[rows][order]
        rows, cols = self.block_pos[rows][order], self.block_pos[cols][order]
        vals = vals[order]
        same = src[1:] == src[:-1]
        if np.any(same & (dst[1:] != dst[:-1])):
            raise IntegrityError("an operator is not weight homogeneous")
        if np.any(same & (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])):
            raise IntegrityError("an operator lists one entry twice")
        cuts = np.flatnonzero(~same) + 1
        return {self.keys[src[lo]]: (self.keys[dst[lo]], rows[lo:hi],
                                     cols[lo:hi], vals[lo:hi])
                for lo, hi in zip([0, *cuts], [*cuts, len(src)])
                if lo < hi}


def block_dense(shape, rows, cols, vals) -> np.ndarray:
    """One block of a block operator as a dense int64 matrix; matmul_mod
    converts it to float64 only for a product it runs in BLAS."""
    out = np.zeros(shape, dtype=np.int64)
    out[rows, cols] = vals
    return out


class BlockOp:
    """A weight-homogeneous operator mod p on the space of layout, held per
    weight block.

    blocks maps a source weight to (target weight, rows, cols, vals): the
    nonzero entries of that block, rows and cols local to the target and
    source blocks, sorted by column then row, vals in [1, p).  That form
    is canonical, so equal operators have equal blocks.  A BlockOp is not
    changed once made: nnz, and over F_2 the column masks of a block that
    image reads, are computed once.
    """

    def __init__(self, layout: WeightBlocks, p: int, blocks: dict):
        self.layout = layout
        self.p = p
        self.blocks = blocks
        self._coo = None  # kept by ModuleP.coo

    @cached_property
    def nnz(self) -> int:
        return sum(len(e[3]) for e in self.blocks.values())

    @cached_property
    def _masks(self) -> dict:
        """Source weight -> column masks of its block, over F_2."""
        return {}

    def coo(self):
        """Int64 COO arrays (rows, cols, vals) in global coordinates, made
        on every call (ModuleP.coo keeps them for a module's operators)."""
        flats = self.layout.flats
        parts = [(flats[d][r], flats[s][c], v)
                 for s, (d, r, c, v) in self.blocks.items()]
        return tuple(np.concatenate(x) for x in zip(*parts)) \
            if parts else (np.zeros(0, dtype=np.int64),) * 3

    def toarray(self) -> np.ndarray:
        rows, cols, vals = self.coo()
        out = np.zeros((self.layout.dim,) * 2, dtype=np.int64)
        out[rows, cols] = vals
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, BlockOp):
            return NotImplemented
        return self.blocks.keys() == other.blocks.keys() and all(
            a[0] == b[0] and all(map(np.array_equal, a[1:], b[1:]))
            for a, b in ((self.blocks[w], other.blocks[w])
                         for w in self.blocks))

    def __matmul__(self, other):
        """self @ other mod p: composition, block by block through the
        product of dense blocks, or the image of a vector."""
        p, flats = self.p, self.layout.flats
        if not isinstance(other, BlockOp):
            rows, cols, vals = self.coo()
            out = np.zeros(self.layout.dim, dtype=np.int64)
            np.add.at(out, rows, vals * (np.asarray(other)[cols] % p) % p)
            return out % p
        out = {}
        for s, (mid, r1, c1, v1) in other.blocks.items():
            entry = self.blocks.get(mid)
            if entry is None:
                continue
            d, r2, c2, v2 = entry
            n_mid = len(flats[mid])
            m = matmul_mod(
                block_dense((len(flats[d]), n_mid), r2, c2, v2),
                block_dense((n_mid, len(flats[s])), r1, c1, v1), p)
            c, r = np.nonzero(m.T)
            if c.size:
                out[s] = (d, r.astype(np.int32), c.astype(np.int32), m[r, c])
        return BlockOp(self.layout, p, out)

    def image(self, w: Weight, rows):
        """(target weight, rows @ block^T mod p) for row vectors of the
        source block of w, or None where the operator is zero.

        Over F_2 the rows are int bitsets, a list in and a list out: each
        image is the XOR of the block's column masks at the set bits of
        its row, the masks made on first use.  Over other primes they are
        int64 matrices multiplied by matmul_mod."""
        entry = self.blocks.get(w)
        if entry is None:
            return None
        d, r, c, v = entry
        n_src = len(self.layout.flats[w])
        if self.p == 2:
            if w not in self._masks:
                self._masks[w] = _column_masks(n_src, r, c)
            return d, _image_bits(self._masks[w], rows)
        return d, matmul_mod(rows, block_dense(
            (n_src, len(self.layout.flats[d])), c, r, v), self.p)

    def power(self, e: int) -> "BlockOp":
        """self^e for e >= 1, by repeated squaring."""
        acc, m = None, self
        while True:
            if e & 1:
                acc = m if acc is None else acc @ m
            e >>= 1
            if not e:
                return acc
            m = m @ m


def _exact_quotient(vec: Vec, k: int, kind: str, beta: Root) -> Vec:
    """vec / k for vec = X X^(k-1) v, whose entries k must divide."""
    if k == 1:
        return vec
    for f, c in vec.items():
        if c % k:
            raise IntegrityError(f"{kind}^({k}) at root {beta} is not "
                                 f"integral: {k} does not divide {c} at {f}")
    return {f: c // k for f, c in vec.items()}


class TensorAmbient:
    """Tensor product of factors with divided powers acting by coproduct."""

    def __init__(self, rs: RootSystemData, factors, p: int | None = None):
        self.rs = rs
        self.factors = list(factors)
        if p is not None:
            _require_prime(p)
        self.p = p
        self.dims = [f.dim for f in self.factors]
        self.dim = prod(self.dims) if self.factors else 1
        self.strides = [prod(self.dims[j + 1:]) for j in range(len(self.dims))]
        self._tables: dict = {}  # (kind, beta) -> apply_vec's X^(1) steps

    @classmethod
    def over_z(cls, rs: RootSystemData, reps) -> "TensorAmbient":
        return cls(rs, [FundFactor(rs, r) for r in reps])

    @property
    def hw_index(self) -> int:
        """Flat index of the tensor of the factors' highest weight vectors
        (0 in the empty ambient)."""
        return sum(f.hw_index * s for f, s in zip(self.factors, self.strides))

    def weight_of(self, flat: int) -> Weight:
        acc = (0,) * self.rs.rank
        for f, stride, d in zip(self.factors, self.strides, self.dims):
            acc = _add(acc, f.weights[flat // stride % d])
        return acc

    @property
    def weights(self) -> tuple[Weight, ...]:
        """Weight of every flat index (row major over the factors)."""
        zero = (0,) * self.rs.rank
        return tuple(tuple(map(sum, zip(zero, *ws)))
                     for ws in product(*(f.weights for f in self.factors)))

    @cached_property
    def layout(self) -> WeightBlocks:
        return WeightBlocks(self.weights)

    def apply_vec(self, kind: str, beta: Root, k: int, vec: Vec) -> Vec:
        """Coproduct action of X^(k) on a sparse vector, in exact Python
        integers, on an ambient over Z (ValueError over F_p, where op()
        acts).

        X X^(j-1) = j X^(j) in Kostant's Z-form, so X^(k) v is climbed as
        a ladder of k steps, v_j = X v_{j-1} / j, stopping at the first
        zero image; a quotient that is not exact is an IntegrityError,
        never floored.  Each step is the coproduct Delta(X) = sum_j
        1 (x) ... (x) X_j (x) ... (x) 1, read from the X^(1) columns of
        the factors on which X is nonzero, kept per (kind, beta) until
        _lattice drops them: per factor its stride, its dimension and per
        coordinate the (flat shift, value) pairs.
        """
        if self.p is not None:
            raise ValueError("apply_vec needs an ambient over Z")
        steps = self._tables.get((kind, beta))
        if steps is None:
            steps = self._tables[kind, beta] = []
            for f, stride, d in zip(self.factors, self.strides, self.dims):
                for first in f.powers(kind, beta)[:1]:
                    cols = [()] * d
                    for c, pairs in first.items():
                        cols[c] = tuple(((r - c) * stride, v)
                                        for r, v in pairs)
                    steps.append((stride, d, cols))
        out = vec
        for j in range(1, k + 1):
            img: Vec = {}
            for flat, c in out.items():
                for stride, d, cols in steps:
                    for delta, v in cols[flat // stride % d]:
                        img[flat + delta] = img.get(flat + delta, 0) + c * v
            out = _exact_quotient({f: c for f, c in img.items() if c}, j,
                                  kind, beta)
            if not out:
                break
        return out if k else {f: c for f, c in vec.items() if c}

    def _coproduct(self, kind: str, beta: Root, k: int):
        return kron_coproduct(lambda j, a: self.factors[j].coo(
            kind, beta, a, self.p), self.dims, k, self.p)

    def op(self, kind: str, beta: Root, k: int) -> BlockOp:
        """A divided power on the whole ambient as a block operator mod p,
        assembled by kron_coproduct on every call: a caller that reuses
        one keeps it.  On a one-factor ambient it is the factor's own
        operator, grouped in the ambient's layout, which is the factor's
        order of coordinates; a module that fills that ambient
        (WeylModuleP._ppower) passes these blocks on unchanged."""
        return BlockOp(self.layout, self.p,
                       self.layout.group(*self._coproduct(kind, beta, k)))

    def block_op_matrix(self, kind: str, beta: Root, k: int,
                        weight: Weight) -> BlockOp:
        """op() restricted to the source block of one weight, mod p."""
        if self.p is None:
            raise ValueError("block_op_matrix needs an ambient over F_p")
        entry = self.op(kind, beta, k).blocks.get(weight)
        return BlockOp(self.layout, self.p,
                       {} if entry is None else {weight: entry})


# ---------------------------------------------------------------------------
# spanning

def _check_top_weight(ambient: TensorAmbient, lam: Weight) -> None:
    """A span of V(lam) starts at the ambient's highest weight vector,
    which must have weight lam."""
    top = ambient.weight_of(ambient.hw_index)
    if top != lam:
        raise IntegrityError(f"the ambient's highest weight is {top}, "
                             f"not {lam}")


@dataclass
class _ZBlock:
    """Weight space of the Z lattice: its HNF basis and its offset in the
    lattice basis."""

    weight: Weight
    final: LatticeBasis
    offset: int

    @property
    def rank(self) -> int:
        return self.final.rank


def _span(rs: RootSystemData, ambient: TensorAmbient,
          lam: Weight) -> list[_ZBlock]:
    """Close the ambient's highest weight vector under the divided powers
    F_i^(k) over Z, one weight block at a time, with an HNF per weight.

    Blocks are visited by height, then by descending weight, so every block
    has received all its images when it is finalized.  Returns the blocks
    of nonzero rank in visiting order.

    Each alpha_i-string is followed only as far as the span reaches.  Over
    Q the span of a highest weight vector is V(lam), whose weight strings
    have no gaps.  If mu + alpha_i, ..., mu + r alpha_i are
    finished blocks of nonzero rank and mu + (r+1) alpha_i is not, the
    string through mu runs q = r + <mu, alpha_i^vee> steps down, and
    F_i^(k) for k > q maps V(lam) to the zero weight space mu - k alpha_i.
    Those images would all be {}, so every HNF receives the same vectors
    in the same order as without the bound.  The rule reads only blocks of
    this walk, not the Weyl character.  Each basis row climbs its string
    as a ladder, img_k = F_i img_{k-1} / k (one step of apply_vec, then an
    exact division), stopping at its first empty image.
    """
    _check_top_weight(ambient, lam)
    box = _WeightBox(rs, lam)
    levels = {0: {lam: IncrementalHNF()}}
    levels[0][lam].add({ambient.hw_index: 1})
    blocks, offset, done = [], 0, set()
    simple = [(rs.simple_root(i), a) for i, a in enumerate(box.simple_funds)]
    for h in range(sum(box.cmax) + 1):
        level = levels.pop(h, {})
        for mu in sorted(level, key=_neg):
            final = level[mu].finalize()
            if not final.rank:
                continue
            blocks.append(_ZBlock(mu, final, offset))
            offset += final.rank
            done.add(mu)
            for i, (alpha, alpha_f) in enumerate(simple):
                up = _add(mu, alpha_f)
                r = 0
                while up in done:
                    r += 1
                    up = _add(up, alpha_f)
                dsts, target = [], mu
                for k in range(1, r + mu[i] + 1):
                    target = _sub(target, alpha_f)
                    dsts.append(levels.setdefault(h + k, {}).setdefault(
                        target, IncrementalHNF()))
                for img in final.rows:
                    for k, dst in enumerate(dsts, 1):
                        img = _exact_quotient(ambient.apply_vec(
                            "F", alpha, 1, img), k, "F", alpha)
                        if not img:
                            break
                        dst.add(img)
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
        self.dim = sum(b.rank for b in blocks)
        self.weights = tuple(b.weight for b in blocks for _ in range(b.rank))
        hw = self._by_weight.get(lam)
        if hw is None or hw.rank != 1:
            raise IntegrityError(
                f"the highest weight {lam} has rank "
                f"{0 if hw is None else hw.rank} in the Z lattice of "
                f"{rs.name}, expected 1")
        self.hw_index = hw.offset
        self._op_cache: dict = {}

    def weight_multiplicities(self) -> dict[Weight, int]:
        return {b.weight: b.rank for b in self.blocks}

    def op_int(self, kind: str, beta: Root, k: int) -> SparseIntMatrix:
        """Matrix of a divided power in the lattice basis, exact over Z.

        Raises NonIntegralDividedPower if the image of a basis vector does
        not lie in the lattice, i.e. the lattice fails admissibility.
        """
        key = (kind, beta, k)
        if key in self._op_cache:
            return self._op_cache[key]
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


_LATTICE_CACHE: dict = {}


def _fund_list(rs: RootSystemData, lam: Weight) -> list[int]:
    return [i + 1 for i in range(rs.rank) for _ in range(lam[i])]


def build_weyl_lattice(rs: RootSystemData, lam) -> WeylLatticeZ:
    """Minimal admissible lattice inside a tensor of fundamental reps, built
    once per (type, lam) and shared by later calls."""
    from .chevrep import fundamental_rep

    lam = tuple(lam)
    key = (rs.name, lam)
    if key not in _LATTICE_CACHE:
        ambient = TensorAmbient.over_z(
            rs, [fundamental_rep(rs, i) for i in _fund_list(rs, lam)])
        _LATTICE_CACHE[key] = _lattice(rs, lam, ambient)
    return _LATTICE_CACHE[key]


def _lattice(rs: RootSystemData, lam: Weight,
             ambient: TensorAmbient) -> WeylLatticeZ:
    """The Z span of the ambient's highest weight vector as a lattice of
    V(lam); RankMismatch unless it has the Weyl dimension."""
    expected = weyl_dim(rs, lam)
    lat = WeylLatticeZ(rs, lam, ambient, _span(rs, ambient, lam))
    ambient._tables.clear()  # the span is built; a cached lattice keeps none
    if lat.dim != expected:
        raise RankMismatch(lam, expected, lat.dim)
    return lat


def tensor_width_bound(rs: RootSystemData, lams) -> int:
    """Bound on the weight-space dimensions of V(lams[0]) (x) ... (x) V(lams[-1]).

    A weight space of the product pairs weight spaces of the leading
    factors with single weight spaces of the last one, so its dimension is
    at most the largest multiplicity of the last factor times the
    dimension of the others.
    """
    if not lams:
        return 1
    *rest, last = lams
    top = max(freudenthal_multiplicities(rs, tuple(last)).values())
    return top * prod(weyl_dim(rs, l) for l in rest)


def validate_lattice_relations(lat: WeylLatticeZ) -> list[RelationWitness]:
    """Check [E_i, F_j] = delta_ij H_i on the lattice basis, exactly.

    Each simple operator's entries are grouped by column once, and each
    column of [E_i, F_j] is formed from them directly; a witness names the
    first failing column of each (i, j), its entries by ascending row."""
    rs = lat.rs

    def columns(kind: str) -> list[dict]:
        out = []
        for i in range(rs.rank):
            cols: dict[int, list] = {}
            for (r, c), v in lat.op_int(kind, rs.simple_root(i),
                                        1).entries.items():
                cols.setdefault(c, []).append((r, v))
            out.append(cols)
        return out

    e_cols, f_cols = columns("E"), columns("F")
    out = []
    for i in range(rs.rank):
        for j in range(rs.rank):
            name = f"[E_{i+1}, F_{j+1}] = " + (f"H_{i+1}" if i == j else "0")
            for col in range(lat.dim):
                acc: dict[int, int] = {}
                # column col of E_i F_j - F_j E_i
                for a, b, sign in ((e_cols[i], f_cols[j], 1),
                                   (f_cols[j], e_cols[i], -1)):
                    for mid, v in b.get(col, ()):
                        for r, w in a.get(mid, ()):
                            acc[r] = acc.get(r, 0) + sign * w * v
                got = {r: v for r, v in sorted(acc.items()) if v}
                expect = {}
                if i == j:
                    h = rs.pairing(lat.weights[col], rs.simple_root(i))
                    if h:
                        expect[col] = h
                if got != expect:
                    out.append(RelationWitness(name, col,
                                               f"got {got}, expected {expect}"))
                    break
    return out


# ---------------------------------------------------------------------------
# spanning over F_p

class _FiltBlock:
    """Per-weight cumulative echelon plus insertion-degree tags; the block
    is full once its rank reaches cap.  Images offered to the block wait
    in a batch until they are fed to the echelon together.  Over F_2 the
    rows are int bitsets from offer to tag, the form BlockOp.image and the
    echelon's _add_bits take, and _matrix unpacks them."""

    def __init__(self, p: int, indices: np.ndarray, cap: int):
        self.indices = indices
        self.cap = cap
        self.ech = DenseEchelonModP(p, len(indices))
        self.tagged: list[tuple] = []  # (degree, row)
        self._batch: list[tuple] = []  # (offer number, rows)
        self._batch_rows = 0
        self._matrix = None  # every tagged row, unpacked on the first read

    @property
    def full(self) -> bool:
        return self.ech.rank >= self.cap

    def offer(self, number: int, rows: np.ndarray) -> bool:
        """Queue rows; True once the queue could fill the block, so that
        it must be fed before the block can take another offer."""
        self._batch.append((number, rows))
        self._batch_rows += len(rows)
        return self._batch_rows >= self.cap - self.ech.rank

    def feed(self, degree: int) -> tuple[int, np.ndarray] | None:
        """Add the queued rows in order.  None if no row was independent,
        else the number of the first offer that added a row and the rows
        added, as stored."""
        batch, self._batch, self._batch_rows = self._batch, [], 0
        rows = _joined([r for _, r in batch], self.ech.p)
        taken, stored = self.ech._add_bits(rows) if self.ech.p == 2 else \
            self.ech.add_rows(rows)
        if not taken:
            return None
        self.tagged.extend((degree, r) for r in stored)
        end = 0
        for number, r in batch:
            end += len(r)
            if taken[0] < end:
                return number, stored

    def rows_upto(self, n: int) -> np.ndarray:
        """The rows tagged at degree <= n as an int64 matrix, read only: a
        prefix of _matrix, since the walk tags in order of degree."""
        if self._matrix is None:
            self._matrix = _unpack_rows([r for _, r in self.tagged],
                                        len(self.indices), self.ech.p)
        return self._matrix[:sum(d <= n for d, _ in self.tagged)]


class PBWGraded:
    """The filtration V_0 <= V_1 <= ... that filter_from_seed spans, with
    its cumulative and graded dimensions.

    Bases of the V_n are the degree-tagged echelon rows: rows inserted at
    degree <= n form a basis of V_n because the echelon only ever accepts
    independent rows, and the dimensions are counted from those tags.  No
    graded complement is chosen anywhere.
    """

    def __init__(self, p: int, blocks: dict):
        self.p = p
        self._blocks = blocks
        counts = np.bincount([d for blk in blocks.values()
                              for d, _ in blk.tagged])
        self.n_top = len(counts) - 1
        self.graded_dims = tuple(counts.tolist())
        self._cum = tuple(np.cumsum(counts).tolist())

    def cumulative_dims(self) -> tuple[int, ...]:
        return self._cum

    def rows_by_weight(self, n: int) -> dict[Weight, np.ndarray]:
        """Basis rows of V_n per weight where it is nonzero, in the local
        coordinates of the weight block (layout.flats[w]), in the order
        they entered, so the rows of V_{n-1} come first."""
        out = {}
        for w, blk in self._blocks.items():
            rows = blk.rows_upto(n)
            if len(rows):
                out[w] = rows
        return out

    def tagged_blocks(self):
        """Per weight block: its weight, its coordinates, and its basis rows
        with the degrees they entered at."""
        for w, blk in self._blocks.items():
            degs = np.array([d for d, _ in blk.tagged], dtype=np.int64)
            yield w, blk.indices, degs, blk.rows_upto(self.n_top)

    def contains(self, vec: np.ndarray, n: int) -> bool:
        """Membership of a global vector in V_n; the blocks partition the
        coordinates."""
        vec = np.asarray(vec, dtype=np.int64) % self.p
        for blk in self._blocks.values():
            local = vec[blk.indices]
            if local.any():
                ech = DenseEchelonModP(self.p, len(blk.indices))
                ech.add_rows(blk.rows_upto(n))
                if not ech.contains(local):
                    return False
        return True


def filter_from_seed(space, *, roots=None) -> PBWGraded:
    """Degree-tagged span of the highest weight vector under p-power
    lowering operators.

    `space` provides rs, p, layout (the WeightBlocks of its coordinates),
    hw_index (of a module's highest weight vector, or the tensor of its
    factors' ones) and op(kind, beta, k) -> BlockOp.  The vector is lowered
    by the F_beta^(p^e) for beta in roots, every positive root when None,
    and p^e counts toward the degree.  Its span is a quotient of the Weyl
    module of its weight lambda, so each weight is capped at its
    Freudenthal multiplicity there.  A block at its cap takes no more rows,
    and the walk stops once every block is at its cap, or at the height of
    w0(lambda) below lambda, the largest degree of a nonzero word.

    Each block keeps the images offered to it in the current degree, in
    offer order, and feeds them to its echelon as one batch once they have
    at least cap - rank rows, and again at the end of the degree.  Until
    then the batch cannot fill the block, so the walk computes exactly the
    images that feeding each one at once would, and no more.  The echelon
    stores rows as if fed one at a time, and the next degree reads the
    blocks in the order of their first offer that added a row, so every
    tagged row and degree is what the one-at-a-time feed gives.

    Over F_2 every row of the walk (the seed, the frontier, the offers and
    the tags) is an int bitset, imaged by BlockOp.image and fed to the
    echelon's _add_bits with nothing packed or unpacked between them; the
    PBWGraded accessors return int64 matrices.

    Over the simple roots alone the degree of a word is its height drop,
    so each weight receives all its rows at one degree, from weights that
    are complete by then; build_weyl_module_p spans V_p(lambda) this way.
    """
    rs, p, layout, hw = space.rs, space.p, space.layout, space.hw_index
    lam = layout.keys[layout.block_of[hw]]
    caps = freudenthal_multiplicities(rs, lam)
    blocks = {w: _FiltBlock(p, ix, min(caps.get(w, 0), len(ix)))
              for w, ix in layout.flats.items()}
    goal = sum(b.cap for b in blocks.values())
    bound = sum(_WeightBox(rs, lam).cmax)
    roots = rs.positive_roots if roots is None else roots
    steps, pe = {}, 1  # per power p^e, each root beta with its step p^e beta
    while pe <= max(bound, 1):
        steps[pe] = [(beta, tuple(pe * s for s in rs.root_fund(beta)))
                     for beta in roots]
        pe *= p

    top = blocks[lam]
    top.offer(0, _pack_rows((top.indices == hw).astype(np.int64)[None], p))
    frontier: dict[int, dict[Weight, list[np.ndarray]]] = {
        0: {lam: [top.feed(0)[1]]}}
    total = 1

    ops: dict[tuple, BlockOp] = {}  # fetched when first used

    n = 0
    while n < bound and total < goal:
        n += 1
        added: dict[Weight, list[np.ndarray]] = {}
        first: dict[Weight, int] = {}  # each block's first offer that added
        waiting: set[Weight] = set()  # blocks holding offers not yet fed
        offers = 0

        def feed(w):
            got = blocks[w].feed(n)
            if got:
                first.setdefault(w, got[0])
                added.setdefault(w, []).append(got[1])

        for pe, moves in steps.items():
            src = frontier.get(n - pe)
            if src is None or pe > n:
                continue
            for w, rows in src.items():
                joined = _joined(rows, p)
                for beta, step in moves:
                    dst_w = tuple(map(sub, w, step))
                    dst = blocks.get(dst_w)
                    if dst is None or dst.full:
                        continue
                    if (beta, pe) not in ops:
                        ops[beta, pe] = space.op("F", beta, pe)
                    img = ops[beta, pe].image(w, joined)
                    if img is None:
                        continue
                    offers += 1
                    if dst.offer(offers, img[1]):
                        feed(dst_w)
                        waiting.discard(dst_w)
                    else:
                        waiting.add(dst_w)
        for w in waiting:
            feed(w)
        if added:
            frontier[n] = {w: added[w] for w in sorted(added, key=first.get)}
            total += sum(len(x) for got in added.values() for x in got)
    return PBWGraded(p, blocks)


class _EchelonBlock:
    """Weight space of a module over F_p: the echelon's reduced rows by
    ascending pivot, canonical for their span, kept once in basis as
    BlockOp.image takes them (bitsets over F_2, else an int64 matrix);
    at is the pivots as _coordinates takes them (a mask over F_2)."""

    def __init__(self, weight: Weight, ech: DenseEchelonModP):
        self.weight, self.p, self.width = weight, ech.p, ech.width
        if ech.p == 2:
            self.at = ech._mask
            self.basis = [ech._bits[c] for c in sorted(ech._bits)]
        else:
            self.at = sorted(ech.pivot_cols.tolist())
            self.basis = ech.basis_matrix()[np.argsort(ech.pivot_cols)]
        self.rank = len(self.basis)

    @property
    def pivots(self) -> list[int]:
        return [c for c in range(self.width) if self.at >> c & 1] \
            if self.p == 2 else self.at

    @property
    def rows(self) -> np.ndarray:
        return _unpack_rows(self.basis, self.width, self.p)


def _is_ppower_digit(p: int, k: int) -> bool:
    """k is p^e for some e, i.e. a single base p digit equal to 1."""
    while k and k % p == 0:
        k //= p
    return k == 1


def lucas_assemble(p: int, k: int, ppower) -> BlockOp:
    """Divided power of order k >= 1 from its p-power factors mod p.

    ppower(p^e) must return the BlockOp of the p-power divided power; the
    base p digits of k add without carries, so the ordered product of the
    digit factors equals the divided power up to the unit k! / prod (p^e)!.
    """
    acc, denom, kk, power = None, 1, k, 1
    while kk:
        kk, d = divmod(kk, p)
        if d:
            factor = ppower(power).power(d)
            acc = factor if acc is None else acc @ factor
            denom *= factorial(power) ** d
        power *= p
    unit = factorial(k) // denom
    if unit % p == 0:
        raise IntegrityError(f"k! / prod (p^e)! for k = {k} is not a unit "
                             f"mod {p}")
    u = pow(unit % p, -1, p)
    return BlockOp(acc.layout, p, {s: (d, r, c, v * u % p)
                                   for s, (d, r, c, v) in acc.blocks.items()})


class ModuleP:
    """Weyl module over F_p as an operator interface.

    Holds the weight of every basis index and finds the highest weight
    line among them.  A subclass supplies only _ppower(kind, beta, p^e),
    the blocks of the p-power divided power (as WeightBlocks.group gives
    them).  op() returns every divided power as a BlockOp, kept once made:
    the p-powers as supplied, and for general k the product lucas_assemble
    forms from the p-power factors, a unit multiple of the divided power
    because the base p digits of k add without carries.
    """

    def __init__(self, rs: RootSystemData, p: int, lam: Weight, weights):
        self.rs = rs
        self.p = p
        self.lam = tuple(lam)
        self.weights = tuple(weights)
        self.dim = len(self.weights)
        mult = self.weights.count(self.lam)
        if mult != 1:
            raise IntegrityError(
                f"the highest weight {self.lam} has multiplicity {mult} "
                f"in a module of {rs.name} over F_{p}, expected 1")
        self.hw_index = self.weights.index(self.lam)
        self.layout = WeightBlocks(self.weights)
        self._ops: dict = {}

    def weight_multiplicities(self) -> dict[Weight, int]:
        """Multiplicity per weight, by height below lam and then by
        descending weight: the order in which the span, the lattice
        reduction and the cache lay out the basis."""
        return dict(Counter(self.weights))

    def max_power(self, beta: Root) -> int:
        m = self.rs.coroot_coords(beta)
        return max((pr for mu in set(self.weights)
                    if (pr := sum(a * b for a, b in zip(mu, m))) > 0),
                   default=0)

    def hw_vector(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=np.int64)
        v[self.hw_index] = 1
        return v

    def _check(self, kind: str, beta: Root) -> None:
        if kind not in ("E", "F"):
            raise ValueError(kind)
        if beta not in self.rs.positive_roots:
            raise ValueError(f"{beta} is not a positive root")

    def coo(self, kind: str, beta: Root, k: int, p: int):
        """op() as int64 COO arrays, vals in [1, p) for p its prime, kept on
        the operator: the form kron_coproduct reads a module factor in."""
        op = self.op(kind, beta, k)
        if op._coo is None:
            op._coo = op.coo()
        return op._coo

    @cached_property
    def _identity(self) -> BlockOp:
        """op(kind, beta, 0) for every (kind, beta): one BlockOp, shared,
        since a BlockOp is never changed."""
        diag = np.arange(self.dim)
        return BlockOp(self.layout, self.p, self.layout.group(
            diag, diag, np.ones(self.dim, dtype=np.int64)))

    def op(self, kind: str, beta: Root, k: int) -> BlockOp:
        """A divided power of a root operator mod p, as a BlockOp."""
        self._check(kind, beta)
        key = (kind, beta, k)
        if key not in self._ops:
            if k == 0:
                out = self._identity
            elif _is_ppower_digit(self.p, k):
                out = BlockOp(self.layout, self.p,
                              self._ppower(kind, beta, k))
            else:
                out = lucas_assemble(self.p, k,
                                     lambda pw: self.op(kind, beta, pw))
            self._ops[key] = out
        return self._ops[key]


class WeylModuleP(ModuleP):
    """Weyl module over F_p with canonical per weight echelon bases."""

    def __init__(self, rs: RootSystemData, p: int, lam: Weight,
                 ambient: TensorAmbient, blocks: list[_EchelonBlock]):
        super().__init__(rs, p, lam, (b.weight for b in blocks
                                      for _ in range(b.rank)))
        self.ambient = ambient
        self.blocks = blocks
        self._by_weight = {b.weight: b for b in blocks}

    # the tracer wraps op per class by name (ROADMAP item 3)
    op = ModuleP.op

    def _ppower(self, kind: str, beta: Root, k: int) -> dict:
        """The ambient operator on each block's rows, in the target block's
        basis; raises IntegrityError unless the images lie in the span,
        which is zero at a weight the module lacks.  Over F_2 the images
        are bitsets, cleared by the target's rows at their pivot bits,
        which must leave nothing (_coordinates, with the target's pivot
        mask), and the pivot bits cleared are the entries.

        A module of the ambient's dimension fills every ambient weight
        space, whose RREF rows are the identity, so its blocks are the
        ambient operator's own, passed on without a product.  Each call
        checks that the rows are still the identity and that every target
        weight is the module's, as the products would have.
        """
        ops = self.ambient.op(kind, beta, k)

        def not_closed():
            return IntegrityError(
                f"module not closed under {kind}^({k}) at {beta}")

        if self.dim == self.ambient.dim:
            if not all(np.array_equal(b.rows, np.identity(b.rank))
                       for b in self.blocks):
                raise not_closed()
            out = {}
            for blk in self.blocks:
                entry = ops.blocks.get(blk.weight)
                if entry is not None:
                    if entry[0] not in self._by_weight:
                        raise not_closed()
                    out[blk.weight] = entry
            return out
        out = {}
        for blk in self.blocks:
            if blk.weight not in ops.blocks:
                continue
            dst_w, images = ops.image(blk.weight, blk.basis)
            dst = self._by_weight.get(dst_w)
            # at a weight the module lacks, the span of no rows
            found = _coordinates(images, *((dst.basis, dst.at) if dst else (
                images[:0], 0 if self.p == 2 else [])), self.p)
            if found is None:
                raise not_closed()
            if len(found[0]):
                out[blk.weight] = (dst_w, *found)
        return out


def validate_relations(mod: ModuleP) -> list[RelationWitness]:
    """Check defining relations on the module; return located failures.

    Covered: [E_i, F_j] = delta_ij H_i, E_i annihilates the highest weight
    vector, and F_i^p = 0 (the p-fold product of single lowering steps).
    """
    rs, p = mod.rs, mod.p
    out = []
    for i in range(rs.rank):
        alpha = rs.simple_root(i)
        ei = mod.op("E", alpha, 1)
        col = ei @ mod.hw_vector()
        if np.any(col):
            out.append(RelationWitness(
                f"E_{i+1} v+ = 0", mod.hw_index,
                f"nonzero rows {np.nonzero(col)[0].tolist()}"))
        for j in range(rs.rank):
            fj = mod.op("F", rs.simple_root(j), 1)
            bad = _commutator_defects(mod, ei @ fj, fj @ ei,
                                      alpha if i == j else None)
            if bad:
                name = f"[E_{i+1}, F_{j+1}] = " + \
                    (f"H_{i+1}" if i == j else "0")
                out.append(RelationWitness(name, bad[0],
                                           f"{len(bad)} bad columns"))
    for i in range(rs.rank):
        acc = mod.op("F", rs.simple_root(i), 1).power(p)
        if acc.nnz:
            rows, cols, _ = acc.coo()
            col = int(cols[np.lexsort((cols, rows))[0]])
            out.append(RelationWitness(f"(F_{i+1})^{p} = 0", col,
                                       f"nnz {acc.nnz}"))
    return out


def _commutator_defects(mod: ModuleP, ab: BlockOp, ba: BlockOp,
                        alpha: Root | None) -> list[int]:
    """Ascending columns where ab - ba differs from H_alpha mod p (from 0
    when alpha is None), summed entry by entry over the three COO forms."""
    dim, parts = mod.dim, [ab.coo(), ba.coo()]
    if alpha is not None:
        diag = np.arange(dim)
        parts.append((diag, diag, np.array(
            [mod.rs.pairing(w, alpha) for w in mod.weights], dtype=np.int64)))
    keys, inv = np.unique(np.concatenate([r * dim + c for r, c, _ in parts]),
                          return_inverse=True)
    total = np.zeros(len(keys), dtype=np.int64)
    np.add.at(total, inv, np.concatenate(
        [sign * v for sign, (_, _, v) in zip((1, -1, -1), parts)]))
    return np.unique(keys[total % mod.p != 0] % dim).tolist()


# ---------------------------------------------------------------------------
# builders

_MODP_CACHE: dict = {}


def build_weyl_module_p(rs: RootSystemData, p: int, lam, *,
                        ambient_mode: str = "peeled"):
    """Construct V_p(lambda) by spanning under p-power divided powers, once
    per (type, p, lambda, ambient_mode): later calls share the module.

    ambient_mode "peeled" builds up one fundamental factor at a time,
    nesting the previous stage as a tensor factor; "flat" spans inside the
    full tensor product of fundamental representations directly.  Either
    way the span is the image of the minimal lattice mod p.  When that
    image collapses below the Weyl dimension, the lattice is checked with
    reduce_mod_p: if it loses rank mod p (it is not saturated at p in the
    ambient), the module is rebuilt as the abstract reduction of the Z
    lattice instead, so the result always has the Weyl dimension; if it
    keeps its rank, the collapse is a defect and raises IntegrityError.
    Without peeling the span is the image of the lattice mod p, so a rank
    other than the lattice's rank mod p is a defect too.
    """
    from .chevrep import fundamental_rep

    lam = tuple(lam)
    if ambient_mode not in ("peeled", "flat"):
        raise ValueError(ambient_mode)
    key = (rs.name, p, lam, ambient_mode)
    if key in _MODP_CACHE:
        return _MODP_CACHE[key]
    funds = _fund_list(rs, lam)
    omega = [tuple(int(j == i - 1) for j in range(rs.rank)) for i in funds]
    peeled = ambient_mode == "peeled" and len(funds) > 1
    if peeled:
        prev_lam = _sub(lam, omega[-1])
    # the span's rows run over the weight spaces of the ambient
    require_int64_safe(p, tensor_width_bound(
        rs, [prev_lam, omega[-1]] if peeled else omega))
    if peeled:
        factors = [build_weyl_module_p(rs, p, prev_lam),
                   FundFactor(rs, fundamental_rep(rs, funds[-1]))]
    else:
        factors = [FundFactor(rs, fundamental_rep(rs, i)) for i in funds]
    ambient = TensorAmbient(rs, factors, p)
    try:
        mod = _finish_modp(rs, p, lam, ambient)
    except RankMismatch as exc:
        lat = build_weyl_lattice(rs, lam)
        try:
            reduce_mod_p(lat, p)
        except IntegrityError:
            if not peeled:  # the span is the image of the lattice mod p
                rank = sum(e.rank for _, e in _lattice_echelons(lat, ambient))
                if exc.found != rank:
                    raise IntegrityError(
                        f"the ambient span mod {p} of V({lam}) for "
                        f"{rs.name} has rank {exc.found}, but the Z lattice "
                        f"has rank {rank} mod {p}") from exc
            import logging  # loaded only on the fallback
            logging.getLogger(__name__).info(
                "ambient span mod %d for %s %s has rank %d, expected %d; "
                "falling back to the lattice reduction",
                p, rs.name, lam, exc.found, exc.expected)
            mod = LatticeModuleP(lat, p)
        else:
            raise IntegrityError(
                f"the ambient span mod {p} of V({lam}) for {rs.name} has "
                f"rank {exc.found}, expected {exc.expected}, but the Z "
                f"lattice keeps its rank mod {p}: a factor of the ambient "
                "is defective") from exc
    _MODP_CACHE[key] = mod
    return mod


def _finish_modp(rs, p, lam, ambient) -> WeylModuleP:
    """The span of the ambient's highest weight vector under the simple
    p-power lowerings as V_p(lam); RankMismatch unless it has the Weyl
    dimension.  The blocks of nonzero rank are kept by height, then by
    descending weight."""
    _check_top_weight(ambient, lam)
    box = _WeightBox(rs, lam)
    span = filter_from_seed(ambient, roots=[
        rs.simple_root(i) for i in range(rs.rank)])
    expected, found = weyl_dim(rs, lam), span.cumulative_dims()[-1]
    if found != expected:
        raise RankMismatch(lam, expected, found)
    echs = {w: blk.ech for w, blk in span._blocks.items() if blk.ech.rank}
    return WeylModuleP(rs, p, lam, ambient, [
        _EchelonBlock(w, echs[w])
        for w in sorted(echs, key=lambda w: (box.height(w), _neg(w)))])


def _lattice_echelons(lat: WeylLatticeZ, ambient: TensorAmbient):
    """Per weight block of the lattice, the block and the echelon of its
    rows mod p, in an ambient over F_p with the lattice's coordinates."""
    p = ambient.p
    for zb in lat.blocks:
        flats = ambient.layout.flats[zb.weight].tolist()
        ech = DenseEchelonModP(p, len(flats))
        ech.add_rows(np.array([[row.get(f, 0) % p for f in flats]
                               for row in zb.final.rows], dtype=np.int64))
        yield zb, ech


def reduce_mod_p(lat: WeylLatticeZ, p: int) -> WeylModuleP:
    """Reduction of the Z lattice: a second, independent route to V_p, in
    the lattice's order of weight blocks.  IntegrityError where a weight
    space loses rank mod p."""
    ambient = TensorAmbient(lat.rs, lat.ambient.factors, p)
    blocks = []
    for zb, ech in _lattice_echelons(lat, ambient):
        if ech.rank != zb.rank:
            raise IntegrityError(
                f"weight space {zb.weight} of the Z lattice has rank "
                f"{zb.rank} but {ech.rank} mod {p}")
        blocks.append(_EchelonBlock(zb.weight, ech))
    return WeylModuleP(lat.rs, p, lat.lam, ambient, blocks)


class LatticeModuleP(ModuleP):
    """Weyl module over F_p in the coordinates of its own Z lattice basis.

    The span inside the ambient tensor product computes the image of
    V_Z (x) F_p there, which collapses exactly when the minimal lattice
    has index divisible by p in its saturation (B3 omega_2 at p = 2 is the
    smallest supported case).  Reducing the lattice in its own basis always
    has the Weyl dimension; the p-power operators are the exact integral
    divided powers taken mod p, and the module stays cyclic over the
    hyperalgebra because U_Z . v surjects onto V_Z / p V_Z.
    """

    def __init__(self, lat: WeylLatticeZ, p: int):
        super().__init__(lat.rs, p, lat.lam, lat.weights)
        self.lattice = lat

    # the tracer wraps op per class by name (ROADMAP item 3)
    op = ModuleP.op

    def _ppower(self, kind: str, beta: Root, pe: int) -> dict:
        p = self.p
        entries = [(r, c, v % p) for (r, c), v in
                   self.lattice.op_int(kind, beta, pe).entries.items()
                   if v % p]
        return self.layout.group(*np.array(entries, dtype=np.int64)
                                 .reshape(-1, 3).T)


# ---------------------------------------------------------------------------
# bootstrap of type C fundamentals

def bootstrap_cartan_component(rs: RootSystemData, wedge: IntegralRep,
                               k: int) -> IntegralRep:
    """Fundamental representation omega_k of type C as the Z span of
    e_1 ^ ... ^ e_k, the highest weight vector of wedge = Lambda^k of the
    vector representation (Fulton-Harris, Representation Theory, 17.2)."""
    lam = tuple(1 if i == k - 1 else 0 for i in range(rs.rank))
    lat = _lattice(rs, lam, TensorAmbient.over_z(rs, [wedge]))
    lowering, raising = (tuple(
        tuple(map(tuple, lat.op_int(kind, rs.simple_root(i), 1).to_dense()))
        for i in range(rs.rank)) for kind in ("F", "E"))
    return IntegralRep(f"{rs.name}-w{k}", lat.dim, lat.weights,
                       lowering, raising)
