"""PBW filtration of mod-p Weyl modules and the norm-form criterion.

The filtration V_n is spanned by applying products of divided-power
lowering operators of total exponent at most n to the highest weight
vector.  The engine spans by words in the p-power divided powers
F_beta^(p^e), counting p^e toward the degree: base-p digits multiply out
to any divided power without changing the exponent sum, and straightening
a word against the ordered monomial basis never raises the total degree,
so the word span of degree <= n equals the ordered-monomial span.

The norm form F0 is the product of F_beta^((p-1)) over all positive
roots.  Its image in the top graded piece of the degenerate module of
the splitting weight 2(p-1)rho decides the maximal compatible splitting
criterion: nonzero exactly when F0 v stays out of V_{(p-1)N - 1}.
"""

from __future__ import annotations

import json
import logging
import random
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import __version__
from .exactla import DenseEchelonModP, SparsePrimeMatrix
from .rootsys import RootSystemData, Weight, splitting_weight, star_weight
from .weylmod import WeylModuleP, build_weyl_module_p, weyl_dim

log = logging.getLogger(__name__)

DEFAULT_SIZE_CEILING = 20000

ORDER_TRIAL_SEED = 987654321


class SizeCeilingExceeded(RuntimeError):
    """Refusal to build a module larger than the configured ceiling."""

    def __init__(self, required: int, ceiling: int):
        super().__init__(
            f"module dimension {required} exceeds the size ceiling {ceiling}")
        self.required = required
        self.ceiling = ceiling


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


# ---------------------------------------------------------------------------
# generic degree-tagged spanning


class _FiltBlock:
    """Per-weight cumulative echelon plus insertion-degree tags."""

    def __init__(self, p: int, indices: np.ndarray):
        self.indices = indices
        self.ech = DenseEchelonModP(p, len(indices))
        self.tagged: list[tuple[int, np.ndarray]] = []

    @property
    def full(self) -> bool:
        return self.ech.rank == len(self.indices)

    def insert(self, row: np.ndarray, degree: int) -> np.ndarray | None:
        if not self.ech.add_row(row):
            return None
        stored = self.ech.basis_matrix()[self.ech.rank - 1].copy()
        self.tagged.append((degree, stored))
        return stored

    def rows_upto(self, n: int) -> np.ndarray:
        rows = [r for d, r in self.tagged if d <= n]
        if not rows:
            return np.zeros((0, len(self.indices)), dtype=np.int64)
        return np.array(rows, dtype=np.int64)


def _height_drop(rs: RootSystemData, top: Weight, low: Weight) -> int | None:
    rc = rs.root_coords_int(tuple(a - b for a, b in zip(top, low)))
    if rc is None or any(x < 0 for x in rc):
        return None
    return sum(rc)


def filter_from_seed(space, seed: np.ndarray, *, n_max: int | None = None,
                     target: int | None = None):
    """Degree-tagged span of the seed under p-power lowering operators.

    `space` provides rs, p, dim, weights (one per coordinate) and
    op(kind, beta, k) -> csr matrix.  Returns (blocks, dims, complete)
    where dims[n] = dim V_n for the degrees actually processed.
    """
    rs, p = space.rs, space.p
    weights = space.weights
    groups: dict[Weight, list[int]] = {}
    for i, w in enumerate(weights):
        groups.setdefault(w, []).append(i)
    blocks = {w: _FiltBlock(p, np.array(ix, dtype=np.intp))
              for w, ix in groups.items()}

    nz = np.nonzero(np.asarray(seed, dtype=np.int64) % p)[0]
    assert nz.size, "seed vanishes mod p"
    seed_wt = weights[int(nz[0])]
    assert all(weights[int(i)] == seed_wt for i in nz), \
        "seed is not weight homogeneous"

    bound = max((d for w in blocks
                 if (d := _height_drop(rs, seed_wt, w)) is not None),
                default=0)
    limit = bound if n_max is None else min(bound, n_max)
    powers = []
    pe = 1
    while pe <= max(bound, 1):
        powers.append(pe)
        pe *= p
    max_pe = powers[-1]

    seed_blk = blocks[seed_wt]
    first = seed_blk.insert(np.asarray(seed, dtype=np.int64)[seed_blk.indices]
                            % p, 0)
    assert first is not None
    frontier: dict[int, dict[Weight, list[np.ndarray]]] = {
        0: {seed_wt: [first]}}
    dims = [1]
    total = 1
    last_new = 0

    op_cache: dict[tuple, object] = {}

    def get_op(beta, k):
        key = (beta, k)
        if key not in op_cache:
            m = space.op("F", beta, k)
            op_cache[key] = m if m.nnz else None
        return op_cache[key]

    n = 0
    while n < limit and (target is None or total != target):
        if n >= last_new + max_pe:
            break  # nothing in reach of any remaining power
        n += 1
        added: dict[Weight, list[np.ndarray]] = {}
        for pe in powers:
            src = frontier.get(n - pe)
            if src is None or pe > n:
                continue
            for w, rows in src.items():
                rows_mat = np.array(rows, dtype=np.int64)
                for beta in rs.positive_roots:
                    shift = rs.root_fund(beta)
                    dst_w = tuple(a - pe * s for a, s in zip(w, shift))
                    dst = blocks.get(dst_w)
                    if dst is None or dst.full:
                        continue
                    op = get_op(beta, pe)
                    if op is None:
                        continue
                    sub = op[dst.indices][:, blocks[w].indices]
                    if sub.nnz == 0:
                        continue
                    images = (rows_mat @ sub.toarray().T) % p
                    for img in images:
                        stored = dst.insert(img, n)
                        if stored is not None:
                            added.setdefault(dst_w, []).append(stored)
                            total += 1
        if added:
            frontier[n] = added
            last_new = n
        dims.append(total)

    complete = (total == target) if target is not None else \
        (n_max is None or n < n_max or last_new + max_pe <= n_max)
    # drop trailing degrees that added nothing beyond the last growth
    while len(dims) > last_new + 1 and dims[-1] == dims[-2] and \
            (n_max is None or len(dims) - 1 > n_max):
        dims.pop()
    return blocks, dims, complete


# ---------------------------------------------------------------------------
# public filtration object


class PBWGraded:
    """Cumulative PBW filtration with per-degree graded dimensions.

    Bases of the V_n are the degree-tagged echelon rows: rows inserted at
    degree <= n form a basis of V_n because the echelon only ever accepts
    independent rows.  No graded complement is chosen anywhere.
    """

    def __init__(self, lam: Weight, p: int, space_dim: int,
                 blocks: dict, dims: list[int], complete: bool):
        self.lam = lam
        self.p = p
        self.space_dim = space_dim
        self._blocks = blocks
        self._cum = tuple(dims)
        self.n_top = len(dims) - 1
        self.complete = complete
        self.graded_dims = (dims[0],) + tuple(
            b - a for a, b in zip(dims, dims[1:]))

    def cumulative_dims(self) -> tuple[int, ...]:
        return self._cum

    def filtration_basis(self, n: int) -> np.ndarray:
        """Basis rows of V_n scattered back to global coordinates."""
        rows = []
        for blk in self._blocks.values():
            local = blk.rows_upto(n)
            if local.shape[0]:
                wide = np.zeros((local.shape[0], self.space_dim),
                                dtype=np.int64)
                wide[:, blk.indices] = local
                rows.append(wide)
        if not rows:
            return np.zeros((0, self.space_dim), dtype=np.int64)
        return np.vstack(rows)

    def rows_by_weight_upto(self, n: int) -> dict[Weight, np.ndarray]:
        return {w: blk.rows_upto(n) for w, blk in self._blocks.items()
                if blk.tagged}

    def block_indices(self, weight: Weight) -> np.ndarray:
        return self._blocks[weight].indices

    def contains(self, vec: np.ndarray, n: int) -> bool:
        """Membership of a global vector in V_n."""
        vec = np.asarray(vec, dtype=np.int64) % self.p
        support = np.nonzero(vec)[0]
        if support.size == 0:
            return True
        for blk in self._blocks.values():
            local = vec[blk.indices]
            if not local.any():
                continue
            ech = DenseEchelonModP(self.p, len(blk.indices))
            for row in blk.rows_upto(n):
                ech.add_row(row)
            if not ech.contains(local):
                return False
            # account for support outside every block is impossible: the
            # blocks partition the coordinates
        return True


def pbw_filtration(mod: WeylModuleP, n_max: int | None = None) -> PBWGraded:
    """PBW filtration of a Weyl module mod p from its highest weight line."""
    blocks, dims, complete = filter_from_seed(
        mod, mod.hw_vector(), n_max=n_max, target=mod.dim)
    if n_max is None:
        assert complete, "filtration failed to fill the module"
    return PBWGraded(mod.lam, mod.p, mod.dim, blocks, dims, complete)


# ---------------------------------------------------------------------------
# norm form


def _f0_csr(mod: WeylModuleP, order) -> sp.csr_matrix:
    roots = mod.rs.positive_roots
    n = len(roots)
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"order must be a permutation of 1..{n}: {order}")
    acc = sp.identity(mod.dim, dtype=np.int64, format="csr")
    for idx in reversed(list(order)):
        acc = mod.op("F", roots[idx - 1], mod.p - 1) @ acc
        acc.data %= mod.p
        acc.eliminate_zeros()
    return acc


def build_F0(mod: WeylModuleP, order) -> SparsePrimeMatrix:
    """Product of the (p-1)-st divided powers over all positive roots,
    factors taken in the given 1-based order, leftmost factor applied last."""
    acc = _f0_csr(mod, order).tocoo()
    entries = {(int(r), int(c)): int(v) % mod.p
               for r, c, v in zip(acc.row, acc.col, acc.data) if v % mod.p}
    return SparsePrimeMatrix(mod.dim, mod.dim, mod.p, entries)


def check_F0_order_invariance(mod: WeylModuleP, trials: int = 5) -> bool:
    """Norm form under pseudorandom root orders, plus module-level
    centrality.  Returns False (after logging the witness) on any defect."""
    n = len(mod.rs.positive_roots)
    canonical = tuple(range(1, n + 1))
    base = build_F0(mod, canonical)
    rng = random.Random(ORDER_TRIAL_SEED)
    for _ in range(trials):
        order = list(canonical)
        rng.shuffle(order)
        if build_F0(mod, tuple(order)) != base:
            log.warning("norm form differs between orders %s and %s",
                        canonical, tuple(order))
            return False
    f0 = _f0_csr(mod, canonical)
    for beta in mod.rs.positive_roots:
        a = mod.op("F", beta, 1)
        d = f0 @ a - a @ f0
        d.data %= mod.p
        d.eliminate_zeros()
        if d.nnz:
            log.warning("norm form fails to commute with F^(1) at %s", beta)
            return False
    return True


# ---------------------------------------------------------------------------
# splitting criterion report


@dataclass(frozen=True)
class F0Report:
    cartan: str
    p: int
    lam: Weight
    degree: int
    nonzero: bool
    graded_dims: tuple[int, ...]
    elapsed_ms: int
    tool_version: str = field(default=__version__)

    def to_json(self) -> str:
        return json.dumps({
            "cartan": self.cartan,
            "p": self.p,
            "weight": list(self.lam),
            "degree": self.degree,
            "nonzero": self.nonzero,
            "graded_dims": list(self.graded_dims),
            "elapsed_ms": self.elapsed_ms,
            "tool_version": self.tool_version,
        })


def check_f0(rs: RootSystemData, sc, p: int, *,
             size_ceiling: int = DEFAULT_SIZE_CEILING,
             use_cache: bool = True, module=None) -> F0Report:
    """Maximal compatible splitting criterion at the weight 2(p-1)rho.

    nonzero is true exactly when F0 v survives in the top graded piece,
    i.e. lies outside V_{(p-1)N - 1}.  The structure constants argument is
    the shared table for rs; builders consult the same cached object.  A
    prebuilt module for the splitting weight may be passed to skip the
    construction step.
    """
    _require_prime(p)
    assert sc.rs.name == rs.name, \
        "structure constants belong to a different system"
    lam = splitting_weight(rs, p)
    required = int(weyl_dim(rs, lam))
    if required > size_ceiling:
        raise SizeCeilingExceeded(required, size_ceiling)
    t0 = time.perf_counter()
    if module is not None:
        assert module.p == p and tuple(module.lam) == lam
        mod = module
    else:
        mod = build_weyl_module_p(rs, p, lam, use_cache=use_cache)
    graded = pbw_filtration(mod)
    vec = mod.hw_vector()
    for beta in reversed(rs.positive_roots):
        vec = (mod.op("F", beta, p - 1) @ vec) % p
    degree = (p - 1) * len(rs.positive_roots)
    nonzero = bool(vec.any()) and not graded.contains(vec, degree - 1)
    elapsed_ms = int(round((time.perf_counter() - t0) * 1000))
    return F0Report(cartan=rs.name, p=p, lam=lam, degree=degree,
                    nonzero=nonzero, graded_dims=graded.graded_dims,
                    elapsed_ms=elapsed_ms)
