"""Cartan component maps and the degenerate multiplication criteria.

The comultiplication phi: V(lam+mu) -> V(lam) x V(mu) sends the highest
weight vector to the tensor of highest weight vectors and commutes with
the lowering operators, so its image is the span of v_lam x v_mu under
the hyperalgebra: everything about phi is a rank question on that span.
gr-injectivity of phi (equivalently surjectivity of the multiplication of
sections on the ring side) is injectivity plus strictness with respect to
the PBW filtration of the source and the convolution filtration
T_n = sum of V_i x V_j over i + j <= n of the target.

Degree-1 generation of the degenerate ring and Hilbert functions of the
degenerate flag variety are the n-fold analogues with V(n lam) mapping
into the n-th tensor power of V(lam).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from itertools import product

import numpy as np
import scipy.sparse as sp

from . import __version__
from .exactla import SparsePrimeMatrix, subspace_intersection_mod_p
from .pbwgrade import (DEFAULT_SIZE_CEILING, PBWGraded, SizeCeilingExceeded,
                       _require_prime, filter_from_seed, pbw_filtration)
from .rootsys import RootSystemData, Weight, star_weight
from .weylmod import (WeylModuleP, build_weyl_lattice, build_weyl_module_p,
                      kron_coproduct, weyl_dim)


class _TensorSpace:
    """Tensor product of Weyl modules with coproduct divided powers.

    Flat indices are row major over the factor bases, matching np.kron,
    and the operator of F_beta^(k) is the sum over all compositions of k
    across the factors of the Kronecker product of factor operators
    (weylmod.kron_coproduct, shared with the spanning ambients).
    """

    def __init__(self, mods: list[WeylModuleP]):
        self.mods = list(mods)
        self.rs = mods[0].rs
        self.p = mods[0].p
        self.dims = [m.dim for m in mods]
        self.dim = 1
        for d in self.dims:
            self.dim *= d
        weights = []
        for combo in product(*[m.weights for m in mods]):
            weights.append(tuple(sum(w[i] for w in combo)
                                 for i in range(self.rs.rank)))
        self.weights = tuple(weights)
        self._cache: dict = {}

    def seed_vector(self) -> np.ndarray:
        flat = 0
        for m in self.mods:
            flat = flat * m.dim + m.hw_index
        vec = np.zeros(self.dim, dtype=np.int64)
        vec[flat] = 1
        return vec

    def op(self, kind: str, beta, k: int) -> sp.csr_matrix:
        key = (kind, beta, k)
        if key in self._cache:
            return self._cache[key]
        if k == 0:
            out = sp.identity(self.dim, dtype=np.int64, format="csr")
        else:
            rows, cols, vals = kron_coproduct(
                lambda j, a: self.mods[j].op(kind, beta, a), self.dims, k,
                self.p)
            out = sp.csr_matrix((vals, (rows, cols)),
                                shape=(self.dim, self.dim), dtype=np.int64)
        self._cache[key] = out
        return out


class _SumSpace:
    """Direct sum of a module and a tensor space, for graph spans."""

    def __init__(self, mod: WeylModuleP, space: _TensorSpace):
        self.mod = mod
        self.space = space
        self.rs = mod.rs
        self.p = mod.p
        self.dim = mod.dim + space.dim
        self.weights = tuple(mod.weights) + space.weights

    def op(self, kind, beta, k):
        return sp.block_diag([self.mod.op(kind, beta, k),
                              self.space.op(kind, beta, k)], format="csr")


class CartanComponentMap:
    """The component map phi together with the filtration data that the
    surjectivity and generation checks consume."""

    def __init__(self, rs: RootSystemData, p: int, lams,
                 factors: list[WeylModuleP], use_cache: bool = True):
        self.rs = rs
        self.p = p
        self.lams = tuple(tuple(l) for l in lams)
        self.total = tuple(sum(l[i] for l in self.lams)
                           for i in range(rs.rank))
        self.factors = factors
        self.space = _TensorSpace(factors)
        self.seed = self.space.seed_vector()
        self.factor_graded: list[PBWGraded] = [pbw_filtration(m)
                                               for m in factors]
        blocks, dims, complete = filter_from_seed(self.space, self.seed)
        assert complete
        self._image_blocks = blocks
        self._dims = tuple(dims)
        self.rank_phi = dims[-1]
        self._use_cache = use_cache
        self._phi = None

    # -- the image side ---------------------------------------------------

    def image_dims(self) -> tuple[int, ...]:
        """Cumulative dims of phi(V_n) = U_{<=n} (v_lam x v_mu)."""
        return self._dims

    def image_dim_at(self, n: int) -> int:
        if n >= len(self._dims):
            return self._dims[-1]
        return self._dims[n]

    def image_rows_by_weight(self, n: int | None = None):
        out = {}
        for w, blk in self._image_blocks.items():
            rows = blk.ech.basis_matrix() if n is None else blk.rows_upto(n)
            if rows.shape[0]:
                out[w] = rows
        return out

    # -- the convolution filtration ---------------------------------------

    def _maximal_tuples(self, n: int):
        tops = [g.n_top for g in self.factor_graded]
        if sum(tops) <= n:
            return [tuple(tops)]
        out = []

        def rec(j, budget, acc):
            if j == len(tops) - 1:
                out.append(acc + (min(budget, tops[j]),))
                return
            for i in range(min(budget, tops[j]) + 1):
                rec(j + 1, budget - i, acc + (i,))

        rec(0, n, ())
        # keep only tuples that cannot be raised in any coordinate
        keep = []
        for t in out:
            if sum(t) == n or all(a == b for a, b in zip(t, tops)):
                keep.append(t)
        return keep

    def t_rows_by_weight(self, n: int) -> dict[Weight, np.ndarray]:
        """Spanning rows of T_n per weight, in the local coordinates of the
        image blocks (columns = tensor indices of that weight)."""
        if n < 0:
            return {}
        scattered: dict[tuple[int, int], dict] = {}

        def factor_rows(j: int, cap: int):
            key = (j, cap)
            if key not in scattered:
                g = self.factor_graded[j]
                width = self.factors[j].dim
                per = {}
                for w, rows in g.rows_by_weight_upto(cap).items():
                    if rows.shape[0] == 0:
                        continue
                    wide = np.zeros((rows.shape[0], width), dtype=np.int64)
                    wide[:, g.block_indices(w)] = rows
                    per[w] = wide
                scattered[key] = per
            return scattered[key]

        rows_at: dict[Weight, list[np.ndarray]] = {}
        for tup in self._maximal_tuples(n):
            per_factor = [factor_rows(j, c) for j, c in enumerate(tup)]
            for combo in product(*[list(per.items()) for per in per_factor]):
                wt = tuple(sum(w[i] for w, _ in combo)
                           for i in range(self.rs.rank))
                blk = self._image_blocks.get(wt)
                if blk is None:
                    continue
                for pick in product(*[rows for _, rows in combo]):
                    full = np.ones(1, dtype=np.int64)
                    for r in pick:
                        full = np.kron(full, r)
                    rows_at.setdefault(wt, []).append(full[blk.indices] %
                                                      self.p)
        return {w: np.array(rs_, dtype=np.int64)
                for w, rs_ in rows_at.items()}

    def meet_dim(self, image_rows: dict, t_rows: dict) -> int:
        total = 0
        for w, rows in image_rows.items():
            other = t_rows.get(w)
            if other is None or other.shape[0] == 0:
                continue
            total += len(subspace_intersection_mod_p(rows, other, self.p))
        return total

    # -- the map itself ----------------------------------------------------

    def phi_matrix(self) -> SparsePrimeMatrix:
        """Matrix of phi against the canonical bases, source V(sum lam_j).

        Computed from the graph: the span of (v_hw, seed) in the direct sum
        is exactly {(x, phi x)}, and the echelon pivots of each weight
        block all land in the source columns, so the tensor halves of the
        rows read off the images of the source basis vectors.
        """
        if self._phi is not None:
            return self._phi
        source = build_weyl_module_p(self.rs, self.p, self.total,
                                     use_cache=self._use_cache)
        sumsp = _SumSpace(source, self.space)
        seed = np.concatenate([source.hw_vector(), self.seed])
        blocks, _, complete = filter_from_seed(sumsp, seed)
        assert complete
        d_m = source.dim
        entries = {}
        for blk in blocks.values():
            if not blk.tagged:
                continue
            idx = blk.indices
            split = int(np.searchsorted(idx, d_m))
            rows = blk.ech.basis_matrix()
            assert rows.shape[0] == split, "graph must cover the source block"
            assert sorted(blk.ech.pivot_cols) == list(range(split))
            for row, piv in zip(rows, blk.ech.pivot_cols):
                src_col = int(idx[piv])
                for jj in range(split, len(idx)):
                    v = int(row[jj]) % self.p
                    if v:
                        entries[(int(idx[jj]) - d_m, src_col)] = v
        self._phi = SparsePrimeMatrix(self.space.dim, d_m, self.p, entries)
        return self._phi


def _check_sizes(rs, lams, p, size_ceiling):
    total = tuple(sum(l[i] for l in lams) for i in range(rs.rank))
    source_dim = int(weyl_dim(rs, total))
    tensor_dim = 1
    for l in lams:
        tensor_dim *= int(weyl_dim(rs, tuple(l)))
    worst = max(source_dim, tensor_dim)
    if worst > size_ceiling:
        raise SizeCeilingExceeded(worst, size_ceiling)
    return total


def cartan_component_map(rs: RootSystemData, sc, lam, mu, p: int, *,
                         size_ceiling: int = DEFAULT_SIZE_CEILING,
                         use_cache: bool = True) -> CartanComponentMap:
    """Build the component map data for a pair of dominant weights."""
    _require_prime(p)
    assert sc.rs.name == rs.name
    _check_sizes(rs, [lam, mu], p, size_ceiling)
    factors = [build_weyl_module_p(rs, p, tuple(w), use_cache=use_cache)
               for w in (lam, mu)]
    return CartanComponentMap(rs, p, [lam, mu], factors, use_cache)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class MultReport:
    cartan: str
    p: int
    lam: Weight
    mu: Weight
    injective_ungraded: bool
    strict: bool
    gr_injective: bool
    table: list
    note: str
    elapsed_ms: int
    tool_version: str = field(default=__version__)

    @property
    def verdict_mult_surjective(self) -> bool:
        return self.gr_injective

    def to_json(self) -> str:
        return json.dumps({
            "cartan": self.cartan,
            "p": self.p,
            "lambda": list(self.lam),
            "mu": list(self.mu),
            "injective_ungraded": self.injective_ungraded,
            "strict": self.strict,
            "gr_injective": self.gr_injective,
            "verdict_mult_surjective": self.verdict_mult_surjective,
            "table": [list(row) for row in self.table],
            "note": self.note,
            "elapsed_ms": self.elapsed_ms,
            "tool_version": self.tool_version,
        })

    def to_csv(self) -> str:
        lines = ["n,phi_dim,meet_dim"]
        lines += [f"{n},{a},{b}" for n, a, b in self.table]
        return "\n".join(lines) + "\n"


def _degree_table(cm: CartanComponentMap):
    """Rows (n, dim phi(V_n), dim(im phi cap T_n)) until both stabilize."""
    image_full = cm.image_rows_by_weight()
    table = []
    n = 0
    guard = sum(g.n_top for g in cm.factor_graded) + 1
    while True:
        a = cm.image_dim_at(n)
        b = cm.meet_dim(image_full, cm.t_rows_by_weight(n))
        table.append((n, a, b))
        if a == cm.rank_phi and b == cm.rank_phi:
            break
        n += 1
        assert n <= guard, "convolution filtration failed to stabilize"
    return table


def check_mult_surjective(rs: RootSystemData, sc, lam, mu, p: int, *,
                          size_ceiling: int = DEFAULT_SIZE_CEILING,
                          use_cache: bool = True) -> MultReport:
    """Decide gr-injectivity of V(lam+mu) -> V(lam) x V(mu) mod p.

    injective_ungraded compares the span of v_lam x v_mu against the Weyl
    dimension; the integer lattice for lam+mu is built first so a rank
    drop over Z would surface as a defect rather than a verdict.
    """
    t0 = time.perf_counter()
    cm = cartan_component_map(rs, sc, lam, mu, p, size_ceiling=size_ceiling,
                              use_cache=use_cache)
    build_weyl_lattice(rs, cm.total, use_cache=use_cache)
    target = int(weyl_dim(rs, cm.total))
    injective = cm.rank_phi == target
    table = _degree_table(cm)
    strict = all(a == b for _, a, b in table)
    lam_star = list(star_weight(rs, tuple(lam)))
    mu_star = list(star_weight(rs, tuple(mu)))
    tot_star = list(star_weight(rs, cm.total))
    note = (f"ring side: multiplication H0a({lam_star}) (x) H0a({mu_star})"
            f" -> H0a({tot_star}) is surjective iff this map is gr-injective")
    elapsed_ms = int(round((time.perf_counter() - t0) * 1000))
    return MultReport(cartan=rs.name, p=p, lam=tuple(lam), mu=tuple(mu),
                      injective_ungraded=injective, strict=strict,
                      gr_injective=injective and strict, table=table,
                      note=note, elapsed_ms=elapsed_ms)


@dataclass(frozen=True)
class GenReport:
    cartan: str
    p: int
    lam: Weight
    n_max: int
    per_n: tuple
    generated: bool
    elapsed_ms: int
    tool_version: str = field(default=__version__)

    def to_json(self) -> str:
        return json.dumps({
            "cartan": self.cartan,
            "p": self.p,
            "lambda": list(self.lam),
            "n_max": self.n_max,
            "per_n": [[n, bool(v)] for n, v in self.per_n],
            "generated": self.generated,
            "elapsed_ms": self.elapsed_ms,
            "tool_version": self.tool_version,
        })

    def to_csv(self) -> str:
        lines = ["n,gr_injective"]
        lines += [f"{n},{str(bool(v)).lower()}" for n, v in self.per_n]
        return "\n".join(lines) + "\n"


def _fold_analysis(rs, sc, lam, m: int, p: int, size_ceiling, use_cache):
    """gr data of the m-fold map V(m lam) -> V(lam)^(x m)."""
    lams = [tuple(lam)] * m
    _check_sizes(rs, lams, p, size_ceiling)
    factors = [build_weyl_module_p(rs, p, tuple(lam), use_cache=use_cache)
               for _ in range(m)]
    cm = CartanComponentMap(rs, p, lams, factors, use_cache)
    build_weyl_lattice(rs, cm.total, use_cache=use_cache)
    target = int(weyl_dim(rs, cm.total))
    injective = cm.rank_phi == target
    table = _degree_table(cm)
    strict = all(a == b for _, a, b in table)
    # per-degree dims of the image of gr(phi)
    grdims = []
    for d in range(len(table)):
        img_d = cm.image_rows_by_weight(d)
        a = cm.image_dim_at(d)
        below = cm.meet_dim(img_d, cm.t_rows_by_weight(d - 1)) if d else 0
        grdims.append(a - below)
    while grdims and grdims[-1] == 0:
        grdims.pop()
    if injective and strict:
        assert sum(grdims) == target
    return injective, strict, table, tuple(grdims)


def check_degree_one_generation(rs: RootSystemData, sc, lam, p: int,
                                n_max: int, *,
                                size_ceiling: int = DEFAULT_SIZE_CEILING,
                                use_cache: bool = True) -> GenReport:
    """gr-injectivity of V(n lam) -> V(lam)^(x n) for 2 <= n <= n_max."""
    _require_prime(p)
    assert sc.rs.name == rs.name
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    t0 = time.perf_counter()
    per_n = []
    for n in range(2, n_max + 1):
        inj, strict, _, _ = _fold_analysis(rs, sc, lam, n, p,
                                           size_ceiling, use_cache)
        per_n.append((n, inj and strict))
    elapsed_ms = int(round((time.perf_counter() - t0) * 1000))
    return GenReport(cartan=rs.name, p=p, lam=tuple(lam), n_max=n_max,
                     per_n=tuple(per_n),
                     generated=all(v for _, v in per_n),
                     elapsed_ms=elapsed_ms)


@dataclass(frozen=True)
class HilbertReport:
    cartan: str
    p: int
    lam: Weight
    n_max: int
    values: tuple
    profiles: dict
    elapsed_ms: int
    tool_version: str = field(default=__version__)

    def h(self, n: int) -> int:
        for nn, hh, _ in self.values:
            if nn == n:
                return hh
        raise KeyError(n)

    def to_json(self) -> str:
        return json.dumps({
            "cartan": self.cartan,
            "p": self.p,
            "lambda": list(self.lam),
            "n_max": self.n_max,
            "values": [list(row) for row in self.values],
            "profiles": {str(n): list(prof)
                         for n, prof in sorted(self.profiles.items())},
            "elapsed_ms": self.elapsed_ms,
            "tool_version": self.tool_version,
        })

    def to_csv(self) -> str:
        lines = ["n,h,weyl_dim"]
        lines += [f"{n},{h},{w}" for n, h, w in self.values]
        return "\n".join(lines) + "\n"


def hilbert_function(rs: RootSystemData, sc, lam, p: int, n_max: int, *,
                     size_ceiling: int = DEFAULT_SIZE_CEILING,
                     use_cache: bool = True) -> HilbertReport:
    """Dimension sequence of the degree-1 generated graded algebra.

    h(n) is the total gr-image dimension of the n-fold map, reported next
    to weyl_dim(n lam); equality holds whenever generation passes at n.
    """
    _require_prime(p)
    assert sc.rs.name == rs.name
    t0 = time.perf_counter()
    values = [(0, 1, 1)]
    profiles = {0: (1,)}
    for n in range(1, n_max + 1):
        _, _, _, grdims = _fold_analysis(rs, sc, lam, n, p,
                                         size_ceiling, use_cache)
        scaled = tuple(n * x for x in lam)
        w = int(weyl_dim(rs, scaled))
        h = sum(grdims)
        assert h <= w
        values.append((n, h, w))
        profiles[n] = grdims
    elapsed_ms = int(round((time.perf_counter() - t0) * 1000))
    return HilbertReport(cartan=rs.name, p=p, lam=tuple(lam), n_max=n_max,
                         values=tuple(values), profiles=profiles,
                         elapsed_ms=elapsed_ms)
