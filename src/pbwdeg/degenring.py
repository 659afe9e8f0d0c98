"""Cartan component maps and the degenerate multiplication criteria.

The comultiplication phi: V(lam+mu) -> V(lam) x V(mu) sends the highest
weight vector to the tensor of highest weight vectors and commutes with
the lowering operators, so its image is the span of v_lam x v_mu under
the hyperalgebra: everything about phi is a rank question on that span.
The walk weylmod.filter_from_seed from v_lam x v_mu gives it as a
PBWGraded whose degree-n piece is phi(V_n), each weight capped at its
multiplicity in V(lam+mu), of which the span is a quotient.
gr-injectivity of phi (equivalently surjectivity of the multiplication of
sections on the ring side) is injectivity plus strictness with respect to
the PBW filtration of the source and the convolution filtration
T_n = sum of V_i x V_j over i + j <= n of the target.

The factors' degree-tagged PBW basis rows are bases adapted to their
filtrations, and gr(V x W) = gr V x gr W (Feigin-Fourier-Littelmann), so
in the products of those rows T_n is a coordinate subspace.  The image
rows move there by one operator Q = G_1 x G_2, G_k the inverse of factor
k's tagged blocks, whose targets are ordered in each weight block by
descending product degree; fed in tag order to one echelon per weight,
their pivots (leading columns) count every meet: dim(phi(V_n) cap
T_{n-1}) is the number of rows of tag <= n and pivot degree < n, and
dim(im phi cap T_n) the number of pivot degree <= n.

The Z lattice of lam + mu is built only when rank(phi) falls short of the
Weyl dimension: a rank drop over Z forces one mod p, and on that branch a
Z-rank shortfall raises RankMismatch (a defect, not a verdict).

Degree-1 generation and the Hilbert function concern the n-fold maps
phi_n: V(n lam) -> V(lam)^(x n).  Step n decides instead the pair map
psi_n: V(n lam) -> V((n-1) lam) x V(lam), with psi_1 the pair (0, lam):
- Coassociativity gives phi_n = (phi_{n-1} x id) o psi_n.  Each of these
  maps sends the highest weight vector to the tensor of highest weight
  vectors and is U-equivariant.
- If phi_{n-1} is gr-injective, A = phi_{n-1} x id is injective and strict
  for the convolution filtrations, so A^-1(T_k) = T'_k.  Then phi_n is
  gr-injective exactly when psi_n is, and phi_n(V_k) cap T_{k-1} =
  A(psi_n(V_k) cap T'_{k-1}), so the graded image dims (the Hilbert
  profile) are equal.
- phi_1 = id, so by induction the verdicts and the profiles agree up to
  and including the first failing step.  Past it the chain no longer
  determines phi_n, so generation and Hilbert stop there.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from weakref import WeakKeyDictionary

import numpy as np

from .exactla import DenseEchelonModP, require_int64_safe
from .pbwgrade import (DEFAULT_SIZE_CEILING, SizeCeilingExceeded,
                       _require_inputs, pbw_filtration)
from .rootsys import IntegrityError, RootSystemData, Weight, star_weight
from .weylmod import (BlockOp, PBWGraded, TensorAmbient, WeightBlocks,
                      WeylModuleP, build_weyl_lattice, build_weyl_module_p,
                      filter_from_seed, kron_coproduct, tensor_width_bound,
                      weyl_dim)

#: per factor module, its PBW filtration and the coordinates adapted to
#: it, shared by the component maps that take the module as a factor
_FACTOR_FILTRATIONS: WeakKeyDictionary = WeakKeyDictionary()


def _factor_filtration(mod: WeylModuleP) -> tuple:
    if mod not in _FACTOR_FILTRATIONS:
        graded = pbw_filtration(mod)
        _FACTOR_FILTRATIONS[mod] = graded, _adapted_coordinates(
            graded.tagged_blocks(), mod.dim, mod.p)
    return _FACTOR_FILTRATIONS[mod]


def _adapted_coordinates(tagged_blocks, dim: int, p: int) -> tuple:
    """G^T as COO arrays (rows, cols, vals), where x G gives the
    coefficients of x on the rows of tagged blocks (weight, coordinates,
    degrees, rows) of a space of dimension dim, and the degree of each
    coordinate.  Each inverse is read off the RREF [I | R^-1] of [R | I],
    from one add_rows on an empty echelon, which sums no products; a
    block that is not invertible mod p is an IntegrityError."""
    parts, degs = [], np.zeros(dim, dtype=np.int64)
    for w, ix, d, rows in tagged_blocks:
        k = len(rows)
        if rows.shape == (1, 1) and rows[0, 0] % p:  # most weights
            inv = np.array([[pow(int(rows[0, 0]), -1, p)]])
        else:
            ech = DenseEchelonModP(p, 2 * k)
            if rows.shape == (k, k):
                ech.add_rows(np.hstack([rows, np.eye(k, dtype=np.int64)]))
            if rows.shape != (k, k) or ech.pivot_cols.max() >= k:
                raise IntegrityError(f"the tagged rows at weight {w} are "
                                     f"not a basis mod {p}")
            inv = ech.basis_matrix()[np.argsort(ech.pivot_cols), k:]
        i, j = np.nonzero(inv)
        parts.append((ix[j], ix[i], inv[i, j]))
        degs[ix] = d
    return tuple(np.concatenate(x) for x in zip(*parts)), degs


def _pivot_degrees(layout: WeightBlocks, p: int, factors, image: dict):
    """(tags, pivot degrees) of the image rows, given per weight as (tags,
    rows_by_weight rows), in the product coordinates of the factors'
    _adapted_coordinates (module docstring), and per weight the degrees
    of those coordinates in Q's order.  Image rows that Q makes dependent
    are an IntegrityError."""
    coos = [c for c, _ in factors]
    rows, cols, vals = kron_coproduct(lambda j, _: coos[j],
                                      [len(d) for _, d in factors], 0, p)
    deg = np.zeros(1, dtype=np.int64)
    for _, d in factors:
        deg = (deg[:, None] + d[None, :]).ravel()
    order = np.lexsort((layout.block_pos, -deg, layout.block_of))
    relabel = np.empty(layout.dim, dtype=np.int64)
    relabel[order] = np.concatenate(list(layout.flats.values()))
    q = BlockOp(layout, p, layout.group(relabel[rows], cols, vals))
    del rows, cols, vals
    ends = np.cumsum([len(ix) for ix in layout.flats.values()]).tolist()
    deg = deg[order]
    degs = {w: deg[e - len(ix):e]
            for (w, ix), e in zip(layout.flats.items(), ends)}
    tags, pivots = [], []
    for w, (t, u) in image.items():
        d = degs[w]
        if len(d) > 1:  # one coordinate is its own pivot
            got = q.image(w, u)
            ech = DenseEchelonModP(p, len(d))
            if got is not None:
                ech._add_bits(got[1]) if p == 2 else ech.add_rows(got[1])
            d = d[ech.pivot_cols]
        if len(d) < len(t):
            raise IntegrityError(f"the image rows at weight {w} are "
                                 "dependent in product coordinates")
        tags.append(t)
        pivots.append(d)
    return np.concatenate(tags), np.concatenate(pivots), degs


class CartanComponentMap:
    """The component map phi together with the filtration data that the
    surjectivity and generation checks consume."""

    def __init__(self, rs: RootSystemData, p: int, lams,
                 factors: list[WeylModuleP]):
        self.rs = rs
        self.p = p
        self.total = tuple(map(sum, zip(*lams)))
        self.factors = factors
        self.space = TensorAmbient(rs, factors, p)
        shared = [_factor_filtration(m) for m in factors]
        self.factor_graded: list[PBWGraded] = [g for g, _ in shared]
        #: phi(V_n) = U_{<=n} (v_lam x v_mu), the filtered image of phi
        self.image: PBWGraded = filter_from_seed(self.space)
        self.rank_phi = self.image.cumulative_dims()[-1]
        tags = self.image.tags_by_weight()
        self._tags, self._pivots, self._degs = _pivot_degrees(
            self.space.layout, p, [c for _, c in shared],
            {w: (tags[w], rows) for w, rows in
             self.image.rows_by_weight(self.image.n_top).items()})

    def t_rows_by_weight(self, n: int) -> dict[Weight, np.ndarray]:
        """Basis rows of T_n per weight in product coordinates, unit rows,
        those of T_{n-1} first (the meets do not read them)."""
        return {w: np.eye(len(d), dtype=np.int64)[np.flatnonzero(d <= n)[::-1]]
                for w, d in self._degs.items() if d[-1] <= n}

    def meet_dim(self, n: int) -> tuple[int, int]:
        """(dim(phi(V_n) cap T_{n-1}), dim(im phi cap T_n)), counted as in
        the module docstring."""
        return (int(np.count_nonzero((self._tags <= n) & (self._pivots < n))),
                int(np.count_nonzero(self._pivots <= n)))


def cartan_component_map(rs: RootSystemData, sc, lam, mu, p: int, *,
                         size_ceiling: int = DEFAULT_SIZE_CEILING
                         ) -> CartanComponentMap:
    """Build the component map data for a pair of dominant weights; the
    source V(lam+mu) and the target V(lam) x V(mu) must fit the ceiling."""
    _require_inputs(rs, sc, p)
    total = tuple(a + b for a, b in zip(lam, mu))
    worst = max(int(weyl_dim(rs, total)),
                int(weyl_dim(rs, lam)) * int(weyl_dim(rs, mu)))
    if worst > size_ceiling:
        raise SizeCeilingExceeded(worst, size_ceiling)
    require_int64_safe(p, tensor_width_bound(rs, [lam, mu]))
    factors = [build_weyl_module_p(rs, p, tuple(w)) for w in (lam, mu)]
    return CartanComponentMap(rs, p, [lam, mu], factors)


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

    @property
    def verdict_mult_surjective(self) -> bool:
        return self.gr_injective


def _degree_table(cm: CartanComponentMap):
    """Rows (n, dim phi(V_n), dim(im phi cap T_n)) until both stabilize, and
    the dims of the image of gr(phi), dim phi(V_n) - dim(phi(V_n) cap
    T_{n-1}).  Past the factors' top degrees T_n is the whole target."""
    table, grdims = [], []
    dims = cm.image.cumulative_dims()
    guard = sum(g.n_top for g in cm.factor_graded) + 1
    for n in count():
        if n > guard:
            raise IntegrityError("convolution filtration failed to stabilize")
        a = dims[min(n, len(dims) - 1)]
        lower, b = cm.meet_dim(n)
        grdims.append(a - lower)
        table.append((n, a, b))
        if a == cm.rank_phi and b == cm.rank_phi:
            return table, grdims


def _pair_analysis(rs, sc, lam, mu, p: int, size_ceiling):
    """(injective, strict, degree table, graded image dims) of V(lam+mu) ->
    V(lam) x V(mu): the one analysis behind check-mult, check-gen, hilbert."""
    cm = cartan_component_map(rs, sc, lam, mu, p, size_ceiling=size_ceiling)
    target = int(weyl_dim(rs, cm.total))
    if cm.rank_phi < target:  # RankMismatch if the Z rank is short too
        build_weyl_lattice(rs, cm.total)
    injective = cm.rank_phi == target
    table, grdims = _degree_table(cm)
    strict = all(a == b for _, a, b in table)
    while grdims and grdims[-1] == 0:
        grdims.pop()
    if injective and strict and sum(grdims) != target:
        raise IntegrityError(f"graded image dims {grdims} of a gr-injective "
                             f"map do not add up to dim V = {target}")
    return injective, strict, table, tuple(grdims)


def check_mult_surjective(rs: RootSystemData, sc, lam, mu, p: int, *,
                          size_ceiling: int = DEFAULT_SIZE_CEILING
                          ) -> MultReport:
    """Decide gr-injectivity of V(lam+mu) -> V(lam) x V(mu) mod p.

    injective_ungraded compares the span of v_lam x v_mu against the Weyl
    dimension; only when it falls short is the Z lattice of lam+mu built,
    so that a rank drop over Z surfaces as a defect rather than a verdict.
    """
    injective, strict, table, _ = _pair_analysis(rs, sc, lam, mu, p,
                                                 size_ceiling)
    lam_star = list(star_weight(rs, tuple(lam)))
    mu_star = list(star_weight(rs, tuple(mu)))
    tot_star = list(star_weight(rs, tuple(a + b for a, b in zip(lam, mu))))
    note = (f"ring side: multiplication H0a({lam_star}) (x) H0a({mu_star})"
            f" -> H0a({tot_star}) is surjective iff this map is gr-injective")
    return MultReport(cartan=rs.name, p=p, lam=tuple(lam), mu=tuple(mu),
                      injective_ungraded=injective, strict=strict,
                      gr_injective=injective and strict, table=table,
                      note=note)


@dataclass(frozen=True)
class GenReport:
    cartan: str
    p: int
    lam: Weight
    n_max: int
    per_n: tuple
    generated: bool


def _chain(rs, sc, lam, p: int, first: int, n_max: int, size_ceiling):
    """(n, gr-injective, graded image dims) of V(n lam) -> V((n-1) lam) x
    V(lam) for first <= n <= n_max, ending with the first failing step."""
    _require_inputs(rs, sc, p)
    for n in range(first, n_max + 1):
        inj, strict, _, grdims = _pair_analysis(
            rs, sc, tuple((n - 1) * x for x in lam), lam, p, size_ceiling)
        yield n, inj and strict, grdims
        if not (inj and strict):
            return


def check_degree_one_generation(rs: RootSystemData, sc, lam, p: int,
                                n_max: int, *,
                                size_ceiling: int = DEFAULT_SIZE_CEILING
                                ) -> GenReport:
    """gr-injectivity of V(n lam) -> V(lam)^(x n) for 2 <= n <= n_max,
    decided on V(n lam) -> V((n-1) lam) x V(lam), which agrees with it while
    every earlier step holds (module docstring); per_n ends with the first
    failing step.  The Z lattice of n lam is built only if a rank is short."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    per_n = [(n, ok) for n, ok, _ in _chain(rs, sc, lam, p, 2, n_max,
                                            size_ceiling)]
    return GenReport(cartan=rs.name, p=p, lam=tuple(lam), n_max=n_max,
                     per_n=tuple(per_n),
                     generated=all(v for _, v in per_n))


@dataclass(frozen=True)
class HilbertReport:
    cartan: str
    p: int
    lam: Weight
    n_max: int
    values: tuple
    profiles: dict


def hilbert_function(rs: RootSystemData, sc, lam, p: int, n_max: int, *,
                     size_ceiling: int = DEFAULT_SIZE_CEILING
                     ) -> HilbertReport:
    """Dimension sequence of the degree-1 generated graded algebra.

    h(n) is the total gr-image dimension of the n-fold map, reported next
    to weyl_dim(n lam); equality holds whenever generation passes at n.
    Step n reads it off V(n lam) -> V((n-1) lam) x V(lam); values and
    profiles end with the first step that is not gr-injective.
    """
    values = [(0, 1, 1)]
    profiles = {0: (1,)}
    for n, _, grdims in _chain(rs, sc, lam, p, 1, n_max, size_ceiling):
        w = int(weyl_dim(rs, tuple(n * x for x in lam)))
        h = sum(grdims)
        if h > w:
            raise IntegrityError(f"h({n}) = {h} exceeds dim V({n}lam) = {w}")
        values.append((n, h, w))
        profiles[n] = grdims
    return HilbertReport(cartan=rs.name, p=p, lam=tuple(lam), n_max=n_max,
                         values=tuple(values), profiles=profiles)
