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
T_n is the degree <= n prefix of one basis of the target: the products of
the factors' degree-tagged PBW basis rows, each formed once.  Meets reduce
against one echelon per weight that grows by the rows new at each degree.

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
from itertools import product
from weakref import WeakKeyDictionary

import numpy as np

from .exactla import DenseEchelonModP, require_int64_safe
from .pbwgrade import (DEFAULT_SIZE_CEILING, SizeCeilingExceeded,
                       _require_inputs, pbw_filtration)
from .rootsys import IntegrityError, RootSystemData, Weight, star_weight
from .weylmod import (PBWGraded, TensorAmbient, WeylModuleP,
                      build_weyl_lattice, build_weyl_module_p,
                      filter_from_seed, tensor_width_bound, weyl_dim)

#: PBW filtration per factor module, shared by the component maps that
#: take the same module object as a factor
_FACTOR_FILTRATIONS: WeakKeyDictionary = WeakKeyDictionary()


def _factor_filtration(mod: WeylModuleP) -> PBWGraded:
    if mod not in _FACTOR_FILTRATIONS:
        _FACTOR_FILTRATIONS[mod] = pbw_filtration(mod)
    return _FACTOR_FILTRATIONS[mod]


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
        self.factor_graded: list[PBWGraded] = [_factor_filtration(m)
                                               for m in factors]
        #: phi(V_n) = U_{<=n} (v_lam x v_mu), the filtered image of phi
        self.image: PBWGraded = filter_from_seed(self.space)
        self.rank_phi = self.image.cumulative_dims()[-1]
        self._conv = self._tagged_products()

    # -- the convolution filtration ---------------------------------------

    def _tagged_products(self) -> dict[Weight, tuple[np.ndarray, np.ndarray]]:
        """Every product of the factors' PBW basis rows, formed once, in the
        local coordinates of its image weight block: per weight, the total
        degrees in ascending order and the rows in that order."""
        found: dict[Weight, list] = {}
        for combo in product(*[g.tagged_blocks() for g in self.factor_graded]):
            flats = np.zeros(1, dtype=np.int64)
            degs = np.zeros(1, dtype=np.int64)
            rows = np.ones((1, 1), dtype=np.int64)
            for (_, ix, d, r), stride in zip(combo, self.space.strides):
                flats = (flats[:, None] + stride * ix[None, :]).ravel()
                degs = (degs[:, None] + d[None, :]).ravel()
                # int64 holds a product of two residues, not three
                rows = (rows[:, None, :, None] * r[None, :, None, :]).reshape(
                    len(degs), len(flats)) % self.p
            wt = tuple(map(sum, zip(*(w for w, *_ in combo))))
            cols = self.space.layout.flats[wt]
            wide = np.zeros((len(degs), len(cols)), dtype=np.int64)
            wide[:, np.searchsorted(cols, flats)] = rows
            found.setdefault(wt, []).append((degs, wide))
        out = {}
        for wt, parts in found.items():
            degs = np.concatenate([d for d, _ in parts])
            order = np.argsort(degs, kind="stable")
            out[wt] = degs[order], np.vstack([r for _, r in parts])[order]
        return out

    def t_rows_by_weight(self, n: int) -> dict[Weight, np.ndarray]:
        """Basis rows of T_n per weight, in the local coordinates of the
        weight blocks of the target; the rows of T_{n-1} come first."""
        out = {}
        for w, (degs, rows) in self._conv.items():
            k = int(np.searchsorted(degs, n, side="right"))
            if k:
                out[w] = rows[:k]
        return out

    def meet_dim(self, image_rows: dict, t_echelons: dict) -> dict:
        """dim(U cap T) per weight, for independent rows U and an echelon of
        T per weight: |U| less the rank of U's residues mod T."""
        out = {}
        for w, rows in image_rows.items():
            t = t_echelons.get(w)
            if t is None or not t.rank:
                out[w] = 0
                continue
            left = DenseEchelonModP(self.p, t.width)
            left.add_rows(t.residue(rows))
            out[w] = rows.shape[0] - left.rank
        return out


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
    the dims of the image of gr(phi), dim phi(V_n) - dim(phi(V_n) cap T_{n-1}).

    T_n is held in one echelon per image weight; each degree adds the rows
    that are new at that degree (the basis rows of T_n extend those of
    T_{n-1}, so the echelon's rank counts the rows it already holds, and a
    row it rejects is a defect).  Image rows and T rows are both prefixes
    in degree order, so the meet at a weight depends only on (|U_w|,
    rank T_w): it is computed once per pair, and is |U_w| once T_w spans
    the whole weight space.
    """
    image_full = cm.image.rows_by_weight(cm.image.n_top)
    t_ech = {w: DenseEchelonModP(cm.p, rows.shape[1])
             for w, rows in image_full.items()}
    meets: dict[tuple, int] = {}  # (w, |U_w|, rank T_w) -> dim(U_w cap T_w)

    def meet(image_rows) -> int:
        todo = {}
        for w, rows in image_rows.items():
            t = t_ech[w]
            key = (w, rows.shape[0], t.rank)
            if t.rank == t.width:
                meets[key] = rows.shape[0]
            elif key not in meets:
                todo[w] = rows
        if todo:
            for w, d in cm.meet_dim(todo, t_ech).items():
                meets[w, todo[w].shape[0], t_ech[w].rank] = d
        return sum(meets[w, rows.shape[0], t_ech[w].rank]
                   for w, rows in image_rows.items())

    table, grdims = [], []
    dims = cm.image.cumulative_dims()
    n = 0
    guard = sum(g.n_top for g in cm.factor_graded) + 1
    while True:
        a = dims[min(n, len(dims) - 1)]
        grdims.append(a - meet(cm.image.rows_by_weight(n)))
        t_rows = cm.t_rows_by_weight(n)
        for w, ech in t_ech.items():
            if w in t_rows:
                new = t_rows[w][ech.rank:]
                if len(new) and len(ech.add_rows(new)[0]) != len(new):
                    raise IntegrityError(
                        f"a basis row of T_{n} at weight {w} depends on "
                        "the rows before it")
        b = meet(image_full)
        table.append((n, a, b))
        if a == cm.rank_phi and b == cm.rank_phi:
            return table, grdims
        n += 1
        if n > guard:
            raise IntegrityError("convolution filtration failed to stabilize")


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
