"""PBW filtration of mod-p Weyl modules and the norm-form criterion.

The filtration V_n is spanned by applying products of divided-power
lowering operators of total exponent at most n to the highest weight
vector.  The engine, weylmod.filter_from_seed (the walk that also spans
the modules), spans by words in the p-power divided powers
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

import logging
import random
from dataclasses import dataclass

import numpy as np

from .exactla import DenseEchelonModP
from .rootsys import IntegrityError, RootSystemData, Weight, splitting_weight
from .weylmod import (BlockOp, ModuleP, build_weyl_module_p, filter_from_seed,
                      weyl_dim)

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


def _require_inputs(rs: RootSystemData, sc, p: int) -> None:
    """A prime p, and structure constants that belong to rs."""
    _require_prime(p)
    if sc.rs.name != rs.name:
        raise ValueError(f"structure constants of {sc.rs.name} passed for "
                         f"{rs.name}")


# ---------------------------------------------------------------------------
# public filtration object


class PBWGraded:
    """Cumulative PBW filtration with per-degree graded dimensions.

    Bases of the V_n are the degree-tagged echelon rows: rows inserted at
    degree <= n form a basis of V_n because the echelon only ever accepts
    independent rows.  No graded complement is chosen anywhere.
    """

    def __init__(self, lam: Weight, p: int, blocks: dict, dims: list[int]):
        self.lam = lam
        self.p = p
        self._blocks = blocks
        self._cum = tuple(dims)
        self.n_top = len(dims) - 1
        self.graded_dims = (dims[0],) + tuple(
            b - a for a, b in zip(dims, dims[1:]))

    def cumulative_dims(self) -> tuple[int, ...]:
        return self._cum

    def tagged_blocks(self):
        """Per weight block: its weight, its coordinates, and its basis rows
        with the degrees they entered at."""
        for w, blk in self._blocks.items():
            degs = np.array([d for d, _ in blk.tagged], dtype=np.int64)
            yield w, blk.indices, degs, blk.rows_upto(self.n_top)

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
            ech.add_rows(blk.rows_upto(n))
            if not ech.contains(local):
                return False
            # account for support outside every block is impossible: the
            # blocks partition the coordinates
        return True


def pbw_filtration(mod: ModuleP) -> PBWGraded:
    """PBW filtration of a Weyl module mod p from its highest weight line."""
    blocks, dims = filter_from_seed(mod, mod.hw_vector())
    if dims[-1] != mod.dim:
        raise IntegrityError(f"PBW filtration of V({mod.lam}) mod {mod.p} "
                             f"spans {dims[-1]} of {mod.dim} dimensions")
    return PBWGraded(mod.lam, mod.p, blocks, dims)


# ---------------------------------------------------------------------------
# norm form


def norm_form(mod: ModuleP, order) -> BlockOp:
    """Product of the (p-1)-st divided powers over all positive roots,
    factors taken in the given 1-based order, leftmost factor applied last."""
    roots = mod.rs.positive_roots
    n = len(roots)
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"order must be a permutation of 1..{n}: {order}")
    acc = None
    for idx in reversed(list(order)):
        factor = mod.op("F", roots[idx - 1], mod.p - 1)
        acc = factor if acc is None else factor @ acc
    return acc


def check_F0_order_invariance(mod: ModuleP, trials: int = 5) -> bool:
    """Norm form under pseudorandom root orders, plus module-level
    centrality.  Returns False (after logging the witness) on any defect."""
    n = len(mod.rs.positive_roots)
    canonical = tuple(range(1, n + 1))
    f0 = norm_form(mod, canonical)
    rng = random.Random(ORDER_TRIAL_SEED)
    for _ in range(trials):
        order = list(canonical)
        rng.shuffle(order)
        if norm_form(mod, tuple(order)) != f0:
            log.warning("norm form differs between orders %s and %s",
                        canonical, tuple(order))
            return False
    for beta in mod.rs.positive_roots:
        a = mod.op("F", beta, 1)
        if f0 @ a != a @ f0:
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


def check_f0(rs: RootSystemData, sc, p: int, *,
             size_ceiling: int = DEFAULT_SIZE_CEILING,
             module=None) -> F0Report:
    """Maximal compatible splitting criterion at the weight 2(p-1)rho.

    nonzero is true exactly when F0 v survives in the top graded piece,
    i.e. lies outside V_{(p-1)N - 1}.  The structure constants argument is
    the shared table for rs; builders consult the same cached object.  A
    prebuilt module for the splitting weight may be passed to skip the
    construction step; it must be a module of rs (ValueError otherwise).
    """
    _require_inputs(rs, sc, p)
    lam = splitting_weight(rs, p)
    required = int(weyl_dim(rs, lam))
    if required > size_ceiling:
        raise SizeCeilingExceeded(required, size_ceiling)
    if module is not None:
        if (module.rs.name, module.p, tuple(module.lam)) != \
                (rs.name, p, lam):
            raise ValueError(f"module V({tuple(module.lam)}) of "
                             f"{module.rs.name} mod {module.p} passed for "
                             f"V({lam}) of {rs.name} mod {p}")
        mod = module
    else:
        mod = build_weyl_module_p(rs, p, lam)
    graded = pbw_filtration(mod)
    vec = mod.hw_vector()
    for beta in reversed(rs.positive_roots):
        vec = mod.op("F", beta, p - 1) @ vec
    degree = (p - 1) * len(rs.positive_roots)
    nonzero = bool(vec.any()) and not graded.contains(vec, degree - 1)
    return F0Report(cartan=rs.name, p=p, lam=lam, degree=degree,
                    nonzero=nonzero, graded_dims=graded.graded_dims)
