"""PBW filtration of mod-p Weyl modules and the norm-form criterion.

The filtration V_n is spanned by applying products of divided-power
lowering operators of total exponent at most n to the highest weight
vector.  pbw_filtration is the walk weylmod.filter_from_seed (which also
spans the modules) from that vector, plus the check that it spans the
module; the filtration is the walk's weylmod.PBWGraded.  The walk spans by
words in the p-power divided powers F_beta^(p^e), counting p^e toward the
degree: base-p digits multiply out to any divided power without changing
the exponent sum, and straightening a word against the ordered monomial
basis never raises the total degree, so the word span of degree <= n
equals the ordered-monomial span.

The norm form F0 is the product of F_beta^((p-1)) over all positive
roots.  Its image in the top graded piece of the degenerate module of
the splitting weight 2(p-1)rho decides the maximal compatible splitting
criterion: nonzero exactly when F0 v stays out of V_{(p-1)N - 1}.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .exactla import _pack_rows, _require_prime, _unpack_rows
from .rootsys import IntegrityError, RootSystemData, Weight, splitting_weight
from .weylmod import (BlockOp, ModuleP, PBWGraded, build_weyl_module_p,
                      filter_from_seed, weyl_dim)

DEFAULT_SIZE_CEILING = 20000

ORDER_TRIAL_SEED = 987654321


class SizeCeilingExceeded(RuntimeError):
    """Refusal to build a module larger than the configured ceiling."""

    def __init__(self, required: int, ceiling: int):
        super().__init__(
            f"module dimension {required} exceeds the size ceiling {ceiling}")
        self.required = required
        self.ceiling = ceiling


def _require_inputs(rs: RootSystemData, sc, p: int) -> None:
    """A prime p, and structure constants that belong to rs."""
    _require_prime(p)
    if sc.rs.name != rs.name:
        raise ValueError(f"structure constants of {sc.rs.name} passed for "
                         f"{rs.name}")


# ---------------------------------------------------------------------------
# PBW filtration


def pbw_filtration(mod: ModuleP) -> PBWGraded:
    """PBW filtration of a Weyl module mod p from its highest weight line;
    IntegrityError unless it spans the module."""
    graded = filter_from_seed(mod)
    found = graded.cumulative_dims()[-1]
    if found != mod.dim:
        raise IntegrityError(f"PBW filtration of V({mod.lam}) mod {mod.p} "
                             f"spans {found} of {mod.dim} dimensions")
    return graded


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


def _norm_form_image(mod: ModuleP) -> np.ndarray:
    """F0 v for the highest weight vector v, as a global int64 vector.

    F_beta^(k) maps the weight block of mu into that of mu - k beta, so
    the vector stays in one weight block at every step, and each factor
    is applied to that block alone through BlockOp.image, as a bitset
    over F_2.  The highest weight block has dimension 1."""
    p, flats = mod.p, mod.layout.flats
    w, row = mod.lam, _pack_rows(np.ones((1, 1), dtype=np.int64), p)
    vec = np.zeros(mod.dim, dtype=np.int64)
    for beta in reversed(mod.rs.positive_roots):
        img = mod.op("F", beta, p - 1).image(w, row)
        if img is None:
            return vec
        w, row = img
    vec[flats[w]] = _unpack_rows(row, len(flats[w]), p)
    return vec


def _warn(msg: str, *args) -> None:
    """Log a defect witness, as the caller; logging loads only when there
    is one."""
    import logging
    logging.getLogger(__name__).warning(msg, *args, stacklevel=2)


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
            _warn("norm form differs between orders %s and %s",
                  canonical, tuple(order))
            return False
    for beta in mod.rs.positive_roots:
        a = mod.op("F", beta, 1)
        if f0 @ a != a @ f0:
            _warn("norm form fails to commute with F^(1) at %s", beta)
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
    vec = _norm_form_image(mod)
    degree = (p - 1) * len(rs.positive_roots)
    nonzero = bool(vec.any()) and not graded.contains(vec, degree - 1)
    return F0Report(cartan=rs.name, p=p, lam=lam, degree=degree,
                    nonzero=nonzero, graded_dims=graded.graded_dims)
