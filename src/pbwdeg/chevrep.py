"""Chevalley structure constants and integral fundamental representations.

Each supported family gets explicit integer matrix models: exterior powers
of the vector representation (types A, B, D), a fermionic subset model for
the spin representations (B_n, D_4), the 7-dimensional representation of G2
by hand and its adjoint via the structure constants, and type C fundamentals
beyond omega_1 spanned over Z by the spanning engine inside the exterior
powers of the vector representation.

Matrices are nested tuples of Python ints (columns act on the right:
(M v)_r = sum_c M[r][c] v_c).  Structure constants are computed on a
faithful seed representation and validated there entry by entry.  The
arithmetic runs on int64 numpy arrays and is refused (ValueError) where
int64 could overflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import factorial

import numpy as np

from .rootsys import IntegrityError, Root, RootSystemData, Weight

Matrix = tuple[tuple[int, ...], ...]


class NonIntegralDividedPower(ArithmeticError):
    """M^k/k! left the lattice: the lattice is not admissible."""


# Products run in numpy's int64 loops, not in float64 BLAS as in
# exactla.matmul_mod: the matrices here are small and sparse, and a first
# BLAS call makes about 0.3 MB of library code resident, which the work
# over Z (build_weyl_lattice) otherwise never touches.  Batches stay below
# glibc's 128 KiB mmap threshold: freeing a larger block raises that
# threshold, and with it the resident memory of the process.
_BATCH_BYTES = 1 << 16


def _require_int64(bound: int, what: str) -> None:
    """Refuse arithmetic whose sums of products reach up to `bound` when
    int64 could overflow, rather than wrap."""
    if bound >= 1 << 63:
        raise ValueError(f"{what}: sums of products up to {bound} overflow "
                         "int64 arithmetic; refused")


def _int64(m) -> np.ndarray:
    """m as an int64 array, refused if an entry does not fit."""
    try:
        return np.asarray(m, dtype=np.int64)
    except OverflowError:
        raise ValueError("a matrix entry overflows int64 arithmetic; "
                         "refused") from None


def _absmax(m: np.ndarray) -> int:
    return max(int(m.max()), -int(m.min())) if m.size else 0


def _bracket(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ab - ba over Z in int64, exactly (broadcast over leading axes)."""
    _require_int64(2 * a.shape[-1] * _absmax(a) * _absmax(b), "bracket")
    return a @ b - b @ a


def _exact_div(m: np.ndarray, d: int, what: str) -> np.ndarray:
    """m / d over Z; raises NonIntegralDividedPower on the first entry, in
    row-major order, that d does not divide."""
    # |x| < 2^63 <= d leaves the remainder x
    q, r = np.divmod(m, d) if d < 1 << 63 else (np.zeros_like(m), m)
    bad = np.argwhere(r)
    if bad.size:
        idx = tuple(int(i) for i in bad[0])
        raise NonIntegralDividedPower(
            f"{what}: entry {idx} = {m[idx]} not divisible by {d}")
    return q


def divided_power_matrix(m, k: int) -> np.ndarray:
    """Exact M^k / k! as int64; raises NonIntegralDividedPower if any entry
    fails, and refuses (ValueError) where int64 could overflow."""
    m = _int64(m)
    if k == 0:
        return np.eye(m.shape[0], dtype=np.int64)
    what = f"divided power k={k}"
    power = m
    for _ in range(k - 1):
        _require_int64(m.shape[0] * _absmax(power) * _absmax(m), what)
        power = power @ m
    return _exact_div(power, factorial(k), what)


@dataclass(frozen=True)
class IntegralRep:
    """An integral representation given by its simple root operators."""

    name: str
    dim: int
    weights: tuple[Weight, ...]
    simple_lowering: tuple[Matrix, ...]
    simple_raising: tuple[Matrix, ...]
    #: root operators and divided power tables, filled by root_operator and
    #: divided_powers; a copy made by dataclasses.replace starts empty
    _op_cache: dict = field(default_factory=dict, init=False, compare=False,
                            repr=False)


# ---------------------------------------------------------------------------
# epsilon-coordinate helpers

def _eps_fund(rs: RootSystemData, j: int) -> tuple[int, ...]:
    """Fundamental coordinates of epsilon_j (1-indexed) for the family."""
    fam, n = rs.cartan.family, rs.rank
    out = []
    for i in range(1, n + 1):
        if fam == "A" or i < n:
            v = (1 if j == i else 0) - (1 if j == i + 1 else 0)
        elif fam == "B":
            v = 2 if j == n else 0
        elif fam == "C":
            v = 1 if j == n else 0
        elif fam == "D":
            v = (1 if j == n - 1 else 0) + (1 if j == n else 0)
        else:
            raise AssertionError(fam)
        out.append(v)
    return tuple(out)


def _weight_sum(*ws: Weight) -> Weight:
    return tuple(sum(t) for t in zip(*ws))


def _half_sum(rs: RootSystemData, signs: dict[int, int]) -> Weight:
    """(1/2) sum_j signs[j] * epsilon_j, checked integral."""
    n = rs.rank
    twice = [0] * n
    for j, s in signs.items():
        eps = _eps_fund(rs, j)
        for i in range(n):
            twice[i] += s * eps[i]
    if any(x % 2 for x in twice):
        raise IntegrityError(f"half sum {[x / 2 for x in twice]} of "
                             "epsilons is not integral")
    return tuple(x // 2 for x in twice)


# ---------------------------------------------------------------------------
# explicit models

def _rep_from_entries(name, weights, lowering, raising, rank) -> IntegralRep:
    dim = len(weights)

    def build(entries):
        mats = []
        for a in range(rank):
            m = [[0] * dim for _ in range(dim)]
            for (row, col), v in entries[a].items():
                m[row][col] = v
            mats.append(tuple(tuple(r) for r in m))
        return tuple(mats)

    return IntegralRep(name, dim, tuple(weights), build(lowering), build(raising))


def _vector_rep(rs: RootSystemData) -> IntegralRep:
    fam, n = rs.cartan.family, rs.rank
    low = [dict() for _ in range(n)]
    high = [dict() for _ in range(n)]
    if fam == "A":
        weights = [_eps_fund(rs, j + 1) for j in range(n + 1)]
        for a in range(n):
            low[a][(a + 1, a)] = 1
            high[a][(a, a + 1)] = 1
    elif fam == "B":
        # u_1..u_n, u_0, u_-n..u_-1
        weights = ([_eps_fund(rs, j) for j in range(1, n + 1)]
                   + [tuple(0 for _ in range(n))]
                   + [tuple(-x for x in _eps_fund(rs, n - t))
                      for t in range(n)])
        for a in range(n - 1):
            i = a + 1
            low[a][(i, i - 1)] = 1
            low[a][(2 * n - i + 1, 2 * n - i)] = -1
            high[a][(i - 1, i)] = 1
            high[a][(2 * n - i, 2 * n - i + 1)] = -1
        low[n - 1][(n, n - 1)] = 1       # u_n -> u_0
        low[n - 1][(n + 1, n)] = 2       # u_0 -> 2 u_-n
        high[n - 1][(n, n + 1)] = 1      # u_-n -> u_0
        high[n - 1][(n - 1, n)] = 2      # u_0 -> 2 u_n
    elif fam in ("C", "D"):
        # u_1..u_n, u_-n..u_-1
        weights = ([_eps_fund(rs, j) for j in range(1, n + 1)]
                   + [tuple(-x for x in _eps_fund(rs, n - t))
                      for t in range(n)])
        for a in range(n - 1):
            i = a + 1
            low[a][(i, i - 1)] = 1
            low[a][(2 * n - i, 2 * n - i - 1)] = -1
            high[a][(i - 1, i)] = 1
            high[a][(2 * n - i - 1, 2 * n - i)] = -1
        if fam == "C":
            low[n - 1][(n, n - 1)] = 1   # u_n -> u_-n
            high[n - 1][(n - 1, n)] = 1
        else:
            # alpha_n = eps_{n-1} + eps_n
            low[n - 1][(n, n - 2)] = 1       # u_{n-1} -> u_-n
            low[n - 1][(n + 1, n - 1)] = -1  # u_n -> -u_-(n-1)
            high[n - 1][(n - 2, n)] = 1
            high[n - 1][(n - 1, n + 1)] = -1
    else:
        raise AssertionError(fam)
    return _rep_from_entries(f"{rs.name}-vector", weights, low, high, n)


def _exterior_power(rs: RootSystemData, rep: IntegralRep, k: int,
                    name: str) -> IntegralRep:
    """Lambda^k of rep with sorted-subset basis and Leibniz action."""
    basis = list(combinations(range(rep.dim), k))
    index = {s: i for i, s in enumerate(basis)}
    weights = [_weight_sum(*(rep.weights[j] for j in s)) for s in basis]
    rank = rs.rank

    def lift(one_particle):
        entries = {}
        for col, s in enumerate(basis):
            for pos, j in enumerate(s):
                for t in range(rep.dim):
                    c = one_particle[t][j]
                    if c == 0 or t in s:
                        continue
                    rest = s[:pos] + s[pos + 1:]
                    lo, hi = min(j, t), max(j, t)
                    swaps = sum(1 for x in rest if lo < x < hi)
                    new = tuple(sorted(rest + (t,)))
                    key = (index[new], col)
                    entries[key] = entries.get(key, 0) + c * (-1) ** swaps
        return {kk: v for kk, v in entries.items() if v}

    low = [lift(rep.simple_lowering[a]) for a in range(rank)]
    high = [lift(rep.simple_raising[a]) for a in range(rank)]
    return _rep_from_entries(name, weights, low, high, rank)


def _fermion_move(a_set: tuple, moves: tuple):
    """Apply creations (+j) and annihilations (-j) in turn to the subset
    a_set; (new subset, sign) or None if one of them kills it."""
    sign = 1
    for m in moves:
        j = abs(m)
        if (j in a_set) == (m > 0):
            return None
        sign *= (-1) ** sum(1 for x in a_set if x < j)
        a_set = (tuple(sorted(a_set + (j,))) if m > 0
                 else tuple(x for x in a_set if x != j))
    return a_set, sign


def _spin_rep(rs: RootSystemData, parity: int | None,
              name: str) -> IntegralRep:
    """Fermionic model on subsets of {1..n}: all of them for the spin
    representation of B_n (parity None), the even (0) or odd (1) ones for a
    half-spin representation of D_n.  F_i moves a fermion from i+1 to i for
    i < n; F_n creates n (B, alpha_n = eps_n) or both n-1 and n (D,
    alpha_n = eps_{n-1} + eps_n), and E_n undoes it."""
    n = rs.rank
    basis = [s for k in range(n + 1) if parity in (None, k % 2)
             for s in combinations(range(1, n + 1), k)]
    index = {s: i for i, s in enumerate(basis)}
    # the subset s has weight (1/2) sum_j (-1 if j in s else 1) eps_j
    weights = [_half_sum(rs, {j: -1 if j in s else 1
                              for j in range(1, n + 1)}) for s in basis]
    moves = [((-(i + 1), i), (-i, i + 1)) for i in range(1, n)]
    moves.append(((n,), (-n,)) if parity is None
                 else ((n - 1, n), (-n, 1 - n)))
    low = [dict() for _ in range(n)]
    high = [dict() for _ in range(n)]
    for col, s in enumerate(basis):
        for a, (f_moves, e_moves) in enumerate(moves):
            for entries, mv in ((low[a], f_moves), (high[a], e_moves)):
                if out := _fermion_move(s, mv):
                    entries[(index[out[0]], col)] = out[1]
    return _rep_from_entries(name, weights, low, high, n)


def _g2_seven_rep(rs: RootSystemData) -> IntegralRep:
    """The 7-dimensional representation of G2 with explicit weight basis.

    Basis ordered by descending weight along the chain
    omega_1, omega_1 - a1, ..., -omega_1; the middle alpha_1-string of
    length three carries the (1,2) integral coefficient pattern.
    """
    a1 = rs.root_fund((1, 0))
    a2 = rs.root_fund((0, 1))
    w = [None] * 7
    w[0] = rs.root_fund((2, 1))                       # omega_1
    w[1] = tuple(x - y for x, y in zip(w[0], a1))
    w[2] = tuple(x - y for x, y in zip(w[1], a2))
    w[3] = tuple(x - y for x, y in zip(w[2], a1))     # zero weight
    w[4] = tuple(x - y for x, y in zip(w[3], a1))
    w[5] = tuple(x - y for x, y in zip(w[4], a2))
    w[6] = tuple(x - y for x, y in zip(w[5], a1))
    low = [
        {(1, 0): 1, (3, 2): 1, (4, 3): 2, (6, 5): 1},
        {(2, 1): 1, (5, 4): 1},
    ]
    high = [
        {(0, 1): 1, (2, 3): 2, (3, 4): 1, (5, 6): 1},
        {(1, 2): 1, (4, 5): 1},
    ]
    return _rep_from_entries("G2-seven", w, low, high, 2)


def _adjoint_rep(rs: RootSystemData, sc: "StructureConstants") -> IntegralRep:
    """Adjoint representation on the Chevalley lattice, read from the table."""
    basis = sc.adjoint_basis()
    index = {b: i for i, b in enumerate(basis)}

    def elem_weight(b) -> Weight:
        kind, val = b
        if kind == "H":
            return tuple(0 for _ in range(rs.rank))
        f = rs.root_fund(val)
        return f if kind == "E" else tuple(-x for x in f)

    weights = [elem_weight(b) for b in basis]
    low = [dict() for _ in range(rs.rank)]
    high = [dict() for _ in range(rs.rank)]
    for a in range(rs.rank):
        alpha = rs.simple_root(a)
        for col, b in enumerate(basis):
            for out, c in sc.abstract_bracket(("F", alpha), b).items():
                low[a][(index[out], col)] = c
            for out, c in sc.abstract_bracket(("E", alpha), b).items():
                high[a][(index[out], col)] = c
    return _rep_from_entries(f"{rs.name}-adjoint", weights, low, high, rs.rank)


# ---------------------------------------------------------------------------
# structure constants

@dataclass(frozen=True)
class StructureConstants:
    """Chevalley bracket data with the canonical decomposition signs.

    decomp maps each nonsimple positive root beta to (i, gamma) with
    beta = alpha_i + gamma, alpha_i the lex-smallest simple root with
    beta - alpha_i a root, and N(alpha_i, gamma) = r+1 > 0.
    """

    rs: RootSystemData
    decomp: dict[Root, tuple[int, Root]]
    table: dict[tuple, dict]

    def adjoint_basis(self) -> list:
        out = [("F", b) for b in self.rs.positive_roots]
        out += [("H", i) for i in range(self.rs.rank)]
        out += [("E", b) for b in self.rs.positive_roots]
        return out

    def abstract_bracket(self, x, y) -> dict:
        """[x, y] as a dict basis-element -> coefficient."""
        if (x, y) in self.table:
            return self.table[(x, y)]
        if (y, x) in self.table:
            return {k: -v for k, v in self.table[(y, x)].items()}
        return {}

    def n_constant(self, alpha, beta) -> int:
        """N(alpha, beta) for signed roots with alpha + beta a root."""
        def elem(r):
            if r in self.rs.positive_roots:
                return "E", r
            return "F", tuple(-x for x in r)

        s = tuple(a + b for a, b in zip(alpha, beta))
        target = elem(s)
        br = self.abstract_bracket(elem(alpha), elem(beta))
        if set(br) != {target}:
            raise IntegrityError(f"[{alpha}, {beta}] = {br}, not a multiple "
                                 f"of {target}")
        return br[target]


def _string_depth(rs: RootSystemData, alpha: Root, gamma: Root) -> int:
    pos = set(rs.positive_roots)

    def is_root(c):
        return c in pos or tuple(-x for x in c) in pos

    r, cur = 0, gamma
    while True:
        cur = tuple(g - a for g, a in zip(cur, alpha))
        if is_root(cur):
            r += 1
        else:
            return r


_SC_CACHE: dict[str, StructureConstants] = {}


def chevalley_constants(rs: RootSystemData) -> StructureConstants:
    """Structure constants read off a faithful seed representation.

    The seed's root operators come from root_operator.  Each bracket of two
    basis elements is decoded from its weight: a root gives one multiple of
    that root's operator, read at the operator's first nonzero entry,
    [F_beta, E_beta] = -H_beta gives minus the coroot coordinates of beta,
    and any other bracket vanishes.  The brackets of each basis element
    with all later ones are one batched exact product, and the decoded
    entries are checked against it in one comparison; then the Jacobi
    identity is checked on the table (_check_jacobi).  Arithmetic that
    could overflow int64 is refused (ValueError).
    """
    if rs.name in _SC_CACHE:
        return _SC_CACHE[rs.name]
    seed = seed_rep(rs)
    sc = StructureConstants(rs, _decomposition(rs), {})
    n = rs.rank
    seed_wts = np.array(seed.weights, dtype=np.int64)

    def weight(elem) -> Root:
        kind, val = elem
        return (0,) * n if kind == "H" else tuple(
            x if kind == "E" else -x for x in val)

    basis = sc.adjoint_basis()
    mats = np.array([np.diag(seed_wts[:, val]) if kind == "H"
                     else root_operator(seed, sc, kind, val)
                     for kind, val in basis], dtype=np.int64)
    # the first nonzero entry of each operator (0 for a zero operator)
    lead = [next((k for k, v in enumerate(m.ravel().tolist()) if v), 0)
            for m in mats]
    wts = np.array([weight(e) for e in basis], dtype=np.int64)
    root_at = {weight(e): i for i, e in enumerate(basis) if e[0] != "H"}
    for ix, x in enumerate(basis[:-1]):
        ys = basis[ix + 1:]
        br = _bracket(mats[ix], mats[ix + 1:])
        want = np.zeros_like(br)
        sums = (wts[ix] + wts[ix + 1:]).tolist()
        for j, y in enumerate(ys):
            val = {}
            t = root_at.get(tuple(sums[j]))
            if t is not None:
                # a multiple of operator t, read at its first nonzero
                # entry; a zero operator (a broken seed) fails below
                k = lead[t]
                d = int(mats[t].flat[k])
                c = int(br[j].flat[k]) // d if d else 0
                if c:
                    val = {basis[t]: c}
                    want[j] = c * mats[t]
            elif x[0] == "F" and y == ("E", x[1]):
                h = [-c for c in rs.coroot_coords(x[1])]
                val = {("H", i): c for i, c in enumerate(h) if c}
                want[j] = np.diag(seed_wts @ np.array(h, np.int64))
            sc.table[(x, y)] = val
        bad = np.flatnonzero(want != br)
        if bad.size:
            y = ys[bad[0] // br[0].size]
            raise IntegrityError(f"bracket table entry {(x, y)} does not "
                                 "match the seed matrices")
    _check_jacobi(sc, basis)
    _SC_CACHE[rs.name] = sc
    return sc


def _check_jacobi(sc: StructureConstants, basis) -> None:
    """The Jacobi identity on the table, in the pairwise form
    ad_[x,y] = [ad_x, ad_y] for every pair x < y of basis elements.

    ad_a is the int64 matrix of [a, -] on the basis, read off the table.
    As abstract_bracket reads the table antisymmetrically, column z of
    ad_[x,y] - [ad_x, ad_y] is minus the Jacobi sum of (x, y, z), which
    alternates in x, y and z.  For each x the products run batched over
    the later y, on the columns z past the batch's first y: a triple with
    a smaller z was met by an earlier pair, or by a row of the batch that
    comes first.  So every triple is checked, and a failure names the
    first failing triple x < y < z.
    """
    index = {b: i for i, b in enumerate(basis)}
    size = len(basis)
    entries = [(index[x], index[y], index[e], c)
               for (x, y), val in sc.table.items() for e, c in val.items()]
    big = max((abs(c) for *_, c in entries), default=0)
    _require_int64(2 * size * big * big, "Jacobi check")
    ad = [np.zeros((size, size), np.int64) for _ in range(size)]
    for ix, iy, ie, c in entries:
        ad[ix][ie, iy] = c
        ad[iy][ie, ix] = -c
    step = max(1, _BATCH_BYTES // (8 * size * size))
    for ix in range(size):
        adx = ad[ix]
        for lo in range(ix + 1, size - 1, step):
            ady = np.array(ad[lo:lo + step])
            comm = adx @ ady[:, :, lo + 1:] - ady @ adx[:, lo + 1:]
            # column y of ad_x is [x, y]; ad_[x,y] sums the ad_f it names
            coef = adx[:, lo:lo + step]
            used = sorted(set(np.nonzero(coef)[0].tolist()))
            lhs = coef[used].T @ np.array(
                [ad[f][:, lo + 1:] for f in used],
                np.int64).reshape(len(used), comm[0].size)
            # mismatches in (y, z, e) order: the first names y, then z
            bad = np.flatnonzero(
                (lhs.reshape(comm.shape) != comm).transpose(0, 2, 1))
            if bad.size:
                j, z = divmod(int(bad[0]) // size, comm.shape[2])
                triple = (basis[ix], basis[lo + j], basis[lo + 1 + z])
                raise IntegrityError(f"Jacobi fails on {triple}")


# ---------------------------------------------------------------------------
# fundamental representations

_FUND_CACHE: dict[tuple[str, int], IntegralRep] = {}


def seed_rep(rs: RootSystemData) -> IntegralRep:
    """A faithful representation used to read off structure constants."""
    if rs.cartan.family == "G":
        return _g2_seven_rep(rs)
    return _vector_rep(rs)


def fundamental_rep(rs: RootSystemData, i: int) -> IntegralRep:
    """The i-th fundamental representation (1-indexed) as integer matrices.

    omega_1 is the seed; omega_2 of G2 is the adjoint; the spin nodes of
    B and D are fermionic; every other one is an exterior power of the
    vector representation, which in type C is cut down to the Z span of
    its top wedge (bootstrap_cartan_component).
    """
    if not 1 <= i <= rs.rank:
        raise ValueError(f"fundamental index {i} out of range for {rs.name}")
    key = (rs.name, i)
    if key in _FUND_CACHE:
        return _FUND_CACHE[key]
    fam, n = rs.cartan.family, rs.rank
    if i == 1:
        rep = seed_rep(rs)
    elif fam == "G":
        rep = _adjoint_rep(rs, chevalley_constants(rs))
    elif fam == "B" and i == n:
        rep = _spin_rep(rs, None, f"{rs.name}-spin")
    elif fam == "D" and i >= n - 1:
        rep = _spin_rep(rs, (n - i) % 2, f"{rs.name}-w{i}")
    else:
        rep = _exterior_power(rs, _vector_rep(rs), i, f"{rs.name}-w{i}")
        if fam == "C":
            from .weylmod import bootstrap_cartan_component
            rep = bootstrap_cartan_component(rs, rep, i)
    _validate_rep(rs, rep)
    from .weylmod import weyl_dim
    omega = tuple(1 if k == i - 1 else 0 for k in range(n))
    if rep.dim != weyl_dim(rs, omega):
        raise IntegrityError(f"{rep.name} has dimension {rep.dim}, expected "
                             f"{weyl_dim(rs, omega)}")
    _FUND_CACHE[key] = rep
    return rep


def _validate_rep(rs: RootSystemData, rep: IntegralRep) -> None:
    """Weight grading and [E_i, F_j] = delta_ij H_i; a failure names the
    first failing operator and entry in the order of a row-major scan."""
    n = rs.rank
    low = _int64(rep.simple_lowering)
    high = _int64(rep.simple_raising)
    for a in range(n):
        alpha_f = rs.root_fund(rs.simple_root(a))
        for sign, mats in ((-1, low), (1, high)):
            rows, cols = np.nonzero(mats[a])
            for r, c in zip(rows.tolist(), cols.tolist()):
                if rep.weights[r] != tuple(
                        x + sign * y for x, y in zip(rep.weights[c], alpha_f)):
                    raise IntegrityError(
                        f"{rep.name}: entry ({r}, {c}) of simple "
                        f"operator {a + 1} breaks the weight grading")
    br = _bracket(high[:, None], low[None])      # [E_a, F_b] at (a, b)
    want = np.zeros_like(br)
    for a in range(n):
        want[a, a] = np.diag([w[a] for w in rep.weights])
    bad = np.flatnonzero(br != want)
    if bad.size:
        a, b = divmod(int(bad[0]) // br[0, 0].size, n)
        raise IntegrityError(f"{rep.name}: [E_{a + 1}, F_{b + 1}] is "
                             f"not {'H' if a == b else '0'}")


# ---------------------------------------------------------------------------
# root operators

def _decomposition(rs: RootSystemData) -> dict[Root, tuple[int, Root]]:
    """beta -> (i, gamma) with beta = alpha_i + gamma for each nonsimple
    positive root, alpha_i the lex-smallest simple root with gamma a root."""
    pos = set(rs.positive_roots)
    out = {}
    for beta in rs.positive_roots:
        if sum(beta) == 1:
            continue
        for i in range(rs.rank):
            gamma = tuple(b - x for b, x in zip(beta, rs.simple_root(i)))
            if gamma in pos:
                out[beta] = (i, gamma)
                break
    return out


def root_operator(rep: IntegralRep, sc: StructureConstants, kind: str,
                  beta: Root) -> np.ndarray:
    """E_beta (kind "E") or F_beta (kind "F") on rep.

    A simple root gives the stored matrix; otherwise beta = alpha_i + gamma
    by sc.decomp, and E_beta = [E_alpha_i, E_gamma] / (r+1),
    F_beta = [F_gamma, F_alpha_i] / (r+1), with r the depth of the
    alpha_i-string below gamma.
    """
    key = (kind, beta)
    if key not in rep._op_cache:
        if sum(beta) == 1:
            simple = rep.simple_raising if kind == "E" else rep.simple_lowering
            out = _int64(simple[beta.index(1)])
        else:
            rs = sc.rs
            i, gamma = sc.decomp[beta]
            alpha = rs.simple_root(i)
            a = root_operator(rep, sc, kind, alpha)
            g = root_operator(rep, sc, kind, gamma)
            out = _exact_div(_bracket(a, g) if kind == "E" else _bracket(g, a),
                             _string_depth(rs, alpha, gamma) + 1,
                             f"{kind}_{beta} on {rep.name}")
        rep._op_cache[key] = out
    return rep._op_cache[key]


def divided_powers(rep: IntegralRep, sc: StructureConstants, kind: str,
                   beta: Root) -> tuple[dict, ...]:
    """The divided powers X^(1), X^(2), ... of X = root_operator(rep, sc,
    kind, beta), up to the last nonzero one, exact over Z.

    Entry a - 1 is X^(a) as a column table {col: ((row, value), ...)} of
    its nonzero entries, rows ascending.  The first zero power ends the
    table, because (a+1) X^(a+1) = X^(a) X makes every later one zero too.
    The table is computed once per (kind, beta) and kept on rep, so every
    tensor factor built on rep, over Z or over F_p, reads the same one.
    Raises NonIntegralDividedPower if an order before the end leaves the
    lattice.
    """
    key = ("dp", kind, beta)
    if key not in rep._op_cache:
        x = root_operator(rep, sc, kind, beta)
        table = []
        while True:
            m = divided_power_matrix(x, len(table) + 1)
            rows, cs = np.nonzero(m)
            cols: dict[int, list[tuple[int, int]]] = {}
            for r, c, v in zip(rows.tolist(), cs.tolist(),
                               m[rows, cs].tolist()):
                cols.setdefault(c, []).append((r, v))
            if not cols:
                break
            table.append({c: tuple(pairs) for c, pairs in cols.items()})
        rep._op_cache[key] = tuple(table)
    return rep._op_cache[key]
