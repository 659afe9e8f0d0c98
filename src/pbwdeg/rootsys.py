"""Root system data for the supported semisimple types.

Weights are tuples of ints in fundamental-weight coordinates; roots are
tuples of ints in simple-root coordinates.  Positive roots are generated by
brute-force closure under addition of simple roots (string condition), never
from hard-coded tables, and are listed in a canonical order: by height, then
lexicographically.

Weight arithmetic is exact over the integers: the Cartan matrix A has a
positive determinant det, its integer adjugate adj satisfies A adj = det I,
so det times the simple-root coordinates of a weight mu is adj mu, and det
times the inner product of two weights is mu^T G nu with the scaled Gram
matrix G[i][j] = d_i adj[i][j].  Both matrices are computed once per root
system.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

Weight = tuple[int, ...]
Root = tuple[int, ...]

#: types the library supports end to end
SUPPORTED_TYPES = ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "D4", "G2")


class UnsupportedType(ValueError):
    """Raised for Cartan labels outside the supported list."""


class IntegrityError(RuntimeError):
    """An exact invariant of the computation failed.

    Raised instead of an assert so that the check survives ``python -O``.
    """


@dataclass(frozen=True)
class CartanType:
    family: str
    rank: int

    @classmethod
    def parse(cls, label: str) -> "CartanType":
        m = re.fullmatch(r"([A-Za-z])(\d+)", label.strip())
        if not m:
            raise UnsupportedType(f"cannot parse Cartan label {label!r}")
        ct = cls(m.group(1).upper(), int(m.group(2)))
        if str(ct) not in SUPPORTED_TYPES:
            raise UnsupportedType(
                f"type {ct} not supported (supported: {', '.join(SUPPORTED_TYPES)})")
        return ct

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def _cartan_matrix(ct: CartanType) -> tuple[tuple[int, ...], ...]:
    """Entry [i][j] is <alpha_j, alpha_i^vee>."""
    n = ct.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def link(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        a[i][j] = aij
        a[j][i] = aji

    if ct.family in ("A", "B", "C"):
        for i in range(n - 1):
            link(i, i + 1)
        if ct.family == "B" and n >= 2:
            # alpha_n short: <alpha_{n-1}, alpha_n^vee> = -2
            a[n - 1][n - 2] = -2
        if ct.family == "C" and n >= 2:
            # alpha_n long: <alpha_n, alpha_{n-1}^vee> = -2
            a[n - 2][n - 1] = -2
    elif ct.family == "D":
        # node 2 (index 1) is the branch node for D4
        for i, j in ((0, 1), (1, 2), (1, 3)):
            link(i, j)
    elif ct.family == "G":
        link(0, 1, -3, -1)  # alpha_1 short, alpha_2 long
    return tuple(tuple(row) for row in a)


def _symmetrizer(cartan: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Minimal positive integers d with d_i a_ij = d_j a_ji."""
    n = len(cartan)
    d = [Fraction(0)] * n
    d[0] = Fraction(1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if i != j and cartan[i][j] != 0 and d[j] == 0:
                d[j] = d[i] * cartan[i][j] / cartan[j][i]
                todo.append(j)
    scale = 1
    for x in d:
        scale = scale * x.denominator // _gcd(scale, x.denominator)
    out = [int(x * scale) for x in d]
    g = 0
    for x in out:
        g = _gcd(g, x)
    return tuple(x // g for x in out)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def _minor(m, i: int, j: int):
    return [row[:j] + row[j + 1:] for r, row in enumerate(m) if r != i]


def _det(m) -> int:
    """Integer determinant by cofactor expansion (rank is at most 4)."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det(_minor(m, 0, j))
               for j in range(len(m)) if m[0][j])


def _adjugate(m) -> tuple[tuple[int, ...], ...]:
    """Integer adjugate: m adj(m) = det(m) I."""
    n = len(m)
    return tuple(tuple((-1) ** (i + j) * _det(_minor(m, j, i))
                       for j in range(n)) for i in range(n))


@dataclass(frozen=True)
class RootSystemData:
    cartan: CartanType
    cartan_matrix: tuple[tuple[int, ...], ...]
    symmetrizer: tuple[int, ...]
    positive_roots: tuple[Root, ...]
    heights: tuple[int, ...]
    #: determinant of the Cartan matrix (positive for every supported type)
    cartan_det: int
    #: integer adjugate of the Cartan matrix: A adj = cartan_det I
    cartan_adj: tuple[tuple[int, ...], ...]
    #: scaled Gram matrix of the fundamental weights, d_i adj[i][j], so that
    #: cartan_det (omega_i, omega_j) = gram[i][j]
    gram: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return self.cartan.rank

    @property
    def n_positive(self) -> int:
        return len(self.positive_roots)

    @property
    def rho(self) -> Weight:
        return tuple(1 for _ in range(self.rank))

    @property
    def name(self) -> str:
        return str(self.cartan)

    def simple_root(self, i: int) -> Root:
        return tuple(1 if j == i else 0 for j in range(self.rank))

    def root_index(self, beta: Root) -> int:
        return self.positive_roots.index(beta)

    def root_fund(self, beta: Root) -> Weight:
        """Fundamental coordinates of a vector given in simple-root coords."""
        a = self.cartan_matrix
        return tuple(sum(a[i][j] * beta[j] for j in range(self.rank))
                     for i in range(self.rank))

    def root_norm2(self, beta: Root) -> int:
        """(beta, beta) under the symmetrized form with (a_i, a_j) = d_i a_ij."""
        a, d = self.cartan_matrix, self.symmetrizer
        return sum(d[i] * a[i][j] * beta[i] * beta[j]
                   for i in range(self.rank) for j in range(self.rank))

    def coroot_coords(self, beta: Root) -> tuple[int, ...]:
        """Coordinates of beta^vee in the simple-coroot basis."""
        n2 = self.root_norm2(beta)
        out = []
        for i in range(self.rank):
            num = 2 * beta[i] * self.symmetrizer[i]
            assert num % n2 == 0, (beta, n2)
            out.append(num // n2)
        return tuple(out)

    def pairing(self, mu: Weight, beta: Root) -> int:
        """<mu, beta^vee> for mu in fundamental coordinates."""
        m = self.coroot_coords(beta)
        return sum(mu[i] * m[i] for i in range(self.rank))

    def root_coords_scaled(self, mu: Weight) -> tuple[int, ...]:
        """cartan_det times the simple-root coordinates of a weight."""
        return tuple(sum(a * m for a, m in zip(row, mu))
                     for row in self.cartan_adj)

    def root_coords_int(self, mu: Weight) -> tuple[int, ...] | None:
        """Simple-root coordinates if they are integral, else None."""
        det = self.cartan_det
        out = []
        for x in self.root_coords_scaled(mu):
            q, r = divmod(x, det)
            if r:
                return None
            out.append(q)
        return tuple(out)

    def to_root_coords(self, mu: Weight) -> tuple[Fraction, ...]:
        """Simple-root coordinates c of a weight, the solution of A c = mu."""
        return tuple(Fraction(x, self.cartan_det)
                     for x in self.root_coords_scaled(mu))

    def inner_scaled(self, mu: Weight, nu: Weight) -> int:
        """cartan_det times the symmetrized inner product (mu, nu)."""
        return sum(m * sum(g * n for g, n in zip(row, nu))
                   for m, row in zip(mu, self.gram))

    def inner(self, mu: Weight, nu: Weight) -> Fraction:
        """Symmetrized inner product of two weights in fundamental coords."""
        return Fraction(self.inner_scaled(mu, nu), self.cartan_det)

    @cached_property
    def root_gram(self) -> tuple[tuple[int, ...], ...]:
        """Per positive root beta, the row G beta so that mu . (G beta) =
        cartan_det (mu, beta) for a weight mu in fundamental coordinates."""
        out = []
        for beta in self.positive_roots:
            bf = self.root_fund(beta)
            out.append(tuple(sum(g * b for g, b in zip(row, bf))
                             for row in self.gram))
        return tuple(out)

    @property
    def w0_perm(self) -> tuple[int, ...]:
        """Index permutation realizing -w0 on fundamental weights."""
        if self.cartan.family == "A":
            return tuple(reversed(range(self.rank)))
        # -w0 = identity for B, C, D4 and G2
        return tuple(range(self.rank))


def _positive_roots(cartan: tuple[tuple[int, ...], ...]) -> list[Root]:
    """Closure of the simple roots under root addition.

    beta + alpha_i is a root iff r - <beta, alpha_i^vee> > 0 where r is the
    number of steps the alpha_i-string continues below beta.  Processing by
    height keeps every down-string inside the already known positives.
    """
    n = len(cartan)
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    known = set(simples)
    layer = list(simples)
    out = list(simples)
    while layer:
        nxt = []
        for beta in layer:
            for i in range(n):
                if beta == simples[i]:
                    continue  # 2 alpha_i is never a root
                r = 0
                down = list(beta)
                while True:
                    down[i] -= 1
                    if tuple(down) in known:
                        r += 1
                    else:
                        break
                pair = sum(cartan[i][j] * beta[j] for j in range(n))
                if r - pair > 0:
                    up = tuple(b + (1 if j == i else 0)
                               for j, b in enumerate(beta))
                    if up not in known:
                        known.add(up)
                        nxt.append(up)
                        out.append(up)
        layer = nxt
    out.sort(key=lambda b: (sum(b), b))
    return out


def build_root_system(cartan: str | CartanType) -> RootSystemData:
    ct = CartanType.parse(cartan) if isinstance(cartan, str) else cartan
    if str(ct) not in SUPPORTED_TYPES:
        raise UnsupportedType(f"type {ct} not supported")
    a = _cartan_matrix(ct)
    roots = _positive_roots(a)
    d = _symmetrizer(a)
    adj = _adjugate(a)
    return RootSystemData(
        cartan=ct,
        cartan_matrix=a,
        symmetrizer=d,
        positive_roots=tuple(roots),
        heights=tuple(sum(b) for b in roots),
        cartan_det=_det(a),
        cartan_adj=adj,
        gram=tuple(tuple(d[i] * adj[i][j] for j in range(len(a)))
                   for i in range(len(a))),
    )


def star_weight(rs: RootSystemData, lam: Weight) -> Weight:
    """lambda* = -w0(lambda), realized by a diagram permutation."""
    perm = rs.w0_perm
    return tuple(lam[perm[i]] for i in range(rs.rank))


def splitting_weight(rs: RootSystemData, p: int) -> Weight:
    """2(p-1)rho, the weight of the maximal compatible splitting test."""
    return tuple(2 * (p - 1) for _ in range(rs.rank))
