"""Root system construction: frozen expected values and invariants.

The frozen root lists below were derived by hand from the Cartan matrices
(closure under root addition), so they are an independent check that the
brute-force closure in the library produces the right sets in the right
canonical order (height, then lex).
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from math import gcd

from pbwdeg.rootsys import (
    CartanType,
    UnsupportedType,
    _symmetrizer,
    build_root_system,
    splitting_weight,
    star_weight,
)

SUPPORTED = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D4", "G2"]

# family -> expected number of positive roots at each supported rank
EXPECTED_COUNTS = {
    "A1": 1, "A2": 3, "A3": 6,
    "B2": 4, "B3": 9,
    "C2": 4, "C3": 9,
    "D4": 12,
    "G2": 6,
}

# positive roots in simple-root coordinates, canonical order (height, lex)
FROZEN_ROOTS = {
    "A2": [(0, 1), (1, 0), (1, 1)],
    "B2": [(0, 1), (1, 0), (1, 1), (1, 2)],
    "C2": [(0, 1), (1, 0), (1, 1), (2, 1)],
    "G2": [(0, 1), (1, 0), (1, 1), (2, 1), (3, 1), (3, 2)],
    "A3": [(0, 0, 1), (0, 1, 0), (1, 0, 0),
           (0, 1, 1), (1, 1, 0), (1, 1, 1)],
    "B3": [(0, 0, 1), (0, 1, 0), (1, 0, 0),
           (0, 1, 1), (1, 1, 0),
           (0, 1, 2), (1, 1, 1),
           (1, 1, 2), (1, 2, 2)],
    "C3": [(0, 0, 1), (0, 1, 0), (1, 0, 0),
           (0, 1, 1), (1, 1, 0),
           (0, 2, 1), (1, 1, 1),
           (1, 2, 1), (2, 2, 1)],
    "D4": [(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0),
           (0, 1, 0, 1), (0, 1, 1, 0), (1, 1, 0, 0),
           (0, 1, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0),
           (1, 1, 1, 1),
           (1, 2, 1, 1)],
}

FROZEN_CARTAN = {
    "A2": [[2, -1], [-1, 2]],
    "B2": [[2, -1], [-2, 2]],
    "C2": [[2, -2], [-1, 2]],
    "G2": [[2, -3], [-1, 2]],
    "B3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "C3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
}


def test_parse_case_insensitive():
    assert CartanType.parse("a2") == CartanType("A", 2)
    assert CartanType.parse("G2") == CartanType("G", 2)
    assert str(CartanType.parse("b3")) == "B3"


@pytest.mark.parametrize("bad", ["A0", "A4", "B1", "B4", "C1", "C4",
                                 "D2", "D3", "D5", "E6", "F4", "G3",
                                 "H2", "", "A", "2A", "A-1", "Axy"])
def test_unsupported_types_raise(bad):
    with pytest.raises(UnsupportedType):
        build_root_system(bad)


@pytest.mark.parametrize("name", SUPPORTED)
def test_positive_root_counts(name):
    rs = build_root_system(name)
    assert len(rs.positive_roots) == EXPECTED_COUNTS[name]
    # exactly rank many roots of height 1
    assert sum(1 for h in rs.heights if h == 1) == rs.rank


@pytest.mark.parametrize("name", sorted(FROZEN_ROOTS))
def test_frozen_root_lists(name):
    rs = build_root_system(name)
    assert list(rs.positive_roots) == FROZEN_ROOTS[name]


@pytest.mark.parametrize("name", sorted(FROZEN_CARTAN))
def test_frozen_cartan_matrices(name):
    rs = build_root_system(name)
    assert [list(row) for row in rs.cartan_matrix] == FROZEN_CARTAN[name]


@pytest.mark.parametrize("name", SUPPORTED)
def test_symmetrizer_symmetrizes_with_coprime_entries(name):
    """d_i a_ij = d_j a_ji with positive, coprime d, from the integer walk
    of the Dynkin diagram."""
    a = build_root_system(name).cartan_matrix
    d = _symmetrizer(a)
    n = len(a)
    assert all(x > 0 for x in d) and gcd(*d) == 1
    assert all(d[i] * a[i][j] == d[j] * a[j][i]
               for i in range(n) for j in range(n))


@pytest.mark.parametrize("name,expected", [
    ("B3", (2, 2, 1)), ("C3", (1, 1, 2)), ("G2", (1, 3))])
def test_symmetrizer_pinned(name, expected):
    """Long simple roots get d_i = (alpha_i, alpha_i) / 2 > 1."""
    assert build_root_system(name).symmetrizer == expected


def test_g2_heights():
    rs = build_root_system("G2")
    assert list(rs.heights) == [1, 1, 2, 3, 4, 5]


@pytest.mark.parametrize("name", SUPPORTED)
def test_heights_sorted_and_consistent(name):
    rs = build_root_system(name)
    assert list(rs.heights) == sorted(rs.heights)
    for beta, h in zip(rs.positive_roots, rs.heights):
        assert sum(beta) == h


@pytest.mark.parametrize("name", SUPPORTED)
def test_rho_pairs_to_one_with_simple_coroots(name):
    rs = build_root_system(name)
    for i in range(rs.rank):
        alpha = tuple(1 if j == i else 0 for j in range(rs.rank))
        assert rs.pairing(rs.rho, alpha) == 1


@pytest.mark.parametrize("name", SUPPORTED)
def test_sum_of_positive_roots_is_two_rho(name):
    rs = build_root_system(name)
    total = [0] * rs.rank
    for beta in rs.positive_roots:
        for i, c in enumerate(beta):
            total[i] += c
    fund = rs.root_fund(tuple(total))
    assert fund == tuple(2 for _ in range(rs.rank))


@pytest.mark.parametrize("name", SUPPORTED)
def test_coroot_coords_integral_and_simple(name):
    rs = build_root_system(name)
    for i in range(rs.rank):
        alpha = tuple(1 if j == i else 0 for j in range(rs.rank))
        m = rs.coroot_coords(alpha)
        assert m == tuple(1 if j == i else 0 for j in range(rs.rank))
    for beta in rs.positive_roots:
        m = rs.coroot_coords(beta)
        assert all(isinstance(x, int) for x in m)
        # height of the coroot is positive
        assert sum(m) >= 1


def test_star_weight_type_a_reverses():
    rs = build_root_system("A2")
    assert star_weight(rs, (1, 2)) == (2, 1)
    rs3 = build_root_system("A3")
    assert star_weight(rs3, (1, 0, 2)) == (2, 0, 1)
    assert star_weight(rs3, (3, 1, 0)) == (0, 1, 3)


@pytest.mark.parametrize("name", ["B2", "B3", "C2", "C3", "D4", "G2"])
def test_star_weight_identity_outside_type_a(name):
    rs = build_root_system(name)
    lam = tuple(range(1, rs.rank + 1))
    assert star_weight(rs, lam) == lam


@given(st.sampled_from(SUPPORTED), st.data())
def test_star_weight_involutive(name, data):
    rs = build_root_system(name)
    lam = tuple(data.draw(st.integers(min_value=0, max_value=9))
                for _ in range(rs.rank))
    assert star_weight(rs, star_weight(rs, lam)) == lam


@pytest.mark.parametrize("name,p,expected", [
    ("A1", 2, (2,)),
    ("A1", 5, (8,)),
    ("A2", 3, (4, 4)),
    ("C3", 2, (2, 2, 2)),
    ("G2", 2, (2, 2)),
])
def test_splitting_weight(name, p, expected):
    rs = build_root_system(name)
    assert splitting_weight(rs, p) == expected


@pytest.mark.parametrize("name", SUPPORTED)
def test_string_down_closure(name):
    # every nonsimple positive root is a simple root plus a positive root
    rs = build_root_system(name)
    roots = set(rs.positive_roots)
    for beta in rs.positive_roots:
        if sum(beta) == 1:
            continue
        found = False
        for i in range(rs.rank):
            down = list(beta)
            down[i] -= 1
            if tuple(down) in roots:
                found = True
                break
        assert found, beta


# -- exact weight coordinates, checked against their definitions ------------


def _weights(rank, lo=-12, hi=12):
    return st.tuples(*[st.integers(min_value=lo, max_value=hi)] * rank)


@given(st.sampled_from(SUPPORTED), st.data())
def test_root_coords_solve_the_cartan_system(name, data):
    rs = build_root_system(name)
    mu = data.draw(_weights(rs.rank))
    c = rs.to_root_coords(mu)
    a = rs.cartan_matrix
    assert all(isinstance(x, Fraction) for x in c)
    assert tuple(sum(a[i][j] * c[j] for j in range(rs.rank))
                 for i in range(rs.rank)) == mu


@given(st.sampled_from(SUPPORTED), st.data())
def test_root_coords_invert_root_fund_on_the_root_lattice(name, data):
    rs = build_root_system(name)
    c0 = data.draw(_weights(rs.rank, -6, 6))
    mu = rs.root_fund(c0)
    assert rs.to_root_coords(mu) == c0
    assert rs.root_fund(rs.to_root_coords(mu)) == mu
    assert rs.root_coords_int(mu) == c0


@given(st.sampled_from(SUPPORTED), st.data())
def test_root_coords_int_rejects_off_lattice_weights(name, data):
    rs = build_root_system(name)
    mu = data.draw(_weights(rs.rank))
    c = rs.to_root_coords(mu)
    integral = all(x.denominator == 1 for x in c)
    assert (rs.root_coords_int(mu) is not None) == integral


@given(st.sampled_from(SUPPORTED), st.data())
def test_inner_symmetric_and_pairs_simple_roots_by_definition(name, data):
    rs = build_root_system(name)
    mu = data.draw(_weights(rs.rank))
    nu = data.draw(_weights(rs.rank))
    assert rs.inner(mu, nu) == rs.inner(nu, mu)
    d, a = rs.symmetrizer, rs.cartan_matrix
    for j in range(rs.rank):
        alpha_j = rs.root_fund(rs.simple_root(j))
        # (mu, alpha_j) = <mu, alpha_j^vee> (alpha_j, alpha_j) / 2
        assert rs.inner(mu, alpha_j) == mu[j] * d[j]
        for i in range(rs.rank):
            alpha_i = rs.root_fund(rs.simple_root(i))
            assert rs.inner(alpha_i, alpha_j) == d[i] * a[i][j]
