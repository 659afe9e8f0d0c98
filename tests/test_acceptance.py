"""End-to-end acceptance gate: one test per advertised guarantee.

Each test is a single pass/fail verdict over a fixed instance suite; the
suites are generated here (all fundamental weights, all small weights in
rank at most 3) rather than enumerated by hand, and oracle comparisons
call the independent dense implementation in tests/dense_oracle.py live.
"""

import sys
import time
from itertools import combinations_with_replacement, product
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dense_oracle import (DenseModule, dense_hilbert_value,
                          dense_mult_verdict, f0_nonzero_in_graded)

from faults import inject_fault, shrink_weight_space
from test_weylmod import MODP_SUITE

from pbwdeg.chevrep import NonIntegralDividedPower, chevalley_constants
from pbwdeg.pbwgrade import (check_F0_order_invariance, check_f0,
                             pbw_filtration)
from pbwdeg.degenring import (check_degree_one_generation,
                              check_mult_surjective, hilbert_function)
from pbwdeg.rootsys import SUPPORTED_TYPES, build_root_system, splitting_weight
from pbwdeg.weylmod import (build_weyl_lattice, build_weyl_module_p,
                            freudenthal_multiplicities, validate_relations,
                            weyl_dim)

RS = {t: build_root_system(t) for t in SUPPORTED_TYPES}


def sc(name):
    return chevalley_constants(RS[name])


def fund(rs, i):
    return tuple(1 if j == i else 0 for j in range(rs.rank))


def weight_suite():
    """All fundamentals everywhere, all coordinate sums <= 3 in rank <= 3,
    filtered to Weyl dimension <= 1500."""
    out = []
    for name in SUPPORTED_TYPES:
        rs = RS[name]
        cands = {fund(rs, i) for i in range(rs.rank)}
        if rs.rank <= 3:
            cands.update(lam for lam in product(range(4), repeat=rs.rank)
                         if sum(lam) <= 3)
        for lam in sorted(cands):
            if weyl_dim(rs, lam) <= 1500:
                out.append((name, lam))
    return out


def test_lattice_ranks_match_weyl_dimension_formula():
    suite = weight_suite()
    assert len(suite) > 100
    t0 = time.perf_counter()
    for name, lam in suite:
        lat = build_weyl_lattice(RS[name], lam)
        assert lat.dim == weyl_dim(RS[name], lam), (name, lam)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0, f"suite took {elapsed:.1f}s"


def test_span_ranks_per_weight_match_freudenthal():
    """The spanning walk has the Freudenthal multiplicity at every weight:
    over Z on the suite weights of Weyl dimension <= 100, and over F_p on
    MODP_SUITE in both ambients."""
    small = [(name, lam) for name, lam in weight_suite()
             if weyl_dim(RS[name], lam) <= 100]
    assert len(small) == 83
    for name, lam in small:
        assert build_weyl_lattice(RS[name], lam).weight_multiplicities() == \
            freudenthal_multiplicities(RS[name], lam), (name, lam)
    for name, lam, p in MODP_SUITE:
        for mode in ("flat", "peeled"):
            mod = build_weyl_module_p(RS[name], p, lam, ambient_mode=mode)
            assert mod.weight_multiplicities() == \
                freudenthal_multiplicities(RS[name], lam), (name, lam, p, mode)


def test_freudenthal_matches_span_route_on_every_suite_weight():
    """The dominant-chamber recursion gives the weight multiplicities of the
    module spanned at p = 2, on every suite weight."""
    for name, lam in weight_suite():
        assert build_weyl_module_p(RS[name], 2, lam).weight_multiplicities() \
            == freudenthal_multiplicities(RS[name], lam), (name, lam)


def test_freudenthal_invariant_under_simple_reflections():
    """m(s_i nu) = m(nu) for every weight nu and simple reflection s_i, with
    s_i nu = nu - <nu, alpha_i^vee> alpha_i read off the Cartan matrix."""
    for name, lam in weight_suite():
        rs = RS[name]
        mults = freudenthal_multiplicities(rs, lam)
        for nu, m in mults.items():
            for i in range(rs.rank):
                s_nu = tuple(x - nu[i] * rs.cartan_matrix[k][i]
                             for k, x in enumerate(nu))
                assert mults.get(s_nu) == m, (name, lam, nu, i)


def test_graded_dimensions_sum_to_module_dimension():
    for name, lam in weight_suite():
        mod = build_weyl_module_p(RS[name], 2, lam)
        graded = pbw_filtration(mod)
        assert sum(graded.graded_dims) == mod.dim == weyl_dim(RS[name], lam), \
            (name, lam)
    # rank one: every filtration step adds one line, for any prime
    for m, p in product(range(7), (2, 3, 5)):
        graded = pbw_filtration(build_weyl_module_p(RS["A1"], p, (m,)))
        assert graded.graded_dims == (1,) * (m + 1), (m, p)


def test_splitting_criterion_verdicts_on_asserted_cases():
    cases = [("A1", 2), ("A1", 3), ("A1", 5), ("A2", 2), ("A2", 3),
             ("A3", 2), ("C2", 2), ("C2", 3), ("C3", 2), ("G2", 2)]
    for name, p in cases:
        t0 = time.perf_counter()
        rep = check_f0(RS[name], sc(name), p)
        elapsed = time.perf_counter() - t0
        assert rep.nonzero is True, (name, p)
        assert elapsed <= 600.0, (name, p, elapsed)


def test_norm_form_order_invariance_and_centrality():
    for name in ("A2", "C2"):
        mod = build_weyl_module_p(RS[name], 2, splitting_weight(RS[name], 2))
        assert check_F0_order_invariance(mod, trials=5) is True, name


def test_multiplication_surjectivity_on_asserted_cases():
    runs = []
    for p in (2, 3):
        for lam, mu in product([(1, 0), (0, 1)], repeat=2):
            runs.append(("A2", lam, mu, p))
    for lam, mu in product([(1, 0), (0, 1)], repeat=2):
        runs.append(("C2", lam, mu, 2))
    runs.append(("G2", (1, 0), (1, 0), 2))
    for name, lam, mu, p in runs:
        t0 = time.perf_counter()
        rep = check_mult_surjective(RS[name], sc(name), lam, mu, p)
        elapsed = time.perf_counter() - t0
        assert rep.verdict_mult_surjective is True, (name, lam, mu, p)
        assert elapsed <= 300.0, (name, lam, mu, p)


def test_incremental_tables_equal_dense_oracle():
    insts = []
    for name in SUPPORTED_TYPES:
        rs = RS[name]
        for i, j in combinations_with_replacement(range(rs.rank), 2):
            lam, mu = fund(rs, i), fund(rs, j)
            tot = tuple(a + b for a, b in zip(lam, mu))
            if weyl_dim(rs, tot) <= 200:
                insts += [(name, lam, mu, 2), (name, lam, mu, 3)]
    insts += [("A1", (2,), (3,), 2), ("A1", (2,), (3,), 3),
              ("A2", (1, 1), (1, 0), 2)]
    assert len(insts) >= 80
    for name, lam, mu, p in insts:
        rep = check_mult_surjective(RS[name], sc(name), lam, mu, p)
        inj, strict, table = dense_mult_verdict(RS[name], lam, mu, p)
        assert rep.table == table, (name, lam, mu, p)
        assert rep.injective_ungraded == inj and rep.strict == strict, \
            (name, lam, mu, p)


def test_degree_one_generation_and_hilbert_values():
    rs, s = RS["A2"], sc("A2")
    gen = check_degree_one_generation(rs, s, (1, 1), 2, 3)
    assert gen.generated is True
    assert [n for n, _ in gen.per_n] == [2, 3]
    hil = hilbert_function(rs, s, (1, 1), 2, 3)
    for n in (1, 2, 3):
        expect = weyl_dim(rs, (n, n))
        assert hil.values[n] == (n, expect, expect), n
        assert dense_hilbert_value(rs, (1, 1), 2, n) == expect, n


def test_rank_two_bc_evidence_runs_deterministic_and_oracle_confirmed(
        fresh_modules):
    rep1 = check_f0(RS["B2"], sc("B2"), 2)
    fresh_modules()
    rep2 = check_f0(RS["B2"], sc("B2"), 2)
    assert rep1 == rep2
    oracle = f0_nonzero_in_graded(DenseModule(RS["B2"],
                                              splitting_weight(RS["B2"], 2),
                                              2))
    assert rep1.nonzero == oracle
    m1 = check_mult_surjective(RS["B2"], sc("B2"), (1, 0), (0, 1), 2)
    fresh_modules()
    m2 = check_mult_surjective(RS["B2"], sc("B2"), (1, 0), (0, 1), 2)
    assert m1 == m2
    inj, strict, table = dense_mult_verdict(RS["B2"], (1, 0), (0, 1), 2)
    assert (m1.injective_ungraded, m1.strict, m1.table) == \
        (inj, strict, table)


def test_defect_detectors_locate_injected_faults(fresh_modules):
    mod = build_weyl_module_p(RS["A2"], 2, (1, 1))
    assert validate_relations(mod) == []
    inject_fault(mod, "F", (1, 0), 1, row=2, col=mod.hw_index, delta=1)
    witnesses = validate_relations(mod)
    assert witnesses
    assert all(0 <= w.basis_index < mod.dim for w in witnesses)
    assert any("F_" in w.relation for w in witnesses)
    lat = build_weyl_lattice(RS["A1"], (2,))
    shrink_weight_space(lat, (-2,), scale=2)
    with pytest.raises(NonIntegralDividedPower):
        lat.op_int("F", (1,), 2)
