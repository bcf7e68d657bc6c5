import math
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tamexp import ff, orbits, tame
from tamexp.errors import BoundViolated
from tamexp.orbits import (OrbitInvariant, check_large_orbit, code_to_point,
                           component_ids, components, compute_A0,
                           gamma_apply, gamma_class_of, gamma_classes,
                           make_gamma_spec, orbit_invariant, orbit_partition,
                           point_to_code, transitivity_probe, word_code_perm)
from tamexp.spectra import complete_graph, cycle_graph
from tamexp.tame import (CoordCycle, GroupParams, Word, apply_letter,
                         apply_word, poly_transvection_letter, tau)

from conftest import all_points


def test_compute_A0_examples():
    params = GroupParams(5, 3, (1, 1, 2))
    F125 = ff.make_field(5, 3)
    # prime-field point
    d0, zero = compute_A0((2, 3, 0), params, F125)
    assert (d0, zero) == (1, False)
    # (alpha, 0, 0) with alpha primitive: E = 2 so A_0 = F_5(alpha)
    g = F125.multiplicative_generator()
    d0, zero = compute_A0((g, 0, 0), params, F125)
    assert (d0, zero) == (3, False)
    assert compute_A0((0, 0, 0), params, F125) == (1, True)
    # normalization through a G-move when the first coordinate vanishes
    d0, zero = compute_A0((0, g, 0), params, F125)
    assert (d0, zero) == (3, False)


def test_orbit_invariant_basics():
    params = GroupParams(5, 3, (1, 1, 2))
    F25 = ff.make_field(5, 2)
    inv0 = orbit_invariant((0, 0, 0), params, F25)
    assert inv0 == OrbitInvariant(1, 0, True)
    # all nonzero prime-field points share one invariant (single orbit)
    invs = {orbit_invariant(pt, params, F25)
            for pt in all_points(5, 3) if any(pt) }
    assert len(invs) == 1


def test_invariant_constant_on_orbits_and_separating():
    # exhaustive over F_9^3, e = (1,1,2): orbit <-> invariant bijection
    params = GroupParams(3, 3, (1, 1, 2))
    part = orbit_partition(params, 2)
    ctx = part.ctx
    invs = [o.invariant for o in part.orbits]
    assert len(set(invs)) == len(part.orbits)
    assert sum(o.size for o in part.orbits) == 9**3


def test_frobenius_conjugate_points_share_d0():
    params = GroupParams(3, 3, (1, 1, 2))
    F9 = ff.make_field(3, 2)
    spec = make_gamma_spec(params, F9)
    t = F9.element((0, 1))
    phi = (t, 0, 0)
    phi_p = gamma_apply("frobenius", phi, spec)
    a = orbit_invariant(phi, params, F9)
    b = orbit_invariant(phi_p, params, F9)
    assert a.d0 == b.d0
    # same Gamma-class always
    assert phi_p in gamma_class_of(phi, spec)


def test_orbit_partition_prime_field():
    params = GroupParams(3, 3, (1, 1, 2))
    part = orbit_partition(params, 1)
    assert sorted(o.size for o in part.orbits) == [1, 26]


def test_gamma_spec_and_apply():
    # E = 2 forces lambda = 1 and trivial scaling
    params = GroupParams(5, 3, (1, 1, 2))
    F25 = ff.make_field(5, 2)
    spec = make_gamma_spec(params, F25)
    assert spec.lam == 1 and spec.scales == (1, 1, 1)
    # e = (2,2,2) over a field with full 7th roots: exponents (1, 4, 2)
    p222 = GroupParams(29, 3, (2, 2, 2))
    F29 = ff.make_field(29, 1)
    spec = make_gamma_spec(p222, F29)
    lam = spec.lam
    assert F29.order(lam) == 7
    assert spec.scales == (F29.pow(lam, 1), F29.pow(lam, 4), F29.pow(lam, 2))


def test_gamma_commutes_exhaustively():
    # F and m_lambda commute with every standard generator on F_9^3, F_25^3
    for p, ell, e in ((3, 2, (1, 1, 2)), (5, 2, (1, 1, 2))):
        params = GroupParams(p, 3, e)
        ctx = ff.make_field(p, ell)
        spec = make_gamma_spec(params, ctx)
        pts = all_points(ctx.q, 3)
        for i in (1, 2, 3):
            let = tau(params, i, 1)
            for which in ("frobenius", "mlambda"):
                for pt in pts:
                    a = gamma_apply(which, apply_letter(let, 1, pt, ctx), spec)
                    b = apply_letter(let, 1, gamma_apply(which, pt, spec), ctx)
                    assert a == b


def test_frobenius_fixed_points():
    params = GroupParams(3, 3, (1, 1, 2))
    F9 = ff.make_field(3, 2)
    spec = make_gamma_spec(params, F9)
    codes = np.arange(9**3, dtype=np.int64)
    f = orbits.gamma_apply_codes("frobenius", codes, spec, 3)
    assert int((f == codes).sum()) == 27
    f2 = orbits.gamma_apply_codes("frobenius", f, spec, 3)
    assert np.array_equal(f2, codes)


def test_gamma_classes_singletons_for_prime_field():
    params = GroupParams(5, 3, (1, 1, 2))
    F5 = ff.make_field(5, 1)
    spec = make_gamma_spec(params, F5)
    rep = gamma_classes(np.arange(1, 125, dtype=np.int64), spec, params)
    assert rep.class_count == 124
    assert rep.size_histogram == {1: 124}


def test_gamma_classes_lemma_criterion():
    # phi_alpha, phi_beta in one class iff alpha^(E-1), beta^(E-1) share a
    # minimal polynomial
    params = GroupParams(5, 3, (1, 1, 2))
    F25 = ff.make_field(5, 2)
    spec = make_gamma_spec(params, F25)
    for alpha in range(1, 25):
        for beta in range(1, 25):
            same_class = (beta, 0, 0) in gamma_class_of((alpha, 0, 0), spec)
            same_minpoly = (ff.minimal_polynomial(F25, alpha)
                            == ff.minimal_polynomial(F25, beta))
            assert same_class == same_minpoly


def test_gamma_classes_big_orbit_f25():
    params = GroupParams(5, 3, (1, 1, 2))
    part = orbit_partition(params, 2)
    spec = make_gamma_spec(params, part.ctx)
    big = max(range(len(part.orbits)), key=lambda i: part.orbits[i].size)
    codes = np.flatnonzero(part.labels == big)
    rep = gamma_classes(codes, spec, params)
    assert rep.orbit_size == 25**3 - 5**3
    assert rep.size_histogram == {2: rep.class_count}
    assert rep.class_count == (25**3 - 5**3) // 2


def test_gamma_classes_rejects_non_invariant_codes():
    # e = (1,1,3) over F_7: m_lambda scales every coordinate by 6, so
    # (6,0,0) goes to (1,0,0), outside the code set
    params = GroupParams(7, 3, (1, 1, 3))
    spec = make_gamma_spec(params, ff.make_field(7, 1))
    with pytest.raises(BoundViolated):
        gamma_classes(np.array([point_to_code((6, 0, 0), 7)]), spec, params)


def _networkx_roots(maps, size):
    """Smallest point of each point's component, by networkx."""
    graph = nx.Graph()
    graph.add_nodes_from(range(size))
    for g in maps:
        graph.add_edges_from(enumerate(np.asarray(g).tolist()))
    roots = np.empty(size, dtype=np.int64)
    for comp in nx.connected_components(graph):
        roots[list(comp)] = min(comp)
    return roots


@pytest.mark.parametrize("p, ell, e", [(3, 2, (1, 1, 2)), (7, 1, (1, 1, 3))])
def test_orbit_partition_matches_networkx(p, ell, e):
    params = GroupParams(p, 3, e)
    part = orbit_partition(params, ell)
    ctx, q = part.ctx, part.ctx.q
    maps = [[point_to_code(apply_letter(tau(params, i, 1), 1,
                                        code_to_point(c, q, 3), ctx), q)
             for c in range(q**3)] for i in (1, 2, 3)]
    roots = _networkx_roots(maps, q**3)
    reps = np.array([o.representative for o in part.orbits])
    assert reps.tolist() == sorted(set(roots.tolist()))
    assert np.array_equal(reps[part.labels], roots)
    assert [o.size for o in part.orbits] == \
        [int((roots == r).sum()) for r in reps]


def test_word_code_perm_matches_scalar_action():
    params = GroupParams(3, 3, (1, 1, 2))
    ctx = ff.make_field(3, 2)
    q = ctx.q
    poly = poly_transvection_letter(params, 1, 2, (1, 2))
    word = Word([(CoordCycle(), 1), (poly, 1), (tau(params, 3, 1), -1),
                 (CoordCycle(), -1), (poly, -1)])
    codes = np.random.default_rng(0).permutation(q**3)  # domain in any order
    perm = word_code_perm(word, codes, ctx, 3)
    for k, c in enumerate(codes.tolist()):
        image = apply_word(word, code_to_point(c, q, 3), ctx)
        assert codes[perm[k]] == point_to_code(image, q)


@pytest.mark.parametrize("graph", [complete_graph(9), cycle_graph(10)])
def test_components_of_spectra_graphs(graph):
    # complete_graph's neighbour columns are not permutations
    maps = graph.neighbors.T
    assert np.array_equal(components(maps),
                          _networkx_roots(maps, graph.nvertices))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
    min_size=1, max_size=3)))
def test_components_of_arbitrary_maps(maps):
    maps = [np.array(g) for g in maps]
    roots = components(maps)
    expect = _networkx_roots(maps, len(maps[0]))
    assert np.array_equal(roots, expect)
    reps, ids = component_ids(roots)
    assert reps.tolist() == sorted(set(expect.tolist()))
    assert np.array_equal(reps[ids], roots)


def test_check_large_orbit():
    rep = check_large_orbit(GroupParams(7, 3, (1, 1, 2)), 2)
    assert rep.holds
    assert rep.orbit_size == 7**6 - 7**3  # the ell = 2 equality edge
    assert not rep.strictly_greater
    rep = check_large_orbit(GroupParams(3, 3, (1, 1, 2)), 2)
    assert rep.holds


def test_transitivity_probe_small():
    params = GroupParams(5, 3, (1, 1, 2))
    rep = transitivity_probe(params, 2, 1, 25, seed=9)
    assert rep.successes == 25 and not rep.failures
    rep = transitivity_probe(params, 2, 2, 25, seed=10)
    assert rep.successes == 25
    # bound gate: k beyond the theorem's bound is reported, not attempted
    rep = transitivity_probe(params, 2, 5, 10, seed=1)
    assert not rep.bound_ok and rep.trials == 0


def test_probe_bound_arithmetic():
    # k = 4 is legal for p=7, ell=2, E=2: bound (49*5)/(2*7*2) = 8.75
    params = GroupParams(7, 3, (1, 1, 2))
    bound = Fraction(7**2 * (7 - 2), 2 * 7 * 2)
    assert bound == Fraction(35, 4)
    rep = transitivity_probe(params, 2, 4, 3, seed=2)
    assert rep.bound == bound and rep.bound_ok
    assert rep.successes == 3


def test_seven_coprime_arithmetic():
    # gcd(p^l - 1, 7) = 1 whenever p != 1 mod 7 and l is a prime >= 5,
    # since the order of p mod 7 divides gcd(6, l) = 1 otherwise
    for p in (23, 29, 31, 37, 53, 59):
        if p % 7 == 1:
            continue
        for ell in (5, 7, 11, 13):
            assert math.gcd(p**ell - 1, 7) == 1
    # and the hypothesis matters: p = 29 = 1 mod 7 fails
    assert math.gcd(29**5 - 1, 7) == 7


def test_transitivity_probe_higher_grading():
    # E = 3 (p = 3E-2 exactly) and E = 4 exercise nontrivial m_lambda
    # twists and the graded enlargement searches
    rep = transitivity_probe(GroupParams(7, 3, (1, 1, 3)), 2, 2, 25, seed=5)
    assert rep.successes == 25 and rep.dance_ok
    params = GroupParams(11, 3, (1, 2, 2))
    spec = make_gamma_spec(params, ff.make_field(11, 2))
    assert spec.lam_order == 3  # the cube roots of unity act
    rep = transitivity_probe(params, 2, 3, 25, seed=8)
    assert rep.successes == 25
