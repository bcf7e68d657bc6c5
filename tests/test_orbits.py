import math
import random
import tracemalloc
from fractions import Fraction
from functools import partial

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tamexp import ff, orbits, permgrp, tame
from tamexp.errors import BoundViolated, BudgetExceeded, NotClosed
from tamexp.orbits import (OrbitInvariant, check_large_orbit, code_perms,
                           code_to_point, component_ids, components,
                           compute_A0, gamma_apply, gamma_class_of,
                           gamma_classes, gamma_roots, make_gamma_spec,
                           orbit_invariant,
                           orbit_partition, point_to_code, transitivity_probe,
                           word_code_perms)
from tamexp.spectra import complete_graph, cycle_graph
from tamexp.tame import (BiTransvection, CoordCycle, GroupParams, Transvection,
                         Word, apply_letter, apply_word,
                         poly_transvection_letter, tau)

from conftest import all_points, thm15_words


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


@pytest.mark.parametrize("p, e, ell, shared", [
    (3, (1, 1, 2), 3, []),
    (5, (1, 1, 2), 2, []),
    (7, (1, 1, 3), 2, []),
    (5, (2, 1, 1), 2, []),
    # p = E = 2: the invariant is not complete
    (2, (1, 1, 2), 3, [(OrbitInvariant(3, 2, False), [63, 441])]),
])
def test_orbit_invariants_distinct_for_p_above_E(p, e, ell, shared):
    part = orbit_partition(GroupParams(p, 3, e), ell)
    sizes = {}
    for o in part.orbits:
        sizes.setdefault(o.invariant, []).append(o.size)
    assert [(inv, sorted(s)) for inv, s in sizes.items() if len(s) > 1] \
        == shared
    assert sum(o.size for o in part.orbits) == (p**ell)**3


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


def _scalar_gamma(params, spec):
    """Frobenius and m_lambda from the field's scalar operations."""
    ctx = spec.ctx
    scales = [ctx.pow(spec.lam, math.prod(params.e[i:]))
              for i in range(params.n)]
    frob = lambda pt: tuple(ctx.pow(a, ctx.p) for a in pt)
    mlam = lambda pt: tuple(ctx.mul(s, a) for s, a in zip(scales, pt))
    return frob, mlam


def test_gamma_twists_apply_frobenius_last():
    # lambda has order 3 in F_121 but not in F_11, so lambda^11 != lambda
    # and F, m_lambda do not commute on points
    params = GroupParams(11, 3, (1, 2, 2))
    ctx = ff.make_field(11, 2)
    spec = make_gamma_spec(params, ctx)
    assert spec.lam_order == 3 and ctx.pow(spec.lam, 11) != spec.lam
    frob, mlam = _scalar_gamma(params, spec)
    rng = random.Random(0)
    orders_differ = False
    for _ in range(40):
        pt = tuple(rng.randrange(1, ctx.q) for _ in range(3))
        twists = orbits._gamma_twists(pt, spec)
        assert list(twists) == [(a, b) for a in range(2) for b in range(3)]
        for (a, b), img in twists.items():
            want = other = pt
            for _ in range(b):
                want = mlam(want)
            for _ in range(a):
                want = frob(want)
                other = frob(other)
            for _ in range(b):
                other = mlam(other)
            assert img == want, (pt, a, b)
            orders_differ |= other != want
    assert orders_differ


@pytest.mark.parametrize("p, e, ell", [(11, (1, 2, 2), 2), (7, (1, 1, 3), 2),
                                       (5, (1, 1, 2), 3)])
def test_gamma_class_of_is_the_bfs_closure(p, e, ell):
    params = GroupParams(p, 3, e)
    spec = make_gamma_spec(params, ff.make_field(p, ell))
    frob, mlam = _scalar_gamma(params, spec)
    rng = random.Random(1)
    for _ in range(30):
        pt = tuple(rng.randrange(spec.ctx.q) for _ in range(3))
        seen, frontier = {pt}, [pt]
        while frontier:
            frontier = [im for x in frontier for im in (frob(x), mlam(x))
                        if im not in seen]
            seen.update(frontier)
        assert gamma_class_of(pt, spec) == seen


@pytest.mark.parametrize("which", ["frobenius", "mlambda"])
def test_make_gamma_spec_rejects_a_corrupted_table(monkeypatch, which):
    ctx = ff.make_field(5, 2)
    tables = orbits._gamma_tables

    def corrupted(kind, spec):
        out = list(tables(kind, spec))
        if kind == which:  # coordinate 1 scaled by 2 on top
            out[0] = ctx.mul_const_table(2)[out[0]]
        return out

    monkeypatch.setattr(orbits, "_gamma_tables", corrupted)
    with pytest.raises(BoundViolated, match=which):
        make_gamma_spec(GroupParams(5, 3, (1, 1, 2)), ctx)


def test_frobenius_fixed_points():
    params = GroupParams(3, 3, (1, 1, 2))
    F9 = ff.make_field(3, 2)
    spec = make_gamma_spec(params, F9)
    codes = np.arange(9**3, dtype=np.int64)
    [f] = code_perms([partial(orbits._gamma_coords, "frobenius", spec=spec)],
                     9, 3)
    assert int((f == codes).sum()) == 27
    assert np.array_equal(f[f], codes)


def test_gamma_classes_singletons_for_prime_field():
    params = GroupParams(5, 3, (1, 1, 2))
    part = orbit_partition(params, 1)
    rep = gamma_classes(part.labels, make_gamma_spec(params, part.ctx))
    assert rep.class_count == 125
    assert [(o.orbit_size, o.class_count, o.size_histogram)
            for o in rep.orbits] == [(1, 1, {1: 1}), (124, 124, {1: 124})]
    assert np.array_equal(rep.roots, np.arange(125))


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
    rep = gamma_classes(part.labels, spec).orbits[big]
    assert rep.orbit_size == 25**3 - 5**3
    assert rep.size_histogram == {2: rep.class_count}
    assert rep.class_count == (25**3 - 5**3) // 2


def test_gamma_classes_rejects_non_invariant_codes():
    # e = (1,1,3) over F_7: m_lambda scales every coordinate by 6, so
    # (6,0,0) goes to (1,0,0), outside an orbit labelled {(6,0,0)}
    params = GroupParams(7, 3, (1, 1, 3))
    spec = make_gamma_spec(params, ff.make_field(7, 1))
    labels = np.zeros(7**3, dtype=np.int32)
    labels[point_to_code((6, 0, 0), 7)] = 1
    with pytest.raises(NotClosed, match="not Gamma-invariant"):
        gamma_classes(labels, spec)


def test_gamma_roots_checks_only_classes_meeting_the_given_orbit():
    # the class {(1,0,0), (6,0,0)} meets orbits 0 and 1 whichever of the
    # two is given, its root (code 1) lying in orbit 0; the origin, orbit
    # 2, is a class of its own
    params = GroupParams(7, 3, (1, 1, 3))
    spec = make_gamma_spec(params, ff.make_field(7, 1))
    labels = np.zeros(7**3, dtype=np.int32)
    labels[point_to_code((6, 0, 0), 7)] = 1
    labels[0] = 2
    for oid in (None, 0, 1):
        with pytest.raises(NotClosed, match=r"not Gamma-invariant: one "
                           r"Gamma-class meets orbit 0 \(341 points\) and "
                           r"orbit 1 \(1 points\)$"):
            gamma_roots(labels, spec, oid)
    roots = gamma_roots(labels, spec, 2)
    assert roots[0] == 0 and roots[point_to_code((6, 0, 0), 7)] == 1


@pytest.mark.parametrize("p, ell, e", [(5, 2, (1, 1, 2)), (7, 2, (1, 1, 3)),
                                       (5, 1, (1, 1, 2)), (7, 1, (1, 1, 3))])
def test_gamma_classes_match_brute_force_classes(p, ell, e):
    # every point's class by the scalar gamma_class_of, tallied per orbit
    params = GroupParams(p, 3, e)
    part = orbit_partition(params, ell)
    q = part.ctx.q
    spec = make_gamma_spec(params, part.ctx)
    rep = gamma_classes(part.labels, spec)
    root = np.full(q**3, -1)
    tally = [dict() for _ in part.orbits]
    for c in range(q**3):
        if root[c] >= 0:
            continue
        members = [point_to_code(x, q)
                   for x in gamma_class_of(code_to_point(c, q, 3), spec)]
        root[members] = min(members)
        oid, = set(part.labels[members].tolist())
        tally[oid][len(members)] = tally[oid].get(len(members), 0) + 1
    assert np.array_equal(rep.roots, root)
    assert [(o.orbit_size, o.class_count, o.size_histogram)
            for o in rep.orbits] == [
        (o.size, sum(h.values()), dict(sorted(h.items())))
        for o, h in zip(part.orbits, tally)]
    assert rep.class_count == sum(o.class_count for o in rep.orbits)


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


# (3, 2, (1, 1, 1)) has 6 orbits, and the closure of the last code (26
# points) misses the majority orbit of 624, so it takes the fallback
@pytest.mark.parametrize("p, ell, e", [(3, 2, (1, 1, 2)), (7, 1, (1, 1, 3)),
                                      (3, 2, (1, 1, 1))])
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



@pytest.mark.parametrize("p", [2, 3, 5])
def test_orbit_sizes_e1_closed_form(p):
    # SL_3(F_p) on F_{p^2}^3 = F_p^3 + t F_p^3: the origin; the points c w
    # with w in F_p^3 minus 0, one orbit of p^3 - 1 per c in F_{p^2}^* / F_p^*
    # (p + 1 of them); and the points x + t y with x, y independent, one
    # orbit of (p^3 - 1)(p^3 - p)
    part = orbit_partition(GroupParams(p, 3, (1, 1, 1)), 2)
    sizes = sorted(o.size for o in part.orbits)
    assert sizes == [1] + [p**3 - 1] * (p + 1) + [(p**3 - 1) * (p**3 - p)]


def _necklaces(p, ell):
    """(1/ell) sum over k | ell of mu(ell/k) p^(3k): the points of
    F_{p^ell}^3 in no proper subfield cube, counted per Frobenius class."""
    sympy = pytest.importorskip("sympy")
    from sympy.functions.combinatorial.numbers import mobius
    return int(sum(mobius(ell // k) * p**(3 * k)
                   for k in sympy.divisors(ell))) // ell


@pytest.mark.parametrize("p, ell, count", [(3, 2, 351), (3, 3, 6552),
                                           (3, 4, 132678), (5, 2, 7750),
                                           (5, 3, 651000)])
def test_largest_orbit_classes_are_necklaces(p, ell, count):
    # the oracle is independent of the orbit code: a closed formula
    assert _necklaces(p, ell) == count
    params = GroupParams(p, 3, (1, 1, 2))
    part = orbit_partition(params, ell)
    big = max(range(len(part.orbits)), key=lambda i: part.orbits[i].size)
    rep = gamma_classes(part.labels, make_gamma_spec(params, part.ctx))
    assert rep.orbits[big].class_count == count

def test_word_code_perm_matches_scalar_action():
    # e = (1, 1, 3) over F_9: lambda = 2 has order 2, so m_lambda moves points
    params = GroupParams(3, 3, (1, 1, 3))
    ctx = ff.make_field(3, 2)
    q = ctx.q
    spec = make_gamma_spec(params, ctx)
    assert spec.lam_order == 2
    poly = poly_transvection_letter(params, 1, 2, (1, 2))
    words = [Word([(CoordCycle(), 1), (poly, 1), (tau(params, 3, 1), -1),
                   (CoordCycle(), -1), (poly, -1)]),
             Word.of(tau(params, 2, 1)), Word()]
    codes = np.random.default_rng(0).permutation(q**3)  # domain in any order
    grid = word_code_perms(words, ctx, 3) + code_perms(
        [partial(orbits._gamma_coords, which, spec=spec)
         for which in ("frobenius", "mlambda")], q, 3)
    perms = list(map(orbits.restriction(codes, q**3), grid))
    scalar = [partial(apply_word, w, ctx=ctx) for w in words] + [
        partial(gamma_apply, which, spec=spec)
        for which in ("frobenius", "mlambda")]
    assert len(perms) == len(scalar) == 5
    for perm, act in zip(perms, scalar):
        assert perm.dtype == np.int32
        for k, c in enumerate(codes.tolist()):
            image = act(code_to_point(c, q, 3))
            assert codes[perm[k]] == point_to_code(image, q)
    assert not np.array_equal(perms[4], np.arange(q**3))  # m_lambda moves


def _letter_zoo(params):
    """Words with a letter of every kind and their inverses: a constant
    shift T(i,j,0,r), a BiTransvection, a PolyTransvection whose
    polynomial has a nonzero constant coefficient, and the CoordCycle."""
    n = params.n
    letters = [Transvection(2, n, 0, 1), BiTransvection(n, 1, 2, 1, 2, 1),
               poly_transvection_letter(params, 1, n - 1, (2, 1)),
               CoordCycle(), tau(params, n, 1)]
    return [Word()] + [Word([(let, s)]) for let in letters for s in (1, -1)] \
        + [Word([(letters[1], 1), (letters[3], 1), (letters[2], -1),
                 (letters[0], -1), (letters[4], 1)])]


def _split_and_pack(maps, codes, q, n):
    """The reference for code_perms: split the codes into digits, apply
    each map, pack the images and look them up in `codes`."""
    order = np.argsort(codes)
    perms = []
    for f in maps:
        images = orbits.coords_to_codes(
            f(orbits.codes_to_coords(codes, q, n)), q)
        pos = order[np.searchsorted(codes[order], images) % len(codes)]
        assert np.array_equal(codes[pos], images)  # closed under f
        perms.append(pos)
    return perms


@pytest.mark.parametrize("p, ell, e", [
    (7, 1, (1, 1, 3)), (3, 2, (1, 1, 3)), (3, 3, (1, 1, 2)),
    (5, 1, (1, 1, 1, 3)), (3, 2, (1, 2, 1, 1))])
def test_grid_code_perms_match_explicit_codes(p, ell, e):
    # on all of F_q^n, in code order and shuffled, against split-and-pack
    params = GroupParams(p, len(e), e)
    ctx = ff.make_field(p, ell)
    q, n = ctx.q, params.n
    spec = make_gamma_spec(params, ctx)
    maps = [partial(tame.apply_word_arrays, w, ctx=ctx)
            for w in _letter_zoo(params)] + [
        partial(orbits._gamma_coords, which, spec=spec)
        for which in ("frobenius", "mlambda")]
    codes = np.arange(q**n)
    shuffled = np.random.default_rng(0).permutation(q**n)
    grid = code_perms(maps, q, n)
    explicit = list(map(orbits.restriction(shuffled, q**n), grid))
    assert len(grid) == len(explicit) == 14
    for a, b, want, want_shuffled in zip(
            grid, explicit, _split_and_pack(maps, codes, q, n),
            _split_and_pack(maps, shuffled, q, n)):
        assert a.dtype == b.dtype == np.int32
        assert np.array_equal(a, want)
        assert np.array_equal(b, want_shuffled)
    assert np.array_equal(grid[0], codes)
    assert (spec.lam_order > 1) == (not np.array_equal(grid[-1], grid[0]))


@pytest.mark.parametrize("variant, p, ell", [
    ("i", 5, 1), ("i", 3, 2), ("i", 2, 3), ("ii", 3, 1)])
def test_code_perms_restrict_to_a_shuffled_closed_subset(variant, p, ell):
    # the Theorem 15 words and the Gamma maps fix the origin, so the
    # nonzero codes in random order are a proper subset closed under them
    n, words = thm15_words(variant)
    ctx = ff.make_field(p, ell)
    q = ctx.q
    spec = make_gamma_spec(GroupParams(p, n, (1,) * (n - 1) + (2,)), ctx)
    maps = [partial(tame.apply_word_arrays, w, ctx=ctx) for w in words] + [
        partial(orbits._gamma_coords, which, spec=spec)
        for which in ("frobenius", "mlambda")]
    codes = np.random.default_rng(1).permutation(np.arange(1, q**n))
    restrict = orbits.restriction(codes, q**n)
    got = list(map(restrict, code_perms(maps, q, n)))
    for a, want in zip(got, _split_and_pack(maps, codes, q, n)):
        assert a.dtype == np.int32
        assert np.array_equal(a, want)
    with pytest.raises(NotClosed):  # T(2,n,0,1) sends the origin to e_2
        restrict(word_code_perms([Word.of(Transvection(2, n, 0, 1))], ctx,
                                 n)[0])


@pytest.mark.parametrize("variant, p, ell", [
    ("i", 3, 1), ("i", 5, 1), ("i", 3, 2), ("i", 2, 3), ("ii", 3, 1),
    ("ii", 5, 1), ("ii", 7, 1), ("ii", 11, 1), ("sl3", 5, 1)])
def test_nonzero_perms_are_the_restriction_to_nonzero_codes(variant, p, ell):
    # the slice past code 0 against the restriction table, one word at a
    # time so that p = 11 holds two 19.5 M-point permutations at once
    if variant == "sl3":
        n, words = 3, tame.standard_generators(GroupParams(p, 3, (1, 1, 1)))
    else:
        n, words = thm15_words(variant)
    ctx = ff.make_field(p, ell)
    restrict = orbits.restriction(np.arange(1, ctx.q**n, dtype=np.int32),
                                  ctx.q**n)
    for w in words:
        [got] = orbits.nonzero_perms([w], ctx, n)
        want = restrict(word_code_perms([w], ctx, n)[0])
        assert got.dtype == want.dtype == np.int32
        assert np.array_equal(got, want)
        del got, want
    with pytest.raises(NotClosed, match="^a map sends a point outside the "
                                        "domain$"):
        orbits.nonzero_perms([Word.of(Transvection(2, n, 0, 1))], ctx, n)


def test_nonzero_perms_memory_is_the_grid_permutations():
    # thm15 ii at p = 7: each word's grid permutation of int32 positions,
    # plus one map's images, and no restriction table or gathered copy
    n, words = thm15_words("ii")
    ctx = ff.make_field(7, 1)
    tracemalloc.start()
    try:
        perms = orbits.nonzero_perms(words, ctx, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(perms[0]) == 7**7 - 1
    assert peak <= (len(words) + 1) * 4 * 7**7 + 2**20


def test_grid_code_perms_reject_int32_overflow_before_allocating():
    def never(coords):
        raise AssertionError("map evaluated")
    for q, n in ((2**11, 3), (2, 31)):  # 2^33 and exactly 2^31 points
        with pytest.raises(BudgetExceeded, match="int32"):
            code_perms([never], q, n)


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


def test_components_of_identity_maps():
    # every point is its own root, and no edge is live after the first round
    x = np.arange(50)
    assert np.array_equal(components([x, x.copy()]), x)


@pytest.mark.parametrize("maps", [[np.zeros(40, dtype=np.int64)],
                                  [np.arange(40) ^ 1, np.arange(40) // 4 * 4]])
def test_components_done_after_the_first_round(maps):
    # a star into 0, and pairs hooked under the smallest point of each
    # block of four: each point's first hook already lands on its root
    assert np.array_equal(components(maps), _networkx_roots(maps, 40))


def test_components_of_random_permutation_are_its_cycles():
    # a random permutation has cycles of thousands of points, long paths
    # for any labelling scheme; cycle_lengths walks them by pointer doubling
    perm = np.random.default_rng(7).permutation(78124)
    roots = components([perm])
    assert np.array_equal(roots[perm], roots)
    assert (roots <= np.arange(perm.size)).all()
    reps, ids = component_ids(roots)
    sizes = np.bincount(ids)
    assert [(int(s), int(r)) for s, r in zip(sizes, reps) if s > 1] == \
        permgrp.cycle_lengths(perm)


def test_components_of_shuffled_paths():
    # two paths whose labels are shuffled, so each hooking round meets
    # roots in no particular order, plus one isolated point
    rng = np.random.default_rng(3)
    order = rng.permutation(3001)
    succ = np.arange(3001)
    for path in (order[:2000], order[2000:3000]):
        succ[path[:-1]] = path[1:]
    assert np.array_equal(components([succ]), _networkx_roots([succ], 3001))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_closure_of_permutations_is_the_orbit(n, count, seed):
    rng = np.random.default_rng(seed)
    maps = [rng.permutation(n) for _ in range(count)]
    roots = components(maps)
    for root in {0, n - 1, int(rng.integers(n))}:
        assert np.array_equal(orbits.closure(root, maps),
                              roots == roots[root])
    assert np.array_equal(orbits._orbit_roots(maps), roots)


def _components_sizes(monkeypatch):
    """Record the number of points of each components call in orbits."""
    sizes = []
    def recording(maps):
        sizes.append(len(maps[0]))
        return components(maps)
    monkeypatch.setattr(orbits, "components", recording)
    return sizes


def test_orbit_roots_seed_in_a_singleton(monkeypatch):
    # the last point is fixed: its closure is itself, so every point
    # goes through components
    rng = np.random.default_rng(5)
    g = np.append(rng.permutation(99), 99)
    sizes = _components_sizes(monkeypatch)
    assert np.array_equal(orbits.closure(99, [g]), np.arange(100) == 99)
    assert np.array_equal(orbits._orbit_roots([g]), components([g]))
    assert sizes[0] == 100


def test_orbit_roots_two_halves_take_the_fallback(monkeypatch):
    # two orbits of 50 points each: the seed's is no majority
    rng = np.random.default_rng(6)
    g = np.empty(100, dtype=np.int64)
    shuffled = rng.permutation(100)
    a, b = shuffled[:50], shuffled[50:]
    g[a] = np.roll(a, 1)
    g[b] = np.roll(b, 1)
    sizes = _components_sizes(monkeypatch)
    roots = orbits._orbit_roots([g])
    assert sizes == [100]
    assert np.array_equal(roots, _networkx_roots([g], 100))
    assert sorted(set(roots.tolist())) == sorted([a.min(), b.min()])


def test_orbit_roots_majority_goes_around_components(monkeypatch):
    # 51 of 100 points in the seed's orbit: components sees the other 49
    rng = np.random.default_rng(8)
    low = rng.permutation(99)
    big = np.append(low[:50], 99)
    g = np.arange(100)
    g[big] = np.roll(big, 1)
    g[low[50:]] = np.roll(low[50:], 3)
    sizes = _components_sizes(monkeypatch)
    assert np.array_equal(orbits._orbit_roots([g]),
                          _networkx_roots([g], 100))
    assert sizes == [49]


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


def _probe_machine(params, ell):
    ctx = ff.make_field(params.p, ell)
    return orbits._ProbeMachine(params, ctx, make_gamma_spec(params, ctx))


def test_first_coordinate_growth_from_zero_is_exhaustive():
    # every big-orbit point of F_49^3 with x1 = 0: no first move can grow
    # some of them, e.g. (0, 1, 7), and the letter a1 += a_j^(t_1j) lets
    # them go on; the returned word reaches the grown state
    params = GroupParams(7, 3, (1, 1, 3))
    machine = _probe_machine(params, 2)
    ctx = machine.ctx
    grown = 0
    for x2 in range(ctx.q):
        for x3 in range(ctx.q):
            pt = (0, x2, x3)
            if pt == (0, 0, 0) or compute_A0(pt, params, ctx)[0] != 2:
                continue
            state = [pt]
            machine.word = []
            machine._grow_first(0, state)
            assert machine._degN(state[0][0]) == 2, pt
            assert apply_word(Word(machine.word), pt, ctx) == state[0], pt
            grown += 1
    assert grown == 48**2


def test_probe_machine_runs_from_a_point_no_first_move_grows():
    params = GroupParams(7, 3, (1, 1, 3))
    machine = _probe_machine(params, 2)
    pt = (0, 1, 7)
    assert compute_A0(pt, params, machine.ctx)[0] == 2
    alphas = machine._fresh_generators(1, ())
    word, gammas = machine.run([pt], alphas)
    img = orbits._gamma_twists(pt, machine.spec)[gammas[0]]
    assert apply_word(word, img, machine.ctx) == (alphas[0], 0, 0)
    assert word.letters[0] == (Transvection(1, 2, params.tij(1, 2), 1), 1)
