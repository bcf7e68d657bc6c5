import hashlib
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tamexp import ff, polyring, synth
from tamexp.errors import DegreeOverflow, DimensionMismatch
from tamexp.tame import (BiTransvection, CoordCycle, GroupParams,
                         PolyTransvection, Transvection, Word, apply_letter,
                         apply_word, apply_word_arrays, grid_coords,
                         parse_word, poly_transvection_letter, same_action,
                         sample_coords, standard_generators, tau,
                         word_to_endo)

from conftest import all_points


F5 = ff.make_field(5, 1)
F3 = ff.make_field(3, 1)
F9 = ff.make_field(3, 2)


def test_apply_letter_examples():
    assert apply_letter(Transvection(1, 2, 2, 1), 1, (1, 2, 3), F5) == (0, 2, 3)
    # r = 0 is the identity on every point
    for pt in all_points(3, 3):
        assert apply_letter(Transvection(1, 2, 2, 0), 1, pt, F3) == pt
    # sign -1 undoes sign +1
    let = BiTransvection(1, 2, 3, 1, 2, 4)
    pt = (2, 3, 4)
    assert apply_letter(let, -1, apply_letter(let, 1, pt, F5), F5) == pt


def test_thm15_letter_actions():
    # sigma(x,y,z) = (y,z,x); alpha, beta add y and y^2 to x
    assert apply_letter(CoordCycle(), 1, (1, 2, 3), F5) == (2, 3, 1)
    assert apply_letter(Transvection(1, 2, 1, 1), 1, (1, 2, 3), F5) == (3, 2, 3)
    assert apply_letter(Transvection(1, 2, 2, 1), 1, (1, 2, 3), F5) == (0, 2, 3)


def test_apply_word_empty_and_concat():
    w = Word()
    assert apply_word(w, (1, 2, 3), F5) == (1, 2, 3)
    u = Word.of(Transvection(1, 2, 1, 1))
    v = Word.of(Transvection(2, 3, 2, 2))
    for pt in all_points(3, 3):
        assert apply_word(u + v, pt, F3) == apply_word(v, apply_word(u, pt, F3), F3)


def test_word_inverse_fixes_everything():
    rng = random.Random(1)
    letters = []
    for _ in range(12):
        i, j = rng.sample([1, 2, 3], 2)
        letters.append((Transvection(i, j, rng.randrange(3), rng.randrange(1, 3)),
                        rng.choice([1, -1])))
    w = Word(letters)
    wi = w + w.inverse()
    for pt in all_points(3, 3):
        assert apply_word(wi, pt, F3) == pt


def test_origin_fixed_by_every_word():
    w = Word.of(Transvection(1, 2, 2, 1), BiTransvection(2, 1, 3, 1, 1, 2),
                CoordCycle())
    assert apply_word(w, (0, 0, 0), F5) == (0, 0, 0)


def test_word_to_endo_matches_action():
    rng = random.Random(7)
    letters = []
    for _ in range(10):
        i, j = rng.sample([1, 2, 3], 2)
        letters.append((Transvection(i, j, rng.randrange(3), rng.randrange(1, 3)),
                        rng.choice([1, -1])))
    w = Word(letters)
    endo = word_to_endo(w, F3, 3)
    for pt in all_points(3, 3):
        assert endo.evaluate(pt) == apply_word(w, pt, F3)


def test_single_letter_endo():
    endo = word_to_endo(Word.of(Transvection(1, 2, 2, 1)), F5, 3)
    assert endo.images[0].terms == {(1, 0, 0): 1, (0, 2, 0): 1}


def test_standard_generators_shape():
    params = GroupParams(5, 3, (1, 1, 2))
    gens = standard_generators(params)
    assert gens == [Word.of(Transvection(1, 2, 1, 1)),
                    Word.of(Transvection(2, 3, 1, 1)),
                    Word.of(Transvection(3, 1, 2, 1))]
    assert tau(params, 3, 2) == Transvection(3, 1, 2, 2)


def test_tij_cyclic_products():
    params = GroupParams(23, 3, (2, 2, 2))
    assert params.tij(1, 2) == 2
    assert params.tij(1, 3) == 4
    assert params.tij(3, 2) == 4  # e_3 * e_1 = E / e_2
    assert params.E == 8


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 6).flatmap(
    lambda n: st.lists(st.integers(1, 4), min_size=n, max_size=n)))
def test_tij_and_d_match_explicit_products(e):
    n = len(e)
    params = GroupParams(23, n, e)
    assert params.d == tuple(math.prod(e[i:]) for i in range(n))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                # e_i * ... * e_{j-1}, read cyclically from position i
                cyclic = (e + e)[i - 1:(j if j > i else j + n) - 1]
                assert params.tij(i, j) == math.prod(cyclic)


def test_commutation_relations_disjoint_patterns():
    # letters sharing no moved/read pattern commute as permutations
    cases = [
        (Transvection(1, 2, 1, 1), Transvection(3, 2, 2, 2)),  # same source
        (Transvection(1, 2, 1, 1), Transvection(1, 3, 2, 2)),  # same target
        (Transvection(1, 2, 1, 1), Transvection(3, 1, 1, 1)),  # chain i<-j, j'<-i?
    ]
    for p, pts in ((3, all_points(3, 3)), (5, all_points(5, 3))):
        F = ff.make_field(p, 1)
        for a, b in cases[:2]:
            w1 = Word.of(a, b)
            w2 = Word.of(b, a)
            for pt in pts:
                assert apply_word(w1, pt, F) == apply_word(w2, pt, F)


def test_generator_order_p():
    for p in (3, 5):
        F = ff.make_field(p, 1)
        params = GroupParams(p, 3, (1, 1, 2))
        for i in (1, 2, 3):
            w = Word(Word.of(tau(params, i, 1)).letters * p)
            for pt in all_points(p, 3):
                assert apply_word(w, pt, F) == pt


def test_linear_case_is_matrix_action():
    # e = (1,...,1): generators act linearly like 1 + E_{i+1,i} patterns
    params = GroupParams(3, 3, (1, 1, 1))
    endo = word_to_endo(Word.of(tau(params, 1, 1)), F3, 3)
    assert endo.images[0].terms == {(1, 0, 0): 1, (0, 1, 0): 1}
    assert endo.images[1].terms == {(0, 1, 0): 1}


def test_text_roundtrip():
    params = GroupParams(5, 3, (1, 1, 2))
    w = Word([(Transvection(1, 2, 2, 3), -1),
              (BiTransvection(2, 1, 3, 1, 2, 4), 1),
              (poly_transvection_letter(params, 1, 2, (1, 0, 2)), 1),
              (CoordCycle(), -1)])
    assert parse_word(w.text(), params) == w
    assert w.text() == "T(1,2,2,3)^-1 B(2,1,3,1,2,4) P(1,2,[1,0,2]) S^-1"
    with pytest.raises(ValueError):
        parse_word("X(1,2)")
    with pytest.raises(ValueError):
        parse_word("P(1,2,[1])")  # needs params


def test_poly_transvection_action():
    params = GroupParams(5, 3, (1, 1, 2))
    let = poly_transvection_letter(params, 1, 2, (1, 1))  # x1 += x2*(1 + x2)
    assert let.t == 1 and let.nexp == 1
    for pt in all_points(5, 3):
        a1 = F5.add(pt[0], F5.mul(pt[1], F5.add(1, pt[1])))
        assert apply_letter(let, 1, pt, F5) == (a1,) + pt[1:]


def test_bulk_matches_scalar():
    params = GroupParams(5, 3, (1, 1, 2))
    w = Word([(tau(params, 1, 2), 1), (tau(params, 3, 1), -1),
              (poly_transvection_letter(params, 2, 3, (0, 1)), 1),
              (CoordCycle(), 1)])
    codes = np.arange(125, dtype=np.int64)
    coords = [codes % 5, (codes // 5) % 5, codes // 25]
    out = apply_word_arrays(w, coords, F5)
    for code in range(125):
        pt = (code % 5, (code // 5) % 5, code // 25)
        want = apply_word(w, pt, F5)
        assert tuple(int(c[code]) for c in out) == want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 124), st.integers(0, 124))
def test_word_action_is_group_action(c1, c2):
    params = GroupParams(5, 3, (1, 1, 2))
    u = Word.of(tau(params, 1 + c1 % 3, 1 + c1 % 4))
    v = Word.of(tau(params, 1 + c2 % 3, 1 + c2 % 4))
    pt = (c1 % 5, (c1 // 5) % 5, c2 % 5)
    assert apply_word(u + v, pt, F5) == apply_word(v, apply_word(u, pt, F5), F5)


def test_commutation_fully_disjoint_indices():
    # with n = 4 there is room for completely disjoint index patterns
    params4 = GroupParams(3, 4, (1, 1, 1, 2))
    F3n = ff.make_field(3, 1)
    a = Transvection(1, 2, 1, 1)
    b = Transvection(3, 4, 2, 2)
    pts = all_points(3, 4)
    for pt in pts:
        assert apply_word(Word.of(a, b), pt, F3n) == \
            apply_word(Word.of(b, a), pt, F3n)


# Each row: a letter and, by hand, the coordinate i (0-based) its +1 action
# changes and the value it adds there, from F.add/mul/pow alone.
LETTER_FORMULAS = {
    "T(1,2,2,1)": (Transvection(1, 2, 2, 1), lambda a, F: (0, F.pow(a[1], 2))),
    "T(3,1,5,2)": (Transvection(3, 1, 5, 2),
                   lambda a, F: (2, F.mul(2, F.pow(a[0], 5)))),
    "T(2,3,0,2)-constant": (Transvection(2, 3, 0, 2), lambda a, F: (1, 2)),
    "T(1,2,1,3)-r-zero": (Transvection(1, 2, 1, 3), lambda a, F: (0, 0)),
    "B(1,2,3,1,2,2)": (BiTransvection(1, 2, 3, 1, 2, 2),
                       lambda a, F: (0, F.mul(2, F.mul(a[1], F.pow(a[2], 2))))),
    "B(2,1,3,0,1,1)-c-zero": (BiTransvection(2, 1, 3, 0, 1, 1),
                              lambda a, F: (1, a[2])),
    "B(3,1,2,2,0,1)-d-zero": (BiTransvection(3, 1, 2, 2, 0, 1),
                              lambda a, F: (2, F.pow(a[0], 2))),
    # x1 += x2 * (2 + 0 * x2^2 + x2^4)
    "P(1,2,[2,0,1])-zero-coefficient": (
        PolyTransvection(1, 2, (2, 0, 1), 1, 2),
        lambda a, F: (0, F.mul(a[1], F.add(2, F.pow(a[1], 4))))),
    # E - 1 = 0: x3 += x2^2 * (1 + 1)
    "P(3,2,[1,1])-E-one": (PolyTransvection(3, 2, (1, 1), 2, 0),
                           lambda a, F: (2, F.mul(F.pow(a[1], 2), 2))),
}


def _expected_image(formula, sign, pt, F):
    if formula is None:  # CoordCycle
        return pt[1:] + pt[:1] if sign > 0 else pt[-1:] + pt[:-1]
    i, d = formula(pt, F)
    if sign < 0:
        d = F.mul(F.p - 1, d)  # index p - 1 is -1
    return pt[:i] + (F.add(pt[i], d),) + pt[i + 1:]


@pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
@pytest.mark.parametrize("name", list(LETTER_FORMULAS) + ["S"])
def test_letter_actions_match_hand_formulas(name, sign):
    letter, formula = LETTER_FORMULAS.get(name, (CoordCycle(), None))
    pts = all_points(F9.q, 3)
    want = [_expected_image(formula, sign, pt, F9) for pt in pts]
    word = Word([(letter, sign)])
    assert [apply_letter(letter, sign, pt, F9) for pt in pts] == want
    coords = [np.array([pt[k] for pt in pts]) for k in range(3)]
    got = apply_word_arrays(word, coords, F9)
    assert list(zip(*(c.tolist() for c in got))) == want
    endo = word_to_endo(word, F9, 3)
    assert [endo.evaluate(pt) for pt in pts] == want


@pytest.mark.parametrize("letter", [
    Transvection(1, 4, 1, 1), Transvection(4, 1, 1, 1),
    BiTransvection(1, 2, 4, 1, 1, 1), PolyTransvection(4, 1, (1, 1), 1, 2)],
    ids=["T-source", "T-target", "B", "P"])
def test_index_beyond_dimension_is_dimension_mismatch(letter):
    coords = [np.arange(9)] * 3
    with pytest.raises(DimensionMismatch):
        apply_letter(letter, 1, (1, 2, 3), F9)
    with pytest.raises(DimensionMismatch):
        apply_word_arrays(Word.of(letter), coords, F9)
    with pytest.raises(DimensionMismatch):
        word_to_endo(Word.of(letter), F9, 3)


@pytest.mark.parametrize("make", [
    lambda: Transvection(0, 2, 1, 1), lambda: BiTransvection(1, 0, 3, 1, 1, 1),
    lambda: PolyTransvection(1, 0, (1,), 1, 1),
    lambda: parse_word("T(0,2,1,1)")], ids=["T", "B", "P", "parse_word"])
def test_index_zero_is_rejected_at_construction(make):
    with pytest.raises(ValueError):
        make()


def test_sample_coords_draws_points_in_order():
    coords = sample_coords(random.Random(4), 9, 3, 50)
    rng = random.Random(4)
    want = [tuple(rng.randrange(9) for _ in range(3)) for _ in range(50)]
    assert [tuple(int(c[k]) for c in coords) for k in range(50)] == want


def test_same_action_agrees_with_the_point_action():
    # T(1,2,1,1) fixes exactly the points with a_2 = 0
    u, v = Word.of(Transvection(1, 2, 1, 1)), Word()
    pts = all_points(5, 3)
    fixed = [pt for pt in pts if apply_word(u, pt, F5) == pt]
    assert fixed == [pt for pt in pts if pt[1] == 0]
    as_coords = lambda pts: [np.array(c) for c in zip(*pts)]
    assert same_action(u, v, as_coords(fixed), F5)
    assert not same_action(u, v, as_coords(fixed + [(0, 1, 0)]), F5)
    assert same_action(u + u.inverse(), v, as_coords(pts), F5)


def test_grid_coords_position_is_code():
    grid = grid_coords(5, 3)
    codes = sum(a * 5**k for k, a in enumerate(grid))
    assert np.array_equal(codes.ravel(), np.arange(5**3))
    assert [a.shape for a in grid] == [(5,), (5, 1), (5, 1, 1)]


def test_same_action_on_the_grid_broadcasts_untouched_coordinates():
    grid = grid_coords(5, 3)
    u = Word.of(Transvection(1, 2, 1, 1))
    images = apply_word_arrays(u + u.inverse(), grid, F5)
    # coordinate 1 now reads coordinate 2; the others keep their shapes
    assert [a.shape for a in images] == [(5, 5), (5, 1), (5, 1, 1)]
    assert same_action(Word(), u + u.inverse(), grid, F5)
    assert not same_action(Word(), u, grid, F5)
    assert not same_action(u, u.inverse(), grid, F5)


# sha256 prefixes of the image texts of word_to_endo(alpha_word(i, j, m, 1))
# over F_p, for i != j in permutation order and m in (0, 1)
GOLDEN_ENDOS = {
    (5, (1, 1, 2)): """
        669b1ae42ef15dc3 0e3647ba7a9cf5ba a857dd51bb733753 c342ef37c1f0151f
        bcd2fe4c5e180d01 7d53e5370885ea33 2e8b553f2db20b7d ec86a8d5ce3e349e
        64ce1557ce323ee5 ee75f64cb2103633 056961a9797c2cdf bcb9d4aac8f595fe""",
    (7, (1, 2, 2)): """
        669b1ae42ef15dc3 2e037861e4b70632 c342ef37c1f0151f 07a6fc1cfb5aa383
        4ec864105cdcc2b1 60361dee0c65993b ec86a8d5ce3e349e a961b9b3acd0246a
        64ce1557ce323ee5 3dd03d1e405c18ee 056961a9797c2cdf e34a9e56dad261da""",
    (11, (1, 1, 3)): """
        669b1ae42ef15dc3 ade6e039a6a5f2ea a857dd51bb733753 e33e5ae74a116243
        7d53e5370885ea33 e1547b70842dacd0 2e8b553f2db20b7d 0007e0e8d76e1259
        ee75f64cb2103633 3dd03d1e405c18ee bcb9d4aac8f595fe e34a9e56dad261da""",
    (23, (2, 2, 2)): """
        0e3647ba7a9cf5ba 30dc03ffa8cd03ff 7795c30c53ff9d8f 47ea7d74d2809cb0
        4ec864105cdcc2b1 1343521b54af73fc ec86a8d5ce3e349e 78a9661297144580
        64ce1557ce323ee5 be7a2568a1c0a385 2df9d4e6bfd4cfb6 e0946322711503be""",
}


@pytest.mark.parametrize("p,e", list(GOLDEN_ENDOS))
def test_golden_alpha_word_endos(p, e):
    s = synth.TransvectionSynthesizer(GroupParams(p, 3, e))
    ctx = ff.make_field(p, 1)
    got = []
    for i, j in itertools.permutations((1, 2, 3), 2):
        for m in (0, 1):
            endo = word_to_endo(s.alpha_word(i, j, m, 1), ctx, 3)
            text = "\n".join(f.text() for f in endo.images)
            got.append(hashlib.sha256(text.encode()).hexdigest()[:16])
    assert got == GOLDEN_ENDOS[p, e].split()


def test_word_to_endo_respects_the_term_cap(monkeypatch):
    # the 238-letter word ends at 1-2 terms per image, but its prefixes
    # pass through images of up to 28 terms
    word = synth.TransvectionSynthesizer(
        GroupParams(23, 3, (2, 2, 2))).alpha_word(1, 3, 1, 1)
    F23 = ff.make_field(23, 1)
    assert max(len(f.terms) for f in word_to_endo(word, F23, 3).images) <= 2
    monkeypatch.setattr(polyring, "TERM_CAP", 4)
    with pytest.raises(DegreeOverflow):
        word_to_endo(word, F23, 3)
