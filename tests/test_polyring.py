import pytest
from hypothesis import given, settings, strategies as st

from tamexp import ff, polyring
from tamexp.errors import DegreeOverflow
from tamexp.polyring import MultiPoly, evaluate, grading_degree, is_graded
from tamexp.tame import (GroupParams, Transvection, Word, letter_endo,
                         word_to_endo)

from conftest import all_points


def test_evaluate_examples():
    F5 = ff.make_field(5, 1)
    f = MultiPoly(F5, 3, {(1, 0, 0): 1, (0, 2, 0): 1})  # x1 + x2^2
    assert evaluate(f, (1, 2, 3)) == 0  # 1 + 4 = 5 = 0
    c = MultiPoly.constant(F5, 3, 4)
    assert evaluate(c, (2, 0, 1)) == 4
    F7 = ff.make_field(7, 1)
    g = MultiPoly(F7, 3, {(1, 1, 1): 1})
    assert evaluate(g, (2, 3, 4)) == 24 % 7


def test_compose_identity():
    F5 = ff.make_field(5, 1)
    ident = word_to_endo(Word(), F5, 3)
    assert ident.images == [MultiPoly.variable(F5, 3, k) for k in (1, 2, 3)]
    assert word_to_endo(Word() + Word(), F5, 3) == ident


def test_compose_transvection_squares():
    # x1 -> x1 + x2^2 composed with itself gives x1 -> x1 + 2 x2^2
    F5 = ff.make_field(5, 1)
    t = Transvection(1, 2, 2, 1)
    tt = word_to_endo(Word.of(t, t), F5, 3)
    want = letter_endo(Transvection(1, 2, 2, 2), 1, F5, 3)
    assert tt == want


def test_compose_matches_pointwise_evaluation():
    F3 = ff.make_field(3, 1)
    tf, tg = Transvection(1, 2, 2, 1), Transvection(2, 3, 1, 2)
    f, g = letter_endo(tf, 1, F3, 3), letter_endo(tg, 1, F3, 3)
    fg = word_to_endo(Word.of(tg, tf), F3, 3)  # g acts first
    for a in all_points(3, 3):
        assert fg.evaluate(a) == f.evaluate(g.evaluate(a))


def test_commutator_closed_form():
    # beta/alpha commutator pattern: x_i picks up r x_k^n ((x_j + s x_k^d)^m - x_j^m)
    F5 = ff.make_field(5, 1)
    m, nexp, d, r, s = 2, 1, 1, 2, 3
    from tamexp.tame import BiTransvection
    beta = Word.of(BiTransvection(1, 2, 3, m, nexp, r))
    alpha = Word.of(Transvection(2, 3, d, s))
    word = beta.inverse() + alpha.inverse() + beta + alpha
    endo = word_to_endo(word, F5, 3)
    x2 = MultiPoly.variable(F5, 3, 2)
    x3 = MultiPoly.variable(F5, 3, 3)
    shifted = (x2 + x3.power(d).scaled(F5.neg(s))).power(m) - x2.power(m)
    want_img = MultiPoly.variable(F5, 3, 1) + (x3.power(nexp) * shifted).scaled(r)
    assert endo.images[0] == want_img
    assert endo.images[1] == x2 and endo.images[2] == x3


def test_degree_overflow_guard():
    F3 = ff.make_field(3, 1)
    big = MultiPoly(F3, 2, {(i, 0): 1 for i in range(1, 1100)})
    with pytest.raises(DegreeOverflow):
        _ = big * MultiPoly(F3, 2, {(0, j): 1 for j in range(1, 1100)})


def test_sum_past_the_term_cap_overflows(monkeypatch):
    F3 = ff.make_field(3, 1)
    x = [MultiPoly.variable(F3, 3, k) for k in (1, 2, 3)]
    monkeypatch.setattr(polyring, "TERM_CAP", 3)
    assert len((x[0] + x[1] + x[2]).terms) == 3
    with pytest.raises(DegreeOverflow):
        _ = x[0] + x[1] + x[2] + MultiPoly.constant(F3, 3, 1)


def test_grading_spec_values():
    spec = GroupParams(23, 3, (2, 2, 2))
    assert spec.E == 8 and spec.N == 7
    assert spec.deg == (1, 4, 2)  # 8 mod 7, 4, 2
    assert grading_degree((1, 1, 0), spec) == 5
    assert grading_degree((0, 0, 0), GroupParams(23, 3, (1, 1, 2))) == 0
    # N = 1 is the trivial grading
    assert grading_degree((3, 1, 4), GroupParams(23, 3, (1, 1, 2))) == 0


def test_is_graded_examples():
    F23 = ff.make_field(23, 1)
    spec = GroupParams(23, 3, (2, 2, 2))
    tau1 = letter_endo(Transvection(1, 2, 2, 1), 1, F23, 3)
    assert is_graded(tau1, spec)
    bad = letter_endo(Transvection(1, 2, 1, 1), 1, F23, 3)  # x1 -> x1 + x2
    assert not is_graded(bad, spec)
    assert is_graded(word_to_endo(Word(), F23, 3), spec)


def test_graded_closed_under_composition():
    F23 = ff.make_field(23, 1)
    spec = GroupParams(23, 3, (2, 2, 2))
    f, g = Transvection(1, 2, 2, 1), Transvection(2, 3, 2, 5)
    assert is_graded(word_to_endo(Word.of(g, f), F23, 3), spec)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=3, max_size=3),
       st.lists(st.integers(0, 4), min_size=3, max_size=3))
def test_grading_degree_additive_on_products(m1, m2):
    spec = GroupParams(23, 3, (2, 2, 2))
    total = tuple(a + b for a, b in zip(m1, m2))
    assert grading_degree(total, spec) == \
        (grading_degree(tuple(m1), spec) + grading_degree(tuple(m2), spec)) % spec.N


@pytest.mark.parametrize("p, ell", [(5, 1), (3, 2)])
def test_power_matches_repeated_products(p, ell):
    F = ff.make_field(p, ell)
    f = MultiPoly(F, 3, {(1, 0, 0): 1, (0, 2, 1): 2, (0, 0, 0): 3})
    want = MultiPoly.constant(F, 3, 1)
    for e in range(7):
        got = f.power(e)
        assert got == want and got.text() == want.text()
        want = want * f
