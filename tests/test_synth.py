import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from tamexp import ff, synth
from tamexp.errors import (BadExponent, BudgetExceeded,
                           ClashingMinimalPolynomials, NotInvertible,
                           ValueOutsideSubfield)
from tamexp.synth import (GammaElem, GammaStructureReport, gamma_comm,
                          gamma_identity, gamma_inv, gamma_op, gamma_structure,
                          interpolate, p_elem, verify_gamma_commutator_formula,
                          y_elem)
from tamexp.tame import GroupParams, Transvection, Word, apply_word

from conftest import all_points


def test_gamma_op_examples():
    c, p = 2, 5
    ident = gamma_identity(c, p)
    g = GammaElem(c, p, (1, 2, 3), 4)
    assert gamma_op(ident, g) == g and gamma_op(g, ident) == g
    assert gamma_op(g, gamma_inv(g)) == ident
    # [P_0(1), y(1)] in Gamma_{2,F_5} is the polynomial 2x + 1
    comm = gamma_comm(p_elem(c, p, 0, 1), y_elem(c, p, 1))
    assert comm == GammaElem(c, p, (1, 2, 0), 0)
    # the translation subgroup is abelian: y(r) y(s) = y(r+s)
    assert gamma_op(y_elem(c, p, 2), y_elem(c, p, 4)) == y_elem(c, p, 1)


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["python", "python-O"])
def test_gamma_elem_wrong_length_raises_value_error(flags):
    # a subprocess, so that -O (which strips assert statements) is in force
    src = os.path.dirname(os.path.dirname(synth.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    script = "from tamexp.synth import GammaElem\nGammaElem(2, 5, (0, 0), 0)\n"
    res = subprocess.run([sys.executable, *flags, "-c", script],
                         capture_output=True, text=True, env=env)
    assert res.returncode != 0
    assert res.stderr.splitlines()[-1].startswith("ValueError:")


@pytest.mark.parametrize("c,p", [(c, p) for c in range(4) for p in (5, 7)])
def test_commutator_formula_exhaustive(c, p):
    assert verify_gamma_commutator_formula(c, p)


def test_gamma_structure_values():
    r = gamma_structure(2, 5)
    assert (r.order, r.nilpotency_class, r.center_order) == (625, 3, 5)
    assert r.center_is_Xc and r.generated_by_X0_Y
    r = gamma_structure(0, 3)
    assert (r.order, r.nilpotency_class) == (9, 1)
    r = gamma_structure(3, 5)
    assert r.nilpotency_class == 4
    # the budget is checked before anything is allocated
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            gamma_structure(6, 31)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


# -- oracles: Gamma_{c,F_p} as sets of GammaElem, through gamma_op ----------


def _right_closure(gens, seen, frontier):
    """Grow seen by everything right multiplication by gens reaches from
    frontier; returns seen."""
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = gamma_op(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def oracle_generated(c, p):
    """<X_0(1), y(1)> = Gamma, by a BFS under both generators and their
    inverses."""
    g1, g2 = p_elem(c, p, 0, 1), y_elem(c, p, 1)
    ident = gamma_identity(c, p)
    seen = _right_closure([g1, g2, gamma_inv(g1), gamma_inv(g2)], {ident},
                          [ident])
    return len(seen) == p ** (c + 2)


def oracle_center(c, p):
    """(center order, center = X_c) by a scan: (Q, b) commutes with every
    (x^v, 0) and with y(1)."""
    center = []
    for poly in itertools.product(range(p), repeat=c + 1):
        if synth._shift_poly(poly, 1, p) != poly:
            continue
        center.append((poly, 0))
        if c == 0:
            for b in range(1, p):
                center.append((poly, b))
    xc = {tuple([r] + [0] * c) for r in range(p)}
    if c == 0:
        return len(center), len(center) == p * p
    return len(center), ({pt for pt, b in center if b == 0} == xc
                         and all(b == 0 for _, b in center))


def oracle_class(c, p):
    """Nilpotency class from commutators: with gamma_k = <X>, gamma_{k+1}
    = [gamma_k, G] is the normal closure of the [x, s], x in X, s in a
    generating set S of G (Robinson, A Course in the Theory of Groups,
    5.1.7).  A normal closure is grown one generator at a time, queueing
    the S-conjugates of each generator it takes."""
    ident = gamma_identity(c, p)
    S = [p_elem(c, p, v, 1) for v in range(c + 1)] + [y_elem(c, p, 1)]
    X, k = S, 1
    while True:
        queue = [gamma_comm(x, s) for x in X for s in S]
        gens, H = [], {ident}
        while queue:
            x = queue.pop()
            if x in H:
                continue
            gens.append(x)
            _right_closure(gens, H, list(H))
            queue.extend(gamma_op(gamma_op(gamma_inv(s), x), s) for s in S)
        if len(H) == 1:
            return k
        X, k = gens, k + 1


GAMMA_CASES = [(c, p) for p in (2, 3, 5, 7) for c in range(15)
               if p ** (c + 2) <= 10**5]


@pytest.mark.parametrize("c, p", GAMMA_CASES)
def test_gamma_structure_matches_oracles(c, p):
    # p <= c included: there <X_0(1), y(1)> is proper and the center
    # exceeds X_c, e.g. (3, 3) and (9, 3)
    center_order, center_is_Xc = oracle_center(c, p)
    want = GammaStructureReport(c, p, p ** (c + 2), oracle_class(c, p),
                                center_order, center_is_Xc,
                                oracle_generated(c, p))
    assert gamma_structure(c, p) == want


def test_gamma_small_p_is_not_generated_and_center_exceeds_xc():
    assert (3, 3) in GAMMA_CASES
    for c, p, center_order in [(3, 3, 9), (9, 3, 81)]:
        r = gamma_structure(c, p)
        assert (r.nilpotency_class, r.center_order) == (3, center_order)
        assert not r.center_is_Xc and not r.generated_by_X0_Y


def test_gamma_structure_memory_bound():
    gamma_structure(2, 5)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        r = gamma_structure(5, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (r.order, r.nilpotency_class, r.center_order) == (7**7, 6, 7)
    assert r.center_is_Xc and r.generated_by_X0_Y
    assert peak <= 24 * r.order


def test_embedding_is_homomorphism():
    params = GroupParams(5, 3, (1, 1, 2))
    emb = synth.embed_gamma(1, 2, 3, 2, 1, params)
    F5 = ff.make_field(5, 1)
    assert synth.check_embedding_homomorphism(emb, 2, 5, F5, 3, pairs=60, seed=3)


def test_embedding_images():
    # y(s) image acts as a_2 += -s a_3; P_0(r) image is the tau letter
    params = GroupParams(5, 3, (1, 1, 2))
    emb = synth.embed_gamma(1, 2, 3, 1, 1, params)
    F5 = ff.make_field(5, 1)
    w = emb.elem_word(y_elem(1, 5, 2))
    for pt in all_points(5, 3):
        assert apply_word(w, pt, F5) == (pt[0], F5.sub(pt[1], F5.mul(2, pt[2])), pt[2])
    w = emb.elem_word(p_elem(1, 5, 0, 3))
    assert w == Word.of(Transvection(1, 2, 1, 3))


def test_embedded_center_is_central():
    # the image of P_c(r) commutes with the images of both letter families
    params = GroupParams(5, 3, (1, 1, 2))
    emb = synth.embed_gamma(1, 2, 3, 2, 1, params)
    F5 = ff.make_field(5, 1)
    center = emb.elem_word(p_elem(2, 5, 2, 3))
    for other in (emb.elem_word(p_elem(2, 5, 0, 1)),
                  emb.elem_word(y_elem(2, 5, 1))):
        uv = center + other
        vu = other + center
        for pt in all_points(5, 3):
            assert apply_word(uv, pt, F5) == apply_word(vu, pt, F5)


@pytest.mark.parametrize("p", [5, 7, 11])
@pytest.mark.parametrize("c", range(5))
def test_embedding_coefficients_solve_the_node_system(p, c):
    # marker letters spell v out of the word: y(t) x0(v_t) y(-t) for each
    # nonzero v_t, t >= 1, and x0(v_0) alone
    x0 = lambda r: Word.of(Transvection(1, 2, 0, r))
    y = lambda s: Word.of(Transvection(2, 3, 0, s))
    emb = synth.GammaWordEmbedding(p, c, x0, y)
    for ell in range(c + 1):
        v, t = [0] * (c + 1), 0
        for let, _ in emb.p_ell_word(ell, 1):
            if let.i == 1:
                v[t] = let.r
            elif t == 0:
                t = let.r
            else:
                assert let.r == (-t) % p
                t = 0
        # sum_t v_t (x + t)^c = x^(c - ell), coefficient by coefficient
        for u in range(c + 1):
            coeff = sum(v[t] * math.comb(c, u) * t ** (c - u)
                        for t in range(c + 1)) % p
            assert coeff == (u == c - ell)


def test_embed_gamma_requires_invertibility():
    params = GroupParams(3, 3, (1, 1, 2))
    with pytest.raises(NotInvertible):
        synth.embed_gamma(1, 2, 3, 3, 1, params)


def test_synth_single_letter():
    params = GroupParams(5, 3, (1, 1, 2))
    cert = synth.synth_transvection(1, 2, 1, 3, params)
    assert cert.word == Word.of(Transvection(1, 2, 1, 3))
    assert cert.verified and cert.mode == "exhaustive"
    assert cert.points_checked == 5**3


def test_synth_cubic_target():
    params = GroupParams(5, 3, (1, 1, 2))
    cert = synth.synth_transvection(1, 2, 3, 1, params)
    assert cert.verified
    # independent check on all 125 points of F_5^3
    F5 = ff.make_field(5, 1)
    for pt in all_points(5, 3):
        want = (F5.add(pt[0], F5.pow(pt[1], 3)),) + pt[1:]
        assert apply_word(cert.word, pt, F5) == want


def test_synth_bad_exponent_and_preconditions():
    params = GroupParams(23, 3, (2, 2, 2))
    with pytest.raises(BadExponent):
        synth.synth_transvection(1, 2, 3, 1, params)  # 3 != 2 mod 7
    with pytest.raises(BadExponent):
        synth.synth_transvection(1, 2, 1, 1, params)  # below t_ij
    with pytest.raises(NotInvertible):
        synth.synth_transvection(1, 2, 4, 1, GroupParams(2, 3, (2, 1, 1)))
    with pytest.raises(BadExponent):
        synth.synth_transvection(1, 2, 2, 1, GroupParams(5, 3, (1, 1, 1)))


def test_synth_step4_target_2_2_2():
    params = GroupParams(23, 3, (2, 2, 2))
    cert = synth.synth_transvection(1, 2, 9, 1, params)  # C_1 = e_1 + (E-1)
    assert cert.verified


def test_synth_poly_transvection():
    params = GroupParams(5, 3, (1, 1, 2))
    assert synth.synth_poly_transvection(1, 2, (), params).word == Word()
    cert = synth.synth_poly_transvection(1, 2, (3,), params)
    assert cert.word == synth.synth_transvection(1, 2, 1, 3, params).word
    cert = synth.synth_poly_transvection(1, 2, (1, 1), params)
    assert cert.verified
    F5 = ff.make_field(5, 1)
    for pt in all_points(5, 3):
        want = (F5.add(pt[0], F5.mul(pt[1], F5.add(1, pt[1]))),) + pt[1:]
        assert apply_word(cert.word, pt, F5) == want


def test_synth_commuting_targets():
    # words for the same (i, j) and different t commute as permutations
    params = GroupParams(5, 3, (1, 1, 2))
    F25 = ff.make_field(5, 2)
    w2 = synth.synth_transvection(1, 2, 2, 1, params).word
    w3 = synth.synth_transvection(1, 2, 3, 2, params).word
    import random
    rng = random.Random(0)
    for _ in range(200):
        pt = tuple(rng.randrange(25) for _ in range(3))
        assert apply_word(w2 + w3, pt, F25) == apply_word(w3 + w2, pt, F25)


def test_elementary_abelian_witness():
    params = GroupParams(5, 3, (1, 1, 2))
    words, order = synth.elementary_abelian_witness(params, 1)
    assert order == 5 and len(words) == 1
    words, order = synth.elementary_abelian_witness(params, 3)
    assert order == 125
    # pairwise commuting and of order p on a separating grid
    F25 = ff.make_field(5, 2)
    import random
    rng = random.Random(1)
    for _ in range(50):
        pt = tuple(rng.randrange(25) for _ in range(3))
        for a in words:
            for b in words:
                assert apply_word(a + b, pt, F25) == apply_word(b + a, pt, F25)
        for a in words:
            wp = Word(a.letters * 5)
            assert apply_word(wp, pt, F25) == pt


def test_interpolate_examples():
    F5 = ff.make_field(5, 1)
    f = interpolate([2], [3], F5)
    assert ff.poly_eval(f, 2, F5) == 3
    f = interpolate([1, 2], [3, 4], F5)
    assert ff.poly_eval(f, 1, F5) == 3
    assert ff.poly_eval(f, 2, F5) == 4
    F9 = ff.make_field(3, 2)
    t = F9.element((0, 1))
    f = interpolate([t, 2], [F9.add(t, 1), 0], F9)
    assert ff.poly_eval(f, t, F9) == F9.add(t, 1)
    assert ff.poly_eval(f, 2, F9) == 0
    assert all(c < 3 for c in f)  # coefficients in the prime field


def test_interpolate_lagrange_oracle():
    # over a prime field the Lagrange interpolant is unique for deg < k
    F7 = ff.make_field(7, 1)
    mus, nus = [1, 3, 5], [2, 0, 6]
    f = interpolate(mus, nus, F7)
    for mu, nu in zip(mus, nus):
        assert ff.poly_eval(f, mu, F7) == nu


def test_interpolate_errors():
    F9 = ff.make_field(3, 2)
    t = F9.element((0, 1))
    with pytest.raises(ClashingMinimalPolynomials):
        interpolate([t, F9.frobenius(t)], [1, 1], F9)
    with pytest.raises(ValueOutsideSubfield):
        interpolate([2], [t], F9)  # t not in F_3 = F_3(2)


@pytest.mark.parametrize("p, ell", [(2, 4), (3, 3), (5, 2)])
def test_single_node_interpolation_matches_brute_force(p, ell):
    # oracle: every value of F_p(mu) as sum c_t mu^t, c in F_p^d, by scan
    import itertools
    ctx = ff.make_field(p, ell)
    for mu in range(ctx.q):
        d = ctx.subfield_degree(mu)
        powers = [ctx.pow(mu, t) for t in range(d)]
        coords = {}
        for c in itertools.product(range(p), repeat=d):
            acc = 0
            for ct, pw in zip(c, powers):
                acc = ctx.add(acc, ctx.mul(ct, pw))
            coords[acc] = ff.poly_trim(c)
        assert len(coords) == p**d  # the powers are independent
        for _ in range(2):  # the second round reads the cached basis
            for nu in range(ctx.q):
                if nu in coords:
                    assert interpolate([mu], [nu], ctx) == coords[nu]
                else:
                    with pytest.raises(ValueOutsideSubfield):
                        interpolate([mu], [nu], ctx)


def test_value_outside_subfield_raises_on_every_call():
    # errors are not cached: the same node and value raise again, also
    # after a call with the same node succeeded
    F81 = ff.make_field(3, 4)
    mu = next(a for a in range(F81.q) if F81.subfield_degree(a) == 2)
    nu = next(a for a in range(F81.q) if F81.subfield_degree(a) == 4)
    for _ in range(3):
        with pytest.raises(ValueOutsideSubfield):
            interpolate([mu], [nu], F81)
        f = interpolate([mu], [F81.add(mu, 1)], F81)
        assert ff.poly_eval(f, mu, F81) == F81.add(mu, 1)
    with pytest.raises(ValueOutsideSubfield):
        interpolate([2], [nu], F81)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_shift_poly_matches_evaluation(p):
    # oracle: P(x + b) evaluated at every x against the shifted
    # coefficients, for random P of degree up to 4 and every b in F_p.  The
    # points x run over F_{p^3}, which holds F_p and has more than 4
    # elements, so agreement there is equality of polynomials.
    import random
    rng = random.Random(p)
    ctx = ff.make_field(p, 3)
    value = partial(ff.poly_eval, ctx=ctx)
    for _ in range(30):
        poly = tuple(rng.randrange(p) for _ in range(rng.randint(1, 5)))
        for b in range(p):
            for _ in range(2):  # the second call is served by the memo
                shifted = synth._shift_poly(poly, b, p)
                assert len(shifted) == len(poly)
                for x in range(ctx.q):
                    assert value(shifted, x) == value(poly, ctx.add(x, b))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_interpolate_random_instances(data):
    p, ell = data.draw(st.sampled_from([(3, 2), (5, 2), (3, 3)]))
    ctx = ff.make_field(p, ell)
    k = data.draw(st.integers(1, 3))
    mus, keys = [], set()
    tries = 0
    while len(mus) < k and tries < 50:
        tries += 1
        mu = data.draw(st.integers(0, ctx.q - 1))
        key = ff.minimal_polynomial(ctx, mu)
        if key in keys:
            continue
        keys.add(key)
        mus.append(mu)
    nus = []
    for mu in mus:
        d = ctx.subfield_degree(mu)
        acc, power = 0, 1
        for _ in range(d):
            acc = ctx.add(acc, ctx.mul(data.draw(st.integers(0, p - 1)), power))
            power = ctx.mul(power, mu)
        nus.append(acc)
    f = interpolate(mus, nus, ctx)
    assert all(c < p for c in f)
    for mu, nu in zip(mus, nus):
        assert ff.poly_eval(f, mu, ctx) == nu


def test_embedded_beta_letter_closed_forms():
    # each P_ell image of an embedding acts as its closed-form beta letter
    params = GroupParams(5, 3, (1, 1, 2))
    F5 = ff.make_field(5, 1)
    emb = synth.embed_gamma(1, 2, 3, 2, 1, params)
    for ell in (0, 1, 2):
        for r in (1, 3):
            w = emb.p_ell_word(ell, r)
            letter = synth.embedded_beta_letter(1, 2, 3, 2, 1, ell, r)
            for pt in all_points(5, 3):
                assert apply_word(w, pt, F5) == \
                    apply_word(Word.of(letter), pt, F5), (ell, r, pt)


# sha256 prefixes (16 hex digits) of alpha_word(i, j, m, r).text(), in the
# order of ordered pairs i != j, then m in (0, 1, 2), then r in (1, 2): any
# change to how the derived-transvection words are built shows here.
GOLDEN_WORDS = {
    (5, (1, 1, 2)): """
        63c3b61017f858b2 b9b5f99530c37b29 d7a2de38e48c7938 4fbbcb0f9eaf6340
        77804bba01c2c844 26eab0b7ed4e8f23 03abed7ae59c5675 bab1a918feecd4fb
        7b981122b6390509 0300e4623c19dcfa ed07295bcdcc7a55 c97aa478769d55b7
        dfbed8e29e66e5eb 8735ad8c88e929c8 493e8e3950dd74f4 1e9bff2884096bc1
        146218f3849ff066 15e7141e83682dec 688046b99eec789d 80731b49b5709d01
        f965aa6b11389f38 e3e579fc426cf6ee 08dcd97d727d8447 daf639b423154b66
        95f9c3c3a1066af8 380acfc34ad6a351 cb134a797c287ec0 19c5759ee8c8211f
        6381c897af60b881 f8289072eeb0731f 11f3dd6f7504fead 1ce85f8102a2f530
        b2fecac6b0009491 f08b1adeda542b54 c8eae6b74a01b072 ad725e590006917c""",
    (23, (2, 2, 2)): """
        e508fe3ccaebb39e dd7106e20bbd08db 8a01138aad70840e 422c29bbb2c68845
        8e6ffc6c70ce067a 5f42946d46fff460 7b7388d15ef692f4 2d090284f43850a8
        4c5adc838dfd34c3 a2d4833f6526db1b 5e0a57b81c52b73a c15bccfe5ee45358
        817e82bab083d027 65bfb6361ffbe501 e3f7ad3acce54ec7 8f2e03372a6a8103
        d05b63fca7e7dd33 717a7359c4a13ccb 472e389cfedb0b36 0940acc97a5fb251
        59a9a131196a52ad 4d9eab0d0e71364d a889fe246b079dfd 5dbe24fb58dbc04a
        95f9c3c3a1066af8 380acfc34ad6a351 5289ed0a584650bf 3171934e0de9890c
        e7ff97eee97e2072 bdc8d4a712f0cb75 0aa2f3d20cf80961 4f85c880a28e821d
        eebd5625bcfa58b5 de2d77774f40f58b 9ccb7f125b743da4 b07b261fe3c04549""",
    (7, (1, 2, 2)): """
        63c3b61017f858b2 b9b5f99530c37b29 fe4a32c10f2853b2 9f09be868aed9912
        6a252920934daf2e 67d707d8bc87fe5f 1735c9d4ed3eeea9 33f1f5087c0053bf
        ebdf760d95d7372a 78c31895a5728bca ab4564a80041f406 63046caeba56f7cd
        07283d995f131047 188fececa874d9b8 a1e2802186b27a2e cfdf76226ac57853
        7abf0ff7382acd52 13e28337df1b1fe5 472e389cfedb0b36 0940acc97a5fb251
        331c22f652ff43de 2454bd7e7ff6172f 5f01b8bcec333cbe f0e1854c9693c016
        95f9c3c3a1066af8 380acfc34ad6a351 af212980cbd38aaf bb2449320af7434e
        d0132f0944396f26 2f2b9fa1f6420e83 cda5c6650f01a047 b6430c6cf1fa676c
        e16e3e1cde87f19d 7150062ab8baadeb f8a0ff06fcf5c2cd 63a16fa439e1d3e8""",
    (11, (2, 1, 2)): """
        e508fe3ccaebb39e dd7106e20bbd08db fa292827b761ec99 4d42259c7a7ffe7f
        dc965cf627660d5b aabd2ab5fc455ac4 ad7204470949b19b d2b972e4a4454e94
        36c7a12cceb46eb3 9ea1787de8df4098 9aa01704f83d8bf2 b135ef81bddbcfc1
        449e5e96c2abe64b f05ab7cdccdc17f2 d47c52f38c87a151 c4befda7d6101cf1
        89024d5cff6981d6 4787a00287fd7ecb 688046b99eec789d 80731b49b5709d01
        84d7c5d1ff5d8d92 c2ad20cc24f4e7b5 02e3d29e87ba1bfe 3d385d27038a03dd
        95f9c3c3a1066af8 380acfc34ad6a351 d98467bd43f3b735 1c006f341469f914
        907d52880bf8b435 4837bb1e31e22946 6bd07f89c272987d 0c6da819dbba40e3
        37fde6910fea1e24 24bfb8479b4a5e2f 453c25960157f3e5 64d66fc51c43fecb""",
    (11, (1, 1, 3)): """
        63c3b61017f858b2 b9b5f99530c37b29 486d89cb33680e22 2ad2157669452e62
        8ec2893922bf384d 3acd220420a86b06 81584fc115e134fb 73f0f11db1fe5d8a
        6f4a128f24dc09e0 e5b0f571eac921ce 85c5581e1d3bfce5 4e09370b67654d3a
        49d7b119dc860188 7ca45dd343eb26f3 37dae717e0b3086f 050ba10f3bb3a6c9
        26d7c98399eec219 16ac1141e20e2f51 688046b99eec789d 80731b49b5709d01
        e176a65c7de70a8a aec942009ece4198 eb71283640e97fe2 22f6680d09ec51fe
        ce9df90fd4ea1998 6ce1b42a25c35d6e f3b95eac9bc7f859 5e11dbce3803ecca
        918088f650557530 1f5ee54e9d15b16a f875551f66841fdd 29a875c4ac12e08b
        317eec85475c9a77 4cb46252c35039e3 e68d5b353b295675 46b29ee923f545cb""",
}


@pytest.mark.parametrize("p,e", list(GOLDEN_WORDS))
def test_golden_alpha_words(p, e):
    import hashlib
    import itertools
    s = synth.TransvectionSynthesizer(GroupParams(p, 3, e))
    got = [hashlib.sha256(s.alpha_word(i, j, m, r).text().encode())
           .hexdigest()[:16]
           for i, j in itertools.permutations((1, 2, 3), 2)
           for m in (0, 1, 2) for r in (1, 2)]
    assert got == GOLDEN_WORDS[p, e].split()


def test_step5_family_closed_form():
    # beta5 word for (2,2,2): adds r * a_3 * a_2^(e_1 - E/e_2 + E - 1)
    params = GroupParams(23, 3, (2, 2, 2))
    F23 = ff.make_field(23, 1)
    s = synth.TransvectionSynthesizer(params)
    w = s._word(("beta5", 1), 7)
    kexp = 2 - 4 + 7  # e_1 - E/e_2 + (E-1) = 5
    import random
    rng = random.Random(2)
    for _ in range(400):
        pt = tuple(rng.randrange(23) for _ in range(3))
        delta = F23.mul(7, F23.mul(pt[2], F23.pow(pt[1], kexp)))
        assert apply_word(w, pt, F23) == (F23.add(pt[0], delta),) + pt[1:]


@pytest.mark.parametrize("p,e", [(7, (1, 2, 2)), (11, (2, 1, 2))])
def test_synth_other_exponent_shapes(p, e):
    import itertools
    params = GroupParams(p, 3, e)
    s = synth.TransvectionSynthesizer(params)
    E = params.E
    for i, j in itertools.permutations((1, 2, 3), 2):
        tij = params.tij(i, j)
        for m in (0, 1):
            cert = synth.synth_transvection(i, j, tij + m * (E - 1), 2,
                                            params, synthesizer=s)
            assert cert.verified, (i, j, m)
