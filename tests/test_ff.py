"""Field arithmetic tests.

Derived expectations are computed by independent oracles inside the test
(brute-force scans, direct arithmetic), never by the code paths they check.
"""

import math
import random

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from tamexp import ff
from tamexp.errors import BoundViolated, DegreeZero, FieldTooLarge, NonPrime


def brute_force_irreducibles(p, ell):
    """Oracle: all monic irreducibles of degree ell by trial factorization."""
    def all_monic(d):
        for idx in range(p**d):
            c, t = [], idx
            for _ in range(d):
                c.append(t % p)
                t //= p
            yield tuple(c) + (1,)

    irr = []
    for f in all_monic(ell):
        reducible = False
        for d in range(1, ell // 2 + 1):
            for g in all_monic(d):
                if ff.poly_mod(f, g, p) == ():
                    reducible = True
                    break
            if reducible:
                break
        if not reducible:
            irr.append(f)
    return irr


def test_make_field_smallest_modulus_f9():
    # x^2 + 1 has no root mod 3 and is lexicographically first
    assert ff.make_field(3, 2).modulus == (1, 0, 1)
    oracle = brute_force_irreducibles(3, 2)
    assert oracle[0] == (1, 0, 1)


def test_make_field_prime_field():
    F5 = ff.make_field(5, 1)
    assert F5.modulus == (0, 1)  # the polynomial x
    assert F5.q == 5
    assert F5.mul(3, 4) == 12 % 5


@pytest.mark.parametrize("p,ell", [(2, 3), (3, 3), (5, 3), (7, 2), (2, 8)])
def test_make_field_modulus_is_first_irreducible(p, ell):
    got = ff.make_field(p, ell).modulus
    oracle = brute_force_irreducibles(p, ell)
    # enumeration order of the oracle equals lex order on coefficient vectors
    assert got == oracle[0]


def test_make_field_returns_one_context_per_field():
    assert ff.make_field(5, 2) is ff.make_field(5, 2)
    assert ff.make_field(5, 2) is not ff.make_field(5, 1)


@pytest.mark.parametrize("p,ell", [(2, 6), (3, 4), (5, 2), (7, 3)])
def test_subfield_is_the_subfield_of_each_order(p, ell):
    # oracle: a set of p^d elements holding 0 and 1 and closed under + and *
    # is the unique subfield of order p^d
    F = ff.make_field(p, ell)
    for d in range(1, ell + 1):
        if ell % d:
            with pytest.raises(ValueError):
                F.subfield(d)
            continue
        sub = F.subfield(d)
        assert len(sub) == p**d
        assert list(sub) == sorted(set(sub))
        assert 0 in sub and 1 in sub
        members = set(sub)
        for a in sub:
            for b in sub:
                assert F.add(a, b) in members
                assert F.mul(a, b) in members


def test_prime_field_above_table_limit():
    # F_65537 is too large for exp/log tables; oracle: Python int arithmetic
    p = 65537
    F = ff.make_field(p, 1)
    assert F.q > ff.TABLE_LIMIT
    rng = random.Random(0)
    for _ in range(200):
        a, b = rng.randrange(1, p), rng.randrange(p)
        e = rng.randrange(-p, 2 * p)
        assert F.add(a, b) == (a + b) % p
        assert F.mul(a, b) == a * b % p
        assert F.pow(a, e) == pow(a, e, p)
        assert F.inv(a) == pow(a, -1, p)


def test_extension_field_above_table_limit():
    # F_{257^2} is beyond the exp/log tables: every scalar operation raises,
    # while the context and the table-free array addition still work
    import numpy as np
    p = 257
    F = ff.make_field(p, 2)
    assert F.q > ff.TABLE_LIMIT
    assert F.serialize() == "p=257 ell=2 mod=" + ",".join(map(str, F.modulus))
    a, b = p + 2, 3 * p + 5  # nonzero, outside the prime field
    for op in (lambda: F.add(a, b), lambda: F.sub(a, b), lambda: F.neg(a),
               lambda: F.mul(a, b), lambda: F.inv(a), lambda: F.pow(a, 3),
               lambda: F.pow(a, -1), lambda: F.frobenius(a),
               lambda: F.subfield_degree(a), lambda: F.join_degree([a])):
        with pytest.raises(FieldTooLarge):
            op()
    oracle = _GfOracle(F)
    rng = np.random.default_rng(257)
    A, B = rng.integers(0, F.q, 200), rng.integers(0, F.q, 200)
    assert F.add_arrays(A, B).tolist() == \
        [oracle.add(x, y) for x, y in zip(A.tolist(), B.tolist())]


def test_make_field_errors():
    with pytest.raises(NonPrime):
        ff.make_field(6, 2)
    with pytest.raises(DegreeZero):
        ff.make_field(5, 0)


def test_frobenius_examples():
    F9 = ff.make_field(3, 2)
    t = F9.element((0, 1))
    assert F9.frobenius(t) == F9.neg(t)  # t^3 = -t since t^2 = -1
    assert F9.frobenius(0) == 0
    F7 = ff.make_field(7, 1)
    for a in F7.elements():
        assert F7.frobenius(a) == a
    # applying frobenius ell times is the identity
    F125 = ff.make_field(5, 3)
    for a in (0, 1, 7, 100, 124):
        x = a
        for _ in range(3):
            x = F125.frobenius(x)
        assert x == a


def test_minimal_polynomial_examples():
    F9 = ff.make_field(3, 2)
    t = F9.element((0, 1))
    assert ff.minimal_polynomial(F9, t) == (1, 0, 1)  # y^2 + 1
    assert ff.minimal_polynomial(F9, 0) == (0, 1)  # y
    F5 = ff.make_field(5, 1)
    assert ff.minimal_polynomial(F5, 2) == (3, 1)  # y - 2 = y + 3


def test_minimal_polynomial_broken_frobenius_raises(monkeypatch):
    # an identity Frobenius leaves the orbit of t = (0, 1) at {t}, so the
    # "minimal polynomial" y - t has a coefficient outside F_3
    F9 = ff.make_field(3, 2)
    monkeypatch.setattr(F9, "frobenius", lambda a: a)
    with pytest.raises(BoundViolated):
        ff.minimal_polynomial(F9, F9.element((0, 1)))


def test_minimal_polynomial_cache_hides_no_corrupted_frobenius(monkeypatch):
    # the product is cached per Frobenius orbit, and the orbit is walked on
    # every call: a result cached before the corruption is not reused
    F9 = ff.make_field(3, 2)
    t = F9.element((0, 1))
    assert ff.minimal_polynomial(F9, F9.frobenius(t)) == (1, 0, 1)
    monkeypatch.setattr(F9, "frobenius", lambda a: a)
    with pytest.raises(BoundViolated):
        ff.minimal_polynomial(F9, t)


def test_minimal_polynomial_non_permutation_frobenius_raises(monkeypatch):
    # a Frobenius sending everything to 0 never brings t back: the walk
    # stops after ell steps instead of growing the orbit without bound
    F9 = ff.make_field(3, 2)
    calls = []

    def stuck(a):
        calls.append(a)
        if len(calls) > 10 * F9.ell:
            pytest.fail("the Frobenius walk is unbounded")
        return 0

    monkeypatch.setattr(F9, "frobenius", stuck)
    with pytest.raises(BoundViolated, match="does not close"):
        ff.minimal_polynomial(F9, F9.element((0, 1)))


def test_minimal_polynomial_properties():
    F125 = ff.make_field(5, 3)
    for a in range(125):
        m = ff.minimal_polynomial(F125, a)
        # vanishes at a, evaluated with field arithmetic
        acc = 0
        for c in reversed(m):
            acc = F125.add(F125.mul(acc, a), c)
        assert acc == 0
        d = len(m) - 1
        assert 3 % d == 0
        assert d == F125.subfield_degree(a)


def test_generated_subfield_degree():
    F9 = ff.make_field(3, 2)
    assert F9.subfield_degree(0) == 1
    assert F9.subfield_degree(F9.element((0, 1))) == 2
    F125 = ff.make_field(5, 3)
    g = F125.multiplicative_generator()
    assert F125.order(g) == 124
    assert F125.subfield_degree(g) == 3
    # degree is frobenius-invariant
    for a in range(125):
        assert F125.subfield_degree(a) == F125.subfield_degree(F125.frobenius(a))


def test_inverse_extended_euclid():
    for p, ell in [(3, 2), (5, 3), (23, 2)]:
        F = ff.make_field(p, ell)
        for a in list(range(1, min(F.q, 60))) + [F.q - 1]:
            assert F.mul(a, F.inv(a)) == 1


@pytest.mark.parametrize("p, ell", [(2, 8), (3, 5), (5, 3), (7, 2), (251, 2)])
def test_table_inverse_matches_extended_euclid(p, ell):
    # oracle: galoistools' extended Euclid on F_p polynomials
    F = ff.make_field(p, ell)
    assert F.q <= ff.TABLE_LIMIT
    oracle = _GfOracle(F)
    assert [F.inv(a) for a in range(1, F.q)] == \
        [oracle.inv(a) for a in range(1, F.q)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(3, 2), (5, 2), (3, 3), (7, 2)]), st.data())
def test_frobenius_is_additive(params, data):
    p, ell = params
    F = ff.make_field(p, ell)
    x = data.draw(st.integers(0, F.q - 1))
    y = data.draw(st.integers(0, F.q - 1))
    assert F.frobenius(F.add(x, y)) == F.add(F.frobenius(x), F.frobenius(y))
    assert F.frobenius(F.mul(x, y)) == F.mul(F.frobenius(x), F.frobenius(y))


def test_multiplicative_group_cyclic_small():
    # q <= 5^4: exhibit an element of full order
    for p, ell in [(2, 4), (3, 4), (5, 4), (7, 2), (13, 2)]:
        F = ff.make_field(p, ell)
        g = F.multiplicative_generator()
        assert F.order(g) == F.q - 1


@pytest.mark.parametrize("p, ell", [(2, 8), (5, 3), (11, 2)])
def test_order_table_path_matches_slow_path(p, ell):
    tabled = ff.make_field(p, ell)
    tabled.inv(1)  # any table operation builds the exp/log tables
    bare = ff.FieldCtx(p, ell)  # a second context: no tables until asked
    assert tabled._log is not None
    for a in range(1, tabled.q):
        assert tabled.order(a) == bare.order(a), a
    assert bare._log is None  # every bare order came from the slow path


def _exp_by_loop(ctx):
    # reference: the exp table by one scalar _mul_slow per element
    g = ctx.multiplicative_generator()
    exp, x = [], 1
    for _ in range(ctx.q - 1):
        exp.append(x)
        x = ctx._mul_slow(x, g)
    return exp


def _check_exp_log(ctx, want):
    exp, log = ctx._exp_log()
    n = ctx.q - 1
    assert exp.tolist() == want + want
    assert log[exp[:n]].tolist() == list(range(n))


def test_exp_table_doubling_matches_the_scalar_loop():
    fields = [(p, ell) for p in range(2, 4097) if ff.is_prime(p)
              for ell in range(1, 13) if p**ell <= 4096]
    assert len(fields) == 604
    for p, ell in fields:
        ctx = ff.FieldCtx(p, ell)  # its own context: the cache stays small
        _check_exp_log(ctx, _exp_by_loop(ctx))


@pytest.mark.parametrize("p, ell", [(2, 16), (3, 10)])
def test_exp_table_doubling_matches_galoistools(p, ell):
    ctx = ff.make_field(p, ell)
    oracle, g = _GfOracle(ctx), ctx.multiplicative_generator()
    want, x = [], 1
    for _ in range(ctx.q - 1):
        want.append(x)
        x = oracle.mul(x, g)
    assert x == 1
    _check_exp_log(ctx, want)


def test_order_matches_sympy_on_a_prime_field():
    sympy = pytest.importorskip("sympy")
    F = ff.make_field(1009, 1)
    F._exp_log()  # order reads the log table once it exists
    assert F._log is not None
    for a in range(1, F.q):
        assert F.order(a) == sympy.n_order(a, F.q), a


def test_order_matches_sympy_above_the_table_limit():
    # a bare prime field above TABLE_LIMIT: every order comes from the
    # table-free poly_powmod loop at ell = 1
    sympy = pytest.importorskip("sympy")
    F = ff.FieldCtx(65537, 1)
    rng = random.Random(65537)
    for a in [rng.randrange(1, F.q) for _ in range(200)] + [1, F.q - 1]:
        assert F.order(a) == sympy.n_order(a, F.q), a
    assert F._log is None


@pytest.mark.parametrize("p, ell, count", [(2, 4, None), (3, 3, None),
                                           (5, 2, None), (257, 2, 200)])
def test_mul_slow_matches_galoistools(p, ell, count):
    # _mul_slow seeds the exp table and is the oracle of the exp-table
    # tests, so it is checked against an independent product here; F_{257^2}
    # lies above TABLE_LIMIT
    ctx = ff.make_field(p, ell)
    oracle = _GfOracle(ctx)
    if count is None:
        pairs = [(a, b) for a in range(ctx.q) for b in range(ctx.q)]
    else:
        rng = random.Random(p * 100 + ell)
        pairs = [(rng.randrange(ctx.q), rng.randrange(ctx.q))
                 for _ in range(count)]
    for a, b in pairs:
        assert ctx._mul_slow(a, b) == oracle.mul(a, b), (a, b)


def test_count_lemma_f25():
    r = ff.verify_count_lemma(ff.make_field(5, 2), 1)
    # oracle: exactly the five elements of F_5 fail
    assert r.worst_proportion == Fraction(20, 25)
    assert r.bound == Fraction(4, 5)
    assert r.holds


def test_count_lemma_prime_field():
    r = ff.verify_count_lemma(ff.make_field(11, 1), 3)
    assert r.worst_proportion == 1


def test_enlarge_lemma_prime_field():
    # vacuous over F_p: part (ii) never has a hypothesis
    r = ff.verify_enlarge_lemma(ff.make_field(11, 1), 3)
    assert r.holds
    assert r.part_ii_instances == 0


def test_count_lemma_f125_n2():
    r = ff.verify_count_lemma(ff.make_field(5, 3), 2)
    assert r.holds
    assert r.worst_proportion >= Fraction(3, 5)


def test_enlarge_lemma_f9():
    r = ff.verify_enlarge_lemma(ff.make_field(3, 2), 2)
    assert r.holds
    assert r.triples_checked == 8 * 9 * 2


def test_enlarge_lemma_f25_strict_instances_exist():
    r = ff.verify_enlarge_lemma(ff.make_field(5, 2), 3)
    assert r.holds
    assert r.part_ii_instances > 0


def brute_force_enlarge(ctx, N):
    """Oracle: enumerate every (alpha, beta, k, lambda) in scalar arithmetic,
    full-degree alpha included, and assert both parts of the enlarge lemma.
    Returns (triples checked, part (ii) instances)."""
    deg = ctx.subfield_degree
    q, ell = ctx.q, ctx.ell
    pools = {d: [x for x in range(q) if d % deg(x) == 0]
             for d in range(1, ell + 1) if ell % d == 0}
    triples = part_ii = 0
    for alpha in range(1, q):
        d_a = deg(ctx.pow(alpha, N))
        for k in range(N):
            ak = ctx.pow(alpha, k)
            for beta in range(q):
                triples += 1
                join = math.lcm(d_a, deg(ctx.pow(beta, N)),
                                deg(ctx.mul(ak, ctx.pow(beta, N - 1))))
                degs = (deg(ctx.pow(ctx.add(beta, ctx.mul(lam, ak)), N))
                        for lam in pools[d_a])
                if join > d_a:
                    part_ii += 1
                    assert any(d > d_a for d in degs), (alpha, beta, k)
                else:
                    assert any(d >= d_a for d in degs), (alpha, beta, k)
    return triples, part_ii


@pytest.mark.parametrize("p, ell, N", [
    (p, ell, N) for p, ell in [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)]
    for N in range(1, min(p - 1, 4) + 1)])
def test_enlarge_lemma_matches_brute_force(p, ell, N):
    ctx = ff.make_field(p, ell)
    r = ff.verify_enlarge_lemma(ctx, N)
    assert r.holds
    assert (r.triples_checked, r.part_ii_instances) == brute_force_enlarge(ctx, N)


@pytest.mark.parametrize("p, ell, N, part", [(2, 4, 1, "i"), (3, 2, 2, "ii")])
def test_enlarge_lemma_short_lambda_pool_raises(p, ell, N, part, monkeypatch):
    # with lambda = 0 alone, F_16 fails part (i) at an alpha of degree 2 and
    # F_9 part (ii) at alpha = 1, beta^2 = -1; neither alpha is full-degree
    monkeypatch.setattr(ff.FieldCtx, "subfield", lambda self, d: (0,))
    with pytest.raises(BoundViolated, match=rf"\({part}\) failed"):
        ff.verify_enlarge_lemma(ff.make_field(p, ell), N)


def scalar_enlarge_lemma(ctx, N):
    """Reference: the per-alpha loop the batched check replaced, kept for
    its failure messages.  It raises on the first failing (alpha, k) in
    alpha-major order, part (i) before part (ii), at the first beta."""
    q, ell = ctx.q, ctx.ell
    deg = ctx.subfield_degree_table()
    powN, powN1 = ctx.pow_table(N), ctx.pow_table(N - 1)
    deg_N = deg[powN]
    betas = np.arange(q, dtype=np.int64)
    for alpha in range(1, q):
        d_a = int(deg_N[alpha])
        if d_a == ell:
            continue
        lam_pool = ctx.subfield(d_a)
        for k in range(N):
            ak = ctx.pow(alpha, k)
            pending = np.ones(q, dtype=bool)
            akbN1 = ctx.mul_arrays(np.full(q, ak, dtype=np.int64), powN1)
            join = np.lcm(d_a, np.lcm(deg_N, deg[akbN1]))
            strict_pending = join > d_a
            for lam in lam_pool:
                if not pending.any() and not strict_pending.any():
                    break
                shifted = ctx.add_arrays(
                    betas, np.full(q, ctx.mul(lam, ak), dtype=np.int64))
                dN = deg[powN[shifted]]
                pending &= ~(dN >= d_a)
                strict_pending &= ~(dN > d_a)
            if pending.any():
                b = int(np.flatnonzero(pending)[0])
                raise BoundViolated(
                    f"enlarge lemma (i) failed at q={q}, N={N}, alpha={alpha}, beta={b}, k={k}")
            if strict_pending.any():
                b = int(np.flatnonzero(strict_pending)[0])
                raise BoundViolated(
                    f"enlarge lemma (ii) failed at q={q}, N={N}, alpha={alpha}, beta={b}, k={k}")


@pytest.mark.parametrize("block", [None, 1])
@pytest.mark.parametrize("p, ell, N", [
    (2, 4, 1), (3, 2, 2), (2, 6, 1), (3, 4, 1), (3, 4, 2), (5, 2, 3),
    (5, 4, 1), (7, 3, 3)])
def test_enlarge_lemma_failure_message_matches_scalar_loop(p, ell, N, block,
                                                           monkeypatch):
    # F_16 and F_64 fail first at an alpha of degree above 1, after the
    # degree-1 alphas passed
    monkeypatch.setattr(ff.FieldCtx, "subfield", lambda self, d: (0,))
    if block is not None:
        monkeypatch.setattr(ff, "LEMMA_BLOCK", block)
    ctx = ff.make_field(p, ell)
    with pytest.raises(BoundViolated) as want:
        scalar_enlarge_lemma(ctx, N)
    with pytest.raises(BoundViolated) as got:
        ff.verify_enlarge_lemma(ctx, N)
    assert str(got.value) == str(want.value)


def brute_force_count(ctx, N):
    """Oracle: the worst proportion, over nonzero gamma, of the alpha in
    F_q with F_p(alpha^N * gamma) = F_q, in scalar arithmetic."""
    q, ell = ctx.q, ctx.ell
    counts = [sum(ctx.subfield_degree(ctx.mul(ctx.pow(alpha, N), gamma)) == ell
                  for alpha in range(q)) for gamma in range(1, q)]
    return Fraction(min(counts), q)


@pytest.mark.parametrize("p, ell, N", [
    (p, ell, N) for p, ell in [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3),
                               (7, 2)]
    for N in range(1, min(p - 1, 4) + 1)])
def test_count_lemma_matches_brute_force(p, ell, N):
    ctx = ff.make_field(p, ell)
    r = ff.verify_count_lemma(ctx, N)
    assert r.worst_proportion == brute_force_count(ctx, N)
    assert r.bound == Fraction(p - N, p) and r.holds


@pytest.mark.parametrize("p, ell", [(3, 4), (5, 3)])
def test_lemma_blocks_of_one_row_give_equal_reports(p, ell, monkeypatch):
    ctx = ff.make_field(p, ell)
    Ns = range(1, min(p - 1, 4) + 1)
    want = [(ff.verify_count_lemma(ctx, N), ff.verify_enlarge_lemma(ctx, N))
            for N in Ns]
    monkeypatch.setattr(ff, "LEMMA_BLOCK", 1)
    assert ff._row_blocks(5, ctx.q) == [slice(i, i + 1) for i in range(5)]
    got = [(ff.verify_count_lemma(ctx, N), ff.verify_enlarge_lemma(ctx, N))
           for N in Ns]
    assert got == want


def test_serialize_round_trip_line():
    F = ff.make_field(5, 3)
    assert F.serialize() == "p=5 ell=3 mod=" + ",".join(map(str, F.modulus))


@pytest.mark.parametrize("p, ell, blocks", [
    (5, 3, 1),  # one block: a single table gather
    (2, 16, 2), (3, 10, 2), (2, 20, 3),  # several blocks, the last partial
    (257, 2, 2),  # p^2 > TABLE_LIMIT: one digit at a time, no table
])
def test_add_arrays_matches_scalar_add(p, ell, blocks):
    import numpy as np
    F = ff.make_field(p, ell)
    add = _GfOracle(F).add
    assert len(F._add_blocks()[2]) == blocks
    rng = np.random.default_rng(p * 100 + ell)
    A = rng.integers(0, F.q, 2000)
    B = rng.integers(0, F.q, 2000)
    s = F.add_arrays(A, B)
    assert s.dtype == np.int64
    assert s.tolist() == [add(a, b) for a, b in zip(A.tolist(), B.tolist())]
    # broadcast shapes: a column against a row, and an array against a scalar
    col, row = A[:30, None], B[None, :20]
    s = F.add_arrays(col, row)
    assert s.shape == (30, 20)
    assert s.tolist() == [[add(a, b) for b in B[:20].tolist()]
                          for a in A[:30].tolist()]
    assert F.add_arrays(A[:50], int(B[0])).tolist() == \
        [add(a, int(B[0])) for a in A[:50].tolist()]


def test_add_mul_table_consistency():
    import numpy as np
    F = ff.make_field(5, 2)
    A = np.arange(F.q)
    B = np.roll(np.arange(F.q), 7)
    s = F.add_arrays(A, B)
    m = F.mul_arrays(A, B)
    for i in range(F.q):
        assert s[i] == F.add(int(A[i]), int(B[i]))
        assert m[i] == F.mul(int(A[i]), int(B[i]))
    t3 = F.pow_table(3)
    for a in range(F.q):
        assert t3[a] == F.pow(a, 3)


# -- scalar operations against sympy's galoistools ---------------------------
# galoistools works on dense high-to-low coefficient lists over ZZ mod p; an
# index a becomes the polynomial of its base-p digits, reduced mod
# ctx.modulus.  The oracle knows nothing of exp/log or Zech tables.


def _gf_poly(a, p, ell):
    digits = []
    for _ in range(ell):
        digits.append(a % p)
        a //= p
    return _gf_strip(digits[::-1])


def _gf_strip(f):
    f = list(f)
    while f and f[0] == 0:
        f.pop(0)
    return f


def _gf_index(f, p):
    a = 0
    for c in f:
        a = a * p + int(c)
    return a


class _GfOracle:
    def __init__(self, ctx):
        from sympy.polys import galoistools as gt
        from sympy.polys.domains import ZZ
        self.gt, self.ZZ = gt, ZZ
        self.p, self.ell = ctx.p, ctx.ell
        self.mod = ZZ.map(list(reversed(ctx.modulus)))

    def f(self, a):
        return self.ZZ.map(_gf_poly(a, self.p, self.ell))

    def idx(self, f):
        return _gf_index(f, self.p)

    def add(self, a, b):
        return self.idx(self.gt.gf_add(self.f(a), self.f(b), self.p, self.ZZ))

    def sub(self, a, b):
        return self.idx(self.gt.gf_sub(self.f(a), self.f(b), self.p, self.ZZ))

    def neg(self, a):
        return self.idx(self.gt.gf_neg(self.f(a), self.p, self.ZZ))

    def mul(self, a, b):
        prod = self.gt.gf_mul(self.f(a), self.f(b), self.p, self.ZZ)
        return self.idx(self.gt.gf_rem(prod, self.mod, self.p, self.ZZ))

    def pow(self, a, e):
        return self.idx(self.gt.gf_pow_mod(self.f(a), e, self.mod, self.p,
                                           self.ZZ))

    def inv(self, a):
        s, _, h = self.gt.gf_gcdex(self.f(a), self.mod, self.p, self.ZZ)
        assert h == [1]
        return self.idx(s)

    def subfield_degree(self, a):
        return min(d for d in range(1, self.ell + 1) if self.ell % d == 0
                   and self.pow(a, self.p**d) == a)


def _check_scalar_ops(ctx, pairs):
    oracle = _GfOracle(ctx)
    q = ctx.q
    exps = (0, 1, 2, 3, ctx.p, q - 2, q - 1, q, 2 * q + 5)
    singles = sorted({a for pair in pairs for a in pair})
    for a, b in pairs:
        got = (ctx.add(a, b), ctx.sub(a, b), ctx.mul(a, b))
        assert all(type(x) is int for x in got), (a, b, got)
        assert got == (oracle.add(a, b), oracle.sub(a, b),
                       oracle.mul(a, b)), (a, b)
    for a in singles:
        neg = ctx.neg(a)
        assert type(neg) is int and neg == oracle.neg(a)
        assert ctx.add(a, neg) == 0
        deg = ctx.subfield_degree(a)
        assert type(deg) is int and deg == oracle.subfield_degree(a)
        for e in exps:
            got = ctx.pow(a, e)
            assert type(got) is int and got == oracle.pow(a, e), (a, e)
        if a:
            inv = ctx.inv(a)
            assert type(inv) is int and inv == oracle.inv(a)
            assert ctx.pow(a, -3) == oracle.pow(oracle.inv(a), 3)
    if ctx.p == 2:
        assert ctx.neg(1) == 1  # -1 = 1 in characteristic 2


@pytest.mark.parametrize("p, ell", [(2, 1), (7, 1), (2, 2), (2, 3), (3, 2),
                                    (5, 2), (3, 3), (7, 2)])
def test_scalar_ops_match_galoistools_on_every_pair(p, ell):
    ctx = ff.make_field(p, ell)
    _check_scalar_ops(ctx, [(a, b) for a in range(ctx.q)
                            for b in range(ctx.q)])


@pytest.mark.parametrize("p, ell, count", [(5, 3, 500), (7, 3, 500),
                                           (2, 16, 100), (251, 1, 500),
                                           (65521, 1, 200)])
def test_scalar_ops_match_galoistools_on_random_pairs(p, ell, count):
    # F_{2^16}: fewer pairs, since the oracle's powers of degree-16
    # polynomials cost about a millisecond each
    ctx = ff.make_field(p, ell)
    rng = random.Random(p * 100 + ell)
    pairs = [(rng.randrange(ctx.q), rng.randrange(ctx.q))
             for _ in range(count)]
    pairs += [(0, 0), (0, 1), (1, ctx.q - 1), (ctx.q - 1, ctx.q - 1)]
    _check_scalar_ops(ctx, pairs)
