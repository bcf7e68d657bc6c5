"""Constructive machinery: the nilpotent groups Gamma_{c,F_p}, their word
embeddings into the tame groups, synthesis of derived transvections, and
prime-field interpolation with prescribed values.

Gamma_{c,R} is R[x]_{<=c} x| R with the shift action; we store an element
as (poly, shift) with poly a coefficient tuple of length c+1 (low-to-high)
and use the product

    (P, a) * (Q, b) = (P(x + b) + Q, a + b),

under which [P_{c-n}(r), y(s)] = sum_i C(n,i) P_{c-n+i}(r s^i), the
commutator relation all the word constructions rest on.

Word synthesis follows a double induction, stated once as the rule table
TransvectionSynthesizer._rule: each word family is the P_ell image of a
Gamma embedding whose two generator families are earlier families.
Distance-1 targets at level m come from a class-1 embedding whose
translation part is a distance-2 family at level m-1, and distance
propagation at fixed level runs through class-1 embeddings with the
step-3 bi-transvection words.  Every produced word is verified against
its closed-form letter on coordinate arrays: on the broadcast grid of
all points ("exhaustive") or, above GRID_CAP points, on VERIFY_SAMPLES
seeded points plus a symbolic check ("sampled").
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache, partial
from math import comb

import numpy as np

from .errors import (BadExponent, BoundViolated, BudgetExceeded,
                     ClashingMinimalPolynomials, FieldTooLarge, NotInvertible,
                     RankTooLarge, ValueOutsideSubfield)
from .ff import (TABLE_LIMIT, _row_reduce, make_field, minimal_polynomial,
                 poly_add, poly_eval, poly_mul, poly_trim)
from .tame import (BiTransvection, Transvection, Word, grid_coords,
                   letter_endo, poly_transvection_letter, same_action,
                   sample_coords, tau, word_to_endo)

GRID_CAP = 10**6  # largest grid a synthesized word is checked on exhaustively
VERIFY_SAMPLES = 10**4  # random points checked on a larger grid
WITNESS_GRID_CAP = 10**7  # largest separating grid of elementary_abelian_witness

# ---------------------------------------------------------------------------
# the nilpotent group Gamma_{c,F_p}


@dataclass(frozen=True)
class GammaElem:
    c: int
    p: int
    poly: tuple  # c+1 residues, low-to-high
    shift: int

    def __post_init__(self):
        if len(self.poly) != self.c + 1:
            raise ValueError("poly needs c + 1 coefficients")


def gamma_identity(c, p):
    return GammaElem(c, p, (0,) * (c + 1), 0)


def p_elem(c, p, ell, r):
    """P_ell(r) = r x^(c-ell) as a group element."""
    poly = [0] * (c + 1)
    poly[c - ell] = r % p
    return GammaElem(c, p, tuple(poly), 0)


def y_elem(c, p, s):
    return GammaElem(c, p, (0,) * (c + 1), s % p)


@lru_cache(maxsize=1 << 12)
def _shift_poly(poly, b, p):
    """Coefficients of P(x + b), for a coefficient tuple poly, by Horner's
    rule in x + b, padded back to len(poly) coefficients.  Memoized:
    products in Gamma shift the same few polynomials over and over."""
    out = ()
    for pv in reversed(poly):
        out = poly_add(poly_mul(out, (b, 1), p), (pv,), p)
    return out + (0,) * (len(poly) - len(out))


def gamma_op(a, b):
    if (a.c, a.p) != (b.c, b.p):
        raise ValueError("mismatched Gamma contexts")
    p = a.p
    poly = tuple((x + y) % p for x, y in zip(_shift_poly(a.poly, b.shift, p), b.poly))
    return GammaElem(a.c, p, poly, (a.shift + b.shift) % p)


def gamma_inv(a):
    p = a.p
    poly = tuple((-x) % p for x in _shift_poly(a.poly, (-a.shift) % p, p))
    return GammaElem(a.c, p, poly, (-a.shift) % p)


def gamma_comm(a, b):
    return gamma_op(gamma_op(gamma_inv(a), gamma_inv(b)), gamma_op(a, b))


def verify_gamma_commutator_formula(c, p):
    """Exhaustive check of [P_{c-n}(r), y(s)] = sum_i C(n,i) P_{c-n+i}(r s^i)."""
    for n in range(c + 1):
        for r in range(p):
            for s in range(p):
                lhs = gamma_comm(p_elem(c, p, c - n, r), y_elem(c, p, s))
                rhs = gamma_identity(c, p)
                for i in range(1, n + 1):
                    rhs = gamma_op(rhs, p_elem(c, p, c - n + i,
                                               comb(n, i) * r * pow(s, i, p)))
                if lhs != rhs:
                    return False
    return True


@dataclass
class GammaStructureReport:
    c: int
    p: int
    order: int
    nilpotency_class: int
    center_order: int
    center_is_Xc: bool
    generated_by_X0_Y: bool


def _shift_codes(c, p):
    """Code of Q(x + 1) for every polynomial code Q = sum_v Q_v p^v, v <= c.
    Digit u of the image is the binomial digit sum sum_{v >= u} C(v, u) Q_v
    mod p; each sum is taken on the broadcast grid of the digits it reads,
    so only the result has p^(c+1) entries."""
    digits = [d.astype(np.int32) for d in grid_coords(p, c + 1)]
    out = 0
    for u in range(c + 1):
        s = sum(comb(v, u) % p * digits[v] for v in range(u, c + 1))
        out = out + s % p * p**u
    return out.ravel()


def gamma_structure(c, p, budget=10**7):
    """Structure of Gamma_{c,F_p}, exhaustively on element codes.

    The element (Q, b) has code Q + p^(c+1) b, with the polynomial code
    Q = sum_v Q_v p^v.  Right multiplication by X_0(1) = (x^c, 0) adds
    one to digit c, and by y(1) = (0, 1) sends (Q, b) to (Q(x+1), b+1):
    two permutations of the codes, whose closure from the identity is
    the subgroup they generate.  The lower central series lives in the
    abelian polynomial part, where subgroups are F_p-subspaces, so each
    term is a span of explicit shift-difference vectors.
    """
    from .orbits import check_int32, closure  # orbits imports this module

    order = p ** (c + 2)
    if order > budget:
        raise BudgetExceeded(f"group order {order} exceeds budget {budget}")
    check_int32(order, "element-code domain")

    # gamma_2 is spanned by the differences Q(x+s) - Q(x) over the
    # monomials Q = x^v, and gamma_{k+1} by those over a basis of gamma_k;
    # a basis is the rows above the pivots of the row-reduced differences
    series = [None]  # gamma_1 = G, marked by None
    basis = [[int(u == v) for u in range(c + 1)] for v in range(c + 1)]
    while basis:
        diffs = [[(a - b) % p for a, b in zip(_shift_poly(tuple(q), s, p), q)]
                 for q in basis for s in range(1, p)]
        basis = diffs[:len(_row_reduce(diffs, c + 1, p))]
        series.append(basis)
    # series = [G, gamma_2, ..., gamma_k = 0], nonzero up to the last term
    nilpotency_class = len(series) - 1

    m = p ** (c + 1)  # polynomial codes
    shift = _shift_codes(c, p)
    # the center: (Q, 0) with Q(x + 1) = Q, and for c = 0 every (Q, b)
    fixed = np.flatnonzero(shift == np.arange(m, dtype=np.int32))
    center_order = len(fixed) * (p if c == 0 else 1)
    # X_c = the constants r x^0, whose codes are 0..p-1
    center_is_Xc = (np.array_equal(fixed, np.arange(p)) if c >= 1
                    else center_order == p * p)

    step = np.roll(np.arange(p, dtype=np.int32), -1)  # digit d -> d + 1 mod p
    top = (step[:, None] * p**c + np.arange(p**c, dtype=np.int32)).ravel()
    x0 = (np.arange(p, dtype=np.int32)[:, None] * m + top).ravel()
    y1 = (step[:, None] * m + shift).ravel()
    generated = int(np.count_nonzero(closure(0, [x0, y1]))) == order

    report = GammaStructureReport(c, p, order, nilpotency_class,
                                  center_order, center_is_Xc, generated)
    if p > c:
        expect_class = c + 1 if c >= 1 else 1
        if (report.nilpotency_class != expect_class
                or report.center_order != (p if c >= 1 else p * p)
                or (c >= 1 and not center_is_Xc) or not generated):
            raise BoundViolated(f"Gamma structure contradicts theory: {report}")
    return report


# ---------------------------------------------------------------------------
# word embeddings of Gamma


class GammaWordEmbedding:
    """Words realizing a copy of Gamma_{c,F_p} inside a tame group.

    x0_family(r) must be a word acting as the image of P_0(r); y_family(s)
    a word adding s times the relevant power to the translated coordinate.
    The image of y(s) is y_family(-s): the point-action convention flips
    the sign of the translation part, and with that twist the commutator
    relations match the Gamma product above.  Images of P_ell(r) come from
    solving sum_t v_t (x+t)^c = x^(c-ell), which needs c! invertible.
    """

    def __init__(self, p, c, x0_family, y_family, budget=10**6):
        if p <= c:
            raise NotInvertible(f"need p > c, got p={p}, c={c}")
        self.p = p
        self.c = c
        self.x0 = x0_family
        self.budget = budget
        self._pre = {t: y_family(t % p) for t in range(1, c + 1)}
        self._post = {t: y_family((-t) % p) for t in range(1, c + 1)}
        self._y = y_family
        # [M | I], column t of M the coefficients of (x+t)^c, reduced once
        # to [I | M^-1]
        m = [[comb(c, u) * pow(t, c - u, p) % p for t in range(c + 1)]
             + [int(u == v) for v in range(c + 1)] for u in range(c + 1)]
        if len(_row_reduce(m, c + 1, p)) <= c:
            raise NotInvertible("interpolation nodes degenerate")
        self._inverse = [row[c + 1:] for row in m]

    def poly_word(self, poly):
        """Word for the element (poly, 0)."""
        v = [sum(a * b for a, b in zip(row, poly)) % self.p
             for row in self._inverse]
        out = Word()
        for t in range(self.c + 1):
            coeff = v[t]
            if coeff == 0:
                continue
            if t == 0:
                out = out + self.x0(coeff)
            else:
                out = out + self._pre[t] + self.x0(coeff) + self._post[t]
            if len(out) > self.budget:
                raise BudgetExceeded("synthesized word exceeds length budget")
        return out

    def p_ell_word(self, ell, r):
        r %= self.p
        if r == 0:
            return Word()
        target = [0] * (self.c + 1)
        target[self.c - ell] = r
        return self.poly_word(target)

    def elem_word(self, elem):
        """Word for (Q, b): the translation image goes first, since
        A(-b) B(Q) = B(Q(x+b)) A(-b) mirrors (P,a)(Q,b) = (P(x+b)+Q, a+b)."""
        out = Word()
        if elem.shift:
            out = self._y((-elem.shift) % self.p)
        return out + self.poly_word(elem.poly)


def embed_gamma(i, j, k, c, d, params):
    """Embedding of Gamma_{c,F_p} with P_ell(r) -> B(i;j,k, c-ell, d*ell, r)
    and the translation part acting on coordinate j from source k."""
    if len({i, j, k}) != 3:
        raise ValueError("indices must be pairwise distinct")
    p = params.p
    x0 = lambda r: Word.of(Transvection(i, j, c, r % p))
    y = lambda s: Word.of(Transvection(j, k, d, s % p))
    return GammaWordEmbedding(p, c, x0, y)


def embedded_beta_letter(i, j, k, c, d, ell, r):
    """Closed form of the image of P_ell under embed_gamma, as one letter."""
    cexp, dexp = c - ell, d * ell
    if dexp == 0:
        return Transvection(i, j, cexp, r)
    if cexp == 0:
        return Transvection(i, k, dexp, r)
    return BiTransvection(i, j, k, cexp, dexp, r)


def _check_coords(ctx, n, exhaustive, samples, rng):
    """Per-coordinate index arrays of the points a check runs on: the
    broadcast grid of ctx^n when exhaustive, else `samples` points drawn
    from rng."""
    if exhaustive:
        return grid_coords(ctx.q, n)
    return sample_coords(rng, ctx.q, n, samples)


def check_embedding_homomorphism(embedding, c, p, ctx, n, pairs=100, seed=0):
    """Semantic homomorphism check on random element pairs: the word of a
    product acts like the concatenation of the factor words on all of
    ctx^n (exhaustive when small, sampled otherwise)."""
    rng = random.Random(seed)
    coords = _check_coords(ctx, n, ctx.q**n <= 4096, 500, rng)
    for _ in range(pairs):
        a = GammaElem(c, p, tuple(rng.randrange(p) for _ in range(c + 1)),
                      rng.randrange(p))
        b = GammaElem(c, p, tuple(rng.randrange(p) for _ in range(c + 1)),
                      rng.randrange(p))
        w_ab = embedding.elem_word(gamma_op(a, b))
        w_a_b = embedding.elem_word(a) + embedding.elem_word(b)
        if not same_action(w_ab, w_a_b, coords, ctx):
            return False
    return True


# ---------------------------------------------------------------------------
# Theorem-level synthesis of derived transvections


class TransvectionSynthesizer:
    """Builds words for the derived transvections a_i += r a_j^t with
    t = t_{i,j} + m (E-1).

    Each word family is the P_ell image of an embedding of Gamma_{c,F_p}
    whose two generator families are earlier families: _rule states that
    double induction as one table, and _word keeps one embedding per
    (c, x0, y)."""

    def __init__(self, params, budget=10**6):
        self.params = params
        self.budget = budget
        if params.E < 2:
            raise BadExponent("synthesis needs E >= 2")
        if params.p <= max(params.e):
            raise NotInvertible("need p > max e_i")
        self._embeddings = {}  # (c, x0, y) -> GammaWordEmbedding

    def _rule(self, family):
        """(c, x0, y, ell) such that family is the P_ell image of
        Gamma_{c,F_p} with P_0(r) -> x0(r) and translation part y; None for
        the base case tau_i = alpha(i, i+1, 0).

        ("alpha", i, j, m) adds r a_j^(t_ij + m(E-1)) to a_i; ("beta3", i, j)
        is beta^(1, (e_i - 1) t_{i+1,j})_{i; i+1, j}, which collapses to
        tau_i when e_i = 1; ("beta43", i) is beta^(e_{i+1}, e_i - 1)_{i; i+2,
        i+1}; ("beta5", i) is beta^(1, e_i - E/e_{i+1} + E - 1)_{i; i+2, i+1}.
        """
        kind, i, *rest = family
        n, e = self.params.n, self.params.e
        i1 = i % n + 1
        i2 = i1 % n + 1
        tau_i = ("alpha", i, i1, 0)
        if kind == "alpha":
            j, m = rest
            if m == 0 and j == i1:
                return None
            if m == 0:
                return e[i - 1], tau_i, ("alpha", i1, j, 0), e[i - 1]
            if j == i1:
                return 1, ("beta5", i), ("alpha", i2, j, m - 1), 1
            return 1, ("beta3", i, j), ("alpha", i1, j, m), 1
        if kind == "beta3":
            return e[i - 1], tau_i, ("alpha", i1, rest[0], 0), e[i - 1] - 1
        if kind == "beta43":
            return e[i - 1], tau_i, ("alpha", i1, i2, 0), 1
        # "beta5"
        return (e[i1 - 1], ("beta43", i), ("alpha", i2, i1, 0),
                e[i1 - 1] - 1)

    def _word(self, family, r):
        rule = self._rule(family)
        if rule is None:
            return Word.of(tau(self.params, family[1], r))
        c, x0, y, ell = rule
        emb = self._embeddings.get((c, x0, y))
        if emb is None:
            emb = self._embeddings[c, x0, y] = GammaWordEmbedding(
                self.params.p, c, partial(self._word, x0),
                partial(self._word, y), budget=self.budget)
        return emb.p_ell_word(ell, r)

    def alpha_word(self, i, j, m, r):
        return self._word(("alpha", i, j, m), r)


# ---------------------------------------------------------------------------
# certificates


@dataclass
class SynthCert:
    target: str
    word: Word
    verified: bool
    mode: str  # "exhaustive" or "sampled"
    symbolic_checked: bool
    grid: str
    points_checked: int

    @property
    def length(self):
        return len(self.word)


def _grid_ctx(params, letter):
    """F_{p^m} with p^m > deg + 1 for the letter's degree deg in a_j, the
    field a word for the letter is checked over.  Raises FieldTooLarge,
    before any synthesis, when p^m is beyond the exp/log tables."""
    if isinstance(letter, Transvection):
        degree = letter.e
    else:
        degree = letter.t + letter.nexp * max(
            (m for m, c in enumerate(letter.coeffs) if c), default=0)
    m = 1
    while params.p**m <= degree + 1:
        m += 1
    if params.p**m > TABLE_LIMIT:
        raise FieldTooLarge(f"checking the word needs a field of "
                            f"{params.p}^{m} elements, beyond the "
                            f"{TABLE_LIMIT}-element field tables")
    return make_field(params.p, m)


def _verify_word_letter(word, letter, ctx, n):
    """One comparison of word and letter on coordinate arrays of ctx^n: every
    point ("exhaustive") up to GRID_CAP points, else VERIFY_SAMPLES seeded
    points ("sampled"), which must be followed by equal endomorphisms."""
    exhaustive = ctx.q ** n <= GRID_CAP
    coords = _check_coords(ctx, n, exhaustive, VERIFY_SAMPLES, random.Random(0))
    ok = same_action(word, Word.of(letter), coords, ctx)
    symbolic = ok and not exhaustive
    if symbolic:
        ok = word_to_endo(word, ctx, n) == letter_endo(letter, +1, ctx, n)
    return (ok, "exhaustive" if exhaustive else "sampled", symbolic,
            ctx.q**n if exhaustive else VERIFY_SAMPLES)


def synth_transvection(i, j, t, r, params, budget=10**6, synthesizer=None):
    """Word in the standard generators acting as a_i += r a_j^t, verified.

    t must satisfy t = t_{i,j} mod (E-1) with t >= t_{i,j}; this congruence
    cannot be removed, since every generator preserves the grading.
    """
    params_tij = params.tij(i, j)
    synth = synthesizer or TransvectionSynthesizer(params, budget)
    N = params.N
    if t < params_tij or (t - params_tij) % N != 0:
        raise BadExponent(
            f"t={t} violates t = t_ij + m(E-1) with t_ij={params_tij}, E-1={N}")
    m = (t - params_tij) // N
    letter = Transvection(i, j, t, r % params.p)
    ctx = _grid_ctx(params, letter)
    word = synth.alpha_word(i, j, m, r % params.p)
    ok, mode, symbolic, npts = _verify_word_letter(word, letter, ctx, params.n)
    return SynthCert(f"T({i},{j},{t},{r % params.p})", word, ok, mode,
                     symbolic, ctx.serialize(), npts)


def synth_poly_transvection(i, j, coeffs, params, budget=10**6,
                            synthesizer=None):
    """Word acting as a_i += a_j^{t_ij} P(a_j^{E-1}), one transvection word
    per nonzero monomial of P (they commute)."""
    coeffs = tuple(c % params.p for c in coeffs)
    synth = synthesizer or TransvectionSynthesizer(params, budget)
    letter = poly_transvection_letter(params, i, j, coeffs)
    ctx = _grid_ctx(params, letter)
    word = Word()
    for m, c in enumerate(coeffs):
        if c:
            word = word + synth.alpha_word(i, j, m, c)
            if len(word) > budget:
                raise BudgetExceeded("synthesized word exceeds length budget")
    ok, mode, symbolic, npts = _verify_word_letter(word, letter, ctx, params.n)
    return SynthCert(f"P({i},{j},{list(coeffs)})", word, ok, mode, symbolic,
                     ctx.serialize(), npts)


def elementary_abelian_witness(params, rank):
    """rank pairwise-commuting words of order p generating a permutation
    group of order p^rank, realized as a_1 += a_2^(t_12 + m(E-1)) for
    m = 0..rank-1 and certified on a separating grid."""
    from . import orbits, permgrp

    if max(params.e) < 2:
        raise BadExponent("need max e_i > 1")
    synth = TransvectionSynthesizer(params)
    tmax = params.tij(1, 2) + (rank - 1) * params.N
    m = 1
    while params.p**m - 1 <= tmax:
        m += 1
    ctx = make_field(params.p, m)
    if ctx.q ** params.n > WITNESS_GRID_CAP:
        raise RankTooLarge(f"separating grid {ctx.q}^{params.n} exceeds cap "
                           f"{WITNESS_GRID_CAP}")
    words = [synth.alpha_word(1, 2, k, 1) for k in range(rank)]
    chain = permgrp.schreier_sims(
        orbits.word_code_perms(words, None, ctx, params.n))
    if chain.order != params.p**rank:
        raise BoundViolated(
            f"witness group has order {chain.order}, expected {params.p**rank}")
    return words, chain.order


# ---------------------------------------------------------------------------
# interpolation with prescribed values (constructive, per the recursion)


def interpolate(mus, nus, ctx):
    """Polynomial f over F_p with f(mu_i) = nu_i, given pairwise distinct
    minimal polynomials of the mu_i and nu_i in F_p(mu_i).

    Returns a low-to-high coefficient tuple.  Base case expands nu in the
    power basis of F_p(mu); the step is f = f_k*phi + f_1...f_{k-1}*psi.
    """
    if len(mus) != len(nus):
        raise ValueError("need equally many nodes and values")
    k = len(mus)
    if k == 0:
        return ()
    minpolys = [minimal_polynomial(ctx, mu) for mu in mus]
    if len(set(minpolys)) != k:
        raise ClashingMinimalPolynomials(
            "minimal polynomials of the nodes must be pairwise distinct")
    return _interpolate_rec(list(mus), list(nus), minpolys, ctx)


@lru_cache(maxsize=1 << 12)
def _power_basis_solve(ctx, mu):
    """(d, S) with d = [F_p(mu) : F_p] and S an ell x ell matrix over F_p
    with S A = [I_d; 0], where A has the coefficient vectors of the power
    basis 1, mu, ..., mu^(d-1) as columns.  For nu with coefficient vector
    b, (S b)[:d] are the power-basis coordinates of nu, and nu lies in
    F_p(mu) iff (S b)[d:] = 0."""
    d, ell = ctx.subfield_degree(mu), ctx.ell
    cols = []
    x = 1
    for _ in range(d):
        cols.append(ctx.coeffs(x))
        x = ctx.mul(x, mu)
    m = [[col[u] for col in cols] + [int(u == v) for v in range(ell)]
         for u in range(ell)]
    _row_reduce(m, d, ctx.p)  # pivots 0..d-1: the powers are independent
    return d, tuple(tuple(row[d:]) for row in m)


def _interpolate_rec(mus, nus, minpolys, ctx):
    p = ctx.p
    k = len(mus)
    if k == 1:
        mu, nu = mus[0], nus[0]
        # solve sum_t c_t mu^t = nu over F_p in the power basis of F_p(mu)
        d, solve = _power_basis_solve(ctx, mu)
        b = ctx.coeffs(nu)
        sol = [sum(s * x for s, x in zip(row, b)) % p for row in solve]
        if any(sol[d:]):
            raise ValueOutsideSubfield(f"value not in F_p(node): {nu}")
        return poly_trim(sol[:d])
    fk = minpolys[-1]
    phi_targets = []
    for i in range(k - 1):
        denom = poly_eval(fk, mus[i], ctx)
        phi_targets.append(ctx.mul(nus[i], ctx.inv(denom)))
    phi = _interpolate_rec(mus[:-1], phi_targets, minpolys[:-1], ctx)
    denom = 1
    for i in range(k - 1):
        denom = ctx.mul(denom, poly_eval(minpolys[i], mus[-1], ctx))
    psi = _interpolate_rec([mus[-1]], [ctx.mul(nus[-1], ctx.inv(denom))],
                           [fk], ctx)
    prod_rest = (1,)
    for i in range(k - 1):
        prod_rest = poly_mul(prod_rest, minpolys[i], p)
    f = poly_add(poly_mul(fk, phi, p), poly_mul(prod_rest, psi, p), p)
    for mu, nu in zip(mus, nus):
        if poly_eval(f, mu, ctx) != nu:
            raise BoundViolated("interpolation failed its evaluation check")
    return f
