"""Arithmetic in F_p and its extensions F_{p^l}.

A field context fixes the prime p, the degree l and a monic irreducible
modulus of degree l over F_p.  Contexts come only from `make_field`, which
builds one per field and hands the same object to every later caller, so
equality of contexts is identity.

An element is represented by its *index*: the element with power-basis
coefficients (c_0, ..., c_{l-1}) has index c_0 + c_1*p + ... +
c_{l-1}*p^(l-1).  Index 0 is zero and index 1 is one; indices below p are
exactly the prime subfield.  All context operations take and return
indices, which keeps points hashable and lets bulk code work on numpy
arrays of indices via the precomputed tables.

There are two kinds of field.  A prime field (l = 1) computes in Python
integers mod p at every allowed size.  An extension field (l > 1) needs q
<= TABLE_LIMIT: its scalar operations are one or two Python-list lookups,
and above TABLE_LIMIT they raise FieldTooLarge, as the array kernels do.
On its first scalar call an extension context turns its numpy exp/log
tables into lists: exp (doubled, so a product needs no modulo), log, a
Zech list zech[k] = log(1 + g^k) (Huber, IEEE Trans. Inf. Theory 36(4),
1990), so that g^i + g^j = g^(i + zech[j - i]), and the subfield degree
of every element.  Nothing is built at import or by `make_field`; the
tables bootstrap through the module's poly helpers below.

Univariate polynomials over F_p (moduli, minimal polynomials, and elements
while the tables bootstrap) are plain tuples of ints, low-to-high, with no
trailing zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import numpy as np

from .errors import BoundViolated, DegreeZero, FieldTooLarge, NonPrime

PRIME_LIMIT = 1 << 31
ORDER_LIMIT = 1 << 40  # keeps point indices of F_q^n in 64-bit range
TABLE_LIMIT = 1 << 16  # no exp/log tables above this field size
LEMMA_BLOCK = 1 << 16  # most elements in one 2-D block of a lemma check

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin, valid far beyond the p < 2^31 we allow."""
    if n < 2:
        return False
    for sp in _MR_BASES:
        if n % sp == 0:
            return n == sp
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n):
    """Sorted distinct prime factors by trial division (n <= 2^40 here)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# dense univariate polynomials over F_p: tuples, low-to-high, trimmed


def poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_add(a, b, p):
    n = max(len(a), len(b))
    return poly_trim(((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                     for i in range(n))


def poly_sub(a, b, p):
    n = max(len(a), len(b))
    return poly_trim(((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
                     for i in range(n))


def poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return poly_trim(out)


def poly_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = pow(b[-1], p - 2, p)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv_lead % p
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                a[i + j] = (a[i + j] - c * bj) % p
    return poly_trim(q), poly_trim(a)


def poly_mod(a, b, p):
    return poly_divmod(a, b, p)[1]


def poly_gcd(a, b, p):
    while b:
        a, b = b, poly_mod(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = poly_trim(c * inv % p for c in a)
    return a


def poly_powmod(base, e, mod, p):
    result = (1,)
    base = poly_mod(base, mod, p)
    while e:
        if e & 1:
            result = poly_mod(poly_mul(result, base, p), mod, p)
        base = poly_mod(poly_mul(base, base, p), mod, p)
        e >>= 1
    return result


def poly_eval(f, x, ctx):
    """f(x) for a polynomial f over F_p and an element x of the field
    ctx, by Horner's rule in ctx."""
    acc = 0
    for c in reversed(f):
        acc = ctx.add(ctx.mul(acc, x), c)
    return acc


def _is_irreducible(f, p):
    """Degree-l monic f is irreducible iff x^(p^l) = x mod f and
    gcd(x^(p^(l/t)) - x, f) = 1 for every prime t | l.

    The divisor-gcd conditions alone are not enough (a degree-8 product of
    irreducibles of degrees 3 and 5 passes them); the x^(p^l) = x check
    forces every factor degree to divide l.
    """
    ell = len(f) - 1
    x = (0, 1)
    xq = poly_powmod(x, p**ell, f, p)
    if poly_sub(xq, x, p):
        return False
    for t in prime_factors(ell):
        xd = poly_powmod(x, p ** (ell // t), f, p)
        if poly_gcd(poly_sub(xd, x, p), f, p) != (1,):
            return False
    return True


def _smallest_irreducible(p, ell):
    """Lexicographically first monic irreducible of degree ell over F_p,
    comparing coefficient vectors (c_0, ..., c_{ell-1})."""
    if ell == 1:
        return (0, 1)  # the polynomial x
    for idx in range(p**ell):
        coeffs = []
        t = idx
        for _ in range(ell):
            coeffs.append(t % p)
            t //= p
        f = tuple(coeffs) + (1,)
        if _is_irreducible(f, p):
            return f
    raise BoundViolated("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------


class FieldCtx:
    """Immutable context for F_{p^ell}; all element operations are pure.

    Obtain it from `make_field`: there is one context per field, and two
    contexts are equal only when they are the same object.  Elements are
    integer indices (see module docstring).  Scalar operations of a prime
    field work for any allowed size; those of an extension field, and the
    numpy table accessors for bulk index arithmetic, require q <=
    TABLE_LIMIT.  The lazily built tables, scalar lists and subfield lists
    are idempotent caches, bounded by the field size, that every caller of
    the field shares.
    """

    def __init__(self, p, ell):
        if ell < 1:
            raise DegreeZero(f"extension degree must be >= 1, got {ell}")
        if not isinstance(p, int) or p < 2 or not is_prime(p):
            raise NonPrime(f"{p} is not prime")
        if p >= PRIME_LIMIT:
            raise NonPrime(f"p must be < 2^31, got {p}")
        if p**ell > ORDER_LIMIT:
            raise DegreeZero(f"field order p^ell must be <= 2^40, got {p}^{ell}")
        self.p = p
        self.ell = ell
        self.q = p**ell
        self.modulus = _smallest_irreducible(p, ell)
        self._pp = tuple(p**i for i in range(ell))
        self._exp = None
        self._log = None
        self._lists = None  # (exp, log, zech, degree) Python lists
        self._deg = None
        self._sub = {}
        self._mulc = {}
        self._powt = {}
        self._addt = None

    # -- conversions --------------------------------------------------------

    def coeffs(self, a):
        out = []
        for _ in range(self.ell):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def element(self, coeffs):
        a = 0
        for c, pk in zip(coeffs, self._pp):
            a += (c % self.p) * pk
        return a

    def elements(self):
        return range(self.q)

    # -- scalar arithmetic on indices ---------------------------------------

    def _scalar_lists(self):
        """(exp, log, zech, degree) as Python lists, for an extension field,
        built on its first scalar call from the numpy tables: exp doubled
        (length 2(q-1)), log (log[0] unused), zech[k] = log(1 + g^k) or -1
        where 1 + g^k = 0 (Zech logarithms), degree = subfield_degree_table.
        Then g^i + g^j = g^(i + zech[j - i]), where a negative j - i
        indexes zech from the end, since g^(j-i) = g^(q-1+j-i)."""
        if self._lists is None:
            exp, log = self._exp_log()
            powers = exp[: self.q - 1]
            one_plus = self.add_arrays(powers, 1)
            zech = np.where(one_plus == 0, -1, log[one_plus])
            half = powers.tolist()  # both halves share one set of ints
            self._lists = (half + half, log.tolist(), zech.tolist(),
                           self.subfield_degree_table().tolist())
        return self._lists

    def add(self, a, b):
        if self.ell == 1:
            return (a + b) % self.p
        if a == 0 or b == 0:
            return a or b
        exp, log, zech, _ = self._lists or self._scalar_lists()
        la = log[a]
        z = zech[log[b] - la]
        return 0 if z < 0 else exp[la + z]

    def neg(self, a):
        if self.ell == 1:
            return -a % self.p
        if a == 0 or self.p == 2:
            return a
        exp, log, _, _ = self._lists or self._scalar_lists()
        return exp[log[a] + (self.q - 1) // 2]  # -1 = g^((q-1)/2)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.ell == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        exp, log, _, _ = self._lists or self._scalar_lists()
        return exp[log[a] + log[b]]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.ell == 1:
            return pow(a, -1, self.p)
        exp, log, _, _ = self._lists or self._scalar_lists()
        return exp[self.q - 1 - log[a]]

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.ell == 1:
            return pow(a, e, self.p)
        if a == 0:
            return 0 if e else 1
        exp, log, _, _ = self._lists or self._scalar_lists()
        return exp[log[a] * e % (self.q - 1)]

    def frobenius(self, a):
        return self.pow(a, self.p)

    def order(self, a):
        """Multiplicative order of a nonzero element."""
        if a == 0:
            raise ZeroDivisionError("order of zero")
        n = self.q - 1
        if self._log is not None:
            return n // gcd(int(self._log[a]), n)
        # table-free until the log table exists, through the module's
        # poly helpers: while multiplicative_generator bootstraps it, and
        # in a prime field whose scalar operations never build it
        for r in prime_factors(n):
            while n % r == 0 and poly_powmod(self.coeffs(a), n // r,
                                             self.modulus, self.p) == (1,):
                n //= r
        return n

    def multiplicative_generator(self):
        for a in range(1, self.q):
            if self.order(a) == self.q - 1:
                return a
        raise BoundViolated("multiplicative group not cyclic")  # unreachable

    def subfield_degree(self, a):
        if self.ell == 1:
            return 1
        return (self._lists or self._scalar_lists())[3][a]

    def join_degree(self, elems):
        """Degree over F_p of the subfield generated by a set of elements."""
        return lcm(1, *(self.subfield_degree(a) for a in elems))

    # -- numpy tables (q <= TABLE_LIMIT) -------------------------------------

    def _exp_log(self):
        """exp[i] = g^i (doubled, length 2(q-1)) and log, its inverse on
        the nonzero indices, for the first generator g.  exp is built by
        doubling: exp[k:2k] = exp[:k] * g^k, where multiplying by the
        constant g^k is an ell x ell matrix over F_p on base-p digits."""
        if self._exp is None:
            if self.q > TABLE_LIMIT:
                raise FieldTooLarge("field too large for exp/log tables")
            g, n, p = self.multiplicative_generator(), self.q - 1, self.p
            pp = np.array(self._pp, dtype=np.int64)
            # row i: the digits of g^k * x^i (x^i has index p^i), k = 1
            mat = np.array([self.coeffs(self._mul_slow(g, pk))
                            for pk in self._pp], dtype=np.int64)
            exp = np.empty(2 * n, dtype=np.int64)
            exp[0], k = 1, 1
            while k < n:
                m = min(k, n - k)
                exp[k:k + m] = (exp[:m, None] // pp % p) @ mat % p @ pp
                mat = mat @ mat % p  # g^k -> g^2k
                k += m
            exp[n:] = exp[:n]
            log = np.zeros(self.q, dtype=np.int64)
            log[exp[:n]] = np.arange(n)
            self._exp, self._log = exp, log
        return self._exp, self._log

    def _mul_slow(self, a, b):
        p = self.p
        return self.element(poly_mod(poly_mul(self.coeffs(a), self.coeffs(b), p),
                                     self.modulus, p))

    def mul_arrays(self, A, B):
        exp, log = self._exp_log()
        out = exp[log[A] + log[B]]
        return np.where((A == 0) | (B == 0), 0, out)

    def mul_const_table(self, c):
        t = self._mulc.get(c)
        if t is None:
            if c == 0:
                t = np.zeros(self.q, dtype=np.int64)
            else:
                exp, log = self._exp_log()
                t = np.concatenate(([0], exp[log[1:self.q] + log[c]]))
            self._mulc[c] = t
        return t

    def pow_table(self, e):
        t = self._powt.get(e)
        if t is None:
            exp, log = self._exp_log()
            t = np.concatenate(([1 if e == 0 else 0],
                                exp[(log[1:self.q] * e) % (self.q - 1)]))
            self._powt[e] = t
        return t

    def frob_table(self):
        return self.pow_table(self.p)

    def _add_blocks(self):
        """(r, table, weights) for adding c base-p digits at a time: c is
        the largest block with (p^c)^2 <= TABLE_LIMIT, at most ell, and
        r = p^c.  table[a * r + b] is the digit-wise sum of two indices
        below r, built and kept in the smallest unsigned dtype that holds
        2r (it bounds every digit sum), at most two bytes an entry; the
        weights r^k place the blocks.  With p^2 > TABLE_LIMIT, c = 1 and
        table is None: one digit at a time."""
        if self._addt is None:
            p, c = self.p, 1
            while c < self.ell and p ** (2 * c + 2) <= TABLE_LIMIT:
                c += 1
            r, table = p**c, None
            if p * p <= TABLE_LIMIT:
                d = np.arange(r, dtype=np.min_scalar_type(2 * r))
                table = np.zeros((r, r), dtype=d.dtype)
                for pk in self._pp[:c]:
                    digit = d // pk % p
                    table += (digit[:, None] + digit) % p * pk
                table = table.ravel()
            weights = tuple(np.int64(p**k) for k in range(0, self.ell, c))
            self._addt = (r, table, weights)
        return self._addt

    def add_arrays(self, A, B):
        A = np.asarray(A, dtype=np.int64)
        B = np.asarray(B, dtype=np.int64)
        r, table, weights = self._add_blocks()
        if table is not None and len(weights) == 1:
            return table[A * r + B].astype(np.int64)
        out = np.zeros(np.broadcast_shapes(A.shape, B.shape), dtype=np.int64)
        for w in weights:
            a, b = A % r, B % r
            # table entries times the int64 weight widen to int64
            out += (table[a * r + b] if table is not None else (a + b) % r) * w
            A, B = A // r, B // r
        return out

    def neg_table(self):
        return self.mul_const_table(self.p - 1)  # p-1 is the index of -1

    def subfield_degree_table(self):
        if self._deg is None:
            frob = self.frob_table()
            deg = np.zeros(self.q, dtype=np.int64)  # 0 = not yet decided
            img = np.arange(self.q)
            prev = 0
            for d in _divisors(self.ell):
                for _ in range(d - prev):
                    img = frob[img]
                prev = d
                fixed = (img == np.arange(self.q)) & (deg == 0)
                deg[fixed] = d
            self._deg = deg
        return self._deg

    def subfield(self, d):
        """Elements of the subfield F_{p^d}, d | ell, in increasing order:
        those fixed by the d-th Frobenius power, i.e. whose degree divides d
        (Lidl-Niederreiter, Finite Fields, Thm 2.14)."""
        elems = self._sub.get(d)
        if elems is None:
            if d < 1 or self.ell % d:
                raise ValueError(f"subfield degree {d} does not divide {self.ell}")
            deg = self.subfield_degree_table()
            elems = self._sub[d] = tuple(np.flatnonzero(d % deg == 0).tolist())
        return elems

    # -- misc ----------------------------------------------------------------

    def serialize(self):
        mods = ",".join(str(c) for c in self.modulus)
        return f"p={self.p} ell={self.ell} mod={mods}"

    def __repr__(self):
        return f"FieldCtx(p={self.p}, ell={self.ell}, modulus={self.modulus})"


def _divisors(n):
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def _row_reduce(m, ncols, p):
    """Gauss-Jordan elimination over F_p, in place, of the list of row
    lists m on its first ncols columns; the later columns ride along.
    Returns the pivot columns: row r of the result has a 1 in column
    pivots[r] and 0 in every other pivot column, and rows from
    len(pivots) on are 0 in the first ncols columns."""
    nrows = len(m)
    pivots = []
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if m[r][col] % p), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = pow(m[row][col], p - 2, p)
        m[row] = [x * inv % p for x in m[row]]
        for r in range(nrows):
            if r != row and m[r][col] % p:
                c = m[r][col]
                m[r] = [(x - c * y) % p for x, y in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return pivots


_FIELDS = {}  # (p, ell) -> the one FieldCtx of that field


def make_field(p, ell):
    """The context of F_{p^ell}, with the deterministically chosen smallest
    modulus: built on the first call, the same object on every later one."""
    ctx = _FIELDS.get((p, ell))
    if ctx is None:
        ctx = _FIELDS[(p, ell)] = FieldCtx(p, ell)
    return ctx


def frobenius(ctx, a):
    return ctx.frobenius(a)


def generated_subfield_degree(ctx, a):
    return ctx.subfield_degree(a)


def minimal_polynomial(ctx, a):
    """Monic minimal polynomial of a over F_p, as a low-to-high tuple.

    The product of (y - conj) over the Frobenius orbit, once per orbit of
    each field; its coefficients are checked to lie in the prime field.
    """
    conjugates = [a]
    while (x := ctx.frobenius(conjugates[-1])) != a:
        if len(conjugates) == ctx.ell:  # an orbit has at most ell elements
            raise BoundViolated(f"the Frobenius orbit of {a} does not close")
        conjugates.append(x)
    return _orbit_polynomial(ctx, tuple(sorted(conjugates)))


@lru_cache(maxsize=1 << 12)
def _orbit_polynomial(ctx, conjugates):
    # product of (y - c) with coefficients in the big field
    coeffs = [1]  # monic, low-to-high in y with field-element entries
    for c in conjugates:
        nxt = [0] * (len(coeffs) + 1)
        for i, t in enumerate(coeffs):
            nxt[i + 1] = ctx.add(nxt[i + 1], t)
            nxt[i] = ctx.sub(nxt[i], ctx.mul(c, t))
        coeffs = nxt
    if max(coeffs) >= ctx.p:
        raise BoundViolated("minimal polynomial has non-prime-field coefficient")
    return poly_trim(coeffs)


@dataclass
class CountLemmaReport:
    """Exhaustive check that for every nonzero gamma, the proportion of
    alpha with F_p(alpha^N * gamma) = F_q is at least 1 - N/p."""
    p: int
    ell: int
    N: int
    worst_proportion: Fraction
    bound: Fraction
    holds: bool


def _row_blocks(nrows, width):
    """Consecutive row slices of a nrows x width check, each of at most
    LEMMA_BLOCK elements (at least one row)."""
    step = max(1, LEMMA_BLOCK // width)
    return [slice(i, i + step) for i in range(0, nrows, step)]


def verify_count_lemma(ctx, N):
    if not (1 <= N < ctx.p):
        raise ValueError("need p > N >= 1")
    q = ctx.q
    deg = ctx.subfield_degree_table()
    powN = ctx.pow_table(N)
    min_count = q  # over F_p every alpha counts: F_p(anything) = F_p
    if ctx.ell > 1:
        exp, log = ctx._exp_log()
        # full[i]: g^i generates F_q, over the doubled exp, so that the
        # index log(alpha^N) + log(gamma) needs no reduction mod q - 1
        full = deg[exp] == ctx.ell
        logs = log[powN[1:]]  # alpha != 0 handled apart; alpha = 0 always fails
        # log(gamma) runs over 0..q-2 as gamma runs over the nonzero elements
        shifts = np.arange(q - 1)
        for rows in _row_blocks(q - 1, q - 1):
            counts = np.count_nonzero(full[shifts[rows, None] + logs], axis=1)
            min_count = min(min_count, int(counts.min()))
    worst = Fraction(min_count, q)
    bound = Fraction(ctx.p - N, ctx.p)
    holds = worst >= bound
    if not holds:
        raise BoundViolated(
            f"count lemma failed: worst {worst} < bound {bound} for q={q}, N={N}")
    return CountLemmaReport(ctx.p, ctx.ell, N, worst, bound, holds)


@dataclass
class EnlargeLemmaReport:
    """Exhaustive check of the two unit-enlargement statements: part (i)
    existence of lambda in F_p(alpha^N) keeping the generated field at least
    as large, part (ii) strict growth whenever its hypothesis holds.

    `triples_checked` counts every (alpha, beta, k) with alpha != 0.  Those
    whose alpha^N generates F_q are settled by the witness lambda = (alpha -
    beta) * alpha^(-k) (see `verify_enlarge_lemma`); the rest by searching
    lambda.  `part_ii_instances` counts the triples where part (ii)'s
    hypothesis holds."""
    p: int
    ell: int
    N: int
    triples_checked: int
    part_ii_instances: int
    holds: bool


def verify_enlarge_lemma(ctx, N):
    if not (1 <= N < ctx.p):
        raise ValueError("need p > N >= 1")
    p, q, ell = ctx.p, ctx.q, ctx.ell
    exp, log = ctx._exp_log()
    deg = ctx.subfield_degree_table()
    powN1 = ctx.pow_table(N - 1)
    deg_N = deg[ctx.pow_table(N)]  # deg(x^N) for x = 0..q-1
    betas = np.arange(q, dtype=np.int64)
    part_ii = 0
    first = None  # (alpha, k, part, beta) of the first failure
    # An alpha with F_p(alpha^N) = F_q settles every (beta, k) without a
    # search.  Part (i): the witness lambda = (alpha - beta) * alpha^(-k)
    # lies in F_q, and (beta + lambda * alpha^k)^N = alpha^N has degree
    # ell.  Part (ii): every degree divides ell, so its hypothesis
    # join > d_a cannot hold.  So only the proper divisors d_a of ell are
    # searched, one row per (alpha, k) and one column per beta.
    for d_a in _divisors(ell)[:-1]:
        alphas = np.flatnonzero(deg_N[1:] == d_a) + 1
        row_alpha = np.repeat(alphas, N)  # alpha-major
        row_k = np.tile(np.arange(N), len(alphas))
        lam_pool = ctx.subfield(d_a)  # the at most sqrt(q) lambda
        for rows in _row_blocks(len(row_alpha), q):
            alpha, k = row_alpha[rows], row_k[rows]
            ak = exp[log[alpha] * k % (q - 1)]
            # part (ii) hypothesis per (row, beta)
            akbN1 = ctx.mul_arrays(ak[:, None], powN1)
            join = np.lcm(d_a, np.lcm(deg_N, deg[akbN1]))
            strict_pending = join > d_a
            part_ii += int(np.count_nonzero(strict_pending))
            # part (i): exists lambda with deg((beta + lambda*alpha^k)^N) >= d_a
            pending = np.ones((len(ak), q), dtype=bool)
            live = np.arange(len(ak))
            for lam in lam_pool:
                live = live[pending[live].any(axis=1)
                            | strict_pending[live].any(axis=1)]
                if not live.size:
                    break
                lam_ak = ctx.mul_arrays(lam, ak[live])
                dN = deg_N[ctx.add_arrays(betas, lam_ak[:, None])]
                pending[live] &= dN < d_a
                strict_pending[live] &= dN <= d_a
            failed = np.flatnonzero(pending.any(axis=1)
                                    | strict_pending.any(axis=1))
            if failed.size:
                i = failed[0]
                part, bad = (("i", pending[i]) if pending[i].any()
                             else ("ii", strict_pending[i]))
                fail = (int(alpha[i]), int(k[i]), part,
                        int(np.flatnonzero(bad)[0]))
                first = min(first or fail, fail)
                break  # later blocks of this d_a hold larger alphas
    if first is not None:
        alpha, k, part, b = first
        raise BoundViolated(
            f"enlarge lemma ({part}) failed at q={q}, N={N}, alpha={alpha}, beta={b}, k={k}")
    return EnlargeLemmaReport(p, ell, N, (q - 1) * N * q, part_ii, True)
