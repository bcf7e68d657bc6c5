"""Sparse multivariate polynomials over a field context, polynomial
endomorphisms of F_p[x_1,...,x_n], and degrees under the Z/(E-1)Z grading
that tame.GroupParams states.

A MultiPoly stores a dict mapping exponent vectors (tuples of length n) to
nonzero field-element indices; no product, sum or substitution may exceed
TERM_CAP terms (DegreeOverflow).  A PolyEndo is a list of n images; the
action loop of tame builds a word's images by substituting them into one
letter delta at a time.  Equality of endomorphisms is symbolic
(normalized coefficient comparison); callers that cannot afford expansion
compare actions on a grid instead, which is exact for maps of known
bounded degree.
"""

from __future__ import annotations

import numpy as np

from .errors import DegreeOverflow, DimensionMismatch

TERM_CAP = 10**6


class MultiPoly:
    """Sparse polynomial in n variables over a FieldCtx."""

    __slots__ = ("ctx", "n", "terms")

    def __init__(self, ctx, n, terms=None):
        self.ctx = ctx
        self.n = n
        self.terms = {}
        if terms:
            for expv, c in (terms.items() if isinstance(terms, dict) else terms):
                self._add_term(expv, c)

    def _add_term(self, expv, c):
        if len(expv) != self.n:
            raise DimensionMismatch("exponent vector has wrong length")
        if c == 0:
            return
        expv = tuple(expv)
        cur = self.terms.get(expv)
        if cur is None:
            self.terms[expv] = c
        else:
            s = self.ctx.add(cur, c)
            if s:
                self.terms[expv] = s
            else:
                del self.terms[expv]

    @classmethod
    def zero(cls, ctx, n):
        return cls(ctx, n)

    @classmethod
    def constant(cls, ctx, n, c):
        return cls(ctx, n, {(0,) * n: c})

    @classmethod
    def variable(cls, ctx, n, i):
        """The variable x_i, i 1-based."""
        e = [0] * n
        e[i - 1] = 1
        return cls(ctx, n, {tuple(e): 1})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.n == other.n
                and self.ctx == other.ctx and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __add__(self, other):
        out = MultiPoly(self.ctx, self.n, self.terms)
        for e, c in other.terms.items():
            out._add_term(e, c)
        if len(out.terms) > TERM_CAP:
            raise DegreeOverflow("sum term count exceeds cap")
        return out

    def __neg__(self):
        ctx = self.ctx
        return MultiPoly(ctx, self.n, {e: ctx.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, c):
        ctx = self.ctx
        if c == 0:
            return MultiPoly.zero(ctx, self.n)
        return MultiPoly(ctx, self.n, {e: ctx.mul(v, c) for e, v in self.terms.items()})

    def __mul__(self, other):
        ctx = self.ctx
        out = MultiPoly(ctx, self.n)
        if len(self.terms) * len(other.terms) > TERM_CAP:
            raise DegreeOverflow("product term count exceeds cap")
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                out._add_term(tuple(a + b for a, b in zip(e1, e2)), ctx.mul(c1, c2))
            if len(out.terms) > TERM_CAP:
                raise DegreeOverflow("product term count exceeds cap")
        return out

    def power(self, e):
        """self^e by repeated squaring; the product starts from the first
        square it needs, not from the constant 1."""
        if not e:
            return MultiPoly.constant(self.ctx, self.n, 1)
        base = self
        while not e & 1:
            base = base * base
            e >>= 1
        result = base
        while e := e >> 1:
            base = base * base
            if e & 1:
                result = result * base
        return result

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def evaluate(self, point):
        """Value at a point given as a tuple of element indices."""
        if len(point) != self.n:
            raise DimensionMismatch("point dimension mismatch")
        ctx = self.ctx
        acc = 0
        for expv, c in self.terms.items():
            t = c
            for a, e in zip(point, expv):
                if e:
                    t = ctx.mul(t, ctx.pow(a, e))
            acc = ctx.add(acc, t)
        return acc

    def evaluate_arrays(self, coords):
        """Values at many points given as per-coordinate numpy index
        arrays, through the context's power and multiplication tables."""
        if len(coords) != self.n:
            raise DimensionMismatch("point dimension mismatch")
        ctx = self.ctx
        shape = np.shape(coords[0])
        acc = None
        for expv, c in self.terms.items():
            t = None
            for a, e in zip(coords, expv):
                if e:
                    v = ctx.pow_table(e)[a]
                    t = v if t is None else ctx.mul_arrays(t, v)
            t = (np.full(shape, c, dtype=np.int64) if t is None
                 else ctx.mul_const_table(c)[t])
            acc = t if acc is None else ctx.add_arrays(acc, t)
        return np.zeros(shape, dtype=np.int64) if acc is None else acc

    def substitute(self, images):
        """Plug images[i] in for x_{i+1}; images are MultiPoly over the same ctx."""
        ctx = self.ctx
        n_out = images[0].n
        out = MultiPoly(ctx, n_out)
        pow_cache = [dict() for _ in range(self.n)]
        for expv, c in self.terms.items():
            t = None
            for i, e in enumerate(expv):
                if e:
                    pe = pow_cache[i].get(e)
                    if pe is None:
                        pe = images[i].power(e)
                        pow_cache[i][e] = pe
                    t = pe.scaled(c) if t is None else t * pe
            out = out + (MultiPoly.constant(ctx, n_out, c) if t is None
                         else t)
        return out

    def text(self):
        """Canonical text form `c*x1^a1*...*xn^an + ...`, coefficients in the
        power basis of the field."""
        if not self.terms:
            return "0"
        parts = []
        for expv in sorted(self.terms, reverse=True):
            c = self.terms[expv]
            factors = []
            cc = self.ctx.coeffs(c)
            cs = "(" + ",".join(str(x) for x in cc) + ")" if self.ctx.ell > 1 else str(c)
            factors.append(cs)
            for i, e in enumerate(expv):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"MultiPoly({self.text()})"


class PolyEndo:
    """Polynomial endomorphism: images[i] is the image of x_{i+1}."""

    __slots__ = ("ctx", "n", "images")

    def __init__(self, images):
        if not images:
            raise DimensionMismatch("empty image list")
        self.images = list(images)
        self.ctx = images[0].ctx
        self.n = images[0].n
        for f in images:
            if f.n != self.n or f.ctx != self.ctx:
                raise DimensionMismatch("inconsistent images")
        if len(images) != self.n:
            raise DimensionMismatch("need one image per variable")

    def __eq__(self, other):
        return isinstance(other, PolyEndo) and self.images == other.images

    def evaluate(self, point):
        return tuple(f.evaluate(point) for f in self.images)

    def __repr__(self):
        return "PolyEndo(" + "; ".join(f"x{i + 1} -> {f.text()}" for i, f in enumerate(self.images)) + ")"


def evaluate(f, point):
    """Value of a MultiPoly at an affine point (tuple of element indices)."""
    return f.evaluate(point)


def grading_degree(mono, params):
    """Grading degree of an exponent vector, a residue mod N, under the
    Z/N grading of a tame.GroupParams."""
    if params.N < 1:
        return 0
    return sum(a * d for a, d in zip(mono, params.deg)) % params.N


def is_graded(endo, params):
    """True iff every monomial of images[i] has the grading degree of
    x_{i+1} under the grading of a tame.GroupParams."""
    for i, f in enumerate(endo.images):
        want = params.deg[i]
        for expv in f.terms:
            if grading_degree(expv, params) != want:
                return False
    return True
