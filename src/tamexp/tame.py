"""Generator alphabet of the tame groups, words over it, and their action.

Letters use 1-based variable indices to match the usual notation.  The +1
action of a transvection letter T(i,j,e,r) on an affine point adds
r * a_j^e to coordinate i; sign -1 subtracts.  Words act left to right:
apply_word(u + v, a) == apply_word(v, apply_word(u, a)).

Each transvection-type letter is stated once, as the polynomial it adds
to one coordinate (_letter_delta), and one loop (_act) runs a word's
letters: on tuples of field-element indices (see ff), on per-coordinate
numpy index arrays via the context tables, and symbolically, where each
delta takes the current images of x_1, ..., x_n.  Checks over many points
run on the arrays (same_action), sampled or on the broadcast grid; the
point action serves single points and test oracles.

Ring automorphisms act on points through inverse precomposition, which
flips the sign of the transvection coefficient; the +1 convention here
absorbs that flip, so the generated permutation group is unchanged and
the letters act by the explicit additive formulas.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from math import prod

import numpy as np

from .errors import DimensionMismatch
from .ff import is_prime
from .polyring import MultiPoly, PolyEndo


@dataclass(frozen=True)
class Transvection:
    """x_i -> x_i + r*x_j^e (point action on coordinate i)."""
    i: int
    j: int
    e: int
    r: int

    def __post_init__(self):
        if min(self.i, self.j) < 1 or self.i == self.j or self.e < 0:
            raise ValueError("need 1 <= i != j and e >= 0")


@dataclass(frozen=True)
class BiTransvection:
    """x_i -> x_i + r*x_j^c*x_k^d."""
    i: int
    j: int
    k: int
    c: int
    d: int
    r: int

    def __post_init__(self):
        if min(self.i, self.j, self.k) < 1:
            raise ValueError("letter indices are 1-based")
        if self.i in (self.j, self.k) or self.j == self.k:
            raise ValueError("need i not in {j,k} and j != k")
        if self.c < 0 or self.d < 0:
            raise ValueError("exponents must be >= 0")


@dataclass(frozen=True)
class PolyTransvection:
    """x_i -> x_i + x_j^t * P(x_j^nexp); coeffs holds P low-to-high over F_p.

    t and nexp are stored on the letter (they are t_{i,j} and E-1 of the
    owning group) so the letter acts without further context.
    """
    i: int
    j: int
    coeffs: tuple
    t: int
    nexp: int

    def __post_init__(self):
        if min(self.i, self.j) < 1 or self.i == self.j:
            raise ValueError("need 1 <= i != j")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))


@dataclass(frozen=True)
class CoordCycle:
    """Point action (a_1, ..., a_n) -> (a_2, ..., a_n, a_1)."""


class Word:
    """Sequence of (letter, sign) pairs; the empty word is the identity."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        self.letters = tuple(letters)

    @classmethod
    def of(cls, *letters):
        return cls((let, +1) for let in letters)

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __add__(self, other):
        return Word(self.letters + other.letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def inverse(self):
        return Word((let, -s) for let, s in reversed(self.letters))

    def conjugated_by(self, h):
        """h * self * h^-1: apply h first, then self, then h^-1."""
        return h + self + h.inverse()

    def commutator_with(self, other):
        """self * other * self^-1 * other^-1 with left-to-right application."""
        return self + other + self.inverse() + other.inverse()

    def text(self):
        return " ".join(_letter_text(let, s) for let, s in self.letters)

    def __repr__(self):
        return f"Word({self.text()!r})" if self.letters else "Word()"


def _letter_text(let, sign):
    if isinstance(let, Transvection):
        base = f"T({let.i},{let.j},{let.e},{let.r})"
    elif isinstance(let, BiTransvection):
        base = f"B({let.i},{let.j},{let.k},{let.c},{let.d},{let.r})"
    elif isinstance(let, PolyTransvection):
        base = f"P({let.i},{let.j},[{','.join(str(c) for c in let.coeffs)}])"
    elif isinstance(let, CoordCycle):
        base = "S"
    else:
        raise TypeError(f"unknown letter {let!r}")
    return base + ("^-1" if sign < 0 else "")


_LETTER_RE = re.compile(
    r"(T\((\d+),(\d+),(\d+),(\d+)\)|B\((\d+),(\d+),(\d+),(\d+),(\d+),(\d+)\)"
    r"|P\((\d+),(\d+),\[([0-9,]*)\]\)|S)(\^-1)?$")


def parse_word(text, params=None):
    """Parse the whitespace-separated text format.

    P letters need `params` to recover t_{i,j} and E-1.
    """
    out = []
    for tok in text.split():
        m = _LETTER_RE.match(tok)
        if not m:
            raise ValueError(f"cannot parse letter {tok!r}")
        sign = -1 if m.group(15) else +1
        if tok.startswith("T"):
            let = Transvection(int(m.group(2)), int(m.group(3)),
                               int(m.group(4)), int(m.group(5)))
        elif tok.startswith("B"):
            let = BiTransvection(*(int(m.group(k)) for k in range(6, 12)))
        elif tok.startswith("P"):
            if params is None:
                raise ValueError("P letters need group parameters to parse")
            i, j = int(m.group(12)), int(m.group(13))
            coeffs = tuple(int(c) for c in m.group(14).split(",") if c != "")
            let = poly_transvection_letter(params, i, j, coeffs)
        else:
            let = CoordCycle()
        out.append((let, sign))
    return Word(out)


@dataclass(frozen=True)
class GroupParams:
    """Parameters p, n, (e_1, ..., e_n) of a tame transvection group, and
    what follows from e: E = e_1...e_n, N = E - 1, the scale exponents
    d_i = e_i * e_{i+1} * ... * e_n of the Gamma action, and the
    Z/N grading deg(x_i) = d_i mod N (all 0 when N <= 1)."""
    p: int
    n: int
    e: tuple
    d: tuple = field(init=False, repr=False, compare=False)
    deg: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "e", tuple(self.e))
        if self.n < 3:
            raise ValueError("need n >= 3")
        if len(self.e) != self.n or any(x < 1 for x in self.e):
            raise ValueError("need n positive exponents")
        if not is_prime(self.p):
            raise ValueError("p must be prime")
        object.__setattr__(self, "d",
                           tuple(prod(self.e[i:]) for i in range(self.n)))
        N = self.N
        object.__setattr__(self, "deg",
                           tuple(x % N if N > 1 else 0 for x in self.d))

    @property
    def E(self):
        return self.d[0]

    @property
    def N(self):
        return self.E - 1

    def tij(self, i, j):
        """t_{i,j} = e_i * e_{i+1} * ... * e_{j-1}, indices cyclic, i != j:
        d_i / d_j for i < j and d_i * E / d_j for i > j."""
        if i == j:
            raise ValueError("t_{i,j} needs i != j")
        return self.d[i - 1] * (self.E if i > j else 1) // self.d[j - 1]


def tau(params, i, r=1):
    """Standard generator: adds r * a_{i+1}^{e_i} to coordinate i."""
    j = i % params.n + 1
    return Transvection(i, j, params.e[i - 1], r % params.p)


def standard_generators(params):
    """The n standard generator words tau_i with r = 1, which generate
    the same cyclic subgroups over F_p as every nonzero coefficient."""
    return [Word.of(tau(params, i, 1)) for i in range(1, params.n + 1)]


def poly_transvection_letter(params, i, j, coeffs):
    return PolyTransvection(i, j, tuple(c % params.p for c in coeffs),
                            params.tij(i, j), params.N)


# ---------------------------------------------------------------------------
# actions: every transvection-type letter is one delta polynomial


@lru_cache(maxsize=1024)
def _letter_delta(letter, sign, ctx, n):
    """(i, delta): the signed letter adds the MultiPoly delta to coordinate
    i (0-based) of F_q^n.  This is the only statement of each letter's
    formula; the point, array and symbolic actions all evaluate it."""
    if isinstance(letter, Transvection):
        indices = (letter.i, letter.j)
        terms = [(letter.r % ctx.p, {letter.j: letter.e})]
    elif isinstance(letter, BiTransvection):
        indices = (letter.i, letter.j, letter.k)
        terms = [(letter.r % ctx.p, {letter.j: letter.c, letter.k: letter.d})]
    elif isinstance(letter, PolyTransvection):
        # x_j^t * P(x_j^(E-1)) expanded: c_m * x_j^(t + m(E-1))
        indices = (letter.i, letter.j)
        terms = [(c, {letter.j: letter.t + m * letter.nexp})
                 for m, c in enumerate(letter.coeffs)]
    else:
        raise TypeError(f"unknown letter {letter!r}")
    if max(indices) > n:
        raise DimensionMismatch("letter index exceeds point dimension")
    delta = MultiPoly(ctx, n, [
        (tuple(powers.get(k, 0) for k in range(1, n + 1)),
         c if sign > 0 else ctx.neg(c)) for c, powers in terms])
    return letter.i - 1, delta


def _rotate(seq, sign):
    """CoordCycle's action on a list of coordinates."""
    return seq[1:] + seq[:1] if sign > 0 else seq[-1:] + seq[:-1]


def _act(word, state, ctx, value, add):
    """The one loop over a word's (letter, sign) pairs, run on `state`, a
    list of n coordinates: a CoordCycle rotates it, and every other letter
    sets state[i] = add(state[i], value(delta, state)).  Returns the final
    list."""
    n = len(state)
    for let, s in word:
        if isinstance(let, CoordCycle):
            state = _rotate(state, s)
            continue
        i, delta = _letter_delta(let, s, ctx, n)
        if not delta.is_zero():
            state[i] = add(state[i], value(delta, state))
    return state


def apply_letter(letter, sign, point, ctx):
    """Image of one point under a single signed letter."""
    return tuple(_act(((letter, sign),), list(point), ctx,
                      MultiPoly.evaluate, ctx.add))


def apply_word(word, point, ctx):
    return tuple(_act(word, list(point), ctx, MultiPoly.evaluate, ctx.add))


def apply_letter_arrays(letter, sign, coords, ctx):
    """Same action on a list of per-coordinate numpy index arrays."""
    return _act(((letter, sign),), list(coords), ctx,
                MultiPoly.evaluate_arrays, ctx.add_arrays)


def apply_word_arrays(word, coords, ctx):
    return _act(word, list(coords), ctx, MultiPoly.evaluate_arrays,
                ctx.add_arrays)


def same_action(u, v, coords, ctx):
    """Whether words u and v send every point of the per-coordinate index
    arrays `coords` (sampled, or the broadcast grid) to the same image."""
    return all((a == b).all() for a, b in zip(
        apply_word_arrays(u, coords, ctx), apply_word_arrays(v, coords, ctx)))


def sample_coords(rng, q, n, count):
    """`count` random points of F_q^n, drawn from the random.Random `rng`
    point by point, as per-coordinate index arrays."""
    pts = [[rng.randrange(q) for _ in range(n)] for _ in range(count)]
    return list(np.array(pts, dtype=np.int64).reshape(count, n).T.copy())


def grid_coords(q, n):
    """All of F_q^n as a broadcast grid: coordinate k is arange(q) shaped
    to vary along axis n-1-k, so a map that reads m coordinates evaluates
    q^m values, and the point at grid position i has code i."""
    return [np.arange(q).reshape((q,) + (1,) * k) for k in range(n)]


# ---------------------------------------------------------------------------
# symbolic bridge


def letter_endo(letter, sign, ctx, n):
    """The letter's action as a polynomial endomorphism."""
    return word_to_endo(((letter, sign),), ctx, n)


def word_to_endo(word, ctx, n):
    """Endomorphism whose evaluation at any point equals apply_word there,
    built by one delta substitution per letter."""
    images = [MultiPoly.variable(ctx, n, k + 1) for k in range(n)]
    return PolyEndo(_act(word, images, ctx, MultiPoly.substitute,
                         MultiPoly.__add__))
