"""Permutation-group engine: stabilizer chains, exact orders, parity, and
alternating-group certification.

Permutations are numpy int64 arrays mapping index -> image; products apply
left to right (compose(a, b)[x] = b[a[x]]), matching word application.

Two chain strategies share the StabChain interface:

* 'dense' is a deterministic Schreier-Sims with explicit transversals,
  verified by sifting every Schreier generator.  Fine for groups whose
  chain is small (moderate order, or small degree).

* 'cycles' is the chain of Alt(d) for giant alternating groups, taken
  once Alt(d) <= G is proved.  A random element powers to a 3-cycle
  t = (a, b, c) in G, checked as a permutation.  A Schreier tree from a
  carries t to a conjugate T_x = (x, ., .) in G for every point x; if
  their supports form one connected hypergraph, the T_x generate Alt(d)
  (3-cycles on a connected support generate the alternating group on
  its union: Dixon-Mortimer, Permutation Groups, 1996, section 3.3).
  The chain has base t followed by the other points in increasing
  order, and level k's orbit is {b_k, ..., b_{d-1}}, so its order is
  d!/2 on the nose.  Sifting undoes g(b_k) = y at level k by a 3-cycle
  (b_k, y, z) of the level set, O(d) per element.  If every input
  generator is even, |G| <= d!/2, which pins |G| = Alt(d) exactly.
  Several components or an intransitive group give no chain, and
  build_chain falls back to 'dense'.  Randomness only searches for t;
  the certificate is exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import factorial, lcm, prod

import numpy as np

from .errors import BoundViolated, BudgetExceeded
from .orbits import components

MAX_SIFTS = 2_000_000  # Schreier-Sims work budget, in Schreier generators sifted
LADDER_CYCLE_TRIES = 5000  # random elements searched for a first 3-cycle


def identity_perm(n):
    return np.arange(n, dtype=np.int64)


def compose(a, b):
    """Apply a first, then b."""
    return b[a]


def inverse(a):
    inv = np.empty_like(a)
    inv[a] = np.arange(len(a), dtype=a.dtype)
    return inv


def is_identity(a):
    return bool(np.array_equal(a, np.arange(len(a), dtype=a.dtype)))


def perm_from_cycles(n, cycles):
    p = list(range(n))
    for cyc in cycles:
        for x, y in zip(cyc, cyc[1:]):
            p[x] = y
        if cyc:
            p[cyc[-1]] = cyc[0]
    return np.array(p, dtype=np.int64)


def cycle_lengths(p):
    """List of (length, representative) over nontrivial cycles."""
    n = len(p)
    seen = bytearray(n)
    out = []
    lst = p.tolist()
    for i in range(n):
        if seen[i]:
            continue
        j = lst[i]
        if j == i:
            seen[i] = 1
            continue
        length = 1
        seen[i] = 1
        while j != i:
            seen[j] = 1
            j = lst[j]
            length += 1
        out.append((length, i))
    return out


def parity(p):
    """'even' or 'odd' via the cycle decomposition."""
    transpositions = sum(length - 1 for length, _ in cycle_lengths(p))
    return "even" if transpositions % 2 == 0 else "odd"


def perm_order(p):
    return lcm(*(length for length, _ in cycle_lengths(p)))


class Rattle:
    """Product-replacement random elements of <gens> (membership by
    construction); follows the usual rattle scheme."""

    def __init__(self, gens, rng, extra=5, scramble=40):
        n = len(gens[0])
        self.rng = rng
        self.slots = [identity_perm(n) for _ in range(extra)] + [g.copy() for g in gens]
        self.accu = identity_perm(n)
        for _ in range(scramble + 4 * len(gens)):
            self._stir()

    def _stir(self):
        rng = self.rng
        i = rng.randrange(1, len(self.slots))
        j = rng.randrange(1, len(self.slots))
        p = self.slots[i]
        if rng.randrange(2):
            p = inverse(p)
        self.slots[0] = compose(self.slots[0], p)
        c = self.slots[0]
        if rng.randrange(2):
            c = inverse(c)
        self.slots[j] = compose(self.slots[j], c)
        self.accu = compose(self.accu, self.slots[j])
        return self.accu

    def sample(self):
        return self._stir()


# ---------------------------------------------------------------------------
# chains


@dataclass
class _DenseLevel:
    point: int
    gens: list
    transversal: dict  # orbit point -> perm u with u[point] = that point


@dataclass
class StabChain:
    degree: int
    gens: list
    base: list
    orbit_sizes: list
    strategy: str
    seed: int
    levels: list = field(default_factory=list, repr=False)  # dense

    @property
    def order(self):
        # pairwise products keep the factors balanced; a running product
        # of d sizes costs O(d^2) digit operations (seconds at d = 78124)
        sizes = list(self.orbit_sizes) or [1]
        while len(sizes) > 1:
            sizes = [prod(sizes[i:i + 2]) for i in range(0, len(sizes), 2)]
        return sizes[0]

    # -- sifting -------------------------------------------------------------

    def sift(self, g):
        """Reduce g through the chain; returns the residue permutation
        (identity iff membership was established by the chain)."""
        if self.strategy == "dense":
            g = g.copy()
            for lv in self.levels:
                u = lv.transversal.get(int(g[lv.point]))
                if u is None:
                    return g
                g = compose(g, inverse(u))
            return g
        return self._sift_cycles(g)

    def _sift_cycles(self, g):
        # at level k, g <- g * (b_k, y, z)^-1 with y = g(b_k) and z the
        # last base point other than y; the earlier base points are fixed,
        # so y and z lie in the level set
        base = self.base
        glist = g.tolist()
        ginv = [0] * self.degree
        for x, y in enumerate(glist):
            ginv[y] = x
        for bk in base[:-2]:
            y = glist[bk]
            if y == bk:
                continue
            z = base[-1] if y != base[-1] else base[-2]
            xb, xy, xz = ginv[bk], ginv[y], ginv[z]
            glist[xy], glist[xz], glist[xb] = bk, y, z
            ginv[bk], ginv[y], ginv[z] = xy, xz, xb
        return np.array(glist, dtype=np.int64)

    def contains(self, g):
        return is_identity(self.sift(g))


# ---------------------------------------------------------------------------
# deterministic Schreier-Sims ('dense')


def _orbit_transversal(point, gens, degree):
    transversal = {point: identity_perm(degree)}
    frontier = [point]
    while frontier:
        nxt = []
        for x in frontier:
            ux = transversal[x]
            for g in gens:
                y = int(g[x])
                if y not in transversal:
                    transversal[y] = compose(ux, g)
                    nxt.append(y)
        frontier = nxt
    return transversal


def schreier_sims(gens, seed=0, max_sifts=MAX_SIFTS):
    """Deterministic Schreier-Sims with explicit transversals.

    A generator added at level j fixes the first j base points; level k's
    orbit runs over all generators of levels >= k.  Level k is verified by
    sifting all its Schreier generators through the deeper levels, deepest
    levels first, so on return the chain is complete and the product of
    orbit sizes is the exact group order.
    """
    gens = [np.asarray(g, dtype=np.int64) for g in gens]
    degree = len(gens[0])
    levels = []
    sift_count = 0

    def first_moved(g):
        diff = np.flatnonzero(g != np.arange(degree))
        return int(diff[0]) if diff.size else None

    def gens_at(k):
        return [g for lv in levels[k:] for g in lv.gens]

    def rebuild(k):
        levels[k].transversal = _orbit_transversal(levels[k].point,
                                                   gens_at(k), degree)

    def depth_of(g):
        for k, lv in enumerate(levels):
            if g[lv.point] != lv.point:
                return k
        return len(levels)

    def add_gen(g):
        j = depth_of(g)
        if j == len(levels):
            levels.append(_DenseLevel(first_moved(g), [], {}))
        levels[j].gens.append(g)
        for k in range(j + 1):
            rebuild(k)
        return j

    def sift_below(g, start):
        for j in range(start, len(levels)):
            u = levels[j].transversal.get(int(g[levels[j].point]))
            if u is None:
                return g
            g = compose(g, inverse(u))
        return g

    for g in gens:
        if not is_identity(g):
            add_gen(g)

    k = len(levels) - 1
    while k >= 0:
        lv = levels[k]
        added = None
        level_gens = gens_at(k)
        for y, uy in list(lv.transversal.items()):
            for g in level_gens:
                sift_count += 1
                if sift_count > max_sifts:
                    raise BudgetExceeded("schreier-sims work budget exceeded")
                schreier = compose(compose(uy, g),
                                   inverse(lv.transversal[int(g[y])]))
                residue = sift_below(schreier, k + 1)
                if not is_identity(residue):
                    added = add_gen(residue)
                    break
            if added is not None:
                break
        if added is not None:
            k = added  # re-verify from the level that changed
        else:
            k -= 1

    chain = StabChain(degree=degree, gens=gens,
                      base=[lv.point for lv in levels],
                      orbit_sizes=[len(lv.transversal) for lv in levels],
                      strategy="dense", seed=seed, levels=levels)
    for k, lv in enumerate(levels):
        lv.gens = gens_at(k)  # expose the full level generating sets
    for lv in levels:
        for g in lv.gens:
            if not chain.contains(g):
                raise BoundViolated("a level generator does not sift through "
                                    "its own chain")
    return chain


# ---------------------------------------------------------------------------
# the 3-cycle closure ('cycles')


def _extract_three_cycle(g):
    """If g powers to a single 3-cycle, return its support triple in cycle
    order, else None.  Requires exactly one 3-cycle and no other cycle
    length divisible by 3."""
    lengths = cycle_lengths(g)
    threes = [rep for length, rep in lengths if length == 3]
    others = [length for length, _ in lengths if length != 3]
    if len(threes) != 1 or any(length % 3 == 0 for length in others):
        return None
    m = lcm(*others)
    rep = threes[0]
    lst = g.tolist()
    cyc = [rep, lst[rep], lst[lst[rep]]]
    shift = m % 3  # in {1, 2}; both orientations are fine
    return (cyc[0], cyc[shift], cyc[(2 * shift) % 3])


def _power(p, m):
    """p^m by repeated squaring."""
    out = identity_perm(len(p))
    while m:
        if m & 1:
            out = compose(out, p)
        p = compose(p, p)
        m >>= 1
    return out


def _conjugate_triples(gens, triple):
    """(3, d) array T whose column x is the 3-cycle t^w = (x, T[1, x],
    T[2, x]) for the word w on a BFS Schreier tree path from a to x, where
    t = (a, b, c) = triple; None if the tree does not reach every point."""
    d = len(gens[0])
    moves = gens + [inverse(g) for g in gens]
    T = np.full((3, d), -1, dtype=np.int64)
    T[:, triple[0]] = triple
    frontier = np.array([triple[0]], dtype=np.int64)
    while frontier.size:
        reached = []
        for h in moves:
            img = h[T[:, frontier]]  # conjugate by h: img[0] = h(frontier)
            img = img[:, T[0, img[0]] < 0]
            T[:, img[0]] = img
            reached.append(img[0])
        frontier = np.concatenate(reached)
    return None if (T[0] < 0).any() else T


def try_alt_ladder(gens, seed=0):
    """Prove Alt(d) <= <gens> by a 3-cycle closure and return the chain of
    Alt(d), or None if the proof does not go through (the group is then
    presumably not a giant).

    A rattle search finds g in the group powering to a 3-cycle t; the
    conjugates of t along a Schreier tree give a 3-cycle at every point,
    and one connected component of their supports proves the claim.
    """
    gens = [np.asarray(g, dtype=np.int64) for g in gens]
    degree = len(gens[0])
    if degree < 5:
        return None
    rattle = Rattle(gens, random.Random(seed))
    for _ in range(LADDER_CYCLE_TRIES):
        g = rattle.sample()
        triple = _extract_three_cycle(g)
        if triple:
            break
    else:
        return None
    if not np.array_equal(_power(g, perm_order(g) // 3),
                          perm_from_cycles(degree, [triple])):
        raise BoundViolated(f"the power of a sample is not the 3-cycle "
                            f"{triple}")
    T = _conjugate_triples(gens, triple)
    if T is None or components([T[1], T[2]]).any():
        return None  # intransitive, or several components
    rest = np.ones(degree, dtype=bool)
    rest[list(triple)] = False
    return StabChain(degree=degree, gens=gens,
                     base=list(triple) + np.flatnonzero(rest).tolist(),
                     orbit_sizes=list(range(degree, 2, -1)),
                     strategy="cycles", seed=seed)


# ---------------------------------------------------------------------------
# certification


@dataclass
class AltCertificate:
    degree: int
    order: int
    order_matches: bool  # chain order == degree!/2
    all_even: bool
    verdict: str  # "Alt" | "Sym" | "Proper"
    strategy: str
    seed: int


def certify_alternating(chain):
    """Verdict Alt iff the group order is d!/2 and all generators are even;
    Sym iff it is d!; otherwise Proper.  Raises BoundViolated when an even
    generator does not sift through the chain."""
    d = chain.degree
    even = [parity(g) == "even" for g in chain.gens]
    # every even generator lies in the chain's group: Alt(d) for 'cycles',
    # <gens> for Schreier-Sims (which has already sifted the odd ones)
    if any(e and not chain.contains(g) for g, e in zip(chain.gens, even)):
        raise BoundViolated("a generator does not sift through its chain")
    half = factorial(d) // 2
    order_matches = chain.order == half
    # a group of order d!/2 is Alt(d), a lower bound for a 'cycles' group:
    # an odd generator then makes it Sym(d)
    order = factorial(d) if order_matches and not all(even) else chain.order
    verdict = ("Alt" if order == half else "Sym" if order == factorial(d)
               else "Proper")
    return AltCertificate(d, order, order_matches, all(even), verdict,
                          chain.strategy, chain.seed)


def transitivity_degree(chain):
    """Largest t with successive level orbits of sizes d, d-1, ..., d-t+1."""
    d = chain.degree
    t = 0
    for k, s in enumerate(chain.orbit_sizes):
        if s == d - k:
            t += 1
        else:
            break
    return t


def build_chain(gens, seed=0):
    """3-cycle closure first (it certifies giants cheaply), dense
    fallback."""
    gens = [np.asarray(g, dtype=np.int64) for g in gens]
    chain = try_alt_ladder(gens, seed=seed)
    if chain is not None:
        return chain
    return schreier_sims(gens, seed=seed)
