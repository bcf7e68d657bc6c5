"""Permutation-group engine: stabilizer chains, exact orders, parity, and
alternating-group certification.

Permutations are numpy int64 arrays mapping index -> image; products apply
left to right (compose(a, b)[x] = b[a[x]]), matching word application.

Two chain strategies share the StabChain interface:

* 'dense' is a deterministic Schreier-Sims with explicit transversals,
  verified by sifting every Schreier generator.  Fine for groups whose
  chain is small (moderate order, or small degree).

* 'cycles' is a chain for giant alternating groups.  Its strong
  generators are d-2 consecutive 3-cycles (b_k, b_{k+1}, b_{k+2}) over a
  base enumerating the whole domain, each produced from the input
  generators by power/conjugation bookkeeping, so membership in the group
  holds by construction.  Level k has orbit exactly {b_k, ..., b_{d-1}},
  making the chain order d!/2 on the nose.  Since the product of level
  orbit sizes of any chain whose level generators fix the earlier base
  points is a lower bound for the group order, d!/2 <= |G|; if every
  input generator is even, |G| <= d!/2, which pins |G| = Alt(d) exactly.
  Randomness only searches for witnesses; the certificate is exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import factorial, lcm

import numpy as np

from .errors import BoundViolated, BudgetExceeded

MAX_SIFTS = 2_000_000  # Schreier-Sims work budget, in Schreier generators sifted
LADDER_CYCLE_TRIES = 5000  # random elements searched for a first 3-cycle
LADDER_EXTEND_TRIES = 64  # rattle retries per ladder extension step


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
    return lcm(*(length for length, _ in cycle_lengths(p))) if cycle_lengths(p) else 1


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
    cycles: list = field(default_factory=list, repr=False)  # ladder triples
    _pos: dict = field(default_factory=dict, repr=False)

    @property
    def order(self):
        o = 1
        for s in self.orbit_sizes:
            o *= s
        return o

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
        d = self.degree
        glist = g.tolist()
        ginv = [0] * d
        for x, y in enumerate(glist):
            ginv[y] = x
        pos = self._pos
        base = self.base
        last = len(self.cycles) - 1  # = d - 3
        for k in range(len(self.cycles)):
            y = glist[base[k]]
            m = pos[y]
            if m < k:
                return np.array(glist, dtype=np.int64)
            path = list(range(k, min(m, last + 1)))
            if m == d - 1:
                path.append(last)
            for j in reversed(path):
                ca, cb, cc = self.cycles[j]
                # g <- g * cycle_j^{-1}
                xa, xb, xc = ginv[ca], ginv[cb], ginv[cc]
                glist[xb] = ca
                glist[xc] = cb
                glist[xa] = cc
                ginv[ca] = xb
                ginv[cb] = xc
                ginv[cc] = xa
            if glist[base[k]] != base[k]:
                return np.array(glist, dtype=np.int64)
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
# the 3-cycle ladder ('cycles')


def _extract_three_cycle(g):
    """If g powers to a single 3-cycle, return its support triple in cycle
    order, else None.  Requires exactly one 3-cycle and no other cycle
    length divisible by 3."""
    lengths = cycle_lengths(g)
    threes = [rep for length, rep in lengths if length == 3]
    others = [length for length, _ in lengths if length != 3]
    if len(threes) != 1 or any(length % 3 == 0 for length in others):
        return None
    m = lcm(*others) if others else 1
    rep = threes[0]
    lst = g.tolist()
    cyc = [rep, lst[rep], lst[lst[rep]]]
    shift = m % 3  # in {1, 2}; both orientations are fine
    return (cyc[0], cyc[shift], cyc[(2 * shift) % 3])


class _PairBFS:
    """Schreier tree on ordered pairs under gens+inverses, rooted anywhere."""

    def __init__(self, gens, root):
        self.deg = len(gens[0])
        self.gens = [np.asarray(g, dtype=np.int64) for g in gens]
        self.gens += [inverse(g) for g in self.gens]
        self.glists = [g.tolist() for g in self.gens]
        self.m = len(gens)
        d = self.deg
        n2 = d * d
        self.parent = np.full(n2, -1, dtype=np.int64)
        self.pgen = np.full(n2, -1, dtype=np.int16)
        root_code = root[0] * d + root[1]
        self.root = root_code
        self.parent[root_code] = root_code
        frontier = np.array([root_code], dtype=np.int64)
        while frontier.size:
            new_all = []
            px, py = frontier // d, frontier % d
            for gi, g in enumerate(self.gens):
                img = g[px] * d + g[py]
                mask = self.parent[img] < 0
                if not mask.any():
                    continue
                new, first = np.unique(img[mask], return_index=True)
                fresh = self.parent[new] < 0
                new = new[fresh]
                src = frontier[mask][first][fresh]
                self.parent[new] = src
                self.pgen[new] = gi
                new_all.append(new)
            frontier = np.concatenate(new_all) if new_all else np.empty(0, dtype=np.int64)

    def path(self, x, y):
        """Generator indices whose product maps the root pair to (x, y)."""
        code = x * self.deg + y
        if self.parent[code] < 0:
            return None
        out = []
        while code != self.root:
            out.append(int(self.pgen[code]))
            code = int(self.parent[code])
        out.reverse()
        return out

    def apply_path(self, pt, path):
        for gi in path:
            pt = self.glists[gi][pt]
        return pt

    def apply_path_inverse(self, pt, path):
        for gi in reversed(path):
            pt = self.glists[(gi + self.m) % (2 * self.m)][pt]
        return pt


def try_alt_ladder(gens, seed=0):
    """Build the consecutive-3-cycle chain, or return None if the group
    does not cooperate (then it is presumably not a giant).

    Extension step: with the last cycle (z -> u -> v) owned and a chosen
    fresh point w, pick h in the group with h(u) = v and h(v) = w (pair
    control through the Schreier tree, randomized by a rattle factor when
    y = h(z) collides with {u, z}).  Then with y = h(z),

        [(u z v), (v w y)] = (u v w)

    on the five distinct points involved, which is exactly the next
    ladder cycle; both arguments are owned (the second is the conjugate
    of the previous cycle by h), so membership follows.
    """
    gens = [np.asarray(g, dtype=np.int64) for g in gens]
    degree = len(gens[0])
    if degree < 5:
        return None
    rng = random.Random(seed)
    rattle = Rattle(gens, rng)
    triple = None
    for _ in range(LADDER_CYCLE_TRIES):
        triple = _extract_three_cycle(rattle.sample())
        if triple:
            break
    if not triple:
        return None
    a, b, c0 = triple
    bfs = _PairBFS(gens, (a, b))
    if np.count_nonzero(bfs.parent >= 0) < degree * (degree - 1):
        return None  # not 2-transitive; ladder needs pair control
    base = [a, b, c0]
    used = bytearray(degree)
    used[a] = used[b] = used[c0] = 1
    cycles = [(a, b, c0)]
    fresh = 0
    while len(base) < degree:
        z, u, v = cycles[-1]
        while fresh < degree and used[fresh]:
            fresh += 1
        w = fresh
        y = None
        for attempt in range(LADDER_EXTEND_TRIES):
            if attempt == 0:
                r = None
                ru, rv, rz = u, v, z
            else:
                r = rattle.sample()
                rl = r.tolist()
                ru, rv, rz = rl[u], rl[v], rl[z]
            path1 = bfs.path(ru, rv)
            path2 = bfs.path(v, w)
            if path1 is None or path2 is None:
                return None
            # h = r . path1^{-1} . path2 maps (u, v) -> (v, w)
            cand = bfs.apply_path(bfs.apply_path_inverse(rz, path1), path2)
            if cand not in (u, z):
                y = cand
                h = identity_perm(degree) if r is None else r
                for gi in reversed(path1):
                    h = compose(h, bfs.gens[(gi + bfs.m) % (2 * bfs.m)])
                for gi in path2:
                    h = compose(h, bfs.gens[gi])
                if not (h[u] == v and h[v] == w and h[z] == y):
                    raise BoundViolated(
                        f"ladder witness maps ({u}, {v}, {z}) to "
                        f"({h[u]}, {h[v]}, {h[z]}), not ({v}, {w}, {y})")
                break
        if y is None:
            return None
        base.append(w)
        used[w] = 1
        cycles.append((u, v, w))
    chain = StabChain(degree=degree, gens=gens, base=base,
                      orbit_sizes=[degree - k for k in range(degree - 2)],
                      strategy="cycles", seed=seed, cycles=cycles,
                      _pos={pt: k for k, pt in enumerate(base)})
    return chain


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
    # every even generator lies in the chain's group: Alt(d) for a ladder,
    # <gens> for Schreier-Sims (which has already sifted the odd ones)
    if any(e and not chain.contains(g) for g, e in zip(chain.gens, even)):
        raise BoundViolated("a generator does not sift through its chain")
    half = factorial(d) // 2
    order_matches = chain.order == half
    # a group of order d!/2 is Alt(d), a lower bound for a ladder's group:
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
    """Ladder first (it certifies giants cheaply), dense fallback."""
    gens = [np.asarray(g, dtype=np.int64) for g in gens]
    chain = try_alt_ladder(gens, seed=seed)
    if chain is not None:
        return chain
    return schreier_sims(gens, seed=seed)
