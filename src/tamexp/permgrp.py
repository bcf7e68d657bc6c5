"""Permutation-group engine: stabilizer chains, exact orders, parity, and
alternating-group certification.

Permutations are int32 arrays (the rule of `orbits.check_int32`) mapping
index -> image; products apply left to right (compose(a, b)[x] =
b[a[x]]), matching word application.  One vectorised pass
(`_cycle_minima`) labels every cycle, for cycle types and parity, and
one layered BFS Schreier tree (`_schreier_tree`, on the BFS
`orbits.bfs_layers` that also gives `orbits.closure`) every orbit; the
transitivity check is one closure.

Two chain strategies share the StabChain interface:

* 'dense' is a deterministic Schreier-Sims, verified by checking every
  Schreier generator.  A level keeps its inverse coset representatives
  w_y = u_y^-1 as one (orbit x d) array, uint16 up to degree 65536 and
  int32 above, so a sift step is one gather.  u_y g w_{g(y)} sifts to
  the identity iff g w_{g(y)}, gathered through the deeper rows its sift
  picks, is the stored row w_y; the picks come from the tree images
  u_y(b_j), so no row is inverted, and a Schreier-tree edge
  (u_{g(y)} = u_y g) gives the identity and is skipped.  A new
  generator at depth j drops the rows of levels 0..j, and verification,
  deepest level first, rebuilds a dropped level once, when it reaches it.
  Fine for groups whose chain is small (moderate order, or small
  degree).

* 'cycles' is the chain of Alt(d) or Sym(d) for giant groups, taken
  once Alt(d) <= G is proved.  A random element powers to a 3-cycle
  t = (a, b, c) in G, checked as a permutation, and Alt(d) <= G iff the
  minimal block system of G joining a and b (`_minimal_block`) is the
  single block.  The supports of the conjugates t^w (w in G) form a
  hypergraph whose components are a G-invariant partition joining a and
  b, so they are unions of those blocks.  Conversely t maps the block X
  of a onto itself (t(a) = b lies in X), so c is in X, and each support
  w(supp t) lies in the block w(X); so the two partitions coincide.
  3-cycles whose supports form one connected hypergraph generate the
  alternating group on its union (Dixon-Mortimer, Permutation Groups,
  1996, section 3.3).
  G is then Alt(d) if every generator is even and Sym(d) otherwise, so
  the chain is G's: base t followed by the other points in increasing
  order, level k's orbit {b_k, ..., b_{d-1}}, and orbit sizes d, ..., 3
  for Alt(d) or d, ..., 2 for Sym(d).  It holds g iff G is Sym(d) or g
  is even, so a sift is one parity pass.
  An intransitive group gets no chain before any random element is
  drawn.  A random element of Alt(d) or Sym(d) powers to a 3-cycle (it
  has one 3-cycle and no other cycle length divisible by 3) with
  probability about 0.355 d^(-1/3), so a giant waits about 2.8 d^(1/3)
  samples for t.  The first LADDER_BURST * d^(1/3) samples, about four
  such waits, come before the early reject: a minimal block system
  joining points 0 and 1 that is proper turns G away, since Alt(d) is
  primitive.  A giant that finds t in that burst runs the block test
  once, and one that misses it runs it twice.  Groups turned away get a
  'dense' chain from build_chain.  Randomness only searches for t; the
  certificate is exact.

Either way the chain is complete, so a certificate reads its verdict and
its order from the orbit sizes alone.
"""

from __future__ import annotations

import decimal
import random
from dataclasses import dataclass, field
from math import lcm, prod

import numpy as np

from .errors import BoundViolated, BudgetExceeded
from .orbits import bfs_layers, closure, components

MAX_SIFTS = 2_000_000  # Schreier-Sims work budget, in Schreier generators considered
LADDER_CYCLE_TRIES = 5000  # random elements searched for a first 3-cycle
LADDER_BURST = 12  # of those, per cube root of the degree, before the 0, 1 block test
RATTLE_EXTRA = 5  # identity slots of the rattle beside the generators
RATTLE_SCRAMBLE = 40  # rattle stirs before the first sample, plus 4 per generator
PRODUCT_RUN = 32  # factors multiplied as ints before the decimal product tree


def identity_perm(n):
    return np.arange(n, dtype=np.int32)


def compose(a, b):
    """Apply a first, then b."""
    return b.take(a)  # faster than b[a] on an int32 a


def inverse(a):
    inv = np.empty_like(a)
    inv[a] = np.arange(len(a), dtype=a.dtype)
    return inv


def is_identity(a):
    return bool(np.array_equal(a, np.arange(len(a), dtype=a.dtype)))


def perm_from_cycles(n, cycles):
    p = identity_perm(n)
    for cyc in cycles:
        p[np.asarray(cyc, dtype=np.int32)] = np.roll(cyc, -1)
    return p


def _cycle_minima(p):
    """label[x], the least point of x's cycle under p, by min-label pointer
    doubling: after round k, label[x] is the least of x, p(x), ...,
    p^(2^k - 1)(x).  Once a round changes no label, each label is the
    least point of its cycle (the windows from x in steps of 2^k cover
    the cycle), after O(log of the longest cycle) rounds."""
    label = identity_perm(len(p))
    jump = np.asarray(p, dtype=np.int32)
    while True:
        nxt = label.take(jump)
        np.minimum(nxt, label, out=nxt)
        if np.array_equal(nxt, label):
            return label
        label, jump = nxt, jump.take(jump)


def cycle_lengths(p):
    """List of (length, smallest point) over the nontrivial cycles of p, in
    increasing order of the smallest point."""
    sizes = np.bincount(_cycle_minima(p), minlength=len(p))
    reps = np.flatnonzero(sizes > 1)
    return list(zip(sizes[reps].tolist(), reps.tolist()))


def parity(p):
    """'even' or 'odd': d points in c cycles (fixed points included) are a
    product of d - c transpositions."""
    label = _cycle_minima(p)
    cycles = np.count_nonzero(label == identity_perm(len(label)))
    return "even" if (len(label) - cycles) % 2 == 0 else "odd"


def perm_order(p):
    return lcm(*(length for length, _ in cycle_lengths(p)))


class Rattle:
    """Product-replacement random elements of <gens> (membership by
    construction); follows the usual rattle scheme."""

    def __init__(self, gens, rng):
        n = len(gens[0])
        self.rng = rng
        self.slots = ([identity_perm(n) for _ in range(RATTLE_EXTRA)]
                      + [g.copy() for g in gens])
        self.accu = identity_perm(n)
        for _ in range(RATTLE_SCRAMBLE + 4 * len(gens)):
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
# Schreier trees and chains


def _schreier_tree(root, moves):
    """Layered BFS Schreier tree of root under the permutations `moves`:
    one (children, parents, move index) triple of arrays per layer, with
    child = moves[move][parent].  Within a layer the moves act in turn on
    the whole frontier, and the first move to reach a point keeps it
    (`orbits.bfs_layers`)."""
    seen = np.zeros(len(moves[0]), dtype=bool)
    return [(kids, np.concatenate([frontier[new] for new in reached]),
             np.repeat(np.arange(len(moves)),
                       [np.count_nonzero(new) for new in reached]))
            for frontier, reached, kids in bfs_layers(root, moves, seen)]


def _inverse_transversal(point, gens):
    """(index, inv, tree) for the orbit of point: inv[index[y]] is u_y^-1,
    where u_y, the word along the Schreier tree path to y, maps point to y.
    inv is one row per orbit point in BFS order, uint16 up to degree 65536
    and int32 above; index is -1 off the orbit.  tree is one (parent rows,
    moves) pair per BFS layer: the layer's points take the next rows in
    order, each reached from its parent by gens[move].  Each row is
    gathered from its parent's in place, so nothing layer-sized is
    allocated beside inv."""
    d = len(gens[0])
    layers = _schreier_tree(point, gens)
    orbit = np.concatenate([[point]] + [kids for kids, _, _ in layers])
    index = np.full(d, -1, dtype=np.int32)
    index[orbit] = np.arange(len(orbit))
    inv = np.empty((len(orbit), d),
                   dtype=np.uint16 if d <= 1 << 16 else np.int32)
    inv[0] = identity_perm(d)
    ginvs = [inverse(g) for g in gens]
    tree = [(index[parents], move) for _, parents, move in layers]
    row = 1
    for parents, move in tree:
        for parent, m in zip(parents.tolist(), move.tolist()):
            # u_kid = u_parent g, so u_kid^-1 = g^-1 u_parent^-1
            inv[parent].take(ginvs[m], out=inv[row])
            row += 1
    return index, inv, tree


def _tree_images(tree, gens, points):
    """(orbit x len(points)) array whose row for y holds u_y(points), from
    u_kid(x) = g(u_parent(x)) down the tree: O(orbit) per point."""
    moves = np.array(gens)
    images = np.empty((1 + sum(len(move) for _, move in tree), len(points)),
                      dtype=np.int32)
    images[0] = points
    row = 1
    for parents, move in tree:
        images[row:row + len(move)] = moves[move[:, None], images[parents]]
        row += len(move)
    return images


@dataclass
class _DenseLevel:
    point: int
    gens: list
    index: np.ndarray = None  # point -> row of inv, -1 off the orbit
    inv: np.ndarray = None  # inverse coset representatives, one per row:
    # uint16 up to degree 65536, int32 above; None while dropped
    tree: list = None  # (parent rows, moves) per BFS layer, as built


def _sift_dense(levels, g, start=0):
    """Reduce g through levels[start:]; returns the residue."""
    for lv in levels[start:]:
        row = lv.index[g[lv.point]]
        if row < 0:
            return g
        g = compose(g, lv.inv[row])
    return g


@dataclass
class StabChain:
    degree: int
    gens: list
    base: np.ndarray  # int32 points
    orbit_sizes: np.ndarray  # int64, one per level
    strategy: str
    levels: list = field(default_factory=list, repr=False)  # dense

    @property
    def order(self):
        return prod(map(int, self.orbit_sizes))

    def sift(self, g):
        """Reduce g through the chain; returns the residue permutation
        (identity iff membership was established by the chain)."""
        if self.strategy == "dense":
            return _sift_dense(self.levels, g)
        # Sym(d) holds every g, Alt(d) the even ones; an odd g left over
        # from Alt(d)'s levels is the transposition of the last two points
        if self.orbit_sizes[-1] == 2 or parity(g) == "even":
            return identity_perm(self.degree)
        return perm_from_cycles(self.degree, [self.base[-2:]])

    def contains(self, g):
        return is_identity(self.sift(g))


# ---------------------------------------------------------------------------
# deterministic Schreier-Sims ('dense')


def schreier_sims(gens, max_sifts=MAX_SIFTS):
    """Deterministic Schreier-Sims.

    A generator added at level j fixes the first j base points; level k's
    orbit runs over all generators of levels >= k.  Level k is verified by
    sifting all its Schreier generators through the deeper levels, deepest
    levels first, so on return the chain is complete and the product of
    orbit sizes is the exact group order.  A level's rows are built when
    its verification starts; the deeper levels it sifts through are
    verified, hence built, already.  max_sifts caps the Schreier
    generators considered, tree edges included (BudgetExceeded).
    """
    gens = [np.asarray(g, dtype=np.int32) for g in gens]
    degree = len(gens[0])
    levels = []
    sift_count = 0

    def gens_at(k):
        return [g for lv in levels[k:] for g in lv.gens]

    def depth_of(g):
        return next((k for k, lv in enumerate(levels)
                     if g[lv.point] != lv.point), len(levels))

    def add_gen(g):
        """Add a non-identity g at its depth j, the new last level
        (based at the first point g moves) if g fixes the base; returns j.
        Levels 0..j gain a generator, so their rows are dropped until
        verification reaches them (`built`).  g is stored as int32: a
        residue comes in its row dtype."""
        j = depth_of(g)
        if j == len(levels):
            moved = int(np.argmax(g != identity_perm(degree)))
            levels.append(_DenseLevel(moved, []))
        levels[j].gens.append(g.astype(np.int32, copy=False))
        for lv in levels[:j + 1]:
            lv.index = lv.inv = lv.tree = None
        return j

    def built(k):
        """Level k with its rows, built from gens_at(k) if dropped."""
        lv = levels[k]
        if lv.inv is None:
            lv.index, lv.inv, lv.tree = _inverse_transversal(lv.point,
                                                              gens_at(k))
        return lv

    def unsifted_schreier_gen(k):
        # With w_y = u_y^-1 the stored row of y and W the product of the
        # deeper rows that the sift of s = u_y g w_{g(y)} picks, s W = id
        # iff t W = w_y for t = g w_{g(y)}; the sift reads s(b_j) =
        # t(u_y(b_j)) at level j, so no u_y is ever formed
        nonlocal sift_count
        lv = built(k)
        level_gens = gens_at(k)
        deeper = levels[k + 1:]
        images = _tree_images(lv.tree, level_gens,
                              [lv.point] + [dl.point for dl in deeper])
        on_tree = np.zeros((len(lv.inv), len(level_gens)), dtype=bool)
        for parents, move in lv.tree:
            on_tree[parents, move] = True
        for w_y, (y, *at), edges in zip(lv.inv, images, on_tree.tolist()):
            for g, edge in zip(level_gens, edges):
                sift_count += 1
                if sift_count > max_sifts:
                    raise BudgetExceeded("schreier-sims work budget exceeded")
                if edge:
                    continue  # u_{g(y)} = u_y g, so s is the identity
                w_gy = lv.inv[lv.index[g[y]]]
                t = w_gy.take(g)
                for dl, x in zip(deeper, at):
                    row = dl.index[t[x]]
                    if row < 0:
                        break
                    t = dl.inv[row].take(t)
                else:
                    # one row dtype per degree (uint16 up to 65536, else
                    # int32), both contiguous: equal arrays, equal bytes
                    if t.tobytes() == w_y.tobytes():
                        continue
                return _sift_dense(levels,
                                   compose(compose(inverse(w_y), g), w_gy),
                                   k + 1)
        return None

    for g in gens:
        if not is_identity(g):
            add_gen(g)

    k = len(levels) - 1
    while k >= 0:
        residue = unsifted_schreier_gen(k)
        # re-verify from the level that changed
        k = k - 1 if residue is None else add_gen(residue)

    chain = StabChain(degree=degree, gens=gens,
                      base=np.int32([lv.point for lv in levels]),
                      orbit_sizes=np.int64([len(lv.inv) for lv in levels]),
                      strategy="dense", levels=levels)
    if not all(chain.contains(g) for g in gens_at(0)):
        raise BoundViolated("a level generator does not sift through its "
                            "own chain")
    return chain


# ---------------------------------------------------------------------------
# the 3-cycle closure ('cycles')


def _one_three_cycle(g):
    """Whether g has one 3-cycle: exactly 3 x with g^3(x) = x != g(x)."""
    pts = identity_perm(len(g))
    return np.count_nonzero((g.take(g.take(g)) == pts) & (g != pts)) == 3


def _extract_three_cycle(g):
    """If g powers to a single 3-cycle, return (triple, m): the support
    triple in cycle order and the m with g^m that 3-cycle; else None.
    Requires exactly one 3-cycle and no other cycle length divisible by 3."""
    if not _one_three_cycle(g):
        return None
    lengths = cycle_lengths(g)
    others = [length for length, _ in lengths if length != 3]
    if any(length % 3 == 0 for length in others):
        return None
    m = lcm(*others)
    rep = next(rep for length, rep in lengths if length == 3)
    cyc = [rep, int(g[rep]), int(g[g[rep]])]
    shift = m % 3  # in {1, 2}; both orientations are fine
    return (cyc[0], cyc[shift], cyc[(2 * shift) % 3]), m


def _power(p, m):
    """p^m by repeated squaring."""
    out = identity_perm(len(p))
    while m:
        if m & 1:
            out = compose(out, p)
        p = compose(p, p)
        m >>= 1
    return out


def _minimal_block(gens, a, b):
    """Labels of the minimal block system of <gens> with a and b in one
    block: each point is labelled with the smallest point of its block.

    Starts from the one edge a -- b and joins g(x) with g(label of x)
    for every generator g until the labels stop changing; blocks only
    merge, so this ends, at the finest partition with a and b in one
    block that every generator maps block to block (Atkinson, Math. Comp.
    29, 1975).  It is proper iff some label is nonzero."""
    labels = identity_perm(len(gens[0]))
    labels[max(a, b)] = min(a, b)
    while True:
        maps = [labels]
        for g in gens:
            img = np.empty_like(labels)
            img[g] = g.take(labels)
            maps.append(img)
        nxt = components(maps)
        if np.array_equal(nxt, labels):
            return labels
        labels = nxt


def try_alt_ladder(gens, seed=0):
    """Prove Alt(d) <= <gens> from a 3-cycle and return the chain of
    <gens>: Alt(d) if every generator is even, else Sym(d).  None if the
    proof does not go through (the group is then presumably not a giant).

    An intransitive group is no giant and gets None before any random
    element is drawn.  Otherwise a rattle search finds g in the group
    powering to a 3-cycle t = (a, b, c), and Alt(d) <= <gens> iff the
    minimal block system joining a and b is the single block: its blocks
    are the components of the supports of the conjugates of t (module
    docstring).  Alt(d) is primitive, so if the first LADDER_BURST *
    d^(1/3) samples hold no 3-cycle, a proper minimal block system joining
    points 0 and 1 ends the search.
    """
    gens = [np.asarray(g, dtype=np.int32) for g in gens]
    degree = len(gens[0])
    if degree < 5 or not closure(0, gens).all():
        return None  # too small, or intransitive
    rattle = Rattle(gens, random.Random(seed))
    burst = LADDER_BURST * round(degree ** (1 / 3))
    for tries in range(LADDER_CYCLE_TRIES):
        if tries == burst and _minimal_block(gens, 0, 1).any():
            return None  # imprimitive
        g = rattle.sample()
        hit = _extract_three_cycle(g)
        if hit:
            break
    else:
        return None
    triple, m = hit
    if not np.array_equal(_power(g, m), perm_from_cycles(degree, [triple])):
        raise BoundViolated(f"the power of a sample is not the 3-cycle "
                            f"{triple}")
    if _minimal_block(gens, triple[0], triple[1]).any():
        return None  # the conjugates of t have several components
    smallest = 3 if all(parity(g) == "even" for g in gens) else 2
    rest = np.delete(identity_perm(degree), sorted(triple))
    return StabChain(degree=degree, gens=gens,
                     base=np.concatenate([triple, rest], dtype=np.int32),
                     orbit_sizes=np.arange(degree, smallest - 1, -1),
                     strategy="cycles")


# ---------------------------------------------------------------------------
# certification


@dataclass
class AltCertificate:
    degree: int
    order: str  # exact decimal
    all_even: bool
    verdict: str  # "Alt" | "Sym" | "Proper"
    strategy: str
    transitivity_degree: int


def _decimal_product(factors):
    """Exact decimal string of prod(factors), for any sequence of ints
    (an int64 product would overflow silently): int products over runs of
    PRODUCT_RUN factors, then a balanced tree of exact decimal products.
    libmpdec multiplies huge operands by number-theoretic transforms,
    and a decimal's str() is linear, where str() of an int is quadratic
    and trips the int-to-str digit limit."""
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                          traps=[decimal.Inexact])
    level = [decimal.Decimal(prod(list(map(int, factors[i:i + PRODUCT_RUN]))))
             for i in range(0, len(factors), PRODUCT_RUN)]
    while len(level) > 1:
        level = ([ctx.multiply(a, b) for a, b in zip(level[::2], level[1::2])]
                 + level[len(level) & ~1:])
    return str(level[0]) if level else "1"


def certify_alternating(chain):
    """Verdict Sym iff the transitivity degree t is the chain length and
    d - 1 (orbit sizes d, ..., 2), Alt iff it is the length and d - 2
    (d, ..., 3), otherwise Proper; exact for a complete chain, since a
    point stabilizer in Alt(m) is transitive on the other points while
    m >= 3.  The order is the product of the orbit sizes.

    Nothing is sifted here: schreier_sims has sifted every level
    generator of a dense chain (BoundViolated otherwise), and a 'cycles'
    chain is <gens> by construction.  Parity is read only for Proper:
    otherwise G is Alt(d), whose generators are all even, or Sym(d),
    which needs an odd one once d >= 2."""
    d, n = chain.degree, len(chain.orbit_sizes)
    t = transitivity_degree(chain)
    verdict = ("Sym" if t == n == d - 1 else "Alt" if t == n == d - 2
               else "Proper")
    all_even = (all(parity(g) == "even" for g in chain.gens)
                if verdict == "Proper" else verdict == "Alt" or d < 2)
    return AltCertificate(d, _decimal_product(chain.orbit_sizes), all_even,
                          verdict, chain.strategy, t)


def transitivity_degree(chain):
    """Largest t with successive level orbits of sizes d, d-1, ..., d-t+1:
    the leading run of full orbits."""
    d, sizes = chain.degree, chain.orbit_sizes
    full = sizes == np.arange(d, d - len(sizes), -1)
    return int(np.logical_and.accumulate(full).sum())


def build_chain(gens, seed=0):
    """3-cycle closure first (it certifies giants cheaply), dense
    fallback."""
    chain = try_alt_ladder(gens, seed=seed)
    if chain is not None:
        return chain
    return schreier_sims(gens)
