"""Orbit structure of the affine action: enumeration, the subfield
invariants, the commuting Frobenius/root-of-unity action, and the
constructive almost-k-transitivity probe.

Points of F_q^n are tuples of field-element indices; bulk code paths pack
a point into a single integer sum(idx_i * q^i), so index 0 is the origin.
This module owns that format: `code_perms` turns maps on coordinate
arrays (words through `word_code_perms`, Frobenius, m_lambda) into
permutations of all of F_q^n, on its broadcast grid, so codes are never
split into digits; `nonzero_perms` slices the words' ones to the nonzero
points, and `restriction` to any closed code set.  `components` finds
the connected components under such maps, and `closure` the orbit of one
point under permutations, by the one layered BFS `bfs_layers`.  Orbits
are those of the acting words (`orbit_labels`).
Over F_{p^ell} one orbit holds nearly every point, so the closure of
the last code q^n - 1 settles it when the code lies in it, and only the
other points go through `components`.  That code's coordinates are all
the field element of largest index: never 0, and outside F_p once
ell >= 2.  With e = (1,1,2), (1,1,3) or (1,2,2) over the 14 fields
F_{p^ell}, ell >= 2, with q^3 <= 10^7, it lay in the majority orbit in
39 of the 42 cases (not over F_32, nor over F_4 with e = (1,1,3), which
has no majority orbit); a miss costs one BFS of a minority orbit.
Gamma-classes are the components under Frobenius and m_lambda, found
for every orbit at once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import gcd

import numpy as np

from .errors import BoundViolated, BudgetExceeded, NotClosed, ProbeFailed
from .ff import make_field, minimal_polynomial
from .synth import interpolate
from .tame import (Transvection, Word, apply_letter, apply_word,
                   apply_word_arrays, grid_coords, poly_transvection_letter,
                   sample_coords, standard_generators)
# re-exported: bench/test_bench.py checks its span wrapper under this name
from .tame import apply_letter_arrays  # noqa: F401

GAMMA_CHECK_POINTS = 200  # random points on which make_gamma_spec checks commuting
INVARIANT_SAMPLES = 64  # orbit members on which an orbit invariant is spot-checked


def point_to_code(point, q):
    code = 0
    for a in reversed(point):
        code = code * q + a
    return code


def code_to_point(code, q, n):
    out = []
    for _ in range(n):
        out.append(code % q)
        code //= q
    return tuple(out)


def codes_to_coords(codes, q, n):
    out = []
    c = codes
    for _ in range(n):
        c, digit = np.divmod(c, q)
        out.append(digit)
    return out


def coords_to_codes(coords, q):
    code = np.zeros_like(coords[0])
    for a in reversed(coords):
        code = code * q + a
    return code


# ---------------------------------------------------------------------------
# maps on point codes and their connected components


def check_int32(count, what):
    """The int32 rule: no domain of 2^31 or more points (BudgetExceeded)."""
    if count >= 2**31:
        raise BudgetExceeded(f"{what} of {count} points exceeds int32 positions")


def code_perms(maps, q, n):
    """The permutations of all of F_q^n, in code order, that the maps on
    per-coordinate index arrays induce, as int32 arrays: each map acts on
    the broadcast grid of tame.grid_coords, where an image's position is
    its code.  `restriction` restricts them to a closed code set."""
    check_int32(q**n, "grid")
    grid = grid_coords(q, n)
    perms = []
    for f in maps:
        pos = np.zeros((q,) * n, dtype=np.int32)
        for k, a in enumerate(f(grid)):
            pos += a * q**k
        perms.append(pos.ravel())
    return perms


def restriction(codes, size):
    """The restriction of a map g on range(size) to the distinct codes
    `codes`, in any order: the positions of g[codes] in `codes`, through
    one table of `size` positions; NotClosed if an image is not there."""
    lookup = np.full(size, -1, dtype=np.int32)
    lookup[codes] = np.arange(len(codes), dtype=np.int32)
    def restrict(g):
        pos = lookup[g[codes]]
        if (pos < 0).any():
            raise NotClosed("a map sends a point outside the domain")
        return pos
    return restrict


def word_code_perms(words, ctx, n):
    """code_perms of the action of each word."""
    return code_perms([partial(apply_word_arrays, w, ctx=ctx) for w in words],
                      ctx.q, n)


def nonzero_perms(words, ctx, n):
    """The words' permutations of the nonzero points of F_q^n, code c at
    position c - 1, under the int32 rule: each grid permutation past code
    0, decremented in place; NotClosed if a word moves the origin."""
    check_int32(ctx.q**n - 1, "domain")
    perms = word_code_perms(words, ctx, n)
    if any(g[0] for g in perms):
        raise NotClosed("a map sends a point outside the domain")
    return [np.subtract(g[1:], 1, out=g[1:]) for g in perms]


def components(maps):
    """Components of the undirected graph on range(len(g)) with an edge
    x -- g[x] for every index array g in `maps`: each point is labelled
    with the smallest point of its component.

    Root hooking (Shiloach and Vishkin, J. Algorithms 3, 1982) over a
    parent forest f with f[x] <= x, whose edges always join roots.  Each
    round hooks each larger root under its smallest neighbouring root,
    flattens f by pointer jumping, moves every edge to its pair of roots
    and drops the edges inside one tree.  At the start every point is a
    root, so the first round hooks each map's edges x -- g[x] directly,
    and the live edges are gathered per map only after it.  Edges are
    read in both directions, so the maps need not be permutations.  Every
    round with an edge left merges two trees, and the roots are tree
    minima, so once no edge is left f[x] is the smallest point of x's
    component.
    """
    x = np.arange(len(maps[0]), dtype=np.int32)
    f = x.copy()
    maps = [np.asarray(g, dtype=np.int32) for g in maps]
    for g in maps:
        np.minimum.at(f, np.maximum(x, g), np.minimum(x, g))
    del x
    f = _flatten(f)
    u, v = [], []
    for g in maps:
        fg = f[g]
        live = fg != f
        u.append(f[live])
        v.append(fg[live])
    u, v = np.concatenate(u), np.concatenate(v)
    while u.size:
        u, v = np.maximum(u, v), np.minimum(u, v)
        np.minimum.at(f, u, v)
        f = _flatten(f)
        u, v = f[u], f[v]
        live = u != v
        u, v = u[live], v[live]
    return f


def bfs_layers(root, maps, seen):
    """Layered breadth-first search from root under the forward images of
    the index arrays `maps`, marking each point it reaches in the bool
    mask `seen`.  Yields (frontier, reached, kids) per layer that reaches
    a new point: within the layer the maps act in turn on the whole
    frontier, the first map to reach a point keeps it, kids are the new
    points in that order, and reached[m] masks the frontier points whose
    image under maps[m] is one of them.  Only the current layer is held."""
    seen[root] = True
    frontier = np.array([root])
    while True:
        kids, reached = [], []
        for g in maps:
            img = g[frontier]
            new = ~seen[img]
            img = img[new]
            seen[img] = True
            kids.append(img)
            reached.append(new)
        kids = np.concatenate(kids)
        if not kids.size:
            return
        yield frontier, reached, kids
        frontier = kids


def closure(root, maps):
    """Bool mask of the points that forward images under `maps` reach
    from root: the orbit of root when the maps are permutations, since
    then g^-1 is a power of g and no inverse is needed."""
    seen = np.zeros(len(maps[0]), dtype=bool)
    for _ in bfs_layers(root, maps, seen):
        pass
    return seen


def _flatten(f):
    """Pointer jumping: f[x] := f[f[x]] until every point is on a root."""
    while not np.array_equal(jumped := f[f], f):
        f = jumped
    return f


def component_ids(roots):
    """(roots in increasing order, dense component id of each point) for
    a labelling whose roots label themselves, in O(n) without sorting."""
    is_root = roots == np.arange(len(roots))
    rank = np.cumsum(is_root, dtype=np.int32) - 1
    return np.flatnonzero(is_root), rank[roots]


# ---------------------------------------------------------------------------
# the commuting Gamma = <Frobenius, m_lambda> action


@dataclass(frozen=True)
class GammaSpec:
    """Frobenius plus scaling by a generator lambda of the (E-1)-st roots
    of unity, scaled coordinatewise by lambda^(deg x_i)."""
    ctx: object
    params: object
    lam: int
    lam_order: int
    scales: tuple  # lambda^(d_i) per coordinate


def make_gamma_spec(params, ctx):
    root_order = gcd(params.N, ctx.q - 1) if params.N >= 1 else 1
    lam = 1
    if root_order > 1:
        lam = min(a for a in range(1, ctx.q) if ctx.order(a) == root_order)
    scales = tuple(ctx.pow(lam, di) for di in params.d)
    spec = GammaSpec(ctx, params, lam, root_order, scales)
    coords = sample_coords(random.Random(0), ctx.q, params.n, GAMMA_CHECK_POINTS)
    for which in ("mlambda", "frobenius"):
        for gen in standard_generators(params):
            a = _gamma_coords(which, apply_word_arrays(gen, coords, ctx), spec)
            b = apply_word_arrays(gen, _gamma_coords(which, coords, spec), ctx)
            if not all(map(np.array_equal, a, b)):
                raise BoundViolated(f"{which} fails to commute with a generator")
    return spec


def _gamma_tables(which, spec):
    """Per coordinate, the table of `which` on field-element indices: the
    only statement of the Frobenius and m_lambda formulas."""
    ctx = spec.ctx
    if which == "frobenius":
        return [ctx.frob_table()] * len(spec.scales)
    if which == "mlambda":
        return [ctx.mul_const_table(s) for s in spec.scales]
    raise ValueError(f"unknown gamma action {which!r}")


def gamma_apply(which, point, spec):
    return tuple(int(t[a]) for t, a in zip(_gamma_tables(which, spec), point))


def _gamma_coords(which, coords, spec):
    return [t[c] for t, c in zip(_gamma_tables(which, spec), coords)]


def _gamma_twists(point, spec):
    """{(a, b): F^a(m_lambda^b(point))} over Gamma, a < ell, b < lam_order,
    in increasing (a, b).  F goes last: F m_lambda = m_lambda^p F."""
    scaled = [point]
    for _ in range(1, spec.lam_order):
        scaled.append(gamma_apply("mlambda", scaled[-1], spec))
    twists = {}
    for a in range(spec.ctx.ell):
        twists.update(((a, b), img) for b, img in enumerate(scaled))
        scaled = [gamma_apply("frobenius", img, spec) for img in scaled]
    return twists


def gamma_class_of(point, spec):
    """The full <F, m_lambda>-orbit of a point, as a set of tuples."""
    return set(_gamma_twists(point, spec).values())


# ---------------------------------------------------------------------------
# orbit invariants


@dataclass(frozen=True)
class OrbitInvariant:
    d0: int
    a1_label: int
    zero_flag: bool


def _first_coordinate_letter(point, params):
    """The derived transvection a_1 += a_j^(t_1j) at the first nonzero
    coordinate j of a point with a_1 = 0."""
    j = next(i for i, a in enumerate(point) if a) + 1
    return Transvection(1, j, params.tij(1, j), 1)


def _normalize_first_coordinate(point, params, ctx):
    """A cheap G-move making coordinate 1 nonzero (point must be nonzero):
    one derived transvection a_1 += a_j^(t_1j)."""
    if point[0] != 0:
        return point
    return apply_letter(_first_coordinate_letter(point, params), 1, point,
                        ctx)


def compute_A0(point, params, ctx):
    """Degree over F_p of the subfield generated by the grading-degree-0
    values, via the closed form at a representative with nonzero first
    coordinate.  Returns (degree, zero_flag)."""
    if all(a == 0 for a in point):
        return 1, True
    point = _normalize_first_coordinate(point, params, ctx)
    if params.N == 0:
        return ctx.join_degree([a for a in point if a]), False
    inv1 = ctx.inv(point[0])
    gens = [ctx.pow(point[0], params.N)]
    gens += [ctx.mul(ctx.pow(inv1, di), a)
             for di, a in zip(params.d[1:], point[1:])]
    return ctx.join_degree(gens), False


def orbit_invariant(point, params, ctx):
    """Canonical (A_{phi,0}, A_{phi,1}) label of the orbit of a point.

    Distinct orbits had distinct labels on every case checked with
    p > E >= 2.  The label is not complete in general: it fails at p = E
    (over F_8^3 with e = (1, 1, 2), orbits of 63 and 441 points share one
    label) and at E = 1.

    The degree-1 component is the A_{phi,0}-line through the (normalized)
    first coordinate; its label is the minimal element index among line
    generators beta with F_p(beta^(E-1)) = A_{phi,0}, which exist whenever
    p >= E.  Without that condition the minimal line element stands in and
    the partition only reports, never claims, completeness.
    """
    d0, zero = compute_A0(point, params, ctx)
    if zero:
        return OrbitInvariant(1, 0, True)
    pt = _normalize_first_coordinate(point, params, ctx)
    N = params.N
    line = [ctx.mul(s, pt[0]) for s in ctx.subfield(d0)[1:]]  # s != 0
    valid = [b for b in line
             if ctx.subfield_degree(ctx.pow(b, N) if N >= 1 else b) == d0]
    return OrbitInvariant(d0, min(valid) if valid else min(line), False)


# ---------------------------------------------------------------------------
# orbit enumeration


@dataclass
class OrbitInfo:
    size: int
    representative: int  # point code
    invariant: OrbitInvariant


@dataclass
class OrbitPartition:
    params: object
    ctx: object
    orbits: list
    labels: np.ndarray = field(repr=False, default=None)  # code -> orbit id


def _orbit_roots(maps):
    """components(maps) for permutations `maps` of the grid, each point
    labelled with the smallest code of its orbit.  The closure of the
    last code comes first; if it holds more than half of the points it
    is the one majority orbit, and only the other points go through
    components, restricted to them (orbits are closed, so NotClosed
    cannot fire).  Otherwise components runs on every point, after one
    BFS of a minority orbit."""
    size = len(maps[0])
    orbit = closure(size - 1, maps)
    if 2 * np.count_nonzero(orbit) <= size:
        return components(maps)
    rest = np.flatnonzero(~orbit)
    restrict = restriction(rest, size)
    roots = np.full(size, np.argmax(orbit), dtype=np.int32)
    roots[rest] = rest[components([restrict(g) for g in maps])]
    return roots


def orbit_labels(words, ctx, n, budget):
    """(reps, labels) of the orbits of F_q^n under the words, numbered in
    order of their smallest code (reps), by `_orbit_roots`; the word maps
    are freed on return."""
    total = ctx.q**n
    if total > budget:
        raise BudgetExceeded(f"{total} points exceed the exhaustive budget {budget}")
    return component_ids(_orbit_roots(word_code_perms(words, ctx, n)))


def orbit_partition(params, ell, budget=10**7, seed=0):
    """Orbits of F_q^n under the standard generators (`orbit_labels`),
    each with its invariant, spot-checked for constancy on a sample of
    members; an orbit's representative is its smallest code."""
    ctx = make_field(params.p, ell)
    q, n = ctx.q, params.n
    reps, labels = orbit_labels(standard_generators(params), ctx, n, budget)
    sizes = np.bincount(labels)
    rng = random.Random(seed)
    orbits = []
    for oid, (rep, size) in enumerate(zip(reps.tolist(), sizes.tolist())):
        inv = orbit_invariant(code_to_point(rep, q, n), params, ctx)
        if size > 1:
            members = np.flatnonzero(labels == oid)
            if len(members) > INVARIANT_SAMPLES:
                # the same draws as sampling the member list itself
                members = members[rng.sample(range(len(members)),
                                             INVARIANT_SAMPLES)]
            for code in members:
                got = orbit_invariant(code_to_point(int(code), q, n), params, ctx)
                if got != inv:
                    raise BoundViolated(
                        f"invariant not constant on orbit {oid}: {got} != {inv}")
        orbits.append(OrbitInfo(size, rep, inv))
    return OrbitPartition(params, ctx, orbits, labels)


@dataclass
class OrbitClasses:
    orbit_size: int
    class_count: int
    size_histogram: dict  # class size -> number of classes


@dataclass
class GammaClassReport:
    class_count: int  # over all orbits
    orbits: list  # OrbitClasses per orbit id
    roots: np.ndarray = field(repr=False)  # code -> smallest code of its class


def gamma_roots(labels, spec, oid=None):
    """Each code's Gamma-class, as its smallest code: the components of
    the grid under the Frobenius and m_lambda code maps.  labels[code] is
    the orbit id of each point (as `orbit_labels` gives it).  Raises
    NotClosed, naming both orbits, if a class meets two orbits, that is
    if an orbit is not Gamma-invariant; with oid, only a class meeting
    orbit oid counts.  Gamma commutes with the generators, but it may
    still map one orbit onto another (over F_25^3 with e = (1, 1, 4))."""
    maps = code_perms([partial(_gamma_coords, which, spec=spec)
                       for which in ("frobenius", "mlambda")],
                      spec.ctx.q, spec.params.n)
    roots = components(maps)
    del maps
    bad = labels[roots] != labels
    if oid is not None:
        bad &= (labels == oid) | (labels[roots] == oid)
    if bad.any():
        code = int(np.argmax(bad))
        a, b = sorted((int(labels[roots[code]]), int(labels[code])))
        sizes = np.bincount(labels)
        raise NotClosed(f"orbit is not Gamma-invariant: one Gamma-class "
                        f"meets orbit {a} ({sizes[a]} points) and orbit "
                        f"{b} ({sizes[b]} points)")
    return roots


def gamma_classes(labels, spec):
    """Gamma-classes of every orbit of F_q^n in one pass (gamma_roots,
    which raises NotClosed if an orbit is not Gamma-invariant), with
    per-orbit counts and class-size histograms from bincounts."""
    roots = gamma_roots(labels, spec)
    reps, ids = component_ids(roots)
    sizes = np.bincount(ids)
    orbit_sizes = np.bincount(labels)
    width = int(sizes.max()) + 1
    hist = np.bincount(labels[reps] * width + sizes,
                       minlength=orbit_sizes.size * width)
    per_orbit = []
    for size, row in zip(orbit_sizes.tolist(),
                         hist.reshape(-1, width).tolist()):
        h = {s: m for s, m in enumerate(row) if m}
        per_orbit.append(OrbitClasses(size, sum(h.values()), h))
    return GammaClassReport(int(reps.size), per_orbit, roots)


@dataclass
class LargeOrbitReport:
    orbit_size: int
    lower_bound: int
    holds: bool
    strictly_greater: bool


def check_large_orbit(params, ell, budget=10**7):
    """Size of the A_{phi,0} = F_q orbit against q^n (1 - (E-1)^n / p^n),
    read from the closure of one of its points, (a, 0, ..., 0)."""
    ctx = make_field(params.p, ell)
    q, n = ctx.q, params.n
    if q**n > budget:
        raise BudgetExceeded("orbit beyond exhaustive budget")
    N = params.N
    start = None
    for a in range(1, q):
        if ctx.subfield_degree(ctx.pow(a, N) if N >= 1 else a) == ell:
            start = point_to_code((a,) + (0,) * (n - 1), q)
            break
    if start is None:
        raise BoundViolated("no field generator among (E-1)-st powers")
    size = int(np.count_nonzero(closure(
        start, word_code_perms(standard_generators(params), ctx, n))))
    # exact integer bound: p^(ln) - (E-1)^n p^((l-1)n)
    bound = params.p ** (ell * n) - N ** n * params.p ** ((ell - 1) * n)
    # at ell = 2 the bound is attained exactly (e.g. q = 49, E = 2: every
    # point outside F_p^n already generates F_q), so the check is >=
    holds = size >= bound
    if not holds:
        raise BoundViolated(f"large orbit size {size} < bound {bound}")
    return LargeOrbitReport(size, bound, holds, size > bound)


# ---------------------------------------------------------------------------
# almost-k-transitivity probe


@dataclass
class ProbeReport:
    k: int
    trials: int
    successes: int
    failures: list
    bound: Fraction
    bound_ok: bool
    dance_ok: bool  # p >= 3E-2, needed by the collision step
    max_word_letters: int
    seed: int


class _ProbeMachine:
    """Constructive reduction of a k-tuple of Gamma-classes in the big
    orbit (A_{phi,0} = F_q) to the standard tuple (phi_alpha_i), following
    the staged greedy: grow the first coordinate's generated field, dodge
    minimal-polynomial collisions by a Gamma twist plus a fresh-value
    move, then pin all points simultaneously through three coordinates.

    All moves are poly-transvection letters, but for the derived
    transvection a_1 += a_j^(t_1j) that restarts the growth of a point
    with a_1 = 0; moves sourced at coordinate 1 interpolate through the
    pinned targets' nodes with value 0, so pinned points stay put; moves
    sourced elsewhere fix them automatically.
    """

    def __init__(self, params, ctx, spec):
        self.params = params
        self.ctx = ctx
        self.spec = spec
        self.N = params.N
        self.n = params.n
        self.ell = ctx.ell
        self.word = []

    def _degN(self, a):
        return self.ctx.subfield_degree(self.ctx.pow(a, self.N))

    def _set(self, state, target, source, wants):
        """One move a_target += a_source^t P(a_source^N), t = t(target,
        source), taking coordinate target of each point i in wants to
        wants[i]: P interpolates the values (wants[i] - a_target) /
        a_source^t at the nodes a_source^N of those points."""
        ctx, N = self.ctx, self.N
        t = self.params.tij(target, source)
        nodes, values = [], []
        for i, want in wants.items():
            a = state[i][source - 1]
            nodes.append(ctx.pow(a, N))
            values.append(ctx.mul(ctx.sub(want, state[i][target - 1]),
                                  ctx.inv(ctx.pow(a, t))))
        coeffs = interpolate(nodes, values, ctx)
        self._apply(state, poly_transvection_letter(self.params, target,
                                                    source, coeffs))

    def _apply(self, state, letter):
        """Move every point by letter and append it to the word."""
        for i in range(len(state)):
            state[i] = apply_letter(letter, 1, state[i], self.ctx)
        self.word.append((letter, 1))

    def _grow_first(self, s, state):
        ctx, n = self.ctx, self.n
        guard = 0
        while self._degN(state[s][0]) < self.ell:
            guard += 1
            if guard > 8 * self.ell * n:
                raise ProbeFailed("field-growth loop made no progress")
            psi = state[s]
            best, best_move = self._degN(psi[0]), None
            for j in range(2, n + 1):
                a = psi[j - 1]
                if a == 0:
                    continue
                tij = self.params.tij(1, j)
                ak = ctx.pow(a, tij)
                for lam in ctx.subfield(self._degN(a)):
                    cand = ctx.add(psi[0], ctx.mul(lam, ak))
                    dc = self._degN(cand)
                    if dc > best:
                        best, best_move = dc, (j, cand)
            if best_move is not None:
                j, cand = best_move
                self._set(state, 1, j, {s: cand})
                continue
            if psi[0] != 0:
                raise ProbeFailed("no enlargement move available")
            # a_1 := a_j^(t_1j); pinned points have a_j = 0 and stay put
            self._apply(state, _first_coordinate_letter(psi, self.params))

    def _twist_to(self, s, state, gammas, target_first):
        """The first Gamma twist, in increasing (a, b), sending the first
        coordinate to target_first."""
        for ab, img in _gamma_twists(state[s], self.spec).items():
            if img[0] == target_first:
                state[s] = img
                gammas[s] = ab
                return
        raise ProbeFailed("no Gamma twist matches the colliding node")

    def _fresh_generators(self, count, banned_keys):
        ctx = self.ctx
        out, keys = [], set(banned_keys)
        if count == 0:
            return out
        for a in range(1, ctx.q):
            if self._degN(a) != self.ell:
                continue
            key = minimal_polynomial(ctx, ctx.pow(a, self.N))
            if key in keys:
                continue
            keys.add(key)
            out.append(a)
            if len(out) == count:
                return out
        raise ProbeFailed("not enough fresh minimal-polynomial classes")

    def _stage(self, s, state, alphas, gammas):
        ctx, N, n = self.ctx, self.N, self.n
        self._grow_first(s, state)
        psi = state[s]
        key = minimal_polynomial(ctx, ctx.pow(psi[0], N))
        pinned_keys = [minimal_polynomial(ctx, ctx.pow(a, N)) for a in alphas[:s]]
        jstar = 1
        if key in pinned_keys:
            t = pinned_keys.index(key)
            j0 = next((j for j in range(2, n + 1) if psi[j - 1] != 0), None)
            if j0 is None:
                raise ProbeFailed("point collides with a pinned class")
            self._twist_to(s, state, gammas, alphas[t])
            psi = state[s]
            delta = None
            for cand in range(1, ctx.q):
                shifted = ctx.add(psi[j0 - 1], cand)
                if (self._degN(cand) == self.ell
                        and self._degN(shifted) == self.ell
                        and minimal_polynomial(ctx, ctx.pow(cand, N))
                        != minimal_polynomial(ctx, ctx.pow(shifted, N))):
                    delta = cand
                    break
            if delta is None:
                raise ProbeFailed("no admissible shift found (needs p >= 3E-2)")
            banned = {minimal_polynomial(ctx, ctx.pow(delta, N)),
                      minimal_polynomial(ctx, ctx.pow(ctx.add(psi[j0 - 1], delta), N))}
            others = self._fresh_generators(s - 1, banned)
            betas = []
            oi = 0
            for i in range(s):
                if i == t:
                    betas.append(delta)
                else:
                    betas.append(others[oi])
                    oi += 1
            self._set(state, j0, 1, dict(enumerate(betas)))
            jstar = j0
        self._endgame(s, state, alphas, jstar)
        for i in range(s + 1):
            expect = (alphas[i],) + (0,) * (n - 1)
            if state[i] != expect:
                raise ProbeFailed(f"stage {s} did not pin point {i}")

    def _endgame(self, s, state, alphas, jstar):
        live = range(s + 1)
        l = next(m for m in range(2, self.n + 1) if m != jstar)
        # coordinate l := alpha_i through coordinate jstar, then coordinate
        # 1 := alpha_i through l, then the rest := 0 through 1
        self._set(state, l, jstar, {i: alphas[i] for i in live})
        self._set(state, 1, l, {i: alphas[i] for i in live})
        for m in range(2, self.n + 1):
            if any(state[i][m - 1] for i in live):
                self._set(state, m, 1, dict.fromkeys(live, 0))

    def run(self, points, alphas):
        state = list(points)
        gammas = [(0, 0)] * len(points)
        self.word = []
        for s in range(len(points)):
            self._stage(s, state, alphas, gammas)
        return Word(self.word), gammas


def transitivity_probe(params, ell, k, trials, seed=0):
    """For random k-tuples of distinct Gamma-classes in the big orbit,
    constructively find a word g and twists gamma_i with
    g(gamma_i(phi_i)) = phi_{alpha_i}; every success is re-verified by
    applying the found word."""
    ctx = make_field(params.p, ell)
    spec = make_gamma_spec(params, ctx)
    E, n, q = params.E, params.n, ctx.q
    bound = Fraction(params.p**ell * (params.p - E), ell * params.p * E)
    bound_ok = k <= bound
    dance_ok = params.p >= 3 * E - 2
    if not bound_ok:
        return ProbeReport(k, 0, 0, [], bound, False, dance_ok, 0, seed)
    rng = random.Random(seed)
    machine = _ProbeMachine(params, ctx, spec)
    # canonical targets: first k field generators with fresh minimal polys
    alphas = machine._fresh_generators(k, ())
    successes, failures = 0, []
    max_len = 0
    for trial in range(trials):
        pts, class_keys = [], set()
        while len(pts) < k:
            pt = tuple(rng.randrange(q) for _ in range(n))
            if all(a == 0 for a in pt):
                continue
            d0, _ = compute_A0(pt, params, ctx)
            if d0 != ell:
                continue
            ck = min(point_to_code(x, q) for x in gamma_class_of(pt, spec))
            if ck in class_keys:
                continue
            class_keys.add(ck)
            pts.append(pt)
        try:
            word, gammas = machine.run(pts, alphas)
            for i in range(k):
                img = _gamma_twists(pts[i], spec)[gammas[i]]
                if apply_word(word, img, ctx) != (alphas[i],) + (0,) * (n - 1):
                    raise ProbeFailed(f"verification failed for point {i}")
            successes += 1
            max_len = max(max_len, len(word))
        except ProbeFailed as exc:
            failures.append({"trial": trial, "points": pts, "error": str(exc)})
    return ProbeReport(k, trials, successes, failures, bound, bound_ok,
                       dance_ok, max_len, seed)
