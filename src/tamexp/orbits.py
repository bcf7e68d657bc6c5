"""Orbit structure of the affine action: enumeration, the subfield
invariants, the commuting Frobenius/root-of-unity action, and the
constructive almost-k-transitivity probe.

Points of F_q^n are tuples of field-element indices; bulk code paths pack
a point into a single integer sum(idx_i * q^i), so index 0 is the origin.
This module owns that format: `word_code_perm` turns a word into a
permutation of a code set, and `components` finds the connected
components under such maps.  Orbits are the components under the
standard generators with r = 1, Gamma-classes those under Frobenius and
m_lambda.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, prod

import numpy as np

from .errors import BoundViolated, BudgetExceeded, NotClosed, ProbeFailed
from .ff import make_field, minimal_polynomial
from .synth import interpolate
from .tame import (Transvection, Word, apply_letter, apply_word,
                   apply_word_arrays, poly_transvection_letter, tau)
# re-exported: bench/test_bench.py checks its span wrapper under this name
from .tame import apply_letter_arrays  # noqa: F401


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
        out.append(c % q)
        c = c // q
    return out


def coords_to_codes(coords, q):
    code = np.zeros_like(coords[0])
    for a in reversed(coords):
        code = code * q + a
    return code


# ---------------------------------------------------------------------------
# maps on point codes and their connected components


def code_perm(codes, images, universe):
    """Positions of `images` in the distinct codes `codes`, all below
    `universe`, through one universe-entry int32 lookup table; raises
    NotClosed if an image is not in `codes`."""
    lookup = np.full(universe, -1, dtype=np.int32)
    lookup[codes] = np.arange(len(codes), dtype=np.int32)
    pos = lookup[images]
    if (pos < 0).any():
        raise NotClosed("a map sends a point outside the domain")
    return pos


def word_code_perm(word, codes, ctx, n):
    """The permutation a word induces on a set of codes of F_q^n, as
    positions into `codes`."""
    coords = apply_word_arrays(word, codes_to_coords(codes, ctx.q, n), ctx)
    return code_perm(codes, coords_to_codes(coords, ctx.q), ctx.q**n)


def components(maps):
    """Components of the undirected graph on range(len(g)) with an edge
    x -- g[x] for every index array g in `maps`: each point is labelled
    with the smallest point of its component.

    Min-label propagation: each round pulls labels along the edges by a
    gather, pushes them back by a scatter (so the maps need not be
    permutations), then shortcuts the label forest by pointer jumping.
    Labels only decrease and stay inside their component, so the fixed
    point is the component minimum.
    """
    labels = np.arange(len(maps[0]), dtype=np.int32)
    while True:
        nxt = labels.copy()
        for g in maps:
            np.minimum(nxt, labels[g], out=nxt)
            np.minimum.at(nxt, g, labels)
        while True:
            jumped = nxt[nxt]
            if np.array_equal(jumped, nxt):
                break
            nxt = jumped
        if np.array_equal(nxt, labels):
            return labels
        labels = nxt


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

    @property
    def frob_order(self):
        return self.ctx.ell


def make_gamma_spec(params, ctx, check_points=200, seed=0):
    E = params.E
    root_order = gcd(E - 1, ctx.q - 1) if E >= 2 else 1
    lam = 1
    if root_order > 1:
        lam = min(a for a in range(1, ctx.q) if ctx.order(a) == root_order)
    d = [prod(params.e[i:]) for i in range(params.n)]
    scales = tuple(ctx.pow(lam, di) for di in d)
    spec = GammaSpec(ctx, params, lam, root_order, scales)
    rng = random.Random(seed)
    for _ in range(check_points):
        pt = tuple(rng.randrange(ctx.q) for _ in range(params.n))
        for i in range(1, params.n + 1):
            let = tau(params, i, 1)
            a = gamma_apply("mlambda", apply_letter(let, 1, pt, ctx), spec)
            b = apply_letter(let, 1, gamma_apply("mlambda", pt, spec), ctx)
            if a != b:
                raise BoundViolated("m_lambda fails to commute with a generator")
            a = gamma_apply("frobenius", apply_letter(let, 1, pt, ctx), spec)
            b = apply_letter(let, 1, gamma_apply("frobenius", pt, spec), ctx)
            if a != b:
                raise BoundViolated("frobenius fails to commute with a generator")
    return spec


def gamma_apply(which, point, spec):
    ctx = spec.ctx
    if which == "frobenius":
        return tuple(ctx.frobenius(a) for a in point)
    if which == "mlambda":
        return tuple(ctx.mul(s, a) for s, a in zip(spec.scales, point))
    raise ValueError(f"unknown gamma action {which!r}")


def gamma_apply_codes(which, codes, spec, n):
    ctx = spec.ctx
    q = ctx.q
    coords = codes_to_coords(codes, q, n)
    if which == "frobenius":
        ft = ctx.frob_table()
        coords = [ft[c] for c in coords]
    elif which == "mlambda":
        coords = [ctx.mul_const_table(s)[c] for s, c in zip(spec.scales, coords)]
    else:
        raise ValueError(f"unknown gamma action {which!r}")
    return coords_to_codes(coords, q)


def gamma_class_of(point, spec):
    """The full <F, m_lambda>-orbit of a point, as a set of tuples."""
    seen = {point}
    frontier = [point]
    while frontier:
        nxt = []
        for p in frontier:
            for which in ("frobenius", "mlambda"):
                im = gamma_apply(which, p, spec)
                if im not in seen:
                    seen.add(im)
                    nxt.append(im)
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# orbit invariants


@dataclass(frozen=True)
class OrbitInvariant:
    d0: int
    a1_label: int
    zero_flag: bool


def _normalize_first_coordinate(point, params, ctx):
    """A cheap G-move making coordinate 1 nonzero (point must be nonzero):
    one derived transvection a_1 += a_j^(t_1j)."""
    if point[0] != 0:
        return point
    j = next(i for i, a in enumerate(point) if a)  # 0-based
    let = Transvection(1, j + 1, params.tij(1, j + 1), 1)
    return apply_letter(let, 1, point, ctx)


def compute_A0(point, params, ctx):
    """Degree over F_p of the subfield generated by the grading-degree-0
    values, via the closed form at a representative with nonzero first
    coordinate.  Returns (degree, zero_flag)."""
    if all(a == 0 for a in point):
        return 1, True
    point = _normalize_first_coordinate(point, params, ctx)
    E = params.E
    if E == 1:
        return ctx.join_degree([a for a in point if a]), False
    one = point[0]
    gens = [ctx.pow(one, E - 1)]
    inv1 = ctx.inv(one)
    for i in range(2, params.n + 1):
        di = prod(params.e[i - 1:])
        gens.append(ctx.mul(ctx.pow(inv1, di), point[i - 1]))
    return ctx.join_degree(gens), False


def orbit_invariant(point, params, ctx, spec=None):
    """Canonical (A_{phi,0}, A_{phi,1}) label; complete for p >= E.

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
    N = params.E - 1
    line = [ctx.mul(s, pt[0]) for s in range(1, ctx.q)
            if d0 % ctx.subfield_degree(s) == 0]
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


def _generator_maps(params, ctx):
    """Code maps of the standard generators on all of F_q^n; orbits are
    their components, inverses being implied by the undirected edges."""
    codes = np.arange(ctx.q**params.n, dtype=np.int64)
    return [word_code_perm(Word.of(tau(params, i, 1)), codes, ctx, params.n)
            for i in range(1, params.n + 1)]


def orbit_partition(params, ell, budget=10**7, invariant_samples=64, seed=0):
    """Disjoint orbits of F_q^n under the group action, each with its
    invariant (spot-checked for constancy on a sample of members).
    Orbits are numbered in order of their smallest code, which is also
    their representative."""
    ctx = make_field(params.p, ell)
    q, n = ctx.q, params.n
    total = q**n
    if total > budget:
        raise BudgetExceeded(f"{total} points exceed the exhaustive budget {budget}")
    reps, labels = component_ids(components(_generator_maps(params, ctx)))
    sizes = np.bincount(labels)
    rng = random.Random(seed)
    orbits = []
    for oid, (rep, size) in enumerate(zip(reps.tolist(), sizes.tolist())):
        inv = orbit_invariant(code_to_point(rep, q, n), params, ctx)
        if size > 1:
            members = np.flatnonzero(labels == oid)
            pool = (members if len(members) <= invariant_samples
                    else rng.sample(members.tolist(), invariant_samples))
            for code in pool:
                got = orbit_invariant(code_to_point(int(code), q, n), params, ctx)
                if got != inv:
                    raise BoundViolated(
                        f"invariant not constant on orbit {oid}: {got} != {inv}")
        orbits.append(OrbitInfo(size, rep, inv))
    return OrbitPartition(params, ctx, orbits, labels)


@dataclass
class GammaClassReport:
    class_count: int
    size_histogram: dict
    orbit_size: int
    roots: np.ndarray = field(repr=False)  # sorted-code position -> class root


def gamma_classes(orbit_codes, spec, params):
    """Gamma-classes of an orbit: the components of its sorted codes under
    the Frobenius and m_lambda code maps, each class rooted at its
    smallest code."""
    codes = np.sort(np.asarray(orbit_codes, dtype=np.int64))
    try:
        maps = [code_perm(codes, gamma_apply_codes(which, codes, spec, params.n),
                          spec.ctx.q**params.n)
                for which in ("frobenius", "mlambda")]
    except NotClosed:
        raise BoundViolated("orbit is not Gamma-invariant") from None
    roots = components(maps)
    reps, ids = component_ids(roots)
    sizes, mult = np.unique(np.bincount(ids), return_counts=True)
    hist = {int(s): int(m) for s, m in zip(sizes, mult)}
    return GammaClassReport(int(reps.size), hist, int(codes.size), roots)


@dataclass
class LargeOrbitReport:
    orbit_size: int
    lower_bound: int
    holds: bool
    strictly_greater: bool


def check_large_orbit(params, ell, budget=10**7):
    """Size of the A_{phi,0} = F_q orbit against q^n (1 - (E-1)^n / p^n)."""
    ctx = make_field(params.p, ell)
    q, n = ctx.q, params.n
    if q**n > budget:
        raise BudgetExceeded("orbit beyond exhaustive budget")
    N = params.E - 1
    start = None
    for a in range(1, q):
        if ctx.subfield_degree(ctx.pow(a, N) if N >= 1 else a) == ell:
            start = point_to_code((a,) + (0,) * (n - 1), q)
            break
    if start is None:
        raise BoundViolated("no field generator among (E-1)-st powers")
    roots = components(_generator_maps(params, ctx))
    size = int(np.count_nonzero(roots == roots[start]))
    # exact integer bound: p^(ln) - (E-1)^n p^((l-1)n)
    bound = params.p ** (ell * n) - (params.E - 1) ** n * params.p ** ((ell - 1) * n)
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

    All moves are poly-transvection letters; moves sourced at coordinate 1
    interpolate through the pinned targets' nodes with value 0, so pinned
    points stay put; moves sourced elsewhere fix them automatically.
    """

    def __init__(self, params, ctx, spec):
        self.params = params
        self.ctx = ctx
        self.spec = spec
        self.N = params.E - 1
        self.n = params.n
        self.ell = ctx.ell
        self.word = []
        q = ctx.q
        self._sub = {}
        for a in range(q):
            self._sub.setdefault(ctx.subfield_degree(a), []).append(a)

    def _subfield_elems(self, d):
        out = []
        for dd, elems in self._sub.items():
            if d % dd == 0:
                out.extend(elems)
        return sorted(out)

    def _degN(self, a):
        return self.ctx.subfield_degree(self.ctx.pow(a, self.N))

    def _move(self, state, target, source, nodes, values):
        coeffs = interpolate(nodes, values, self.ctx)
        letter = poly_transvection_letter(self.params, target, source, coeffs)
        for i in range(len(state)):
            state[i] = apply_letter(letter, 1, state[i], self.ctx)
        self.word.append((letter, 1))

    def _grow_first(self, s, state, pinned):
        ctx, N, n = self.ctx, self.N, self.n
        guard = 0
        while self._degN(state[s][0]) < self.ell:
            guard += 1
            if guard > 8 * self.ell * n:
                raise ProbeFailed("field-growth loop made no progress")
            psi = state[s]
            d1 = self._degN(psi[0])
            best, best_move = d1, None
            for j in range(2, n + 1):
                a = psi[j - 1]
                if a == 0:
                    continue
                tij = self.params.tij(1, j)
                ak = ctx.pow(a, tij)
                for lam in self._subfield_elems(self._degN(a)):
                    cand = ctx.add(psi[0], ctx.mul(lam, ak))
                    dc = self._degN(cand)
                    if dc > best:
                        best, best_move = dc, (j, a, lam)
            if best_move is not None:
                j, a, lam = best_move
                self._move(state, 1, j, [ctx.pow(a, N)], [lam])
                continue
            # strict growth of some other coordinate, sourced at coordinate 1
            found = False
            pool = self._subfield_elems(d1)
            for j in range(2, n + 1):
                dj = self.params.tij(j, 1)
                src_pow = ctx.pow(psi[0], dj)
                for lam in pool:
                    cand = ctx.add(psi[j - 1], ctx.mul(lam, src_pow))
                    if self._degN(cand) > d1:
                        nodes = [ctx.pow(al, N) for al in pinned]
                        nodes.append(ctx.pow(psi[0], N))
                        values = [0] * len(pinned) + [lam]
                        self._move(state, j, 1, nodes, values)
                        found = True
                        break
                if found:
                    break
            if not found:
                raise ProbeFailed("no enlargement move available")

    def _twist_to(self, s, state, gammas, target_first):
        """Gamma element sending the first coordinate to target_first."""
        ctx, spec = self.ctx, self.spec
        pt = state[s]
        for a in range(self.ell):
            for b in range(spec.lam_order):
                img = pt
                for _ in range(b):
                    img = gamma_apply("mlambda", img, spec)
                for _ in range(a):
                    img = gamma_apply("frobenius", img, spec)
                if img[0] == target_first:
                    state[s] = img
                    gammas[s] = (a, b)
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
        self._grow_first(s, state, alphas[:s])
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
            dj0 = self.params.tij(j0, 1)
            nodes = [ctx.pow(al, N) for al in alphas[:s]]
            values = [ctx.mul(ctx.sub(betas[i], state[i][j0 - 1]),
                              ctx.inv(ctx.pow(alphas[i], dj0)))
                      for i in range(s)]
            self._move(state, j0, 1, nodes, values)
            jstar = j0
        self._endgame(s, state, alphas, jstar)
        for i in range(s + 1):
            expect = (alphas[i],) + (0,) * (n - 1)
            if state[i] != expect:
                raise ProbeFailed(f"stage {s} did not pin point {i}")

    def _endgame(self, s, state, alphas, jstar):
        ctx, N, n = self.ctx, self.N, self.n
        live = s + 1
        l = next(m for m in range(2, n + 1) if m != jstar)
        # coordinate l := alpha_i, interpolating through coordinate jstar
        v = [state[i][jstar - 1] for i in range(live)]
        tl = self.params.tij(l, jstar)
        nodes = [ctx.pow(x, N) for x in v]
        values = [ctx.mul(ctx.sub(alphas[i], state[i][l - 1]),
                          ctx.inv(ctx.pow(v[i], tl)))
                  for i in range(live)]
        self._move(state, l, jstar, nodes, values)
        # coordinate 1 := alpha_i via source l
        t1 = self.params.tij(1, l)
        nodes = [ctx.pow(alphas[i], N) for i in range(live)]
        values = [ctx.mul(ctx.sub(alphas[i], state[i][0]),
                          ctx.inv(ctx.pow(alphas[i], t1)))
                  for i in range(live)]
        self._move(state, 1, l, nodes, values)
        # zero the rest via source 1
        for m in range(2, n + 1):
            if all(state[i][m - 1] == 0 for i in range(live)):
                continue
            tm = self.params.tij(m, 1)
            values = [ctx.mul(ctx.neg(state[i][m - 1]),
                              ctx.inv(ctx.pow(alphas[i], tm)))
                      for i in range(live)]
            self._move(state, m, 1, nodes, values)

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
    N = E - 1
    # canonical targets: first k field generators with fresh minimal polys
    alphas, keys = [], set()
    for a in range(1, q):
        aN = ctx.pow(a, N)
        if ctx.subfield_degree(aN) != ell:
            continue
        key = minimal_polynomial(ctx, aN)
        if key not in keys:
            keys.add(key)
            alphas.append(a)
        if len(alphas) == k:
            break
    if len(alphas) < k:
        raise ProbeFailed("field too small for k distinct target classes")
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
        machine = _ProbeMachine(params, ctx, spec)
        try:
            word, gammas = machine.run(pts, alphas)
            for i in range(k):
                img = pts[i]
                a, b = gammas[i]
                for _ in range(b):
                    img = gamma_apply("mlambda", img, spec)
                for _ in range(a):
                    img = gamma_apply("frobenius", img, spec)
                img = apply_word(word, img, ctx)
                if img != (alphas[i],) + (0,) * (n - 1):
                    raise ProbeFailed(f"verification failed for point {i}")
            successes += 1
            max_len = max(max_len, len(word))
        except ProbeFailed as exc:
            failures.append({"trial": trial, "points": pts, "error": str(exc)})
    return ProbeReport(k, trials, successes, failures, bound, bound_ok,
                       dance_ok, max_len, seed)
