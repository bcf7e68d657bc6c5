"""Schreier graphs of the point action, their spectral gaps, the cyclic
angle-matrix eigenvalue criterion, and the closed-form Kazhdan lower
bound.

Graphs are uniform-degree: one edge to g.v and one to g^-1.v per
generator word g, loops and multiplicities kept.  The spectral quantity
is the second-largest eigenvalue of the degree-normalized adjacency
(random-walk) operator; the gap reported for an orbit graph is a
Schreier gap, the desk-scale shadow of Cayley expansion, not the Cayley
gap itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundViolated, NoConvergence
from .orbits import components, word_code_perms
from .permgrp import inverse
# re-exported: bench/test_bench.py checks its span wrapper under this name
from .orbits import codes_to_coords  # noqa: F401

MAX_ITER = 1000  # Lanczos steps (basis vectors) before NoConvergence


@dataclass
class SchreierGraph:
    nvertices: int
    degree: int
    neighbors: np.ndarray  # (nvertices, degree) int32

    def normalized_adjacency(self):
        a = np.zeros((self.nvertices, self.nvertices))
        rows = np.repeat(np.arange(self.nvertices), self.degree)
        np.add.at(a, (rows, self.neighbors.ravel()), 1.0)
        return a / self.degree

    def matmat(self, x):
        """The normalized adjacency applied to a vector or to each column
        of an (nvertices, k) block."""
        return x[self.neighbors].sum(axis=1) / self.degree


def build_schreier(domain_codes, gen_words, ctx, n):
    """Orbit graph on a set of point codes closed under the generators, else
    NotClosed; each inverse word's column is the inverse permutation."""
    codes = np.sort(np.asarray(domain_codes, dtype=np.int64))
    cols = [c for g in word_code_perms(gen_words, codes, ctx, n)
            for c in (g, inverse(g))]
    return SchreierGraph(len(codes), 2 * len(gen_words), np.stack(cols, axis=1))


def complete_graph(v):
    nbrs = np.array([[j for j in range(v) if j != i] for i in range(v)],
                    dtype=np.int32)
    return SchreierGraph(v, v - 1, nbrs)


def cycle_graph(v):
    nbrs = np.array([[(i - 1) % v, (i + 1) % v] for i in range(v)],
                    dtype=np.int32)
    return SchreierGraph(v, 2, nbrs)


def is_connected(graph):
    return bool((components(graph.neighbors.T) == 0).all())


@dataclass
class GapResult:
    lambda2: float
    gap: float
    method: str
    residual: float
    iterations: int


def spectral_gap(graph, seed=0):
    """lambda2 of the normalized adjacency A and gap = 1 - lambda2.

    Lanczos with full reorthogonalization on the complement of the
    constant vector, the eigenvalue-1 eigenvector of every uniform-degree
    graph.  The constant vector is row 0 of the basis, so
    reorthogonalizing against the basis also deflates it.  Stops at the
    first step whose top Ritz pair (theta, x) has explicit residual
    ||Ax - theta x|| <= 1e-10.
    A breakdown (beta = 0: the Krylov space is invariant and its Ritz
    values are exact) makes that residual vanish, so it stops at once:
    the complete graph at step 1, and a disconnected graph with
    lambda2 = 1, gap 0.
    """
    v = graph.nvertices
    basis = np.empty((2, v))  # grows by doubling as steps are taken
    basis[0] = 1.0 / math.sqrt(v)
    q = np.random.default_rng(seed).standard_normal(v)
    q -= basis[0] * (basis[0] @ q)
    basis[1] = q / np.linalg.norm(q)
    alphas, betas = [], []
    for k in range(1, MAX_ITER + 1):
        w = graph.matmat(basis[k])
        alphas.append(basis[k] @ w)
        for _ in range(2):  # twice is enough (Kahan; Parlett)
            w -= basis[:k + 1].T @ (basis[:k + 1] @ w)
        t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        vals, vecs = np.linalg.eigh(t)
        theta, x = float(vals[-1]), vecs[:, -1] @ basis[1:k + 1]
        residual = float(np.linalg.norm(graph.matmat(x) - theta * x))
        if residual <= 1e-10:
            return GapResult(theta, 1.0 - theta, "lanczos", residual, k)
        betas.append(np.linalg.norm(w))
        if k + 1 == len(basis):
            basis = np.concatenate([basis, np.empty_like(basis)])
        basis[k + 1] = w / betas[-1]
    raise NoConvergence(f"Lanczos did not reach residual 1e-10 in {MAX_ITER} "
                        f"steps (residual {residual})")


# ---------------------------------------------------------------------------
# angle matrix and Kazhdan bound


@dataclass
class AngleMatrix:
    alphas: tuple

    def __post_init__(self):
        if any(a <= 0 for a in self.alphas):
            raise ValueError("angle entries must be positive")

    @property
    def n(self):
        return len(self.alphas)

    def matrix(self):
        n = self.n
        m = np.eye(n)
        for i in range(n):
            j = (i + 1) % n
            m[i, j] -= self.alphas[i]
            m[j, i] -= self.alphas[i]
        return m


@dataclass
class AngleEigReport:
    lambda_min: float
    bound_1_minus_M: float
    equality_case: bool
    applicable: bool


def angle_matrix_min_eig(am):
    """Smallest eigenvalue of the cyclic matrix with off-diagonal entries
    -alpha_i against the bound 1 - max(alpha_i + alpha_{i+1}).

    am is one AngleMatrix, which gives one report, or a sequence of them
    of one size n, which gives the list of their reports from a single
    stacked eigvalsh call.  Both bound checks run on every matrix.
    n = 2 makes the two corner entries collide (the matrix shape presumes
    n >= 3), so it is reported as not applicable.
    """
    single = isinstance(am, AngleMatrix)
    stack = [am] if single else list(am)
    sizes = {a.n for a in stack}
    if len(sizes) > 1:
        raise ValueError(f"a stack needs one matrix size, got {sorted(sizes)}")
    if stack and sizes != {2}:
        mats = np.stack([a.matrix() for a in stack])
        lams = np.linalg.eigvalsh(mats)[:, 0].tolist()
    else:
        lams = [float("nan")] * len(stack)
    reports = []
    for a, lam_min in zip(stack, lams):
        n, alphas = a.n, a.alphas
        M = max(alphas[i] + alphas[(i + 1) % n] for i in range(n))
        if n == 2:
            reports.append(AngleEigReport(lam_min, 1.0 - M, False, False))
            continue
        if lam_min < 1.0 - M - 1e-12:
            raise BoundViolated(f"lambda_min {lam_min} < 1 - M = {1.0 - M}")
        equality = all(alphas[i] == alphas[(i + 2) % n] for i in range(n))
        matches = abs(lam_min - (1.0 - M)) <= 1e-10
        if equality != matches:
            raise BoundViolated(
                f"equality case mismatch: alphas {alphas}, lambda_min {lam_min}")
        reports.append(AngleEigReport(lam_min, 1.0 - M, equality, True))
    return reports[0] if single else reports


@dataclass
class KazhdanParams:
    p: int
    n: int
    e: tuple

    @property
    def M(self):
        return max(math.sqrt(self.e[i] / self.p)
                   + math.sqrt(self.e[(i + 1) % self.n] / self.p)
                   for i in range(self.n))


@dataclass
class KazhdanReport:
    M: float
    bound: float  # nan when not applicable
    applicable: bool
    p_large_enough: bool  # p > 4 max e_i, which forces M < 1


def kazhdan_bound(params):
    """sqrt((1 - M)/n) with M = max_i sqrt(e_i/p) + sqrt(e_{i+1}/p)."""
    M = params.M
    sufficient = params.p > 4 * max(params.e)
    if M >= 1.0:
        return KazhdanReport(M, float("nan"), False, sufficient)
    return KazhdanReport(M, math.sqrt((1.0 - M) / params.n), True, sufficient)
