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

from .errors import NotConnected, NoConvergence
from .orbits import components, word_code_perm
# re-exported: bench/test_bench.py checks its span wrapper under this name
from .orbits import codes_to_coords  # noqa: F401


@dataclass
class SchreierGraph:
    nvertices: int
    degree: int
    neighbors: np.ndarray  # (nvertices, degree) int32

    def normalized_adjacency(self):
        a = np.zeros((self.nvertices, self.nvertices))
        for row, nbrs in enumerate(self.neighbors):
            for t in nbrs:
                a[row, t] += 1.0
        return a / self.degree

    def matvec(self, x):
        return x[self.neighbors].sum(axis=1) / self.degree

    def matmat(self, x):
        """matvec over the columns of an (nvertices, k) block at once."""
        return x[self.neighbors].sum(axis=1) / self.degree


def build_schreier(domain_codes, gen_words, ctx, n):
    """Orbit graph on a set of point codes closed under the generators;
    raises NotClosed otherwise."""
    codes = np.sort(np.asarray(domain_codes, dtype=np.int64))
    cols = [word_code_perm(word, codes, ctx, n)
            for w in gen_words for word in (w, w.inverse())]
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


def spectral_gap(graph, method="auto", tol=1e-10, max_iter=100_000,
                 dense_limit=4000, seed=0):
    """lambda2 of the normalized adjacency and gap = 1 - lambda2.

    'dense' diagonalizes the full operator (the oracle for small graphs,
    also fine for disconnected ones, where the gap comes out 0).
    'iterative' runs a deflated block power iteration orthogonal to the
    constant vector and certifies the eigenpair by its residual.
    """
    if method == "auto":
        method = "dense" if graph.nvertices <= dense_limit else "iterative"
    if method == "dense":
        eigs = np.linalg.eigvalsh(graph.normalized_adjacency())
        lam2 = float(eigs[-2]) if graph.nvertices > 1 else float(eigs[-1])
        return GapResult(lam2, 1.0 - lam2, "dense", 0.0, 0)
    if not is_connected(graph):
        raise NotConnected("iterative gap needs a connected graph")
    v = graph.nvertices
    rng = np.random.default_rng(seed)
    block = 3
    x = rng.standard_normal((v, block))
    ones = np.ones(v) / math.sqrt(v)

    def project(y):
        return y - np.outer(ones, ones @ y)

    x = project(x)
    x, _ = np.linalg.qr(x)
    residual = float("inf")
    # iterate on (I + A)/2 so the top of the deflated spectrum is the
    # target even when negative eigenvalues dominate in modulus
    for it in range(1, max_iter + 1):
        ax = graph.matmat(x)
        y = project((x + ax) / 2.0)
        x, _ = np.linalg.qr(y)
        if it % 5 and it > 10:
            continue
        ax = graph.matmat(x)
        small = x.T @ ax
        small = (small + small.T) / 2.0
        w, vecs = np.linalg.eigh(small)
        lam = w[::-1]
        ritz = x @ vecs[:, ::-1]
        top = ritz[:, 0]
        residual = float(np.linalg.norm(graph.matvec(top) - lam[0] * top))
        if residual <= tol and it >= 10:
            lam2 = float(lam[0])
            return GapResult(lam2, 1.0 - lam2, "iterative", residual, it)
        x = ritz
    raise NoConvergence(f"power iteration did not reach tol={tol} "
                        f"in {max_iter} iterations (residual {residual})")


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

    n = 2 makes the two corner entries collide (the matrix shape presumes
    n >= 3), so it is reported as not applicable.
    """
    n = am.n
    alphas = am.alphas
    M = max(alphas[i] + alphas[(i + 1) % n] for i in range(n))
    if n == 2:
        return AngleEigReport(float("nan"), 1.0 - M, False, False)
    lam_min = float(np.linalg.eigvalsh(am.matrix())[0])
    if lam_min < 1.0 - M - 1e-12:
        from .errors import BoundViolated
        raise BoundViolated(f"lambda_min {lam_min} < 1 - M = {1.0 - M}")
    equality = all(alphas[i] == alphas[(i + 2) % n] for i in range(n))
    matches = abs(lam_min - (1.0 - M)) <= 1e-10
    if equality != matches:
        from .errors import BoundViolated
        raise BoundViolated(
            f"equality case mismatch: alphas {alphas}, lambda_min {lam_min}")
    return AngleEigReport(lam_min, 1.0 - M, equality, True)


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
