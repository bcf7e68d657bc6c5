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

MAX_ITER = 1000  # Lanczos steps, across restarts, before NoConvergence
RESIDUAL_TOL = 1e-10  # explicit residual ||Ax - theta x|| that stops Lanczos
# The Lanczos estimate beta_k |s_k| and the explicit residual were seen to
# differ by about 1e-16, so a step whose estimate, or a proven floor under
# it, exceeds 10 x RESIDUAL_TOL cannot stop and skips the exact check.
FLOOR_MARGIN = 10
BASIS_CAP = 256  # Lanczos vectors held at once; a full basis restarts
RESTART_COLUMNS = 1024  # basis columns per block of the in-place restart


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
    eigensolves: int  # steps that ran the dense eigh of T_k
    restarts: int  # thick restarts at a full basis


def spectral_gap(graph, seed=0):
    """lambda2 of the normalized adjacency A and gap = 1 - lambda2.

    Lanczos with full reorthogonalization on the complement of the
    constant vector, the eigenvalue-1 eigenvector of every uniform-degree
    graph.  The constant vector is row 0 of the basis, so
    reorthogonalizing against the basis also deflates it.  Stops at the
    first step whose top Ritz pair (theta, x) has explicit residual
    ||Ax - theta x|| <= RESIDUAL_TOL.
    A breakdown (beta = 0: the Krylov space is invariant and its Ritz
    values are exact) makes that residual vanish, so it stops at once:
    the complete graph at step 1, and a disconnected graph with
    lambda2 = 1, gap 0.

    The basis is allocated once, BASIS_CAP + 1 rows of nvertices floats.
    A step that fills the last row and does not stop thick-restarts (Wu
    and Simon, SIAM J. Matrix Anal. Appl. 22, 2000): the top BASIS_CAP / 2
    Ritz vectors of T replace the basis rows, computed in place over
    column blocks, and the step's w / beta_k follows them.  T is then the
    diagonal of the kept Ritz values bordered by the arrowhead beta_k s
    (s the kept vectors' last components), and grows by tridiagonal rows
    as before.  Runs that stop before the cap never restart.

    The check of a step is exact: eigh of T_k, then x and its explicit
    residual.  It only runs where it could pass.  Its Lanczos estimate
    rho_k = beta_k |s_k| (s the top eigenvector of T_k, beta_k the norm
    of the step's reorthogonalized w) equals the residual up to rounding,
    so x is formed only when rho_k <= FLOOR_MARGIN * RESIDUAL_TOL, and
    eigh itself is skipped while `_residual_floor`, a lower bound on rho_k
    from the last eigh step since the last restart, is above that.  No
    check feeds the recurrence, so the stopping step and every printed
    value are those of a check at every step.  Step MAX_ITER and every
    restart step always run eigh.
    """
    v = graph.nvertices
    basis = np.empty((BASIS_CAP + 1, v))
    basis[0] = 1.0 / math.sqrt(v)
    q = np.random.default_rng(seed).standard_normal(v)
    q -= basis[0] * (basis[0] @ q)
    basis[1] = q / np.linalg.norm(q)
    alphas, betas, arrow = [], [], []  # T_j; betas[-1] is the norm of w
    anchor, eigensolves, restarts, j = None, 0, 0, 0
    limit = FLOOR_MARGIN * RESIDUAL_TOL
    for k in range(1, MAX_ITER + 1):
        j += 1
        w = graph.matmat(basis[j])
        alphas.append(basis[j] @ w)
        for _ in range(2):  # twice is enough (Kahan; Parlett)
            w -= basis[:j + 1].T @ (basis[:j + 1] @ w)
        betas.append(np.linalg.norm(w))
        if k == MAX_ITER or j == BASIS_CAP \
                or _residual_floor(betas, anchor) <= limit:
            vals, vecs = np.linalg.eigh(_lanczos_matrix(alphas, betas, arrow))
            eigensolves += 1
            theta, rho = float(vals[-1]), betas[-1] * abs(vecs[-1, -1])
            anchor = (j, rho, vals[-1] - vals[-2] if j > 1 else math.inf)
            if rho <= limit or k == MAX_ITER:
                x = vecs[:, -1] @ basis[1:j + 1]
                residual = float(np.linalg.norm(graph.matmat(x) - theta * x))
                if residual <= RESIDUAL_TOL:
                    return GapResult(theta, 1.0 - theta, "lanczos", residual,
                                     k, eigensolves, restarts)
        beta = betas[-1]
        if j == BASIS_CAP:
            m = BASIS_CAP // 2
            kept = vecs[:, -m:]
            for c in range(0, v, RESTART_COLUMNS):
                block = slice(c, c + RESTART_COLUMNS)
                basis[1:m + 1, block] = kept.T @ basis[1:j + 1, block]
            arrow = beta * kept[-1]
            alphas, betas = list(vals[-m:]), [0.0] * m
            # the floor assumes T grew only by tridiagonal rows since its
            # anchor, so the first check after a restart is exact
            anchor, j, restarts = None, m, restarts + 1
        basis[j + 1] = w / beta
    raise NoConvergence(f"Lanczos did not reach residual {RESIDUAL_TOL} in "
                        f"{MAX_ITER} steps (residual {residual})")


def _lanczos_matrix(alphas, betas, arrow):
    """T_j, j = len(alphas): the alphas on the diagonal, betas[:-1] beside
    it, and the arrowhead of a thick restart in row and column len(arrow).
    Filled in place, so the only k x k array is T itself."""
    j, m = len(alphas), len(arrow)
    t = np.diag(alphas)
    t.flat[1::j + 1] = t.flat[j::j + 1] = betas[:-1]
    t[:m, m] = t[m, :m] = arrow
    return t


def _residual_floor(betas, anchor):
    """A lower bound on rho_k = beta_k |s_k| at step k = len(betas), from
    the anchor (k0, rho0, g0) of an earlier step k0 = k - j.  With theta_1
    > theta_2 >= ... the eigenvalues of T_k0 and z_m the last entry of its
    m-th eigenvector, rho0 = beta_k0 |z_1| and g0 = theta_1 - theta_2
    (inf when k0 = 1).  0 when there is no anchor or rho0 or g0 is 0.

    It uses that the spectrum and the diagonal of every T lie in [-1, 1]
    (T = Q^T A Q with orthonormal Q and ||A|| = 1) and that beta <= 1.
    Let (theta, s), ||s|| = 1, be the top eigenpair of T = T_k.

    - Tail.  Row k0 + i of (T - theta) s = 0 gives s_{k0+i-1} =
      ((theta - alpha_{k0+i}) s_{k0+i} - beta_{k0+i} s_{k0+i+1}) /
      beta_{k0+i-1}, with s_{k+1} = 0.  So |s_{k0+i}| <= c_i |s_k| for
      c_j = 1, c_{j+1} = 0, c_{i-1} = (2 c_i + c_{i+1}) / beta_{k0+i-1}.
    - Head.  Rows 1..k0 give u = (s_1..s_k0) = -beta_k0 s_{k0+1}
      (T_k0 - theta)^-1 e_k0, so ||u||^2 = s_{k0+1}^2 sum_m beta_k0^2
      z_m^2 / (theta - theta_m)^2.  By Cauchy interlacing theta >=
      theta', the top eigenvalue of T_{k0+1}.  The secular equation of
      that bordered matrix, theta' - alpha_{k0+1} = sum_m beta_k0^2 z_m^2
      / (theta' - theta_m), has positive terms and a left side <= 2, so
      theta' - theta_1 >= rho0^2 / 2.  The m = 1 term is then <= 4 / rho0^2, and
      the rest, with theta - theta_m >= g0, sum to <= beta_k0^2 / g0^2.
      So ||u||^2 <= c_1^2 s_k^2 M with M = 4 / rho0^2 + beta_k0^2 / g0^2.

    1 = ||s||^2 <= s_k^2 (c_1^2 M + sum_{i<=j} c_i^2) then bounds |s_k|
    from below, and beta_k |s_k| from below by the value returned.  A
    breakdown (beta_k = 0) gives 0.
    """
    if anchor is None:
        return 0.0
    k0, rho0, g0 = anchor
    if rho0 == 0 or g0 == 0:
        return 0.0
    c_next, c, total = 0.0, 1.0, 1.0  # c_{i+1}, c_i, sum of c_i^2 so far
    for i in range(len(betas) - k0, 1, -1):
        c_next, c = c, (2 * c + c_next) / betas[k0 + i - 2]
        total += c * c
    m = 4 / rho0**2 + betas[k0 - 1]**2 / g0**2
    return betas[-1] / math.sqrt(c * c * m + total)


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
class KazhdanReport:
    M: float
    bound: float  # nan when not applicable
    applicable: bool
    p_large_enough: bool  # p > 4 max e_i, which forces M < 1


def kazhdan_bound(params):
    """sqrt((1 - M)/n) with M = max_i sqrt(e_i/p) + sqrt(e_{i+1}/p), for
    the tame.GroupParams `params`."""
    p, n, e = params.p, params.n, params.e
    M = max(math.sqrt(e[i] / p) + math.sqrt(e[(i + 1) % n] / p)
            for i in range(n))
    sufficient = p > 4 * max(e)
    if M >= 1.0:
        return KazhdanReport(M, float("nan"), False, sufficient)
    return KazhdanReport(M, math.sqrt((1.0 - M) / n), True, sufficient)
