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
from .orbits import components
from .permgrp import inverse
# re-exported: bench/test_bench.py checks its span wrapper under this name
from .orbits import codes_to_coords  # noqa: F401

MAX_ITER = 1000  # Lanczos steps, across restarts, before NoConvergence
RESIDUAL_TOL = 1e-10  # explicit residual ||Ax - theta x|| that stops Lanczos
# The Lanczos estimate beta_k |s_k| and the explicit residual were seen to
# differ by about 1e-16, and the residuals of one Ritz vector from eigh and
# from `_top_ritz` by under 1e-15.  So a step cannot stop, and skips the
# exact check, whose estimate exceeds 10 x RESIDUAL_TOL or whose vector
# from `_top_ritz` has a residual above (1 + 1/10) x RESIDUAL_TOL.
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
        of an (nvertices, k) block: the neighbour columns gathered and
        summed in order, then divided by the degree once."""
        cols = self.neighbors.T
        total = x.take(cols[0], axis=0)
        for col in cols[1:]:
            total += x.take(col, axis=0)
        return total / self.degree


def build_schreier(perms):
    """Schreier graph of the generators' int32 permutations `perms` of
    range(V): each generator's column is its permutation and the next
    column its inverse.  The neighbour columns are contiguous, for the
    gathers of `matmat`."""
    cols = [c for g in perms for c in (g, inverse(g))]
    return SchreierGraph(len(perms[0]), 2 * len(perms), np.stack(cols).T)


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
    eigensolves: int  # steps that ran the dense eigh of T_k, see spectral_gap
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
    residual, formed only when the Lanczos estimate rho_k = beta_k |s_k|
    (s the top eigenvector of T_k, beta_k the norm of the step's
    reorthogonalized w) is <= FLOOR_MARGIN * RESIDUAL_TOL.  It runs only
    where it could pass.  From step 2 to the first restart, while T_k is
    tridiagonal, a step first finds its top pair (theta, s) in O(k) with
    `_top_ritz`, from the pair of the step before.  Where the kernel's
    rho_k is <= FLOOR_MARGIN * RESIDUAL_TOL, x is formed from its s, and
    the check runs if that x has explicit residual <= RESIDUAL_TOL +
    RESIDUAL_TOL / FLOOR_MARGIN.  The check runs at all other steps: step
    1, every step after the first restart, the steps that fill the basis,
    step MAX_ITER and where the kernel does not converge.

    A skipped step cannot pass the check.  The kernel's pair is eigh's up
    to rounding: the tests hold theta to 1e-14 and rho_k to a relative
    1e-6.  So where the kernel's rho_k exceeds FLOOR_MARGIN *
    RESIDUAL_TOL, eigh's exceeds it too or lies within a relative 1e-6 of
    it, and either way the check's residual, which equals eigh's rho_k up
    to about 1e-16, is far above RESIDUAL_TOL.  Where the kernel's x has a
    residual above RESIDUAL_TOL + RESIDUAL_TOL / FLOOR_MARGIN, eigh's x is
    the same Ritz vector up to rounding, and the two residuals were seen
    to differ by under 1e-15, a ten-thousandth of that margin.  No check
    feeds the recurrence, so the stopping step and every printed value
    are those of a check at every step.
    """
    v = graph.nvertices
    basis = np.empty((BASIS_CAP + 1, v))
    basis[0] = 1.0 / math.sqrt(v)
    q = np.random.default_rng(seed).standard_normal(v)
    q -= basis[0] * (basis[0] @ q)
    basis[1] = q / np.linalg.norm(q)
    alphas, betas, arrow = [], [], []  # T_j; betas[-1] is the norm of w
    eigensolves, restarts, j = 0, 0, 0
    limit = FLOOR_MARGIN * RESIDUAL_TOL
    could_pass = RESIDUAL_TOL + RESIDUAL_TOL / FLOOR_MARGIN
    for k in range(1, MAX_ITER + 1):
        j += 1
        w = graph.matmat(basis[j])
        alphas.append(float(basis[j] @ w))
        for _ in range(2):  # twice is enough (Kahan; Parlett)
            w -= basis[:j + 1].T @ (basis[:j + 1] @ w)
        betas.append(float(np.linalg.norm(w)))
        # the kernel continues a pair of a tridiagonal T_{j-1}
        top = None if j == 1 or restarts else \
            _top_ritz(alphas, betas, theta, s)
        exact = top is None or k == MAX_ITER or j == BASIS_CAP
        if not exact:
            theta, s = top
            if betas[-1] * abs(s[-1]) <= limit:
                x = np.array(s) @ basis[1:j + 1]
                exact = np.linalg.norm(graph.matmat(x) - theta * x) \
                    <= could_pass
        if exact:
            vals, vecs = np.linalg.eigh(_lanczos_matrix(alphas, betas, arrow))
            eigensolves += 1
            theta, s = float(vals[-1]), vecs[:, -1].tolist()
            if betas[-1] * abs(s[-1]) <= limit or k == MAX_ITER:
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
            arrow = (beta * kept[-1]).tolist()
            alphas, betas = vals[-m:].tolist(), [0.0] * m
            j, restarts = m, restarts + 1
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


def _top_ritz(alphas, betas, theta, s):
    """The top eigenpair (theta, s), ||s|| = 1, of the tridiagonal T = T_j,
    alphas on its diagonal and betas[:-1] beside it (j = len(alphas) >= 2),
    in O(j) from the top pair (theta, s) of T_{j-1}; None if it does not
    converge.

    Inverse iteration with shifts from below.  The first start vector u
    is s padded with the last entry of the top Ritz vector of T on
    span([s; 0], e_j), and that Ritz value, at least theta, is the first
    lower bound on theta_j, the top eigenvalue of T.  A pass factors
    T - sigma = L D L^T (L unit lower bidiagonal) at sigma = the lower
    bound + j eps, which covers its rounding, and solves (T - sigma) y = u.
    When every pivot of D is negative, sigma is above the spectrum and
    within j eps of theta_j, and the pass returns y / ||y|| with its
    Rayleigh quotient sigma + u.y / y.y.  Near convergence theta_j -
    theta_{j-1} is below rounding and the first pass does so.  Otherwise
    that Rayleigh quotient, at most theta_j, is the next lower bound and y
    the next u: None if it did not rise, or if a pivot was 0.
    """
    eps = len(alphas) * 2.0**-52
    c = betas[-2] * s[-1]  # T[j-1, j-2] s[-1]
    g = theta - alphas[-1]
    h = math.hypot(g, 2 * c)
    lift = 2 * c * c / (g + h) if g > 0 else (h - g) / 2
    u = s + [lift / c if c else 0.0]
    theta += lift
    while True:
        sigma = theta + eps
        try:
            pivots, zs, d, z, b0 = [], [], 1.0, 0.0, 0.0
            push_d, push_z = pivots.append, zs.append
            for a, x, b in zip(alphas, u, betas):
                r = b0 / d
                d = a - sigma - r * b0
                z = x - r * z
                push_d(d)
                push_z(z)
                b0 = b
            y, ys = 0.0, []
            push_y = ys.append
            for d, z, b in zip(reversed(pivots), reversed(zs),
                               reversed(betas)):
                y = (z - b * y) / d
                push_y(y)
            ys.reverse()
        except ZeroDivisionError:
            return None
        uy = yy = 0.0
        for x, y in zip(u, ys):
            uy += x * y
            yy += y * y
        rq = sigma + uy / yy
        if max(pivots) < 0:
            scale = 1 / math.sqrt(yy)
            return rq, [y * scale for y in ys]
        if rq <= theta:
            return None
        theta, u = rq, ys


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
