import math
import tracemalloc

import numpy as np
import pytest

from tamexp import ff, orbits, spectra, tame
from tamexp.errors import BoundViolated, NoConvergence, NotClosed
from tamexp.permgrp import inverse
from tamexp.spectra import (AngleMatrix, angle_matrix_min_eig,
                            build_schreier, complete_graph, cycle_graph,
                            kazhdan_bound, spectral_gap)

from conftest import nonzero_codes, thm15_words


def test_known_spectra():
    # off the constants K_9 is -I/8: Lanczos breaks down at step 1
    r = spectral_gap(complete_graph(9))
    assert abs(r.lambda2 - (-1 / 8)) < 1e-12
    assert abs(r.gap - 9 / 8) < 1e-12
    assert r.method == "lanczos" and r.iterations == 1
    r = spectral_gap(cycle_graph(10))
    assert abs(r.lambda2 - math.cos(2 * math.pi / 10)) < 1e-12


def test_identity_generator_gap_zero():
    # a single identity generator gives disjoint self-loops: lambda2 = 1
    g = identity_generator_graph()
    assert g.degree == 2
    r = spectral_gap(g)
    assert abs(r.gap) < 1e-12
    # two disjoint 7-cycles: the component indicators give lambda2 = 1
    c = cycle_graph(7).neighbors
    r = spectral_gap(spectra.SchreierGraph(14, 2, np.concatenate([c, c + 7])))
    assert abs(r.gap) < 1e-12 and r.residual <= 1e-10


def test_schreier_graph_shapes():
    g = thm15_graph("i", 3)
    assert g.nvertices == 26 and g.degree == 6
    # all-ones is an eigenvector with eigenvalue 1
    ones = np.ones(26)
    assert np.allclose(g.matmat(ones), ones)


@pytest.mark.parametrize("variant, p", [("i", 5), ("ii", 3)])
def test_schreier_neighbors_match_inverse_words(variant, p):
    # reference: act with w and w.inverse() and locate the images by
    # binary search in the sorted codes
    ctx = ff.make_field(p, 1)
    n, words = thm15_words(variant)
    codes = nonzero_codes(p, n)
    coords = orbits.codes_to_coords(codes, p, n)
    cols = [np.searchsorted(codes, orbits.coords_to_codes(
                tame.apply_word_arrays(word, coords, ctx), p))
            for w in words for word in (w, w.inverse())]
    g = build_schreier(orbits.word_code_perms(words, codes, ctx, n))
    assert g.neighbors.dtype == np.int32
    assert np.array_equal(g.neighbors, np.stack(cols, axis=1))


def test_not_closed():
    F3 = ff.make_field(3, 1)
    # domain missing a point hit by the generator: its permutation cannot
    # be formed, so there is no graph to build
    with pytest.raises(NotClosed):
        build_schreier(orbits.word_code_perms(
            [tame.Word.of(tame.Transvection(3, 1, 1, 1))],
            np.arange(1, 11, dtype=np.int64), F3, 3))


def test_dense_vs_iterative_agreement():
    g = thm15_graph("i", 5)
    dense = np.linalg.eigvalsh(g.normalized_adjacency())[-2]
    r = spectral_gap(g)
    assert abs(dense - r.lambda2) <= 1e-12
    assert r.residual <= 1e-10


def reference_gap(graph, seed=0, max_iter=spectra.MAX_ITER):
    """The Lanczos loop with the exact check (eigh of T_k, x and its
    explicit residual) at every step, the oracle for the steps that
    spectral_gap skips: (lambda2, gap, residual, iterations)."""
    v = graph.nvertices
    basis = np.empty((2, v))
    basis[0] = 1.0 / math.sqrt(v)
    q = np.random.default_rng(seed).standard_normal(v)
    q -= basis[0] * (basis[0] @ q)
    basis[1] = q / np.linalg.norm(q)
    alphas, betas = [], []
    for k in range(1, max_iter + 1):
        w = graph.matmat(basis[k])
        alphas.append(basis[k] @ w)
        for _ in range(2):
            w -= basis[:k + 1].T @ (basis[:k + 1] @ w)
        t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        vals, vecs = np.linalg.eigh(t)
        theta, x = float(vals[-1]), vecs[:, -1] @ basis[1:k + 1]
        residual = float(np.linalg.norm(graph.matmat(x) - theta * x))
        if residual <= 1e-10:
            return theta, 1.0 - theta, residual, k
        betas.append(np.linalg.norm(w))
        if k + 1 == len(basis):
            basis = np.concatenate([basis, np.empty_like(basis)])
        basis[k + 1] = w / betas[-1]
    raise NoConvergence(f"Lanczos did not reach residual 1e-10 in {max_iter} "
                        f"steps (residual {residual})")


def word_graph(words, p, n):
    """The Schreier graph of the words on F_p^n minus 0."""
    return build_schreier(orbits.word_code_perms(
        words, nonzero_codes(p, n), ff.make_field(p, 1), n))


def thm15_graph(variant, p):
    n, words = thm15_words(variant)
    return word_graph(words, p, n)


def permutation_graph(v, degree, seed):
    """degree / 2 random permutations of v points and their inverses."""
    rng = np.random.default_rng(seed)
    cols = []
    for _ in range(degree // 2):
        g = rng.permutation(v).astype(np.int32)
        cols += [g, inverse(g)]
    return spectra.SchreierGraph(v, degree, np.stack(cols, axis=1))


def two_7_cycles():
    c = cycle_graph(7).neighbors
    return spectra.SchreierGraph(14, 2, np.concatenate([c, c + 7]))


def identity_generator_graph():
    return word_graph([tame.Word()], 3, 3)


ORACLE_GRAPHS = {
    "K_9": lambda: complete_graph(9),
    "C_10": lambda: cycle_graph(10),
    "two 7-cycles": two_7_cycles,
    "identity generator": identity_generator_graph,
    **{f"thm15 i p={p}": (lambda p=p: thm15_graph("i", p))
       for p in (5, 7, 11, 13)},
    "thm15 ii p=3": lambda: thm15_graph("ii", 3),
    **{f"{d}-regular V={v}": (lambda v=v, d=d: permutation_graph(v, d, v))
       for d, v in ((4, 50), (6, 50), (4, 317), (6, 841), (4, 1729),
                    (6, 3000))},
}


@pytest.mark.parametrize("name", ORACLE_GRAPHS)
def test_gap_matches_check_every_step(name):
    graph = ORACLE_GRAPHS[name]()
    for seed in range(4):
        r = spectral_gap(graph, seed=seed)
        got = (repr(r.lambda2), repr(r.gap), repr(r.residual), r.iterations)
        want = reference_gap(graph, seed=seed)
        assert got == (*map(repr, want[:3]), want[3]), (name, seed)
        assert 1 <= r.eigensolves <= r.iterations


def test_floor_skips_most_eigensolves():
    r = spectral_gap(thm15_graph("i", 13), seed=0)
    assert r.eigensolves < r.iterations / 2


def test_step_cap_raises_no_convergence(monkeypatch):
    g = thm15_graph("i", 5)
    monkeypatch.setattr(spectra, "MAX_ITER", 5)
    with pytest.raises(NoConvergence) as got:
        spectral_gap(g)
    with pytest.raises(NoConvergence) as want:
        reference_gap(g, max_iter=5)
    assert str(got.value) == str(want.value)


RESTART_GRAPHS = [name for name in ORACLE_GRAPHS
                  if name.startswith("thm15 i ") or "regular" in name]


@pytest.mark.parametrize("name", RESTART_GRAPHS)
def test_restarted_gap_matches_dense(name, monkeypatch):
    # a 16-vector basis restarts every graph here at least once
    monkeypatch.setattr(spectra, "BASIS_CAP", 16)
    graph = ORACLE_GRAPHS[name]()
    dense = np.linalg.eigvalsh(graph.normalized_adjacency())[-2]
    for seed in range(2):
        r = spectral_gap(graph, seed=seed)
        assert r.restarts > 0 and r.residual <= 1e-10, (name, seed)
        assert abs(r.lambda2 - dense) <= 1e-12, (name, seed)


def test_restarted_gap_matches_eigsh_and_stops_at_max_iter(monkeypatch):
    from scipy.sparse.linalg import LinearOperator, eigsh
    monkeypatch.setattr(spectra, "BASIS_CAP", 16)
    graph = thm15_graph("ii", 3)
    v = graph.nvertices
    # A minus the projection on the constants, whose top eigenvalue is lambda2
    deflated = LinearOperator((v, v), dtype=float,
                              matvec=lambda x: graph.matmat(x.ravel())
                              - x.mean())
    v0 = np.random.default_rng(7).standard_normal(v)
    want = eigsh(deflated, k=1, which="LA", tol=0, v0=v0)[0][0]
    runs = [spectral_gap(graph, seed=seed) for seed in range(2)]
    for r in runs:
        assert r.restarts > 0 and r.residual <= 1e-10
        assert abs(r.lambda2 - want) <= 1e-12
    # MAX_ITER counts steps across restarts
    steps = runs[0].iterations
    monkeypatch.setattr(spectra, "MAX_ITER", steps)
    assert spectral_gap(graph) == runs[0]
    monkeypatch.setattr(spectra, "MAX_ITER", steps - 1)
    with pytest.raises(NoConvergence, match=f"in {steps - 1} steps"):
        spectral_gap(graph)


def test_basis_memory_is_bounded():
    graph = thm15_graph("i", 19)  # V = 6858, 145 steps: no restart
    spectral_gap(cycle_graph(10))  # keeps first-call imports out of the trace
    bound = (spectra.BASIS_CAP + 1) * graph.nvertices * 8 + 2**20
    peaks = []
    for solve in (spectral_gap, reference_gap):
        tracemalloc.start()
        try:
            solve(graph)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the doubling basis of the reference briefly holds 384 rows
    assert peaks[0] <= bound < peaks[1], (peaks, bound)


def lanczos_matrix(alphas, betas):
    """T: alphas on the diagonal, betas[:-1] beside it."""
    return np.diag(alphas) + np.diag(betas[:-1], 1) + np.diag(betas[:-1], -1)


def lanczos_coefficients(graph, steps, seed):
    """alphas, betas and basis of `steps` Lanczos steps on the deflated
    normalized adjacency, with no stopping test and no restart."""
    v = graph.nvertices
    basis = np.empty((steps + 2, v))
    basis[0] = 1.0 / math.sqrt(v)
    q = np.random.default_rng(seed).standard_normal(v)
    q -= basis[0] * (basis[0] @ q)
    basis[1] = q / np.linalg.norm(q)
    alphas, betas = [], []
    for k in range(1, steps + 1):
        w = graph.matmat(basis[k])
        alphas.append(basis[k] @ w)
        for _ in range(2):
            w -= basis[:k + 1].T @ (basis[:k + 1] @ w)
        betas.append(np.linalg.norm(w))
        basis[k + 1] = w / betas[-1]
    return alphas, betas, basis


@pytest.mark.parametrize("name", RESTART_GRAPHS)
def test_top_ritz_matches_eigh(name):
    graph = ORACLE_GRAPHS[name]()
    limit = spectra.FLOOR_MARGIN * spectra.RESIDUAL_TOL
    steps = spectral_gap(graph).iterations
    # the kernel chained from step to step, as spectral_gap runs it
    *coefficients, basis = lanczos_coefficients(graph, steps, seed=0)
    alphas, betas = (list(map(float, c)) for c in coefficients)
    theta, s = alphas[0], [1.0]
    fallbacks = 0
    for k in range(2, len(alphas) + 1):
        vals, vecs = np.linalg.eigh(lanczos_matrix(alphas[:k], betas[:k]))
        top = spectra._top_ritz(alphas[:k], betas[:k], theta, s)
        if top is None:  # spectral_gap runs eigh instead
            fallbacks += 1
            theta, s = float(vals[-1]), vecs[:, -1].tolist()
            continue
        theta, s = top
        assert abs(np.linalg.norm(s) - 1) <= 1e-14, k
        assert abs(theta - vals[-1]) <= 1e-14, k
        want = betas[k - 1] * abs(vecs[-1, -1])
        got = betas[k - 1] * abs(s[-1])
        if want >= 1e-13:
            assert abs(got / want - 1) <= 1e-6, (k, got, want)
        # the estimate never skips a step whose check forms x
        assert got <= limit or want > limit, (k, got, want)
        if got <= limit:
            # nor does the residual of the kernel's x skip one that passes:
            # it is the check's residual up to rounding
            residuals = [
                np.linalg.norm(graph.matmat(x) - t * x)
                for t, x in ((theta, np.array(s) @ basis[1:k + 1]),
                             (vals[-1], vecs[:, -1] @ basis[1:k + 1]))]
            assert abs(residuals[0] - residuals[1]) <= 1e-15, (k, residuals)
    assert fallbacks <= 1, fallbacks


@pytest.mark.parametrize("p", [5, 7, 11])
def test_restarted_gap_matches_check_every_step(p, monkeypatch):
    # a 16-vector basis restarts each run; with no kernel pair every step
    # runs the exact check, and the values and the stopping step agree
    monkeypatch.setattr(spectra, "BASIS_CAP", 16)
    graph = thm15_graph("i", p)
    for seed in range(3):
        r = spectral_gap(graph, seed=seed)
        with monkeypatch.context() as m:
            m.setattr(spectra, "_top_ritz", lambda *args: None)
            want = spectral_gap(graph, seed=seed)
        assert r.restarts > 0 and want.eigensolves == want.iterations
        assert (repr(r.lambda2), repr(r.gap), repr(r.residual),
                r.iterations) == (repr(want.lambda2), repr(want.gap),
                                  repr(want.residual), want.iterations), (
            p, seed)


def test_sweep_runs_few_eigensolves():
    # the exact check at every step would run one eigensolve per step
    runs = [spectral_gap(thm15_graph("i", p), seed=0)
            for p in (3, 5, 7, 11, 13, 17, 19)]
    assert sum(r.iterations for r in runs) == 786
    assert sum(r.eigensolves for r in runs) <= 40


@pytest.mark.parametrize("name", ORACLE_GRAPHS)
def test_matmat_sums_neighbor_columns_in_order(name):
    graph = ORACLE_GRAPHS[name]()
    block = np.random.default_rng(0).standard_normal((graph.nvertices, 3))
    want = block[graph.neighbors].sum(axis=1) / graph.degree
    assert np.array_equal(graph.matmat(block), want)
    for c in range(3):
        x = block[:, c].copy()
        assert np.array_equal(graph.matmat(x), want[:, c])
        # numpy sums a contiguous row of 8 or more terms pairwise
        if graph.degree < 8:
            assert np.array_equal(graph.matmat(x), x[graph.neighbors].sum(
                axis=1) / graph.degree)


def test_angle_matrix_equal_alphas():
    r = angle_matrix_min_eig(AngleMatrix((0.4, 0.4, 0.4, 0.4)))
    assert abs(r.lambda_min - 0.2) < 1e-12
    assert r.equality_case and r.applicable


def test_angle_matrix_beta_case():
    # alpha = 0.4 thrice, beta = 0.3: strictly positive definite
    r = angle_matrix_min_eig(AngleMatrix((0.4, 0.4, 0.4, 0.3)))
    assert r.lambda_min > 1 - 0.8
    assert not r.equality_case
    assert r.lambda_min > 0  # part (iii): alpha < 1/2, alpha^2 < (1-a)(1-b)


def test_angle_matrix_n2_flagged():
    r = angle_matrix_min_eig(AngleMatrix((0.3, 0.2)))
    assert not r.applicable


def test_angle_matrix_random_bound():
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 3000:
        n = int(rng.integers(3, 13))
        alphas = tuple(rng.uniform(1e-3, 1.0, size=n))
        M = max(alphas[i] + alphas[(i + 1) % n] for i in range(n))
        if M >= 1:
            continue
        r = angle_matrix_min_eig(AngleMatrix(alphas))  # raises on violation
        assert r.lambda_min >= 1 - M - 1e-12
        checked += 1


def test_angle_matrix_stack_matches_single_calls(monkeypatch):
    rng = np.random.default_rng(1)
    stack = [AngleMatrix(tuple(rng.uniform(0.01, 0.45, size=5).tolist()))
             for _ in range(20)] + [AngleMatrix((0.3,) * 5)]
    reps = angle_matrix_min_eig(stack)
    assert reps == [angle_matrix_min_eig(a) for a in stack]
    assert reps[-1].equality_case and not any(r.equality_case
                                              for r in reps[:-1])
    assert angle_matrix_min_eig([]) == []
    assert [r.applicable for r in angle_matrix_min_eig(
        [AngleMatrix((0.3, 0.2))] * 2)] == [False, False]
    with pytest.raises(ValueError):
        angle_matrix_min_eig([AngleMatrix((0.1,) * 3), AngleMatrix((0.1,) * 4)])
    # the bound is checked on every matrix of a stack, not only the first
    true_eigvalsh = np.linalg.eigvalsh

    def low_at_7(mats):  # lambda_min <= 1 (trace n) < 2 - M
        w = true_eigvalsh(mats)
        w[7, 0] -= 1
        return w
    monkeypatch.setattr(np.linalg, "eigvalsh", low_at_7)
    with pytest.raises(BoundViolated):
        angle_matrix_min_eig(stack)


def test_kazhdan_examples():
    r = kazhdan_bound(tame.GroupParams(11, 3, (1, 1, 2)))
    assert abs(r.M - (math.sqrt(1 / 11) + math.sqrt(2 / 11))) < 1e-15
    assert abs(r.bound - 0.301157335795) < 1e-9
    assert r.p_large_enough
    r = kazhdan_bound(tame.GroupParams(5, 3, (2, 2, 2)))
    assert not r.applicable and r.M > 1.26
    # e = (1,...,1), growing p: bound tends to 1/sqrt(n)
    r = kazhdan_bound(tame.GroupParams(2_000_003, 4, (1, 1, 1, 1)))
    assert abs(r.bound - 1 / 2) < 1e-3


def test_kazhdan_sufficiency_forces_M_below_one():
    for p in (7, 11, 101):
        for e in ((1, 1, 1), (1, 2, 1), (2, 2, 2) if p > 8 else (1, 1, 2)):
            kp = tame.GroupParams(p, 3, e)
            if p > 4 * max(e):
                assert kazhdan_bound(kp).M < 1
