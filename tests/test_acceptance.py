"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured quantities.  Expected values are exact (factorials,
orbit counts) or carry the stated tolerance.
"""

import json
import math
import random

import numpy as np
import pytest

from tamexp import ff, orbits, permgrp as pg, spectra, synth, tame
from tamexp.cli import main as cli_main

from conftest import nonzero_codes, str_unlimited, thm15_words


def _report(name, detail):
    print(f"PASS {name}: {detail}")


@pytest.fixture(scope="module")
def thm15i_chains():
    chains = {}
    for p in (3, 5, 7):
        ctx = ff.make_field(p, 1)
        n, words = thm15_words("i")
        gens = orbits.word_code_perms(words, nonzero_codes(p, 3), ctx, 3)
        chains[p] = pg.build_chain(gens, seed=17)
    return chains


@pytest.fixture(scope="module")
def partition_5_3():
    params = tame.GroupParams(5, 3, (1, 1, 2))
    return params, orbits.orbit_partition(params, 3)


def test_criterion_1_alt_certification(thm15i_chains, tmp_path):
    # the certify-alt command itself, standard generators at p = 3
    out = tmp_path / "cert.json"
    code = cli_main(["certify-alt", "--p", "3", "--e", "1,1,2",
                     "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "Alt"
    assert payload["order"] == str(math.factorial(26) // 2)
    # degree-6 triple for p in {3, 5, 7}, also through the command
    orders = {}
    for p in (3, 5, 7):
        code = cli_main(["certify-alt", "--thm15", "i", "--p", str(p),
                         "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        d = p**3 - 1
        assert payload["verdict"] == "Alt"
        assert payload["order"] == str(math.factorial(d) // 2)
        orders[p] = d
    # and the library-level certificates agree
    for p, chain in thm15i_chains.items():
        cert = pg.certify_alternating(chain)
        assert cert.verdict == "Alt"
        assert cert.order == str(math.factorial(p**3 - 1) // 2)
    _report("criterion 1",
            f"certify-alt: Alt(26) from standard generators; Alt(d) for "
            f"d={orders} with exact orders d!/2")


def test_criterion_2_degree4_case():
    p, n, q = 3, 7, 3
    ctx = ff.make_field(p, 1)
    nwords, words = thm15_words("ii")
    codes = nonzero_codes(q, n)
    rho, gamma = orbits.word_code_perms(words, codes, ctx, n)
    chain = pg.build_chain([rho, gamma], seed=11)
    cert = pg.certify_alternating(chain)
    assert cert.verdict == "Alt"
    assert cert.order == str_unlimited(math.factorial(2186) // 2)
    # tau = commutator of gamma with its rho-conjugate: adds x3 to x1
    w_rho, w_gamma = words
    h = w_rho + w_gamma + w_rho.inverse()
    tau_word = h + w_gamma + h.inverse() + w_gamma.inverse()
    all_codes = np.arange(q**n, dtype=np.int64)
    coords = orbits.codes_to_coords(all_codes, q, n)
    out = tame.apply_word_arrays(tau_word, [c.copy() for c in coords], ctx)
    assert np.array_equal(out[0], ctx.add_arrays(coords[0], coords[2]))
    for k in range(1, n):
        assert np.array_equal(out[k], coords[k])
    _report("criterion 2",
            "Alt(2186) certified with exact order 2186!/2; commutator word "
            "acts as (x1+x3, x2, ..., x7) on all 3^7 points")


def test_criterion_3_three_orbits(partition_5_3):
    params, part = partition_5_3
    sizes = sorted(o.size for o in part.orbits)
    assert sizes == [1, 124, 1953000]
    # distinct invariants, as on every case checked with p > E >= 2
    invs = [o.invariant for o in part.orbits]
    assert len(set(invs)) == 3
    _report("criterion 3", f"orbit sizes {sizes} with distinct invariants")


def test_criterion_4_gamma_classes(partition_5_3):
    params, part = partition_5_3
    spec = orbits.make_gamma_spec(params, part.ctx)
    big = max(range(len(part.orbits)), key=lambda i: part.orbits[i].size)
    rep = orbits.gamma_classes(part.labels, spec).orbits[big]
    assert rep.class_count == (5**9 - 5**3) // 3 == 651000
    assert rep.size_histogram == {3: 651000}
    _report("criterion 4", "big orbit splits into 651000 Gamma-classes, "
            "all of size 3")


def test_criterion_5_transitivity(thm15i_chains):
    t5 = pg.transitivity_degree(thm15i_chains[5])
    t7 = pg.transitivity_degree(thm15i_chains[7])
    assert t5 >= 4
    assert t7 >= 6
    _report("criterion 5", f"transitivity degrees: {t5} on 124 points "
            f"(>= 4), {t7} on 342 points (>= 6)")


def test_criterion_6_word_synthesis():
    # (1,1,2), p = 5: every t in 1..4, r in 1..4, exhaustive on F_25^3
    params = tame.GroupParams(5, 3, (1, 1, 2))
    ctx25 = ff.make_field(5, 2)
    codes = np.arange(25**3, dtype=np.int64)
    coords = orbits.codes_to_coords(codes, 25, 3)
    synthesizer = synth.TransvectionSynthesizer(params)
    checked = 0
    for t in (1, 2, 3, 4):
        for r in (1, 2, 3, 4):
            cert = synth.synth_transvection(1, 2, t, r, params,
                                            synthesizer=synthesizer)
            assert cert.verified
            got = tame.apply_word_arrays(cert.word, [c.copy() for c in coords],
                                         ctx25)
            want = tame.apply_word_arrays(
                tame.Word.of(tame.Transvection(1, 2, t, r)),
                [c.copy() for c in coords], ctx25)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            checked += 1
    # (2,2,2), p = 23, t = 9 = e_1 + (E-1): sampled F_529^3 plus symbolic
    params2 = tame.GroupParams(23, 3, (2, 2, 2))
    cert = synth.synth_transvection(1, 2, 9, 1, params2)
    assert cert.verified
    ctx529 = ff.make_field(23, 2)
    rng = random.Random(6)
    letter = tame.Transvection(1, 2, 9, 1)
    for _ in range(10**4):
        pt = tuple(rng.randrange(ctx529.q) for _ in range(3))
        assert tame.apply_word(cert.word, pt, ctx529) == \
            tame.apply_letter(letter, 1, pt, ctx529)
    endo = tame.word_to_endo(cert.word, ctx529, 3)
    assert endo == tame.letter_endo(letter, 1, ctx529, 3)
    _report("criterion 6",
            f"{checked} (1,1,2)-words exhaustively verified on F_25^3; "
            f"(2,2,2) t=9 word ({cert.length} letters) verified on 10^4 "
            f"samples of F_529^3 and symbolically")


def test_criterion_7_nilpotent_structure():
    results = []
    for c, p in ((2, 5), (3, 5), (2, 7)):
        rep = synth.gamma_structure(c, p)
        assert rep.order == p ** (c + 2)
        assert rep.nilpotency_class == c + 1
        assert rep.center_order == p and rep.center_is_Xc
        assert rep.generated_by_X0_Y
        assert synth.verify_gamma_commutator_formula(c, p)
        results.append((c, p, rep.order))
    _report("criterion 7", f"orders/class/center verified for {results}, "
            "commutator identity exhaustive over all (n, r, s)")


def _angle_reports_by_size(instances):
    """(alphas, report) for each alphas in instances, from one stacked
    angle_matrix_min_eig call per matrix size n."""
    by_n = {}
    for alphas in instances:
        by_n.setdefault(len(alphas), []).append(alphas)
    out = []
    for group in by_n.values():
        reps = spectra.angle_matrix_min_eig(
            [spectra.AngleMatrix(a) for a in group])
        out += zip(group, reps, strict=True)
    assert len(out) == len(instances)
    return out


def test_criterion_8_matrix_criterion():
    rng = np.random.default_rng(8)
    instances = []
    equality_checked = 0
    while len(instances) < 10**5:
        n = int(rng.integers(3, 13))
        if len(instances) % 997 == 0:
            # deliberate equality instances: alpha_i = alpha_{i+2}
            if n % 2:
                alphas = (float(rng.uniform(0.01, 0.49)),) * n
            else:
                a, b = rng.uniform(0.01, 0.49, size=2)
                alphas = tuple(float(a) if i % 2 else float(b)
                               for i in range(n))
            equality_checked += 1
        else:
            alphas = tuple(rng.uniform(1e-3, 1.0, size=n).tolist())
        # M = max(alpha_i + alpha_{i+1}) >= 1, stopping at the first pair
        if any(alphas[i - 1] + alphas[i] >= 1 for i in range(n)):
            continue
        instances.append(alphas)
    # the op itself raises if lambda_min < 1 - M - 1e-12 or if the
    # equality case mismatches at 1e-10, for every matrix of a stack
    for alphas, rep in _angle_reports_by_size(instances):
        n = len(alphas)
        M = max(alphas[i] + alphas[(i + 1) % n] for i in range(n))
        assert rep.lambda_min >= 1 - M - 1e-12
    # part (iii) family: alpha thrice, beta once, positive definite
    family = []
    for _ in range(2000):
        n = int(rng.integers(4, 9))
        a = float(rng.uniform(0.01, 0.49))
        b = float(rng.uniform(0.01, 0.99))
        if a * a >= (1 - a) * (1 - b):
            continue
        family.append((a,) * (n - 1) + (b,))
    for _, rep in _angle_reports_by_size(family):
        assert rep.lambda_min > 0
    _report("criterion 8", f"{len(instances)} random vectors passed the bound "
            f"(incl. {equality_checked} exact equality cases); part (iii) "
            "instances positive definite")


def test_criterion_9_kazhdan_bound():
    import mpmath as mp
    rep = spectra.kazhdan_bound(tame.GroupParams(11, 3, (1, 1, 2)))
    mp.mp.dps = 50
    M50 = mp.sqrt(mp.mpf(1) / 11) + mp.sqrt(mp.mpf(2) / 11)
    bound50 = mp.sqrt((1 - M50) / 3)
    assert abs(rep.bound - float(bound50)) < 1e-12
    # sufficiency sweep: M only depends on consecutive exponent pairs, so
    # vectors (a, b, min(a,b)) over all pairs cover every e with e_i <= 12
    pairs = 0
    for p in range(2, 201):
        if not ff.is_prime(p):
            continue
        for a in range(1, 13):
            for b in range(1, 13):
                if p > 4 * max(a, b):
                    kp = tame.GroupParams(p, 3, (a, b, min(a, b)))
                    assert spectra.kazhdan_bound(kp).M < 1
                    assert spectra.kazhdan_bound(kp).applicable
                    pairs += 1
    _report("criterion 9", f"bound(11; 1,1,2) = {rep.bound!r} matches the "
            f"50-digit value to 1e-12; {pairs} (p, e-pair) cases all give M < 1")


def test_criterion_10_toolbox_lemmas(tmp_path):
    out = tmp_path / "lemmas.json"
    code = cli_main(["verify-lemmas", "--qmax", "625", "--nmax", "4",
                     "--trials", "1000", "--seed", "0", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["all_pass"]
    assert payload["interpolation_pass"] == "1000/1000"
    _report("criterion 10", f"verify-lemmas passed on {payload['field_checks']}"
            " extension-field checks (q <= 5^4, N <= 4), 1000 interpolations")


def test_criterion_11_schreier_gaps(tmp_path):
    rows = ["p,V,degree,lambda2,gap,method,residual"]
    gaps = {}
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        ctx = ff.make_field(p, 1)
        n, words = thm15_words("i")
        graph = spectra.build_schreier(
            orbits.word_code_perms(words, nonzero_codes(p, 3), ctx, 3))
        res = spectra.spectral_gap(graph)
        assert res.residual <= 1e-10, f"p={p}: residual {res.residual}"
        if p <= 13:
            dense = np.linalg.eigvalsh(graph.normalized_adjacency())[-2]
            assert abs(dense - res.lambda2) <= 1e-12, f"p={p}"
        assert res.gap > 0.01, f"p={p}: gap {res.gap}"
        gaps[p] = round(res.gap, 4)
        rows.append(f"{p},{graph.nvertices},{graph.degree},{res.lambda2!r},"
                    f"{res.gap!r},{res.method},{res.residual!r}")
    csv = tmp_path / "gap_sweep.csv"
    csv.write_text("\n".join(rows) + "\n")
    _report("criterion 11", f"Schreier gaps {gaps} all > 0.01; "
            f"Lanczos residuals <= 1e-10, dense eigvalsh agrees to 1e-12 "
            f"for p <= 13; CSV at {csv}")


def test_criterion_12_k_transitivity_probe():
    params = tame.GroupParams(5, 3, (1, 1, 2))
    stats = {}
    for k in (2, 3):
        rep = orbits.transitivity_probe(params, 2, k, 200, seed=12 + k)
        assert rep.bound_ok and rep.trials == 200
        assert rep.successes == 200, rep.failures[:1]
        stats[k] = rep.max_word_letters
    _report("criterion 12", "200/200 random Gamma-class tuples mapped to "
            f"standard tuples for k=2,3 (max word letters {stats}); each "
            "success re-verified by applying the found word")
