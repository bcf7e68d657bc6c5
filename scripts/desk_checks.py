#!/usr/bin/env python3
"""One-shot desk verification: alternating certificates (in full mode also
Alt(7^7 - 1) through the CLI and the ell-tower Alt(351), Alt(6552),
Alt(132678) against the necklace counts), orbit structure, Gamma-classes,
in full mode the group Gamma_{5,F_7}, a synthesized word, the small-field
lemmas, the Kazhdan bound, a Schreier gap against dense eigvalsh (in full
mode also the gap of thm15 ii at p = 5 against eigsh), and the
k-transitivity probe, printed as a short summary.

Usage: python scripts/desk_checks.py [--fast]
"""

import argparse
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from tamexp import cli, ff, orbits, permgrp, spectra, synth, tame


def timed(label, fn):
    t0 = time.time()
    out = fn()
    print(f"  {label:58s} [{time.time() - t0:6.1f}s]")
    return out


def require(ok, what):
    """Exit non-zero naming the failed check (unlike assert, also under
    python -O)."""
    if not ok:
        sys.exit(f"desk check failed: {what}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fast", action="store_true",
                    help="skip Alt(7^7 - 1) through the CLI, the "
                         "SL_3(F_17) chain, the ell-tower, the orbit, "
                         "Gamma-class and permutation component checks, "
                         "Gamma_{5,F_7} and the thm15 ii gap at p = 5 "
                         "(about 1 s against 19 s for the full run on a "
                         "2-core machine)")
    args = ap.parse_args()

    thm15_i = [tame.Word.of(tame.CoordCycle()),
               tame.Word.of(tame.Transvection(1, 2, 1, 1)),
               tame.Word.of(tame.Transvection(1, 2, 2, 1))]
    print("alternating certificates (degree-6 triple):")
    for p in (3, 5, 7):
        ctx = ff.make_field(p, 1)
        gens = orbits.nonzero_perms(thm15_i, ctx, 3)
        cert = timed(f"p={p}: certify Alt({p**3 - 1})",
                     lambda: permgrp.certify_alternating(
                         permgrp.build_chain(gens, seed=1)))
        require(cert.verdict == "Alt"
                and cert.order == str(math.factorial(p**3 - 1) // 2),
                f"p={p}: verdict {cert.verdict}, not Alt({p**3 - 1})")

    print("Sym(9) from (0 1 2), a 9-cycle and (0 1), ladder against dense:")
    gens = [permgrp.perm_from_cycles(9, [[0, 1, 2]]),
            permgrp.perm_from_cycles(9, [list(range(9))]),
            permgrp.perm_from_cycles(9, [[0, 1]])]
    chains = timed("both chains give Sym(9), order 362880",
                   lambda: [permgrp.try_alt_ladder(gens, seed=2),
                            permgrp.schreier_sims(gens)])
    certs = [permgrp.certify_alternating(c) for c in chains]
    degrees = [permgrp.transitivity_degree(c) for c in chains]
    require([c.strategy for c in chains] == ["cycles", "dense"]
            and [(c.verdict, c.order) for c in certs] == [("Sym", "362880")] * 2
            and degrees[0] == degrees[1],
            f"Sym(9): {[(c.strategy, c.verdict, c.order) for c in certs]}, "
            f"transitivity degrees {degrees}")

    for p in (5,) if args.fast else (5, 17):
        print(f"dense Schreier-Sims (SL_3(F_{p}) on F_{p}^3 minus 0):")
        sl3 = tame.GroupParams(p, 3, (1, 1, 1))
        gens = orbits.nonzero_perms(tame.standard_generators(sl3),
                                    ff.make_field(p, 1), 3)
        order = p**3 * (p**2 - 1) * (p**3 - 1)
        chain = timed(f"order {order}, verdict Proper",
                      lambda: permgrp.build_chain(gens, seed=1))
        cert = permgrp.certify_alternating(chain)
        require(chain.strategy == "dense" and cert.order == str(order)
                and cert.verdict == "Proper",
                f"SL_3(F_{p}): {chain.strategy} chain, order {cert.order}, "
                f"verdict {cert.verdict}")

    params = tame.GroupParams(5, 3, (1, 1, 2))
    if not args.fast:
        print("the headline family at p = 7 through the CLI:")
        d = 7**7 - 1
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "alt.json")
            code = timed(f"certify-alt --thm15 ii --p 7: Alt({d})",
                         lambda: cli.main(["certify-alt", "--thm15", "ii",
                                           "--p", "7", "--out", out]))
            require(code == 0, f"p=7: certify-alt exit {code}")
            with open(out) as fh:
                cert = json.load(fh)
        order = cert["order"]
        # oracles outside the code: the digit count of d!/2 from lgamma, and
        # its trailing zeros, those of d! (d! has far more factors 2 than 5)
        digits = math.floor((math.lgamma(d + 1) - math.log(2))
                            / math.log(10)) + 1
        zeros = sum(d // 5**k for k in range(1, 10))
        require(cert["verdict"] == "Alt" and cert["degree"] == d
                and len(cert["base"]) == d and len(order) == digits
                and len(order) - len(order.rstrip("0")) == zeros,
                f"p=7: verdict {cert['verdict']}, degree {cert['degree']}, "
                f"{len(order)} digits")

        print("orbit structure of F_125^3 under G_{F_5,3;1,1,2}:")
        part = timed("three orbits {1, 124, 1953000}",
                     lambda: orbits.orbit_partition(params, 3))
        sizes = sorted(o.size for o in part.orbits)
        require(sizes == [1, 124, 1953000], f"orbit sizes {sizes}")
        spec = orbits.make_gamma_spec(params, part.ctx)
        big = max(range(len(part.orbits)), key=lambda i: part.orbits[i].size)
        rep = timed("651000 Gamma-classes of size 3 in the big orbit",
                    lambda: orbits.gamma_classes(part.labels, spec))
        big_classes = rep.orbits[big]
        require(big_classes.class_count == 651000
                and big_classes.size_histogram == {3: 651000},
                f"{big_classes.class_count} Gamma-classes in the big orbit "
                f"({big_classes.size_histogram}), not 651000 of size 3")
        print("the ell-tower of G_{F_3,3;1,1,2} on the classes of the largest "
              "orbit:")
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "alt.json")
            # the necklace counts (1/ell) sum_{k | ell} mu(ell/k) 3^(3k)
            for ell, count in ((2, 351), (3, 6552), (4, 132678)):
                code = timed(f"ell={ell}: Alt({count}), {count} necklaces",
                             lambda: cli.main(["certify-alt", "--p", "3",
                                               "--e", "1,1,2", "--ell",
                                               str(ell), "--on-classes",
                                               "--out", out]))
                with open(out) as fh:
                    cert = json.load(fh)
                require(code == 0 and cert["verdict"] == "Alt"
                        and cert["degree"] == count,
                        f"ell={ell}: exit {code}, verdict {cert['verdict']}, "
                        f"degree {cert['degree']}, not {count}")
        print("orbit structure of F_25^3 under SL_3(F_5) (E = 1: the last "
              "code misses the majority orbit):")
        part = timed("{1, 6 of 124, 14880}",
                     lambda: orbits.orbit_partition(
                         tame.GroupParams(5, 3, (1, 1, 1)), 2))
        sizes = sorted(o.size for o in part.orbits)
        require(sizes == [1] + [124] * 6 + [124 * 120],
                f"orbit sizes {sizes}")
        print("components of a random permutation of 7^7 - 1 points:")
        perm = np.random.default_rng(0).permutation(7**7 - 1)
        roots = timed("cycle minima agree with cycle_lengths",
                      lambda: orbits.components([perm]))
        reps, ids = orbits.component_ids(roots)
        sizes = np.bincount(ids)
        require(np.array_equal(roots[perm], roots)
                and [(s, r) for s, r in zip(sizes.tolist(), reps.tolist())
                     if s > 1] == permgrp.cycle_lengths(perm),
                "components of a permutation are not its cycles")
        print("the nilpotent group Gamma_{5,F_7} of order 7^7:")
        rep = timed("class 6, center X_c of order 7, <X_0(1), y(1)> = Gamma",
                    lambda: synth.gamma_structure(5, 7))
        require((rep.order, rep.nilpotency_class, rep.center_order)
                == (823543, 6, 7) and rep.center_is_Xc
                and rep.generated_by_X0_Y, f"Gamma_(5,F_7): {rep}")

    print("word synthesis:")
    cert = timed("x1 += x2^4 over F_5 (e = (1,1,2))",
                 lambda: synth.synth_transvection(1, 2, 4, 1, params))
    require(cert.verified, "synthesized word not verified")
    print(f"    word length {cert.length}, checked on {cert.points_checked} "
          f"points ({cert.mode})")
    cert = timed("x1 += 5 x2^3 over F_101 (e = (1,1,2)), sampled grid",
                 lambda: synth.synth_transvection(
                     1, 2, 3, 5, tame.GroupParams(101, 3, (1, 1, 2))))
    require(cert.verified and cert.mode == "sampled" and cert.symbolic_checked,
            f"sampled word: verified {cert.verified}, mode {cert.mode}")

    print("small-field lemmas over F_625:")
    F625 = ff.make_field(5, 4)

    def lemmas():
        return [(ff.verify_count_lemma(F625, N).holds,
                 ff.verify_enlarge_lemma(F625, N).holds) for N in range(1, 5)]
    held = timed("count and enlarge lemmas, N = 1..4", lemmas)
    require(all(c and e for c, e in held), f"lemma results {held}")

    print("Kazhdan bound:")
    rep = spectra.kazhdan_bound(tame.GroupParams(11, 3, (1, 1, 2)))
    print(f"    kappa(G, S) >= {rep.bound:.12f}  (M = {rep.M:.6f})")

    print("Schreier gap of the degree-6 triple on F_13^3 minus 0:")
    graph = spectra.build_schreier(orbits.nonzero_perms(
        thm15_i, ff.make_field(13, 1), 3))
    res = timed("Lanczos lambda2", lambda: spectra.spectral_gap(graph))
    dense = timed("dense eigvalsh lambda2", lambda: float(
        np.linalg.eigvalsh(graph.normalized_adjacency())[-2]))
    require(abs(res.lambda2 - dense) <= 1e-12 and res.residual <= 1e-10,
            f"Lanczos lambda2 {res.lambda2!r} (residual {res.residual!r}), "
            f"dense {dense!r}")
    print(f"    gap {res.gap:.12f} in {res.iterations} steps, "
          f"{res.eigensolves} eigensolves")

    if not args.fast:
        print("Schreier gap of the headline family at p = 5 "
              "(gap --thm15 ii --p 5):")
        thm15_ii = [tame.Word.of(tame.CoordCycle()),
                    tame.Word.of(tame.Transvection(1, 2, 1, 1),
                                 tame.Transvection(4, 6, 2, 1))]
        graph = spectra.build_schreier(orbits.nonzero_perms(
            thm15_ii, ff.make_field(5, 1), 7))
        res = timed("Lanczos lambda2 within the basis cap",
                    lambda: spectra.spectral_gap(graph))
        # the value of scipy eigsh on the deflated operator; stopping below
        # the cap keeps this run free of restarts, so a smaller cap cannot
        # silently change it
        require(abs(res.lambda2 - 0.9631316465426536) <= 1e-12
                and res.iterations < spectra.BASIS_CAP,
                f"p=5: Lanczos lambda2 {res.lambda2!r} in {res.iterations} "
                f"steps, cap {spectra.BASIS_CAP}")
        print(f"    gap {res.gap:.12f} in {res.iterations} steps, "
              f"{res.restarts} restarts")

    print("k-transitivity probe on Gamma-classes (p=5, ell=2, k=3):")
    rep = timed("40 random class triples",
                lambda: orbits.transitivity_probe(params, 2, 3, 40, seed=3))
    require(rep.successes == rep.trials,
            f"probe {rep.successes}/{rep.trials}")
    print(f"    {rep.successes}/{rep.trials} mapped to the standard tuple")
    print("all desk checks passed")


if __name__ == "__main__":
    main()
