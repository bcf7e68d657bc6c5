#!/usr/bin/env python3
"""One-shot desk verification: alternating certificates, orbit structure,
Gamma-classes, a synthesized word, the Kazhdan bound, and the
k-transitivity probe, printed as a short summary.

Usage: python scripts/desk_checks.py [--fast]
"""

import argparse
import math
import time

import numpy as np

from tamexp import ff, orbits, permgrp, spectra, synth, tame


def timed(label, fn):
    t0 = time.time()
    out = fn()
    print(f"  {label:58s} [{time.time() - t0:6.1f}s]")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fast", action="store_true",
                    help="skip the multi-minute orbit enumeration")
    args = ap.parse_args()

    print("alternating certificates (degree-6 triple):")
    for p in (3, 5, 7):
        ctx = ff.make_field(p, 1)
        words = [tame.Word.of(tame.CoordCycle()),
                 tame.Word.of(tame.Transvection(1, 2, 1, 1)),
                 tame.Word.of(tame.Transvection(1, 2, 2, 1))]
        codes = np.arange(1, p**3, dtype=np.int64)
        gens = [orbits.word_code_perm(w, codes, ctx, 3) for w in words]
        cert = timed(f"p={p}: certify Alt({p**3 - 1})",
                     lambda: permgrp.certify_alternating(
                         permgrp.build_chain(gens, seed=1)))
        assert cert.verdict == "Alt"
        assert cert.order == math.factorial(p**3 - 1) // 2

    params = tame.GroupParams(5, 3, (1, 1, 2))
    if not args.fast:
        print("orbit structure of F_125^3 under G_{F_5,3;1,1,2}:")
        part = timed("three orbits {1, 124, 1953000}",
                     lambda: orbits.orbit_partition(params, 3))
        assert sorted(o.size for o in part.orbits) == [1, 124, 1953000]
        spec = orbits.make_gamma_spec(params, part.ctx)
        big = max(range(len(part.orbits)), key=lambda i: part.orbits[i].size)
        rep = timed("651000 Gamma-classes of size 3",
                    lambda: orbits.gamma_classes(
                        np.flatnonzero(part.labels == big), spec, params))
        assert rep.class_count == 651000

    print("word synthesis:")
    cert = timed("x1 += x2^4 over F_5 (e = (1,1,2))",
                 lambda: synth.synth_transvection(1, 2, 4, 1, params))
    assert cert.verified
    print(f"    word length {cert.length}, checked on {cert.points_checked} "
          f"points ({cert.mode})")

    print("Kazhdan bound:")
    rep = spectra.kazhdan_bound(spectra.KazhdanParams(11, 3, (1, 1, 2)))
    print(f"    kappa(G, S) >= {rep.bound:.12f}  (M = {rep.M:.6f})")

    print("k-transitivity probe on Gamma-classes (p=5, ell=2, k=3):")
    rep = timed("40 random class triples",
                lambda: orbits.transitivity_probe(params, 2, 3, 40, seed=3))
    assert rep.successes == rep.trials
    print(f"    {rep.successes}/{rep.trials} mapped to the standard tuple")
    print("all desk checks passed")


if __name__ == "__main__":
    main()
