"""Command-line driver.

Exit codes: 0 = claim verified, 1 = claim falsified or not applicable,
2 = budget/resource, 3 = bad input (rejected before any work starts),
4 = internal invariant failure (a proved bound or a constructive probe
failed: an implementation bug, not a falsified claim).  Identical
configurations (including --seed) produce byte-identical output files: no
timestamps, fixed key order, decimal strings for big integers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from math import isqrt

import numpy as np

from . import __version__, ff, orbits, permgrp, spectra, synth, tame
from .errors import (BoundViolated, BudgetExceeded, DegreeZero,
                     FieldTooLarge, NonPrime, ProbeFailed, TamexpError)

SCHEMA = 1


class BadInput(Exception):
    """An option value or combination the command cannot run with."""


def _pool_map(fn, tasks, workers):
    """Order-preserving map over a process pool (the hot loops are
    CPU-bound Python, so threads would not help)."""
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def _emit(payload, out, fmt="json"):
    """JSON goes out as json.dumps(payload, indent=2) + "\n", written
    while it is encoded: the whole text never exists as one string."""
    with open(out, "w") if out else nullcontext(sys.stdout) as fh:
        if fmt == "json":
            fh.writelines(json.JSONEncoder(indent=2).iterencode(payload))
            fh.write("\n")
        else:
            fh.write(payload)


def _header(seed, ctx=None):
    head = {"schema": SCHEMA, "tool": f"tamexp {__version__}", "seed": seed}
    if ctx is not None:
        head["field"] = ctx.serialize()
    return head


def _params(args):
    return tame.GroupParams(args.p, len(args.e), args.e)


def _thm15_words(variant):
    if variant == "i":
        words = [tame.Word.of(tame.CoordCycle()),
                 tame.Word.of(tame.Transvection(1, 2, 1, 1)),
                 tame.Word.of(tame.Transvection(1, 2, 2, 1))]
        return 3, words
    words = [tame.Word.of(tame.CoordCycle()),
             tame.Word.of(tame.Transvection(1, 2, 1, 1),
                          tame.Transvection(4, 6, 2, 1))]
    return 7, words


def _nonzero_perms(words, ctx, n):
    """The words' permutations of the q^n - 1 nonzero points of F_q^n, in
    code order, under the int32 rule."""
    orbits.check_int32(ctx.q**n - 1, "domain")
    return orbits.word_code_perms(
        words, np.arange(1, ctx.q**n, dtype=np.int64), ctx, n)


def cmd_certify_alt(args):
    if args.ell > 1 and not args.on_classes:
        raise BadInput(f"--ell {args.ell} needs --on-classes: the generators "
                       "have prime-field coefficients, so they keep "
                       "F_p^n minus 0 invariant and cannot act as Alt")
    if args.thm15:
        n, words = _thm15_words(args.thm15)
        params = None
    else:
        params = _params(args)
        n = params.n
        words = tame.standard_generators(params)
    ctx = ff.make_field(args.p, args.ell)
    if args.on_classes:
        params_ = params or tame.GroupParams(args.p, n, (1,) * (n - 1) + (2,))
        _check_gamma_field(params_, args.ell)
        _, labels = orbits.orbit_labels(words, ctx, n, args.budget)
        spec = orbits.make_gamma_spec(params_, ctx)
        perms = _class_action_perms(labels, words, ctx, n, spec)
        domain_size = len(perms[0])
        domain_kind = "gamma-classes of the largest orbit"
    else:
        domain_size = ctx.q**n - 1
        if domain_size > args.budget:  # before the codes are allocated
            raise BudgetExceeded(f"domain of {domain_size} points exceeds "
                                 f"the budget {args.budget}")
        perms = _nonzero_perms(words, ctx, n)
        domain_kind = "nonzero points"
    chain = permgrp.build_chain(perms, seed=args.seed)
    cert = permgrp.certify_alternating(chain)
    payload = _header(args.seed, ctx)
    payload.update({
        "degree": cert.degree,
        "domain": domain_kind,
        "generators": [w.text() for w in words],
        "order": cert.order,
        "verdict": cert.verdict,
        "all_even": cert.all_even,
        "strategy": cert.strategy,
        "transitivity_degree": cert.transitivity_degree,
        "base": chain.base.tolist(),
    })
    _emit(payload, args.out)
    return 0 if cert.verdict == "Alt" else 1


def _class_action_perms(labels, words, ctx, n, spec):
    """Permutations that the words induce on the Gamma-classes of the
    first largest orbit in `labels`, the orbits of those words (so the
    words keep it), its classes numbered in order of their smallest code;
    raises NotClosed if a Gamma-class meets it and another orbit.  The
    word maps are built after the Gamma maps are freed."""
    oid = int(np.bincount(labels).argmax())
    roots = orbits.gamma_roots(labels, spec, oid)
    reps, class_id = orbits.component_ids(np.where(labels == oid, roots, -1))
    del roots
    return [class_id[g[reps]]
            for g in orbits.word_code_perms(words, None, ctx, n)]


def cmd_orbits(args):
    params = _params(args)
    part = orbits.orbit_partition(params, args.ell, budget=args.budget,
                                  seed=args.seed)
    if args.format == "csv":
        lines = ["d0,a1_label,orbit_size"]
        for o in sorted(part.orbits, key=lambda o: o.size):
            lines.append(f"{o.invariant.d0},{o.invariant.a1_label},{o.size}")
        _emit("\n".join(lines) + "\n", args.out, fmt="csv")
    elif args.format == "dot":
        lines = ["graph schreier {"]
        gens = orbits.word_code_perms(tame.standard_generators(params), None,
                                      part.ctx, params.n)
        for oid, o in enumerate(part.orbits):
            if o.size > 2000 or o.size <= 1:
                continue
            restrict = orbits.restriction(np.flatnonzero(part.labels == oid),
                                          part.ctx.q**params.n)
            for v, row in enumerate(zip(*map(restrict, gens))):
                for t in row:  # one edge per generator
                    lines.append(f'  "o{oid}_{v}" -- "o{oid}_{int(t)}";')
        del gens  # q^n points per generator, not alive through the output
        lines.append("}")
        _emit("\n".join(lines) + "\n", args.out, fmt="csv")
    else:
        payload = _header(args.seed, part.ctx)
        payload["orbits"] = [
            {"size": o.size, "d0": o.invariant.d0,
             "a1_label": o.invariant.a1_label,
             "zero": o.invariant.zero_flag} for o in part.orbits]
        _emit(payload, args.out)
    return 0


def _check_gamma_field(params, ell):
    """Gamma-classes over F_{p^ell}, ell >= 2, need E >= 2: with every
    e_i = 1 the generators are F_p-linear, so the Frobenius sends the orbit
    of (alpha, 0, ..., 0) to that of (alpha^p, 0, ..., 0), another orbit
    whenever alpha^(p-1) lies outside F_p."""
    if params.E == 1 and ell > 1:
        raise BadInput(f"Gamma-classes over F_{params.p}^{ell} need E >= 2: "
                       "with every e_i = 1 the Frobenius moves orbits")


def cmd_gamma_classes(args):
    params = _params(args)
    _check_gamma_field(params, args.ell)
    ctx = ff.make_field(params.p, args.ell)
    _, labels = orbits.orbit_labels(tame.standard_generators(params), ctx,
                                    params.n, args.budget)
    spec = orbits.make_gamma_spec(params, ctx)
    reports = [{"orbit_size": o.orbit_size, "class_count": o.class_count,
                "histogram": {str(k): v
                              for k, v in sorted(o.size_histogram.items())}}
               for o in orbits.gamma_classes(labels, spec).orbits]
    payload = _header(args.seed, ctx)
    payload["lambda"] = spec.lam
    payload["orbits"] = reports
    _emit(payload, args.out)
    return 0


def cmd_synth(args):
    if args.i == args.j or max(args.i, args.j) > len(args.e):
        raise BadInput(f"need 1 <= i != j <= {len(args.e)}, "
                       f"got i={args.i} j={args.j}")
    params = _params(args)
    if args.poly:
        cert = synth.synth_poly_transvection(args.i, args.j, args.poly, params,
                                             budget=args.budget)
    else:
        cert = synth.synth_transvection(args.i, args.j, args.t, args.r, params,
                                        budget=args.budget)
    ctx = ff.make_field(params.p, 1)
    payload = _header(args.seed, ctx)
    payload.update({
        "target": cert.target,
        "length": cert.length,
        "verified": cert.verified,
        "mode": cert.mode,
        "symbolic_checked": cert.symbolic_checked,
        "grid": cert.grid,
        "points_checked": cert.points_checked,
    })
    if args.emit_endo:
        endo = tame.word_to_endo(cert.word, ctx, params.n)
        payload["endo"] = [f.text() for f in endo.images]
    payload["word"] = cert.word.text()
    _emit(payload, args.out)
    return 0 if cert.verified else 1


def _gap_row(task):
    p, variant, seed = task
    ctx = ff.make_field(p, 1)
    n, words = _thm15_words(variant)
    graph = spectra.build_schreier(_nonzero_perms(words, ctx, n))
    res = spectra.spectral_gap(graph, seed=seed)
    row = (f"{p},{graph.nvertices},{graph.degree},"
           f"{res.lambda2!r},{res.gap!r},{res.method},{res.residual!r}")
    return res.gap, row


def cmd_gap(args):
    if args.sweep and args.p < 3:
        raise BadInput("--sweep covers the primes 3..p and needs p >= 3")
    primes = [q for q in range(3, args.p + 1) if ff.is_prime(q)] if args.sweep \
        else [args.p]
    tasks = [(p, args.thm15, args.seed) for p in primes]
    results = _pool_map(_gap_row, tasks, args.threads)
    rows = ["p,V,degree,lambda2,gap,method,residual"] + [r for _, r in results]
    _emit("\n".join(rows) + "\n", args.out, fmt="csv")
    return 0 if all(gap > 0 for gap, _ in results) else 1


def cmd_kazhdan(args):
    params = _params(args)
    rep = spectra.kazhdan_bound(params)
    payload = _header(args.seed, ff.make_field(args.p, 1))
    payload.update({
        "p": params.p, "n": params.n, "e": list(params.e),
        "M": rep.M,
        "applicable": rep.applicable,
        "bound": None if not rep.applicable else rep.bound,
        "p_greater_4max_e": rep.p_large_enough,
    })
    _emit(payload, args.out)
    return 0 if rep.applicable else 1


def cmd_gamma_group(args):
    rep = synth.gamma_structure(args.c, args.p, budget=args.budget)
    payload = _header(args.seed, ff.make_field(args.p, 1))
    payload.update({
        "c": rep.c, "p": rep.p,
        "order": rep.order,
        "nilpotency_class": rep.nilpotency_class,
        "center_order": rep.center_order,
        "center_is_Xc": rep.center_is_Xc,
        "generated_by_X0_Y": rep.generated_by_X0_Y,
        "commutator_formula": synth.verify_gamma_commutator_formula(args.c, args.p),
    })
    _emit(payload, args.out)
    return 0


def _lemma_fields(qmax):
    """The extension fields F_{p^ell}, ell >= 2, of order at most qmax.
    Both lemmas are vacuous over a prime field, where every element
    generates F_p, so prime fields are left to the unit tests."""
    return [(p, ell) for p in range(2, isqrt(qmax) + 1) if ff.is_prime(p)
            for ell in range(2, qmax.bit_length()) if p**ell <= qmax]


def _lemma_field_worker(task):
    p, ell, nmax = task
    ctx = ff.make_field(p, ell)
    out = []
    for N in range(1, min(nmax, p - 1) + 1):
        rc = ff.verify_count_lemma(ctx, N)
        re_ = ff.verify_enlarge_lemma(ctx, N)
        out.append({
            "field": ctx.serialize(), "N": N,
            "count_worst": str(rc.worst_proportion),
            "count_bound": str(rc.bound),
            "enlarge_triples": re_.triples_checked,
            "enlarge_strict_instances": re_.part_ii_instances,
        })
    return out


def cmd_verify_lemmas(args):
    import random as _random

    fields = _lemma_fields(args.qmax)
    largest = max(p**ell for p, ell in fields)  # --qmax >= 4 holds F_4
    if largest > ff.TABLE_LIMIT:
        raise FieldTooLarge(f"--qmax {args.qmax} reaches a field of {largest} "
                            f"elements, beyond the {ff.TABLE_LIMIT}-element "
                            "field tables")
    tasks = [(p, ell, args.nmax) for p, ell in fields]
    checks = [check for out in _pool_map(_lemma_field_worker, tasks,
                                         args.threads) for check in out]
    rng = _random.Random(args.seed)
    fields = _lemma_fields(125)
    interp_ok = 0
    for _ in range(args.trials):
        p, ell = rng.choice(fields)
        ctx = ff.make_field(p, ell)
        k = rng.randint(1, 3)
        mus, keys = [], set()
        while len(mus) < k:
            mu = rng.randrange(ctx.q)
            key = ff.minimal_polynomial(ctx, mu)
            if key in keys:
                continue
            keys.add(key)
            mus.append(mu)
        nus = []
        for mu in mus:
            d = ctx.subfield_degree(mu)
            coeffs = [rng.randrange(p) for _ in range(d)]
            nus.append(ff.poly_eval(coeffs, mu, ctx))
        f = synth.interpolate(mus, nus, ctx)
        if all(ff.poly_eval(f, mu, ctx) == nu for mu, nu in zip(mus, nus)):
            interp_ok += 1
    ok = interp_ok == args.trials
    gamma_checks = []
    for c, p in [(2, 5), (3, 5), (2, 7)]:
        rep = synth.gamma_structure(c, p)
        formula = synth.verify_gamma_commutator_formula(c, p)
        ok = ok and formula and rep.generated_by_X0_Y
        gamma_checks.append({
            "c": c, "p": p, "order": rep.order,
            "class": rep.nilpotency_class,
            "center_order": rep.center_order,
            "commutator_formula": formula,
        })
    payload = _header(args.seed)
    payload.update({
        "all_pass": ok,
        "field_checks": len(checks),
        "interpolation_pass": f"{interp_ok}/{args.trials}",
        "gamma_structure": gamma_checks,
        "details": checks,
    })
    _emit(payload, args.out)
    return 0 if ok else 1


# -- options ------------------------------------------------------------------
# Each type parses one value or raises ArgumentTypeError, so bad input is
# rejected before any work starts.

def _int(text):
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


def _at_least(lo):
    def parse(text):
        value = _int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"need an integer >= {lo}, got {value}")
        return value
    return parse


def _prime(text):
    value = _int(text)
    if not ff.is_prime(value):
        raise argparse.ArgumentTypeError(f"need a prime, got {value}")
    return value


def _ints(text):
    return tuple(_int(x) for x in text.split(","))


def _out_path(text):
    if os.path.isdir(text) or not os.path.isdir(os.path.dirname(text) or "."):
        raise argparse.ArgumentTypeError(f"cannot create {text!r}")
    return text


def _exponents(text):
    e = _ints(text)
    if len(e) < 3 or min(e) < 1:
        raise argparse.ArgumentTypeError(
            f"need n >= 3 positive exponents, got {text!r}")
    return e


OPTIONS = {
    "p": dict(type=_prime, default=5, help="the prime p"),
    "e": dict(type=_exponents, default="1,1,2",
              help="exponents e_1,...,e_n; n >= 3 is their count"),
    "ell": dict(type=_at_least(1), default=1, help="work over F_{p^ell}"),
    "budget": dict(type=_at_least(1), default=10**7, help="work budget"),
    "thm15": dict(choices=["i", "ii"], default=None,
                  help="use a generating set of Theorem 15"),
    "on-classes": dict(action="store_true",
                       help="act on Gamma-classes of the largest orbit"),
    "format": dict(choices=["json", "csv", "dot"], default="json",
                   help="output format"),
    "i": dict(type=_at_least(1), default=1, help="target x_i += r x_j^t"),
    "j": dict(type=_at_least(1), default=2, help="see --i"),
    "t": dict(type=_int, default=1, help="see --i"),
    "r": dict(type=_int, default=1, help="see --i"),
    "poly": dict(type=_ints, default=None,
                 help="target x_i += x_j P(x_j); comma coefficients of P, "
                      "low to high"),
    "emit-endo": dict(action="store_true",
                      help="add the word's polynomial endomorphism"),
    "sweep": dict(action="store_true", help="sweep primes 3..p"),
    "c": dict(type=_at_least(0), default=2, help="the c of Gamma_{c,p}"),
    "qmax": dict(type=_at_least(4), default=625,
                 help="largest extension-field order checked"),
    "nmax": dict(type=_at_least(1), default=4, help="largest N checked"),
    "trials": dict(type=_at_least(1), default=200,
                   help="interpolation trials"),
    "threads": dict(type=_at_least(1), default=1,
                    help="worker processes; numpy may run several threads "
                         "in each"),
    "seed": dict(type=_at_least(0), default=0,
                  help="seed of every random choice"),
    "out": dict(type=_out_path, help="output file, stdout if not given"),
}

# name, help, handler, the options its handler reads (plus --seed, --out)
SUBCOMMANDS = [
    ("certify-alt", "alternating-group certificate", cmd_certify_alt,
     "p e ell budget thm15 on-classes"),
    ("orbits", "orbit partition with invariants", cmd_orbits,
     "p e ell budget format"),
    ("gamma-classes", "Gamma-class counts per orbit", cmd_gamma_classes,
     "p e ell budget"),
    ("synth", "derived-transvection word synthesis", cmd_synth,
     "p e i j t r poly emit-endo budget"),
    ("gap", "Schreier-graph spectral gap", cmd_gap, "p thm15 sweep threads"),
    ("kazhdan", "Kazhdan-constant lower bound", cmd_kazhdan, "p e"),
    ("gamma-group", "brute-force Gamma_{c,p} structure", cmd_gamma_group,
     "p c budget"),
    ("verify-lemmas", "exhaustive small-field checks", cmd_verify_lemmas,
     "qmax nmax trials threads"),
]


class _Parser(argparse.ArgumentParser):
    """Parse errors raise BadInput, which main reports in one line."""

    def error(self, message):
        raise BadInput(message)


def build_parser():
    ap = _Parser(prog="tamexp", description=__doc__,
                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, text, func, names in SUBCOMMANDS:
        sp = sub.add_parser(
            name, help=text,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        for opt in names.split() + ["seed", "out"]:
            sp.add_argument(f"--{opt}", **OPTIONS[opt])
        sp.set_defaults(func=func)
    sub.choices["gap"].set_defaults(thm15="i")  # gap always uses a Theorem 15 set
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    # NonPrime and DegreeZero: FieldCtx's limits on the p and ell given
    except (BadInput, FieldTooLarge, NonPrime, DegreeZero) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 3
    # MemoryError and RecursionError: backstops for work too big or too deep
    except (BudgetExceeded, MemoryError, RecursionError) as exc:
        print(f"budget exceeded: {str(exc) or 'out of memory'}",
              file=sys.stderr)
        return 2
    except (BoundViolated, ProbeFailed) as exc:
        print(f"internal invariant failed: {exc}", file=sys.stderr)
        return 4
    # OSError: the output file could not be written
    except (TamexpError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
