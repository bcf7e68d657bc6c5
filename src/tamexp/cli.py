"""Command-line driver.

Exit codes: 0 = claim verified, 1 = claim falsified or not applicable,
2 = budget/resource, 3 = bad input.  Identical configurations (including
--seed) produce byte-identical output files: no timestamps, fixed key
order, decimal strings for big integers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, ff, orbits, permgrp, spectra, synth, tame
from .errors import BudgetExceeded, TamexpError

SCHEMA = 1


@dataclass
class RunConfig:
    """Validated run configuration; one instance per invocation."""
    cmd: str
    p: int = 5
    n: int = 3
    e: str = "1,1,2"
    ell: int = 1
    k: int = 2
    trials: int = 200
    seed: int = 0
    budget: int = 10**7
    format: str = "json"
    out: str = None
    method: str = "auto"
    tol: float = 1e-10
    threads: int = 0
    # subcommand-specific options
    thm15: str = None
    on_classes: bool = False
    i: int = 1
    j: int = 2
    t: int = 1
    r: int = 1
    poly: str = None
    emit_endo: bool = False
    sweep: bool = False
    c: int = 2
    qmax: int = 625
    nmax: int = 4

    def __post_init__(self):
        if self.p < 2 or not ff.is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.ell < 1:
            raise ValueError("ell must be >= 1")
        if self.format not in ("json", "csv", "dot"):
            raise ValueError(f"unknown format {self.format}")


def worker_count(cfg_value=None):
    env = os.environ.get("TAMEXP_THREADS")
    if env:
        return max(1, int(env))
    if cfg_value:
        return max(1, cfg_value)
    return os.cpu_count() or 1


def _pool_map(fn, tasks, workers):
    """Order-preserving map over a process pool (the hot loops are
    CPU-bound Python, so threads would not help)."""
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def _emit(payload, out, fmt="json"):
    if fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = payload
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _header(seed, ctx=None):
    head = {"schema": SCHEMA, "tool": f"tamexp {__version__}", "seed": seed}
    if ctx is not None:
        head["field"] = ctx.serialize()
    return head


def _bigint_str(n):
    """Decimal string of an arbitrary-precision order; certificate orders
    like 2186!/2 exceed the default int-to-str conversion limit, which is
    lifted for this conversion only."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(n)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def _params(args):
    e = tuple(int(x) for x in args.e.split(","))
    return tame.GroupParams(args.p, args.n, e)


def _thm15_words(variant, p):
    if variant == "i":
        words = [tame.Word.of(tame.CoordCycle()),
                 tame.Word.of(tame.Transvection(1, 2, 1, 1)),
                 tame.Word.of(tame.Transvection(1, 2, 2, 1))]
        return 3, words
    words = [tame.Word.of(tame.CoordCycle()),
             tame.Word.of(tame.Transvection(1, 2, 1, 1),
                          tame.Transvection(4, 6, 2, 1))]
    return 7, words


def _nonzero_codes(q, n):
    return np.arange(1, q**n, dtype=np.int64)


def cmd_certify_alt(args):
    seed = args.seed
    if args.thm15:
        n, words = _thm15_words(args.thm15, args.p)
        params = None
        ctx = ff.make_field(args.p, 1)
    else:
        params = _params(args)
        n = params.n
        ctx = ff.make_field(args.p, args.ell)
        words = [tame.Word.of(tame.tau(params, i, 1)) for i in range(1, n + 1)]
    if args.on_classes:
        params_ = params or tame.GroupParams(args.p, n, (1,) * (n - 1) + (2,))
        part = orbits.orbit_partition(params_, args.ell, budget=args.budget)
        spec = orbits.make_gamma_spec(params_, ctx)
        big = max(range(len(part.orbits)), key=lambda i: part.orbits[i].size)
        codes = np.flatnonzero(part.labels == big)
        perms = _class_action_perms(codes, words, ctx, n, spec, params_)
        domain_size = len(perms[0])
        domain_kind = "gamma-classes of the largest orbit"
    else:
        codes = _nonzero_codes(ctx.q, n)
        if len(codes) > 10**5:
            raise BudgetExceeded(f"domain of {len(codes)} points exceeds 1e5")
        perms = [orbits.word_code_perm(w, codes, ctx, n) for w in words]
        domain_size = len(codes)
        domain_kind = "nonzero points"
    chain = permgrp.build_chain(perms, seed=seed)
    cert = permgrp.certify_alternating(chain)
    payload = _header(seed, ctx)
    payload.update({
        "degree": cert.degree,
        "domain": domain_kind,
        "generators": [w.text() for w in words],
        "order": _bigint_str(cert.order),
        "verdict": cert.verdict,
        "all_even": cert.all_even,
        "strategy": cert.strategy,
        "transitivity_degree": permgrp.transitivity_degree(chain),
        "base": [int(b) for b in chain.base],
    })
    _emit(payload, args.out)
    return 0 if cert.verdict == "Alt" else 1


def _class_action_perms(codes, words, ctx, n, spec, params):
    """Permutations induced on the Gamma-classes of an invariant orbit."""
    codes = np.sort(codes)
    roots = orbits.gamma_classes(codes, spec, params).roots
    reps, class_id = orbits.component_ids(roots)
    return [class_id[orbits.word_code_perm(w, codes, ctx, n)[reps]]
            for w in words]


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
        ctx = part.ctx
        words = [tame.Word.of(tame.tau(params, i, 1))
                 for i in range(1, params.n + 1)]
        for oid, o in enumerate(part.orbits):
            if o.size > 2000 or o.size <= 1:
                continue
            codes = np.flatnonzero(part.labels == oid)
            g = spectra.build_schreier(codes, words, ctx, params.n)
            for v in range(g.nvertices):
                for t in g.neighbors[v, ::2]:  # one direction per generator
                    lines.append(f'  "o{oid}_{v}" -- "o{oid}_{int(t)}";')
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


def cmd_gamma_classes(args):
    params = _params(args)
    part = orbits.orbit_partition(params, args.ell, budget=args.budget,
                                  seed=args.seed)
    spec = orbits.make_gamma_spec(params, part.ctx)
    reports = []
    for oid, o in enumerate(part.orbits):
        codes = np.flatnonzero(part.labels == oid)
        rep = orbits.gamma_classes(codes, spec, params)
        reports.append({"orbit_size": rep.orbit_size,
                        "class_count": rep.class_count,
                        "histogram": {str(k): v
                                      for k, v in sorted(rep.size_histogram.items())}})
    payload = _header(args.seed, part.ctx)
    payload["lambda"] = spec.lam
    payload["orbits"] = reports
    _emit(payload, args.out)
    return 0


def cmd_synth(args):
    params = _params(args)
    if args.poly:
        coeffs = tuple(int(c) for c in args.poly.split(","))
        cert = synth.synth_poly_transvection(args.i, args.j, coeffs, params,
                                             budget=args.budget)
    else:
        cert = synth.synth_transvection(args.i, args.j, args.t, args.r, params,
                                        budget=args.budget)
    payload = _header(args.seed, ff.make_field(params.p, 1))
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
        ctx = ff.make_field(params.p, 1)
        endo = tame.word_to_endo(cert.word, ctx, params.n)
        payload["endo"] = [f.text() for f in endo.images]
    payload["word"] = cert.word.text()
    _emit(payload, args.out)
    return 0 if cert.verified else 1


def _gap_row(task):
    p, variant, method, tol, seed = task
    ctx = ff.make_field(p, 1)
    n, words = _thm15_words(variant, p)
    codes = _nonzero_codes(p, n)
    graph = spectra.build_schreier(codes, words, ctx, n)
    res = spectra.spectral_gap(graph, method=method, tol=tol, seed=seed)
    row = (f"{p},{graph.nvertices},{graph.degree},"
           f"{res.lambda2!r},{res.gap!r},{res.method},{res.residual!r}")
    return res.gap, row


def cmd_gap(args):
    primes = [q for q in range(3, args.p + 1) if ff.is_prime(q)] if args.sweep \
        else [args.p]
    tasks = [(p, args.thm15 or "i", args.method, args.tol, args.seed)
             for p in primes]
    results = _pool_map(_gap_row, tasks, worker_count(args.threads))
    rows = ["p,V,degree,lambda2,gap,method,residual"]
    ok = True
    for gap, row in results:
        ok = ok and gap > 0
        rows.append(row)
    _emit("\n".join(rows) + "\n", args.out, fmt="csv")
    return 0 if ok else 1


def cmd_kazhdan(args):
    e = tuple(int(x) for x in args.e.split(","))
    kp = spectra.KazhdanParams(args.p, args.n, e)
    rep = spectra.kazhdan_bound(kp)
    payload = _header(args.seed, ff.make_field(args.p, 1))
    payload.update({
        "p": kp.p, "n": kp.n, "e": list(kp.e),
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


def _lemma_fields(qmax=625):
    out = []
    for p in range(2, qmax + 1):
        if not ff.is_prime(p):
            continue
        ell = 1
        while p**ell <= qmax:
            out.append((p, ell))
            ell += 1
    return out


def _lemma_field_worker(task):
    p, ell, nmax = task
    ctx = ff.make_field(p, ell)
    out = []
    good = True
    for N in range(1, min(nmax, p - 1) + 1):
        rc = ff.verify_count_lemma(ctx, N)
        re_ = ff.verify_enlarge_lemma(ctx, N)
        good = good and rc.holds and re_.holds
        if ell > 1:  # prime fields are trivial; keep the report small
            out.append({
                "field": ctx.serialize(), "N": N,
                "count_worst": str(rc.worst_proportion),
                "count_bound": str(rc.bound),
                "enlarge_triples": re_.triples_checked,
                "enlarge_strict_instances": re_.part_ii_instances,
            })
    return good, out


def cmd_verify_lemmas(args):
    import random as _random

    tasks = [(p, ell, args.nmax) for p, ell in _lemma_fields(args.qmax)]
    field_results = _pool_map(_lemma_field_worker, tasks,
                              worker_count(args.threads))
    checks = []
    ok = True
    for good, out in field_results:
        ok = ok and good
        checks.extend(out)
    rng = _random.Random(args.seed)
    fields = [(p, ell) for p, ell in _lemma_fields(125) if ell > 1]
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
            nu, power = 0, 1
            for c in coeffs:
                nu = ctx.add(nu, ctx.mul(c, power))
                power = ctx.mul(power, mu)
            nus.append(nu)
        f = synth.interpolate(mus, nus, ctx)
        if all(synth._field_poly_eval(ctx, f, mu) == nu
               for mu, nu in zip(mus, nus)):
            interp_ok += 1
    ok = ok and interp_ok == args.trials
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


def build_parser():
    ap = argparse.ArgumentParser(prog="tamexp", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(sp, n_default=3):
        sp.add_argument("--p", type=int, default=5)
        sp.add_argument("--n", type=int, default=n_default)
        sp.add_argument("--e", type=str, default="1,1,2")
        sp.add_argument("--ell", type=int, default=1)
        sp.add_argument("--k", type=int, default=2)
        sp.add_argument("--trials", type=int, default=200)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--budget", type=int, default=10**7)
        sp.add_argument("--format", choices=["json", "csv", "dot"],
                        default="json")
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--method", choices=["auto", "dense", "iterative"],
                        default="auto")
        sp.add_argument("--tol", type=float, default=1e-10)
        sp.add_argument("--threads", type=int, default=0)

    sp = sub.add_parser("certify-alt", help="alternating-group certificate")
    common(sp)
    sp.add_argument("--thm15", choices=["i", "ii"], default=None)
    sp.add_argument("--on-classes", action="store_true",
                    help="act on Gamma-classes of the largest orbit")
    sp.set_defaults(func=cmd_certify_alt)

    sp = sub.add_parser("orbits", help="orbit partition with invariants")
    common(sp)
    sp.set_defaults(func=cmd_orbits)

    sp = sub.add_parser("gamma-classes", help="Gamma-class counts per orbit")
    common(sp)
    sp.set_defaults(func=cmd_gamma_classes)

    sp = sub.add_parser("synth", help="derived-transvection word synthesis")
    common(sp)
    sp.add_argument("--i", type=int, default=1)
    sp.add_argument("--j", type=int, default=2)
    sp.add_argument("--t", type=int, default=1)
    sp.add_argument("--r", type=int, default=1)
    sp.add_argument("--poly", type=str, default=None,
                    help="comma coefficients of P, low to high")
    sp.add_argument("--emit-endo", action="store_true")
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("gap", help="Schreier-graph spectral gap")
    common(sp)
    sp.add_argument("--thm15", choices=["i", "ii"], default="i")
    sp.add_argument("--sweep", action="store_true",
                    help="sweep primes 3..p")
    sp.set_defaults(func=cmd_gap)

    sp = sub.add_parser("kazhdan", help="Kazhdan-constant lower bound")
    common(sp)
    sp.set_defaults(func=cmd_kazhdan)

    sp = sub.add_parser("gamma-group", help="brute-force Gamma_{c,p} structure")
    common(sp)
    sp.add_argument("--c", type=int, default=2)
    sp.set_defaults(func=cmd_gamma_group)

    sp = sub.add_parser("verify-lemmas", help="exhaustive small-field checks")
    common(sp)
    sp.add_argument("--qmax", type=int, default=625)
    sp.add_argument("--nmax", type=int, default=4)
    sp.set_defaults(func=cmd_verify_lemmas)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit:
        return 3
    func = args.func
    known = {f.name for f in RunConfig.__dataclass_fields__.values()}
    fields = {k.replace("-", "_"): v for k, v in vars(args).items()
              if k != "func"}
    try:
        cfg = RunConfig(**{k: v for k, v in fields.items() if k in known})
    except ValueError as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 3
    try:
        return func(cfg)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except (TamexpError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
