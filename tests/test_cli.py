import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from tamexp import ff, orbits, permgrp, synth, tame
from tamexp.cli import _class_action_perms, _emit, main
from tamexp.errors import BoundViolated, NotClosed, ProbeFailed

from conftest import nonzero_codes, thm15_words


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    out.unlink(missing_ok=True)  # a run that writes nothing reads ""
    code = main(list(argv) + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def test_certify_alt_exit_codes(tmp_path):
    code, text = run(tmp_path, "certify-alt", "--p", "3", "--e", "1,1,2")
    assert code == 0
    payload = json.loads(text)
    assert payload["verdict"] == "Alt"
    assert payload["schema"] == 1
    assert payload["order"] == str(__import__("math").factorial(26) // 2)
    assert payload["field"].startswith("p=3 ell=1")
    code, text = run(tmp_path, "certify-alt", "--p", "3", "--e", "1,1,1")
    assert code == 1
    assert json.loads(text)["verdict"] == "Proper"


@pytest.mark.parametrize("p, order, base", [("3", 5616, [2, 8, 0]),
                                            ("5", 372000, [4, 24, 0])])
def test_dense_chain_payload_is_pinned(tmp_path, p, order, base):
    # SL_3(F_p) is no giant, so the chain comes from Schreier-Sims; its base
    # follows from the transversal and Schreier-generator order
    code, text = run(tmp_path, "certify-alt", "--p", p, "--e", "1,1,1")
    payload = json.loads(text)
    assert code == 1
    assert (payload["strategy"], payload["verdict"]) == ("dense", "Proper")
    assert payload["order"] == str(order)
    assert payload["base"] == base
    assert payload["transitivity_degree"] == 1


def test_outputs_are_deterministic(tmp_path):
    a = run(tmp_path, "certify-alt", "--p", "3", "--e", "1,1,2",
            "--seed", "5")[1]
    b = run(tmp_path, "certify-alt", "--p", "3", "--e", "1,1,2",
            "--seed", "5")[1]
    assert a == b
    a = run(tmp_path, "orbits", "--p", "3", "--e", "1,1,2", "--ell", "2",
            "--format", "csv")[1]
    b = run(tmp_path, "orbits", "--p", "3", "--e", "1,1,2", "--ell", "2",
            "--format", "csv")[1]
    assert a == b
    a = run(tmp_path, "gap", "--p", "7", "--seed", "3")[1]
    b = run(tmp_path, "gap", "--p", "7", "--seed", "3")[1]
    assert a == b


def test_orbits_csv(tmp_path):
    code, text = run(tmp_path, "orbits", "--p", "3", "--e", "1,1,2",
                     "--ell", "1", "--format", "csv")
    assert code == 0
    assert text.splitlines()[0] == "d0,a1_label,orbit_size"
    assert "1,1,26" in text


def test_orbits_dot(tmp_path):
    code, text = run(tmp_path, "orbits", "--p", "3", "--e", "1,1,2",
                     "--ell", "1", "--format", "dot")
    assert code == 0
    assert text.startswith("graph schreier {")
    assert '"o1_0" --' in text


def test_orbits_dot_edges_match_the_scalar_action(tmp_path):
    # vertex v of an orbit is its v-th smallest code, and generator i joins
    # it to the vertex of tau_i(v); the orbits of 26 and 702 points are
    # proper subsets of F_9^3
    code, text = run(tmp_path, "orbits", "--p", "3", "--e", "1,1,2",
                     "--ell", "2", "--format", "dot")
    assert code == 0
    params = tame.GroupParams(3, 3, (1, 1, 2))
    part = orbits.orbit_partition(params, 2)
    q, want = part.ctx.q, []
    for oid, o in enumerate(part.orbits):
        if o.size == 1:
            continue
        members = [int(c) for c in (part.labels == oid).nonzero()[0]]
        vertex = {c: v for v, c in enumerate(members)}
        for v, c in enumerate(members):
            for i in range(1, 4):
                img = tame.apply_word(tame.Word.of(tame.tau(params, i, 1)),
                                      orbits.code_to_point(c, q, 3), part.ctx)
                t = vertex[orbits.point_to_code(img, q)]
                want.append(f'  "o{oid}_{v}" -- "o{oid}_{t}";')
    assert text.splitlines()[1:-1] == want


def test_gamma_classes_json(tmp_path):
    code, text = run(tmp_path, "gamma-classes", "--p", "3", "--e", "1,1,2",
                     "--ell", "2")
    assert code == 0
    payload = json.loads(text)
    big = max(payload["orbits"], key=lambda o: o["orbit_size"])
    assert big["orbit_size"] == 3**6 - 3**3
    assert big["histogram"] == {"2": big["class_count"]}
    # E = 1 is bad input only over an extension field: over F_3 the
    # Frobenius is the identity, and every class is a single point
    code, text = run(tmp_path, "gamma-classes", "--p", "3", "--e", "1,1,1")
    assert code == 0
    assert [(o["orbit_size"], o["histogram"])
            for o in json.loads(text)["orbits"]] == [(1, {"1": 1}),
                                                     (26, {"1": 26})]


def test_class_action_perms_permute_classes():
    # F_9^3, e = (1,1,2): each generator permutes the 351 classes of the
    # largest orbit, of 702 points
    params = tame.GroupParams(3, 3, (1, 1, 2))
    ctx = ff.make_field(3, 2)
    words = tame.standard_generators(params)
    _, labels = orbits.orbit_labels(words, ctx, 3, 10**7)
    assert np.bincount(labels).max() == 702
    spec = orbits.make_gamma_spec(params, ctx)
    for perm in _class_action_perms(labels, words, ctx, 3, spec):
        assert sorted(perm.tolist()) == list(range(351))


def _reference_class_perms(params, ell, words, n):
    """The class action as built before the domain became the largest
    orbit of the acting words: the largest orbit of the standard
    generators of params, with every word checked to keep it."""
    part = orbits.orbit_partition(params, ell)
    spec = orbits.make_gamma_spec(params, part.ctx)
    oid = max(range(len(part.orbits)), key=lambda i: part.orbits[i].size)
    labels = part.labels
    roots = orbits.gamma_roots(labels, spec, oid)
    inside = labels == oid
    reps, class_id = orbits.component_ids(np.where(inside, roots, -1))
    perms = []
    for g in orbits.word_code_perms(words, None, part.ctx, n):
        if (labels[g[inside]] != oid).any():
            raise NotClosed("a map sends a point outside the domain")
        perms.append(class_id[g[reps]])
    return perms


class _Chain(Exception):
    """Carries the generators that build_chain was called with."""


@pytest.mark.parametrize("argv", [
    *(f"--p 3 --e 1,1,2 --ell {ell}" for ell in (2, 3, 4)),
    "--p 5 --e 1,1,2 --ell 2",
    "--p 5 --e 1,1,4 --ell 2",
    *(f"--thm15 i --p 3 --ell {ell}" for ell in (2, 3, 4)),
    "--thm15 i --p 5 --ell 2",
    "--thm15 i --p 7 --ell 2",
    "--thm15 ii --p 3 --ell 2",
])
def test_on_classes_acts_as_the_reference_class_action(argv, monkeypatch):
    # --on-classes labels the orbits of the words it acts with (under
    # --thm15 not the standard generators of (1,...,1,2)); on these inputs
    # the classes and their permutations are still those of the largest
    # orbit of the standard generators
    def build_chain(perms, seed):
        raise _Chain(perms)

    monkeypatch.setattr(permgrp, "build_chain", build_chain)
    with pytest.raises(_Chain) as got:
        main(["certify-alt", *argv.split(), "--on-classes"])
    opts = dict(zip(argv.split()[::2], argv.split()[1::2]))
    p, ell = int(opts["--p"]), int(opts["--ell"])
    if "--thm15" in opts:
        n, words = thm15_words(opts["--thm15"])
        params = tame.GroupParams(p, n, (1,) * (n - 1) + (2,))
    else:
        e = tuple(map(int, opts["--e"].split(",")))
        params = tame.GroupParams(p, len(e), e)
        n, words = params.n, tame.standard_generators(params)
    want = _reference_class_perms(params, ell, words, n)
    [perms] = got.value.args
    assert len(perms) == len(want)
    for a, b in zip(perms, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("argv, invariants", [
    ("gamma-classes --p 3 --e 1,1,2 --ell 2", False),
    ("certify-alt --p 3 --e 1,1,2 --ell 2 --on-classes", False),
    ("orbits --p 3 --e 1,1,2 --ell 2", True),
])
def test_only_orbits_builds_orbit_invariants(argv, invariants, tmp_path,
                                             monkeypatch):
    calls = []
    real = orbits.orbit_invariant
    monkeypatch.setattr(orbits, "orbit_invariant",
                        lambda *a: calls.append(a) or real(*a))
    assert run(tmp_path, *argv.split())[0] == 0
    assert bool(calls) == invariants


def test_synth_cli(tmp_path):
    code, text = run(tmp_path, "synth", "--p", "5", "--e", "1,1,2", "--t", "2",
                     "--r", "3", "--emit-endo")
    assert code == 0
    payload = json.loads(text)
    assert payload["verified"] and payload["target"] == "T(1,2,2,3)"
    assert payload["endo"][1] == "1*x2"
    code, text = run(tmp_path, "synth", "--p", "5", "--e", "1,1,2",
                     "--poly", "1,1")
    assert code == 0
    # bad exponent: exit 1
    code, _ = run(tmp_path, "synth", "--p", "23", "--e", "2,2,2", "--t", "3")
    assert code == 1


def test_synth_sampled_mode(tmp_path):
    # F_101^3 has more than GRID_CAP points
    code, text = run(tmp_path, "synth", "--p", "101", "--e", "1,1,2",
                     "--t", "3", "--r", "5")
    payload = json.loads(text)
    assert code == 0 and payload["verified"]
    assert (payload["mode"], payload["points_checked"],
            payload["symbolic_checked"], payload["length"]) == \
        ("sampled", 10000, True, 124)


@pytest.mark.parametrize("p, mode", [("101", "sampled"), ("5", "exhaustive")])
def test_synth_corrupted_word_is_not_verified(tmp_path, monkeypatch, p, mode):
    alpha_word = synth.TransvectionSynthesizer.alpha_word
    extra = tame.Word.of(tame.Transvection(1, 2, 1, 1))
    monkeypatch.setattr(synth.TransvectionSynthesizer, "alpha_word",
                        lambda self, *a: alpha_word(self, *a) + extra)
    code, text = run(tmp_path, "synth", "--p", p, "--e", "1,1,2", "--t", "3",
                     "--r", "5")
    payload = json.loads(text)
    assert code == 1
    assert (payload["verified"], payload["mode"]) == (False, mode)
    assert payload["symbolic_checked"] is False


def test_gap_csv(tmp_path):
    code, text = run(tmp_path, "gap", "--p", "5", "--thm15", "i")
    assert code == 0
    header, row = text.splitlines()[:2]
    assert header == "p,V,degree,lambda2,gap,method,residual"
    assert row.startswith("5,124,6,")
    assert row.split(",")[5] == "lanczos"


def test_kazhdan_cli(tmp_path):
    code, text = run(tmp_path, "kazhdan", "--p", "11", "--e", "1,1,2")
    assert code == 0
    payload = json.loads(text)
    assert abs(payload["bound"] - 0.301157335795879) < 1e-12
    code, text = run(tmp_path, "kazhdan", "--p", "5", "--e", "2,2,2")
    assert code == 1


def test_gamma_group_cli(tmp_path):
    code, text = run(tmp_path, "gamma-group", "--c", "2", "--p", "5")
    assert code == 0
    payload = json.loads(text)
    assert payload["order"] == 625 and payload["nilpotency_class"] == 3
    assert payload["commutator_formula"]


def test_verify_lemmas_small(tmp_path):
    code, text = run(tmp_path, "verify-lemmas", "--qmax", "27", "--trials", "50")
    assert code == 0
    payload = json.loads(text)
    assert payload["all_pass"]
    assert payload["interpolation_pass"] == "50/50"


def test_repeated_verify_lemmas_builds_no_field(tmp_path, monkeypatch):
    argv = ("verify-lemmas", "--qmax", "27", "--trials", "20", "--threads", "1")
    first = run(tmp_path, *argv)
    built = []
    init = ff.FieldCtx.__init__

    def counting_init(self, p, ell):
        built.append((p, ell))
        init(self, p, ell)

    monkeypatch.setattr(ff.FieldCtx, "__init__", counting_init)
    assert run(tmp_path, *argv) == first
    assert built == []


@pytest.mark.parametrize("argv", ["verify-lemmas --qmax 27 --trials 20",
                                  "gap --thm15 i --p 7 --sweep"])
def test_worker_pool_gives_the_serial_output(tmp_path, argv):
    # --threads 2 maps the per-field (per-prime) tasks over a process pool
    serial = run(tmp_path, *argv.split(), "--threads", "1")
    assert serial[0] == 0
    assert run(tmp_path, *argv.split(), "--threads", "2") == serial


def test_certify_on_classes(tmp_path):
    # Gamma-class action for p=3, ell=2, e=(1,1,2): Alt((3^6-3^2)/2) = Alt(360)
    code, text = run(tmp_path, "certify-alt", "--p", "3", "--e", "1,1,2",
                     "--ell", "2", "--on-classes")
    assert code == 0
    payload = json.loads(text)
    assert payload["verdict"] == "Alt"
    assert payload["degree"] == (3**6 - 3**3) // 2  # Alt(351)


@pytest.mark.parametrize("argv, orbits_met", [
    ("gamma-classes --p 5 --e 1,1,4 --ell 2",
     "orbit 1 (124 points) and orbit 3 (124 points)"),
    ("gamma-classes --p 7 --e 1,1,5 --ell 2",
     "orbit 1 (342 points) and orbit 2 (342 points)"),
    # two largest orbits of equal size: --on-classes takes the first
    ("certify-alt --p 3 --e 1,1,4 --ell 2 --on-classes",
     "orbit 6 (243 points) and orbit 7 (243 points)"),
])
def test_gamma_joining_two_orbits_is_an_error(argv, orbits_met, tmp_path,
                                              capsys):
    # Frobenius and m_lambda commute with the generators here, but one
    # Gamma-class meets two orbits: a property of the input, not a bug
    code, text = run(tmp_path, *argv.split())
    assert (code, text) == (1, "")
    assert capsys.readouterr().err == (
        "error: orbit is not Gamma-invariant: one Gamma-class meets "
        f"{orbits_met}\n")


def test_certify_on_classes_needs_only_its_orbit_invariant(tmp_path, capsys):
    # over F_25^3 with e = (1,1,4) two 124-point orbits are joined by Gamma,
    # but the largest orbit is Gamma-invariant, and its classes are acted on
    code, text = run(tmp_path, "certify-alt", "--p", "5", "--e", "1,1,4",
                     "--ell", "2", "--on-classes")
    assert code == 0 and capsys.readouterr().err == ""
    payload = json.loads(text)
    assert (payload["verdict"], payload["degree"]) == ("Alt", 2542)
    assert payload["strategy"] == "cycles"


def test_certify_thm15_on_classes_reads_ell(tmp_path, capsys):
    # the Theorem 15 triple acts on the same 351 classes of F_9^3
    code, text = run(tmp_path, "certify-alt", "--thm15", "i", "--p", "3",
                     "--ell", "2", "--on-classes")
    assert code == 0 and capsys.readouterr().err == ""
    payload = json.loads(text)
    assert (payload["verdict"], payload["degree"]) == ("Alt", 351)
    assert payload["field"] == ff.make_field(3, 2).serialize()


@pytest.mark.parametrize("argv", [
    "certify-alt --p notanint",
    "certify-alt --p 4",
    # --ell > 1 without --on-classes: F_p^n minus 0 stays invariant
    "certify-alt --p 3 --e 1,1,2 --ell 2",
    "certify-alt --thm15 i --p 3 --ell 2",
    "orbits --e 1,1",
    "orbits --e 0,1,2",
    "synth --i 1 --j 1",
    "synth --i 4 --j 1",
    "synth --poly 1,x",
    "kazhdan --e 1,x",
    "kazhdan --e 1,1",
    "gamma-group --c -1",
    "verify-lemmas --nmax 0",
    "verify-lemmas --trials 0",
    "verify-lemmas --qmax 3",
    "gap --threads 0",
    # the sweep covers the primes 3..p: at p = 2 it would check nothing
    "gap --p 2 --sweep",
    # numpy takes no negative seed; rejected before the graphs are built
    "gap --p 3 --sweep --seed -1",
    "certify-alt --seed -5",
    # Gamma-classes with E = 1 over an extension field: the Frobenius
    # moves orbits, so there are no classes to count
    "gamma-classes --p 3 --e 1,1,1 --ell 2",
    "gamma-classes --p 2 --e 1,1,1 --ell 3",
    "certify-alt --p 3 --e 1,1,1 --ell 2 --on-classes",
    # fields beyond the exp/log tables: the checks cannot run
    "synth --p 65537 --e 1,1,2 --t 2",
    "synth --p 65537 --e 1,1,2 --poly 1",
    "synth --p 3 --e 1,1,2 --t 70001",
    "verify-lemmas --qmax 80000",
    # FieldCtx's limits: p below 2^31 and p^ell at most 2^40
    "orbits --p 2 --e 1,1,2 --ell 41",
    "gamma-classes --p 3 --e 1,1,2 --ell 30",
    "certify-alt --p 3 --e 1,1,2 --ell 26 --on-classes",
    "kazhdan --p 2147483659",
    # options the subcommand does not read
    "gap --k 2",
    "gap --method dense",
    "kazhdan --format csv",
    "orbits --n 3",
    "",
    "no-such-command",
], ids=lambda argv: "_".join(argv.split()) or "no-command")
def test_bad_input_exit_code(argv, tmp_path, capsys):
    assert main(argv.split() + ["--out", str(tmp_path / "out")]) == 3
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert err.startswith("bad input: ") and err.count("\n") == 1


def test_domain_cap_is_checked_before_allocation(tmp_path, capsys):
    # the 65537^3 - 1 codes would take 2 PiB
    code, out = run(tmp_path, "certify-alt", "--p", "65537", "--e", "1,1,1")
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        "budget exceeded: domain of 281487861809152 points exceeds the "
        "budget 10000000\n")


def test_certify_alt_domain_has_no_cap_below_the_budget(tmp_path, capsys):
    # the degree-6 triple on F_47^3 minus 0: 103822 points, above 10^5
    code, text = run(tmp_path, "certify-alt", "--thm15", "i", "--p", "47")
    payload = json.loads(text)
    assert (code, payload["verdict"], payload["degree"]) == (0, "Alt", 103822)
    code, out = run(tmp_path, "certify-alt", "--thm15", "i", "--p", "47",
                    "--budget", "103821")
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        "budget exceeded: domain of 103822 points exceeds the budget 103821\n")


def test_certify_alt_budget_bounds_the_domain(tmp_path, capsys):
    # F_13^3 has 2196 nonzero points; F_3^3 has 26
    code, out = run(tmp_path, "certify-alt", "--p", "13", "--e", "1,1,1",
                    "--budget", "100")
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        "budget exceeded: domain of 2196 points exceeds the budget 100\n")
    argv = ("certify-alt", "--p", "3", "--e", "1,1,2")
    default = run(tmp_path, *argv)
    assert default[0] == 0
    assert run(tmp_path, *argv, "--budget", "26") == default
    assert run(tmp_path, *argv, "--budget", "25") == (2, "")


def run_module(flags, out, *argv, module="tamexp.cli"):
    """Run the CLI in a subprocess, so that -O is in force and a traceback
    would show on stderr; out None writes to stdout."""
    src = os.path.dirname(os.path.dirname(ff.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    argv += ("--out", str(out)) if out is not None else ()
    return subprocess.run([sys.executable, *flags, "-m", module, *argv],
                          capture_output=True, text=True, env=env)


def test_package_runs_as_a_module():
    got = run_module((), None, "kazhdan", "--p", "11", module="tamexp")
    want = run_module((), None, "kazhdan", "--p", "11")
    assert (got.returncode, got.stderr) == (want.returncode, want.stderr) \
        == (0, "")
    assert got.stdout == want.stdout and got.stdout.startswith("{")


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["python", "python-O"])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_is_bad_input(flags, where, tmp_path):
    # checked when parsed, before any work and before any file is made
    out = tmp_path / "missing" / "x.json" if where != "directory" else tmp_path
    res = run_module(flags, out, "kazhdan", "--p", "11")
    assert (res.returncode, res.stdout) == (3, "")
    assert res.stderr == (f"bad input: argument --out: cannot create "
                          f"{str(out)!r}\n")
    assert [f.name for f in tmp_path.iterdir()] == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["python", "python-O"])
def test_failed_write_is_one_error_line(flags):
    # /dev/full accepts the open and fails the write with ENOSPC
    res = run_module(flags, "/dev/full", "kazhdan", "--p", "11")
    assert (res.returncode, res.stdout) == (1, "")
    assert res.stderr == "error: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["python", "python-O"])
def test_gap_domain_cap_is_checked_before_allocation(flags, tmp_path):
    # the 65537^3 - 1 codes would take 2 PiB
    out = tmp_path / "out.csv"
    res = run_module(flags, out, "gap", "--thm15", "i", "--p", "65537")
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == ("budget exceeded: domain of 281487861809152 points "
                          "exceeds int32 positions\n")
    assert not out.exists()


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["python", "python-O"])
def test_headline_budget_is_checked_before_allocation(flags, tmp_path):
    # Alt(7^7 - 1) acts on 823542 points, one above this budget
    out = tmp_path / "out.json"
    res = run_module(flags, out, "certify-alt", "--thm15", "ii", "--p", "7",
                     "--budget", "823541")
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == ("budget exceeded: domain of 823542 points exceeds "
                          "the budget 823541\n")
    assert not out.exists()


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["python", "python-O"])
def test_gamma_group_int32_rule_is_checked_before_allocation(flags, tmp_path):
    # |Gamma_{18,F_3}| = 3^20 passes the budget but not the int32 rule; one
    # int64 code map of that order would take 28 GB
    out = tmp_path / "out.json"
    res = run_module(flags, out, "gamma-group", "--c", "18", "--p", "3",
                     "--budget", "10000000000")
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == ("budget exceeded: element-code domain of "
                          "3486784401 points exceeds int32 positions\n")
    assert not out.exists()


@pytest.mark.parametrize("error", [BoundViolated, ProbeFailed])
def test_internal_invariant_failure_exit_code(error, tmp_path, monkeypatch,
                                              capsys):
    def broken(ctx, N):
        raise error("forced")
    monkeypatch.setattr(ff, "verify_count_lemma", broken)
    code, _ = run(tmp_path, "verify-lemmas", "--qmax", "4", "--threads", "1")
    assert code == 4
    assert capsys.readouterr().err == "internal invariant failed: forced\n"


def test_generator_that_does_not_sift_exits_4(tmp_path, monkeypatch, capsys):
    # SL_3(F_3) gets a dense chain, whose generators must sift through it
    monkeypatch.setattr(permgrp.StabChain, "sift", lambda self, g: (
        permgrp.perm_from_cycles(len(g), [[0, 1, 2]])))
    code, _ = run(tmp_path, "certify-alt", "--p", "3", "--e", "1,1,1")
    assert code == 4
    assert capsys.readouterr().err == ("internal invariant failed: a level "
                                       "generator does not sift through its "
                                       "own chain\n")


@pytest.mark.parametrize("message,line", [
    ("", "out of memory"),
    ("Unable to allocate 3.14 GiB for an array",
     "Unable to allocate 3.14 GiB for an array")], ids=["bare", "numpy"])
def test_out_of_memory_exits_2(message, line, tmp_path, monkeypatch, capsys):
    def no_memory(gens, seed=0):
        raise MemoryError(message)
    monkeypatch.setattr(permgrp, "build_chain", no_memory)
    code, out = run(tmp_path, "certify-alt", "--p", "3", "--e", "1,1,2")
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err == f"budget exceeded: {line}\n" and "Traceback" not in err


def test_too_deep_synthesis_exits_2(tmp_path, capsys):
    # the derived-transvection induction recurses once per level, so a large
    # t runs out of Python stack: one budget line, no traceback
    code, out = run(tmp_path, "synth", "--p", "3", "--e", "1,1,2",
                    "--t", "1001")
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded: maximum recursion depth")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_certify_thm15_ii_big_order(tmp_path):
    # the order string of Alt(2186) has ~6100 digits; the emitter must
    # not trip Python's int-to-str conversion limit
    code, text = run(tmp_path, "certify-alt", "--thm15", "ii", "--p", "3")
    assert code == 0
    payload = json.loads(text)
    assert payload["verdict"] == "Alt"
    assert payload["degree"] == 2186
    assert len(payload["order"]) > 4300


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str limit before Python 3.11")
def test_big_order_leaves_int_str_limit_alone(tmp_path):
    # the limit is interpreter-wide: emitting 2186!/2 must not trip it and
    # must leave it as it was
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the interpreter default
    try:
        code, text = run(tmp_path, "certify-alt", "--thm15", "ii", "--p", "3")
        assert sys.get_int_max_str_digits() == 4300
        sys.set_int_max_str_digits(0)
        expected = str(math.factorial(2186) // 2)
    finally:
        sys.set_int_max_str_digits(before)
    assert code == 0
    assert json.loads(text)["order"] == expected


def _certificate(gens):
    """The certify-alt payload fields that come from the chain of gens."""
    chain = permgrp.build_chain(gens, seed=0)
    cert = permgrp.certify_alternating(chain)
    return {"degree": cert.degree, "order": cert.order,
            "verdict": cert.verdict, "all_even": cert.all_even,
            "strategy": cert.strategy,
            "transitivity_degree": permgrp.transitivity_degree(chain),
            "base": chain.base.tolist()}


def _thm15_i_p5():
    n, words = thm15_words("i")
    return orbits.word_code_perms(words, nonzero_codes(5, n),
                                  ff.make_field(5, 1), n)


def _sl3_f5():
    params = tame.GroupParams(5, 3, (1, 1, 1))
    words = tame.standard_generators(params)
    return orbits.word_code_perms(words, nonzero_codes(5, 3),
                                  ff.make_field(5, 1), 3)


@pytest.mark.parametrize("group, strategy, verdict, base_len", [
    (_thm15_i_p5, "cycles", "Alt", 124),
    (_sl3_f5, "dense", "Proper", 3),
    (lambda: [permgrp.perm_from_cycles(9, [[0, 1, 2]]),
              permgrp.perm_from_cycles(9, [list(range(9))]),
              permgrp.perm_from_cycles(9, [[0, 1]])], "cycles", "Sym", 9),
    (lambda: [permgrp.identity_perm(5)], "dense", "Proper", 0)],
    ids=["thm15-i-p5", "sl3-f5", "sym9", "trivial"])
def test_streamed_certificate_equals_json_dumps(group, strategy, verdict,
                                                base_len, tmp_path, capsys):
    payload = _certificate(group())
    assert (payload["strategy"], payload["verdict"],
            len(payload["base"])) == (strategy, verdict, base_len)
    want = json.dumps(payload, indent=2) + "\n"
    out = tmp_path / "cert.json"
    _emit(payload, str(out))
    _emit(payload, None)
    assert out.read_text() == capsys.readouterr().out == want


@pytest.mark.parametrize("fmt", ["csv", "dot"])
def test_string_formats_are_written_as_given(fmt, tmp_path, capsys):
    argv = ["orbits", "--p", "3", "--e", "1,1,2", "--ell", "2",
            "--format", fmt]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out").read_text() == text and text.endswith("\n")
    _emit(text, None, fmt=fmt)
    assert capsys.readouterr().out == text


def test_emit_memory_with_a_base_of_one_million(tmp_path):
    # json.dumps would hold every chunk of the text and then their join,
    # about 60 MB here; streamed, only a chunk at a time is alive
    d = 10**6
    payload = {"order": "1" * 1000, "base": list(range(d))}
    out = tmp_path / "big.json"
    tracemalloc.start()
    try:
        _emit(payload, str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * d
    assert out.read_text() == json.dumps(payload, indent=2) + "\n"
