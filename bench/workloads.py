"""The benchmark's workloads: tamexp CLI invocations and their oracles.

Every expected output is independent of --seed and is derived here
without tamexp: group orders from closed formulas, orbit sizes from the
paper's counts, spectral gaps from scipy's ARPACK on a Schreier graph
built with plain numpy.  An oracle returns a list of problems; an empty
list means the op's output is correct.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    """One invocation: `argv` for tamexp.cli.main, or a probe call."""
    argv: tuple
    oracle: object
    expect_rc: int = 0
    probe: dict = None  # transitivity_probe arguments, for the probe ops

    @property
    def label(self):
        return " ".join(self.argv)

    def argv_with_seed(self, seed):
        return list(self.argv) + ["--seed", str(seed)]


# -- oracles -----------------------------------------------------------------


@dataclass(frozen=True)
class Giant:
    """certify-alt proves Alt(degree), whose order is degree!/2."""
    degree: int
    order: int

    def __call__(self, text):
        got = json.loads(text)
        bad = []
        if got["verdict"] != "Alt":
            bad.append(f"verdict {got['verdict']} != Alt")
        if got["degree"] != self.degree:
            bad.append(f"degree {got['degree']} != {self.degree}")
        if got["order"] != _decimal(self.order):
            bad.append(f"order differs from {self.degree}!/2")
        return bad


def giant(degree):
    return Giant(degree, math.factorial(degree) // 2)


@dataclass(frozen=True)
class Proper:
    """certify-alt finds a proper subgroup of the stated order."""
    degree: int
    order: int

    def __call__(self, text):
        got = json.loads(text)
        bad = []
        if got["verdict"] != "Proper":
            bad.append(f"verdict {got['verdict']} != Proper")
        if got["degree"] != self.degree:
            bad.append(f"degree {got['degree']} != {self.degree}")
        if got["order"] != _decimal(self.order):
            bad.append(f"order {got['order']} != {self.order}")
        return bad


@dataclass(frozen=True)
class GammaClassCounts:
    """gamma-classes: orbit sizes, and the big orbit's classes all of one
    size; every histogram adds up to its orbit and class count."""
    total: int
    sizes: tuple
    big_classes: int
    big_class_size: int

    def __call__(self, text):
        orbits = json.loads(text)["orbits"]
        sizes = sorted(o["orbit_size"] for o in orbits)
        bad = []
        if sum(sizes) != self.total:
            bad.append(f"orbit sizes sum to {sum(sizes)} != {self.total}")
        if tuple(sizes) != self.sizes:
            bad.append(f"orbit sizes {sizes} != {list(self.sizes)}")
        for o in orbits:
            hist = {int(k): v for k, v in o["histogram"].items()}
            if sum(k * v for k, v in hist.items()) != o["orbit_size"] or \
                    sum(hist.values()) != o["class_count"]:
                bad.append(f"histogram of orbit {o['orbit_size']} inconsistent")
        big = max(orbits, key=lambda o: o["orbit_size"])
        if big["class_count"] != self.big_classes or \
                big["histogram"] != {str(self.big_class_size): self.big_classes}:
            bad.append(f"big orbit: {big['class_count']} classes "
                       f"{big['histogram']} != {self.big_classes} of size "
                       f"{self.big_class_size}")
        return bad


@dataclass(frozen=True)
class OrbitSizesCsv:
    """orbits --format csv: the orbit sizes, summing to q^n."""
    total: int
    sizes: tuple

    def __call__(self, text):
        lines = text.strip().splitlines()
        if lines[0] != "d0,a1_label,orbit_size":
            return [f"bad header {lines[0]!r}"]
        sizes = sorted(int(line.split(",")[2]) for line in lines[1:])
        bad = []
        if sum(sizes) != self.total:
            bad.append(f"orbit sizes sum to {sum(sizes)} != {self.total}")
        if tuple(sizes) != self.sizes:
            bad.append(f"orbit sizes {sizes} != {list(self.sizes)}")
        return bad


@dataclass(frozen=True)
class GapSweep:
    """gap --thm15 i --sweep: one row per prime; lambda2 agrees with
    ARPACK on the same Schreier graph."""
    primes: tuple
    tol: float = 1e-8

    def __call__(self, text):
        lines = text.strip().splitlines()
        if lines[0] != "p,V,degree,lambda2,gap,method,residual":
            return [f"bad header {lines[0]!r}"]
        rows = [line.split(",") for line in lines[1:]]
        got = tuple(int(r[0]) for r in rows)
        if got != self.primes:
            return [f"primes {got} != {self.primes}"]
        bad = []
        for r in rows:
            p, v, deg, lam2 = int(r[0]), int(r[1]), int(r[2]), float(r[3])
            if v != p**3 - 1 or deg != 6:
                bad.append(f"p={p}: V={v} degree={deg}")
                continue
            ref = thm15_i_lambda2(p)
            if abs(lam2 - ref) > self.tol:
                bad.append(f"p={p}: lambda2 {lam2!r} vs ARPACK {ref!r}")
        return bad


def thm15_i_lambda2(p):
    """Second-largest eigenvalue of the normalized adjacency of the
    Schreier graph of <S, T(1,2,1,1), T(1,2,2,1)> on F_p^3 minus 0, built
    from the generators' formulas: S cycles the coordinates,
    T(1,2,e,1) adds x2^e to x1."""
    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.linalg import eigsh

    v = p**3 - 1
    codes = np.arange(1, p**3)
    a1, a2, a3 = codes % p, (codes // p) % p, codes // (p * p)

    def index(x1, x2, x3):
        return x1 + p * x2 + p * p * x3 - 1

    images = [index(a2, a3, a1),
              index((a1 + a2) % p, a2, a3),
              index((a1 + a2 * a2) % p, a2, a3)]
    src = np.arange(v)
    rows = np.concatenate([np.concatenate([src, img]) for img in images])
    cols = np.concatenate([np.concatenate([img, src]) for img in images])
    adj = sp.csr_matrix((np.full(rows.size, 1.0 / 6), (rows, cols)),
                        shape=(v, v))
    top = eigsh(adj, k=2, which="LA", tol=1e-14, ncv=min(v - 1, 40),
                v0=np.ones(v) + np.arange(v) / v,
                return_eigenvectors=False)
    return float(np.sort(top)[0])


@dataclass(frozen=True)
class LemmasPass:
    trials: int

    def __call__(self, text):
        got = json.loads(text)
        bad = []
        if got["all_pass"] is not True:
            bad.append("all_pass is not true")
        if got["interpolation_pass"] != f"{self.trials}/{self.trials}":
            bad.append(f"interpolation {got['interpolation_pass']}")
        return bad


@dataclass(frozen=True)
class SynthVerified:
    target: str
    endo_x1: str = None  # first coordinate of the emitted endomorphism

    def __call__(self, text):
        got = json.loads(text)
        bad = []
        if got["verified"] is not True:
            bad.append("word not verified")
        if got["target"] != self.target:
            bad.append(f"target {got['target']} != {self.target}")
        if self.endo_x1 is not None and got.get("endo", [None])[0] != self.endo_x1:
            bad.append(f"endo x1 image {got.get('endo')} != {self.endo_x1}")
        return bad


@dataclass(frozen=True)
class GammaGroup:
    """Gamma_{c,p} has order p^(c+2) and nilpotency class c+1."""
    c: int
    p: int

    def __call__(self, text):
        got = json.loads(text)
        bad = []
        if got["order"] != self.p ** (self.c + 2):
            bad.append(f"order {got['order']} != {self.p}^{self.c + 2}")
        if got["nilpotency_class"] != self.c + 1:
            bad.append(f"class {got['nilpotency_class']} != {self.c + 1}")
        return bad


@dataclass(frozen=True)
class Kazhdan:
    """bound = sqrt((1 - M)/n), M = max_i sqrt(e_i/p) + sqrt(e_{i+1}/p)."""
    p: int
    e: tuple

    def __call__(self, text):
        got = json.loads(text)
        n = len(self.e)
        m = max(math.sqrt(self.e[i] / self.p) +
                math.sqrt(self.e[(i + 1) % n] / self.p) for i in range(n))
        if m >= 1 or got["applicable"] is not True:
            return [f"applicable={got['applicable']} with M={m}"]
        if abs(got["M"] - m) > 1e-12 or \
                abs(got["bound"] - math.sqrt((1 - m) / n)) > 1e-12:
            return [f"M={got['M']} bound={got['bound']} vs M={m}"]
        return []


@dataclass(frozen=True)
class ProbeAll:
    """Every probe trial succeeds."""
    trials: int

    def __call__(self, text):
        got = json.loads(text)
        if got["trials"] != self.trials or got["successes"] != self.trials:
            return [f"{got['successes']}/{got['trials']} successes"]
        return []


def _decimal(n):
    """str(n) for certificate orders beyond the int-to-str digit limit."""
    import sys
    if hasattr(sys, "set_int_max_str_digits"):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(n)
        finally:
            sys.set_int_max_str_digits(limit)
    return str(n)


# -- workloads ---------------------------------------------------------------


def _probe(k, trials=200):
    return Op(("probe", f"--k={k}"), ProbeAll(trials),
              probe={"p": 5, "n": 3, "e": (1, 1, 2), "ell": 2, "k": k,
                     "trials": trials})


WORKLOADS = {
    "orbit-quotient": [
        Op(("gamma-classes", "--p", "5", "--e", "1,1,2", "--ell", "3"),
           GammaClassCounts(125**3, (1, 124, 1953000),
                            (5**9 - 5**3) // 3, 3)),
        Op(("orbits", "--p", "3", "--e", "1,1,2", "--ell", "4",
            "--format", "csv"),
           OrbitSizesCsv(81**3, (1, 26, 702, 530712))),
    ],
    "alt-certify": [
        Op(("certify-alt", "--thm15", "ii", "--p", "3"), giant(2186)),
        Op(("certify-alt", "--thm15", "i", "--p", "17"), giant(4912)),
        Op(("certify-alt", "--p", "13", "--e", "1,1,1"),
           Proper(2196, 13**3 * (13**2 - 1) * (13**3 - 1)), expect_rc=1),
        Op(("certify-alt", "--p", "3", "--e", "1,1,2", "--ell", "2",
            "--on-classes"), giant(351)),
    ],
    "schreier-gap": [
        Op(("gap", "--thm15", "i", "--p", "19", "--sweep", "--threads", "1"),
           GapSweep((3, 5, 7, 11, 13, 17, 19))),
    ],
    "toolbox": [
        Op(("verify-lemmas", "--qmax", "343", "--nmax", "4",
            "--trials", "1000", "--threads", "1"), LemmasPass(1000)),
        Op(("synth", "--p", "5", "--e", "1,1,2", "--t", "4", "--r", "1"),
           SynthVerified("T(1,2,4,1)")),
        Op(("synth", "--p", "23", "--e", "2,2,2", "--t", "9", "--r", "1",
            "--emit-endo"), SynthVerified("T(1,2,9,1)", "1*x1 + 1*x2^9")),
        Op(("gamma-group", "--c", "3", "--p", "5"), GammaGroup(3, 5)),
        Op(("kazhdan", "--p", "11"), Kazhdan(11, (1, 1, 2))),
        _probe(2),
        _probe(3),
    ],
}


def score(ops, results):
    """Count the ops whose exit code or output fails its oracle.

    results[i] is {"rc": int, "out": str} or {"error": str}.  A failing
    oracle, or one that cannot parse the output, counts as one failed op
    and never aborts the run.  Returns (failed, problems by op label).
    """
    failed, problems = 0, {}
    for op, res in zip(ops, results, strict=True):
        if "error" in res:
            bad = [f"raised {res['error']}"]
        elif res["rc"] != op.expect_rc:
            bad = [f"exit code {res['rc']} != {op.expect_rc}"]
        else:
            try:
                bad = op.oracle(res["out"])
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                bad = [f"unreadable output: {exc!r}"]
        if bad:
            failed += 1
            problems[op.label] = bad
    return failed, problems
