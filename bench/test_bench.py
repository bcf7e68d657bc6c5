"""The benchmark's own tests: span arithmetic, oracles and scoring.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import worker  # noqa: E402
from spans import Recorder, self_times  # noqa: E402
from workloads import WORKLOADS, giant, score  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    #  a [0, 10] contains b [1, 4] and d [5, 7]; b contains c [2, 3]
    parent = [-1, 0, 1, 0]
    dur = [10.0, 3.0, 1.0, 2.0]
    assert self_times(parent, dur).tolist() == [5.0, 2.0, 1.0, 2.0]


def test_recorder_summary_counts_recursion_once():
    # outer f [0, 10] -> inner f [1, 6] -> g [2, 5]; then g [7, 8] under outer f
    rec = Recorder(clock=FakeClock([0, 1, 2, 5, 6, 7, 8, 10]))
    f, g = rec.name_to_id("m.f"), rec.name_to_id("m.g")
    outer = rec.open(f)
    inner = rec.open(f)
    rec.close(rec.open(g))
    rec.close(inner)
    rec.close(rec.open(g))
    rec.close(outer)
    summary = rec.summary()
    assert summary["m.f"] == {"calls": 2, "s": 10.0, "self_s": 4.0 + 2.0}
    assert summary["m.g"] == {"calls": 2, "s": 4.0, "self_s": 4.0}
    total_self = sum(s["self_s"] for s in summary.values())
    assert total_self == 10.0  # self times partition the root span


def test_wrap_times_calls_and_runs_hook_on_success_only():
    rec = Recorder()
    seen = []
    wrapped = rec.wrap(lambda x: 1 / x, "m.inv",
                       hook=lambda r, a, k, out, dur: seen.append(out))
    assert wrapped(4) == 0.25
    with pytest.raises(ZeroDivisionError):
        wrapped(0)
    assert seen == [0.25]
    assert rec.summary()["m.inv"]["calls"] == 2


@pytest.fixture(scope="module")
def cli():
    return worker.import_program()


def _op(workload, prefix):
    return next(op for op in WORKLOADS[workload] if op.label.startswith(prefix))


def test_corrupted_expectation_counts_as_one_failed_op(cli):
    op = _op("alt-certify", "certify-alt --p 3 --e 1,1,2 --ell 2 --on-classes")
    res = worker.run_op(cli, op, seed=0)
    assert score([op], [res]) == (0, {})
    off_by_one = dataclasses.replace(
        op, oracle=dataclasses.replace(op.oracle, order=op.oracle.order + 1))
    failed, problems = score([op, off_by_one], [res, res])
    assert failed == 1
    assert list(problems) == [off_by_one.label]


def test_wrong_exit_code_crash_and_garbage_are_failures():
    op = dataclasses.replace(WORKLOADS["alt-certify"][0], oracle=giant(5))
    results = [{"rc": 1, "out": "{}"}, {"error": "RuntimeError: boom"},
               {"rc": 0, "out": "not json"}, {"rc": 0, "out": "{}"}]
    failed, _ = score([op] * 4, results)
    assert failed == 4


def test_fast_ops_pass_their_oracles_with_two_seeds(cli):
    ops = [op for op in WORKLOADS["toolbox"]
           if op.argv[0] in ("synth", "gamma-group", "kazhdan")]
    for seed in (0, 1):
        results = [worker.run_op(cli, op, seed) for op in ops]
        assert score(ops, results) == (0, {})


def test_gap_oracle_flags_a_wrong_lambda2():
    row = "p,V,degree,lambda2,gap,method,residual\n3,26,6,{lam!r},0,dense,0.0\n"
    oracle = dataclasses.replace(WORKLOADS["schreier-gap"][0].oracle,
                                 primes=(3,))
    good = 0.969817582532748  # dense eigvalsh of the p = 3 graph
    assert oracle(row.format(lam=good)) == []
    assert oracle(row.format(lam=good + 1e-6)) != []


def test_install_rewraps_every_import_and_restores(cli):
    from tamexp import orbits, spectra, tame
    original = tame.apply_letter_arrays
    rec = Recorder()
    restore = layers.install(rec)
    try:
        assert tame.apply_letter_arrays is orbits.apply_letter_arrays
        assert tame.apply_letter_arrays is not original
        assert spectra.codes_to_coords is orbits.codes_to_coords
        orbits.codes_to_coords(np.arange(10), 5, 2)
    finally:
        restore()
    assert tame.apply_letter_arrays is original
    assert orbits.apply_letter_arrays is original
    assert rec.summary()["orbits.codes_to_coords"]["calls"] == 1
    assert rec.counters["orbits.codes_to_coords.elems"] == 10


def test_metric_sources_and_scalar_list_name_real_functions(cli):
    modules = layers.load_modules()
    timed = {f"{layer}.{qual}" for layer, qual, *_ in layers.targets(modules)}
    for _, _, src in layers.PER_LAYER:
        if src[0] == "span":
            assert src[1] in timed, src[1]
    for layer, names in layers.SCALAR.items():
        public = {qual for qual, *_ in layers.public_callables(modules[layer])}
        assert names <= public, names - public


def test_benchmark_json_lists_every_metric_and_workload():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert per_layer == [(n, u) for n, u, _ in layers.PER_LAYER] + \
        [("trace.overhead_frac", "ratio")]
    assert {m["name"] for m in spec["end_to_end"]} == \
        {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}
