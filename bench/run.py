"""tamexp benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client.  A pass is one fresh worker process
(bench/worker.py) that imports tamexp.cli from src/, signals ready and
runs the workload's ops back to back.  Passes repeat until --seconds
have elapsed (at least one pass).  Each op's exit code and output are
checked against an independent oracle after the worker has exited, so
checking is outside the timed region; a failed check counts in `failed`
and never aborts the run.

--trace 0 reports the end-to-end metrics (medians over passes):
  wall_s       ready signal -> last op's output, in the worker
  cpu_s        user + system CPU of the worker (os.wait4 rusage)
  peak_rss_mb  ru_maxrss of the worker
  setup_s      worker launch -> tamexp.cli imported, median over
               several setup-only launches and every pass
--trace 1 runs the untraced passes, then one traced pass whose spans give
the per-layer metrics (bench/layers.py) and trace.overhead_frac.

The last line of stdout is the result JSON; a run record with the
machine, versions and per-op times goes to bench/out/.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from workloads import WORKLOADS, score  # noqa: E402

SETUP_SAMPLES = 10  # setup-only launches per untraced run, after a warm-up
RUN_DEADLINE = 170  # seconds; a worker still running then is killed


class WorkerFailed(RuntimeError):
    pass


def launch(workload, seed, deadline, trace=0, setup_only=False,
           spans_out=None):
    """Run one worker to completion; returns (launch time, its JSON
    record, its rusage)."""
    cmd = [sys.executable, WORKER, "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    # ops pass --threads 1; an inherited TAMEXP_THREADS would override it
    env = {k: v for k, v in os.environ.items() if k != "TAMEXP_THREADS"}
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    killer = threading.Timer(max(1.0, deadline - t0), proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with {proc.returncode}: "
                           f"{' '.join(cmd[1:])}")
    return t0, json.loads(out.decode().splitlines()[-1]), usage


def run_passes(workload, seed, seconds, deadline):
    """Untraced passes until `seconds` have elapsed; per-pass figures and
    the op results of every pass."""
    passes = []
    start = time.monotonic()
    while True:
        t0, rec, usage = launch(workload, seed, deadline)
        passes.append({
            "wall_s": rec["t_done"] - rec["t_ready"],
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024,
            "setup_s": rec["t_setup"] - t0,
            "results": rec["results"],
        })
        if time.monotonic() - start >= seconds:
            return passes


def setup_samples(workload, seed, deadline):
    launch(workload, seed, deadline, setup_only=True)  # warm caches, .pyc
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0, rec, _ = launch(workload, seed, deadline, setup_only=True)
        samples.append(rec["t_setup"] - t0)
    return samples


def output_bytes(ops, results):
    return sum(len(r.get("out", "").encode()) for op, r in zip(ops, results)
               if op.probe is None)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE
    ops = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    try:
        setups = [] if args.trace else setup_samples(args.workload, args.seed,
                                                     deadline)
        passes = run_passes(args.workload, args.seed, args.seconds, deadline)
        traced = None
        if args.trace:
            _, traced, _ = launch(args.workload, args.seed, deadline, trace=1,
                                  spans_out=stem + "-spans.npz")
    except WorkerFailed as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    all_results = [p["results"] for p in passes]
    if traced is not None:
        all_results.append(traced["results"])
    failed, problems = 0, {}
    for results in all_results:
        f, probs = score(ops, results)
        failed += f
        problems.update(probs)
    attempted = len(ops) * len(all_results)

    def median(key):
        return statistics.median(p[key] for p in passes)

    if args.trace:
        import layers
        counters = dict(traced["counters"])
        counters["cli.output_bytes"] = output_bytes(ops, traced["results"])
        metrics = layers.per_layer(traced["spans"], counters)
        metrics["trace.overhead_frac"] = (
            (traced["t_done"] - traced["t_ready"]) / median("wall_s") - 1,
            "ratio")
    else:
        setups += [p["setup_s"] for p in passes]
        metrics = {"wall_s": (median("wall_s"), "s"),
                   "cpu_s": (median("cpu_s"), "s"),
                   "peak_rss_mb": (median("peak_rss_mb"), "MB"),
                   "setup_s": (statistics.median(setups), "s")}
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine_info(),
        "ops": [op.label for op in ops],
        "passes": [{k: v for k, v in p.items() if k != "results"}
                   | {"op_s": [r["s"] for r in p["results"]]} for p in passes],
        "setup_samples_s": setups,
        "problems": problems,
        "metrics": metrics,
    }
    if traced is not None:
        record["spans"] = traced["spans"]
        record["counters"] = traced["counters"]
        record["traced_op_s"] = [r["s"] for r in traced["results"]]
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    for label, bad in problems.items():
        print(f"FAILED {label}: {'; '.join(bad)}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


# -- run record ----------------------------------------------------------------


def machine_info():
    import numpy as np
    import scipy

    src = sorted(glob.glob(os.path.join(ROOT, "src", "tamexp", "*.py")))
    digest = hashlib.sha256()
    lines = {}
    for path in src:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(os.path.basename(path).encode() + b"\0" + data)
        lines[os.path.basename(path)] = data.count(b"\n")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "threads_pin": "ops owning a process pool get --threads 1; "
                       "TAMEXP_THREADS is removed from the worker environment",
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def _git_commit():
    try:
        res = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = res.stdout.split()
    # a checkout without .git may sit inside another repository
    if res.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, asked through its C API."""
    import ctypes

    import numpy as np
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


if __name__ == "__main__":
    sys.exit(main())
