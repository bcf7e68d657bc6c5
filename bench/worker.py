"""One benchmark worker: a fresh interpreter that runs one workload pass.

    python3 bench/worker.py --workload NAME --seed N [--trace 0|1] [--setup-only]

The worker imports tamexp.cli from the checkout's src/ (the "setup"
time), gets ready (the "ready" time), then runs the workload's ops back
to back in-process through tamexp.cli.main(argv), capturing each op's
stdout.  It prints one JSON object: the setup, ready and done times
(time.monotonic, which all processes on the host share), each op's exit
code and output, and, when traced, the span summary and counters.
Checking outputs is left to the caller, outside the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_program():
    """Import tamexp.cli from this checkout only, never an installed copy."""
    sys.path.insert(0, SRC)
    import tamexp.cli
    where = os.path.dirname(os.path.abspath(tamexp.cli.__file__))
    if where != os.path.join(SRC, "tamexp"):
        raise SystemExit(f"tamexp imported from {where}, not from {SRC}")
    return tamexp.cli


def run_op(cli, op, seed):
    buf = io.StringIO()
    t0 = time.monotonic()
    try:
        with contextlib.redirect_stdout(buf):
            if op.probe is not None:
                rc = _probe(op.probe, seed, buf)
            else:
                rc = cli.main(op.argv_with_seed(seed))
    except Exception as exc:  # an op that crashes counts as failed
        return {"error": f"{type(exc).__name__}: {exc}",
                "s": time.monotonic() - t0}
    return {"rc": rc, "out": buf.getvalue(), "s": time.monotonic() - t0}


def _probe(spec, seed, out):
    from tamexp import orbits, tame
    params = tame.GroupParams(spec["p"], spec["n"], tuple(spec["e"]))
    rep = orbits.transitivity_probe(params, spec["ell"], spec["k"],
                                    spec["trials"], seed=seed)
    out.write(json.dumps({"k": rep.k, "trials": rep.trials,
                          "successes": rep.successes}))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    cli = import_program()
    t_setup = time.monotonic()
    if args.setup_only:
        print(json.dumps({"t_setup": t_setup}))
        return 0

    sys.path.insert(0, HERE)
    from workloads import WORKLOADS
    ops = WORKLOADS[args.workload]
    rec = None
    if args.trace:
        import layers
        from spans import Recorder
        rec = Recorder()
        layers.install(rec)

    t_ready = time.monotonic()
    results = [run_op(cli, op, args.seed) for op in ops]
    t_done = time.monotonic()

    record = {"t_setup": t_setup, "t_ready": t_ready, "t_done": t_done,
              "results": results}
    if rec is not None:
        record["spans"] = rec.summary()
        record["counters"] = rec.counters
        if args.spans_out:
            import numpy as np
            np.savez_compressed(args.spans_out, names=np.array(rec.names),
                                **rec.arrays())
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
