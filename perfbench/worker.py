"""One fresh interpreter: set up a workload, optionally run one pass.

Started by run.py, never by hand.  It writes one JSON record to
``--result``: the monotonic time at which set-up finished, and for a pass
its wall time, peak RSS, items, operations, output checks, output digest
and, when traced, the per-layer metrics.  ``time.monotonic`` is
system-wide, so run.py can subtract the time it started this process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time


def blas_facts() -> dict:
    """BLAS library name and the thread count it will use."""
    import ctypes
    import glob

    import numpy as np

    name = None
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return {"blas": name, "blas_threads": threads}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--pass-dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    ap.add_argument("--run-id", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.inputs)
    ready = time.monotonic()
    record = {"ready": ready}
    if args.mode == "setup":
        import reference

        record["reference_s"] = [reference.reference_seconds() for _ in range(2)]
    else:
        record.update(one_pass(workload, args))
    with open(args.result, "w") as fh:
        json.dump(record, fh)
    return 0


def one_pass(workload, args) -> dict:
    import numpy as np

    import werm

    shutil.rmtree(args.pass_dir, ignore_errors=True)
    os.makedirs(args.pass_dir)
    tracer = None
    if args.mode == "traced":
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer(args.run_id)
        tracer.install()
    try:
        start = time.perf_counter()
        outcome = workload.run(args.pass_dir)
        wall = time.perf_counter() - start
    finally:
        leftovers = tracer.uninstall() if tracer is not None else []
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    attempted, failed = workload.operations(outcome)
    checks = workload.checks(args.pass_dir, outcome)
    record = {
        "wall_s": wall,
        "peak_rss_mb": kib / 1024.0,
        "items": workload.items(args.pass_dir, outcome),
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "digest": workload.digest(args.pass_dir, outcome),
        "werm_file": werm.__file__,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        **blas_facts(),
    }
    if tracer is not None:
        record["restore_leftovers"] = leftovers
        record["hits"] = tracer.hits
        record["layers"] = tracer.layer_metrics(workload.useful_evals(args.pass_dir, outcome))
        if args.spans:
            tracer.write_spans(args.spans)
    return record


if __name__ == "__main__":
    sys.exit(main())
