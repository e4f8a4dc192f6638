#!/usr/bin/env python3
"""werm benchmark: one workload, measured in fresh interpreters.

Usage (from the repository root):

    python3 perfbench/run.py --workload strata_c10 --seed 7 --seconds 20 --trace 0

Workloads: strata_c10, bounds_coverage, csv_cli (see workloads.py).  The
seed makes the inputs; werm only ever sees those inputs.  Every pass runs
in its own interpreter started by this script, one at a time: load comes
from one process and there is no worker pool.  Between passes a set-up
probe starts one more interpreter that sets up and then times the
reference job twice.  Passes repeat until ``--seconds`` have gone by (at
least three passes; four when traced).

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end ones: ``setup_s`` (median time from interpreter start
until the workload is ready), ``wall_ref`` (the fastest pass divided by
the fastest reference job, see reference.py), ``items_per_ref`` and
``peak_rss_mb`` (median).  Plain medians of ``wall_s`` and ``items_per_s``
are printed and stored too, but swing with the host's speed.  With
``--trace 1`` passes alternate between plain and traced, and the metrics
are the per-layer ones from the traced passes plus the tracing overhead
(traced minus plain median ``wall_s``).  Failed operations and output
checks are counted in ``failed``; any failure exits 1.

Runtime files go to ``.perfbench_out/`` under the current directory: one
result file per workload, seed and trace flag, the spans of the last
traced pass, and output digests keyed by a hash of ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ".perfbench_out"
HARD_LIMIT_S = 160.0  # a run must end within 180 s
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = {0: 3, 1: 4}  # by --trace: a traced run needs two traced passes


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _source_hash(src: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _git_commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _blas_threads(nproc: int) -> int:
    """At most nproc, and no more than any thread count already requested."""
    threads = nproc
    for var in BLAS_ENV:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) >= 1:
            threads = min(threads, int(value))
    return threads


class Run:
    def __init__(self, args, root: str):
        self.args = args
        self.root = root
        self.work = os.path.join(OUT_DIR, "work")
        self.inputs = os.path.join(self.work, "inputs")
        self.t_start = time.monotonic()
        self.nproc = len(os.sched_getaffinity(0))
        self.threads = _blas_threads(self.nproc)
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        for var in BLAS_ENV:
            env[var] = str(self.threads)
        self.env = env
        self.errors: list[str] = []
        self.reference: list[float] = []

    def spawn(self, mode: str, index: int) -> dict | None:
        """Start one interpreter and return its record, or None if it failed."""
        a = self.args
        result = os.path.join(self.work, f"result-{index}-{mode}.json")
        run_id = f"{a.workload}:{a.seed}:{os.getpid()}:{index}"
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--inputs", self.inputs,
               "--pass-dir", os.path.join(self.work, "pass"), "--result", result,
               "--mode", mode, "--run-id", run_id]
        if mode == "traced":
            cmd += ["--spans", os.path.join(OUT_DIR, f"{a.workload}-seed{a.seed}-spans.jsonl.gz")]
        timeout = max(10.0, HARD_LIMIT_S + 15.0 - (time.monotonic() - self.t_start))
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            self.errors.append(f"{mode} pass {index} timed out after {timeout:.0f} s")
            return None
        if proc.returncode != 0 or not os.path.exists(result):
            sys.stderr.write(proc.stderr[-4000:])
            self.errors.append(f"{mode} pass {index} exited {proc.returncode}")
            return None
        with open(result) as fh:
            record = json.load(fh)
        record["setup_s"] = record["ready"] - started
        record["mode"] = mode
        return record

    def measure(self) -> tuple[list[float], list[dict]]:
        a = self.args
        modes = ("plain", "traced") if a.trace else ("plain",)
        deadline = time.monotonic() + a.seconds
        setups, passes = [], []
        longest_cycle = 0.0
        while len(passes) < MIN_PASSES[a.trace] or time.monotonic() < deadline:
            cycle_start = time.monotonic()
            if cycle_start - self.t_start + longest_cycle > HARD_LIMIT_S:
                break
            probe = self.spawn("setup", len(passes))
            record = probe and self.spawn(modes[len(passes) % len(modes)], len(passes))
            if record is None:
                break
            setups += [probe["setup_s"], record["setup_s"]]
            self.reference += probe["reference_s"]
            passes.append(record)
            longest_cycle = max(longest_cycle, time.monotonic() - cycle_start)
        return setups, passes


def _digest_store_check(key: str, digest: str) -> bool:
    """Same source, workload and seed must always give the same outputs."""
    path = os.path.join(OUT_DIR, "digests.json")
    store = {}
    if os.path.exists(path):
        with open(path) as fh:
            store = json.load(fh)
    previous = store.setdefault(key, digest)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return previous == digest


def summarize(run: Run, setups: list[float], passes: list[dict]) -> dict:
    a = run.args
    src = os.path.join(run.root, "src")
    source_hash = _source_hash(src)
    checks: dict[str, bool] = {}
    attempted = failed = 0
    for p in passes:
        attempted += p["attempted"] + len(p["checks"])
        failed += p["failed"] + sum(not ok for ok in p["checks"].values())
        for name, ok in p["checks"].items():
            checks[name] = checks.get(name, True) and ok
    checks["all_passes_ran"] = not run.errors and len(passes) >= MIN_PASSES[a.trace]
    if passes:
        checks["werm_from_checkout"] = all(
            os.path.commonpath([p["werm_file"], src]) == src for p in passes
        )
        digests = {p["digest"] for p in passes}
        checks["digest_same_every_pass"] = len(digests) == 1
        checks["digest_same_as_earlier_runs"] = _digest_store_check(
            f"{source_hash}:{a.workload}:{a.seed}", passes[0]["digest"]
        )
    traced = [p for p in passes if p["mode"] == "traced"]
    plain = [p for p in passes if p["mode"] == "plain"]
    if traced:
        checks["tracer_restored_every_binding"] = all(not p["restore_leftovers"] for p in traced)
        checks["counts_repeat_exactly"] = all(
            p["layers"][name] == traced[0]["layers"][name]
            for p in traced for name in tracer.EXACT_COUNTS
        )
    run_level = [k for k in checks if not any(k in p["checks"] for p in passes)]
    attempted += len(run_level)
    failed += sum(not checks[k] for k in run_level)

    metrics: dict[str, dict] = {}
    measured: dict[str, dict] = {}
    if plain and run.reference:
        ref = statistics.median(run.reference)
        wall = statistics.median(p["wall_s"] for p in plain)
        items_per_s = statistics.median(p["items"] / p["wall_s"] for p in plain)
        fastest = min(plain, key=lambda p: p["wall_s"])
        wall_ref = fastest["wall_s"] / min(run.reference)
        measured = {
            "wall_s": {"value": wall, "unit": "s"},
            "items_per_s": {"value": items_per_s, "unit": "1/s"},
            "reference_s": {"value": ref, "unit": "s"},
        }
        if not a.trace:
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "wall_ref": {"value": wall_ref, "unit": "ref"},
                "items_per_ref": {"value": fastest["items"] / wall_ref, "unit": "1/ref"},
                "peak_rss_mb": {
                    "value": statistics.median(p["peak_rss_mb"] for p in plain), "unit": "MB"
                },
            }
    unhit = []
    if traced and plain:
        for name in traced[0]["layers"]:
            unit = _unit(name)
            # counts repeat exactly (checked above); times are medians
            value = (traced[0]["layers"][name] if unit == "count"
                     else statistics.median(p["layers"][name] for p in traced))
            metrics[name] = {"value": value, "unit": unit}
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        plain_wall = statistics.median(p["wall_s"] for p in plain)
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
        unhit = sorted({
            b for p in traced for b in workloads.EXPECTED_HITS[a.workload] if not p["hits"].get(b)
        })
        metrics["trace.unhit_bindings"] = {"value": len(unhit), "unit": "count"}
    first = passes[0] if passes else {}
    return {
        "workload": a.workload,
        "item": workloads.WORKLOADS[a.workload].item,
        "seed": a.seed,
        "seconds": a.seconds,
        "trace": a.trace,
        "git_commit": _git_commit(run.root),
        "source_sha256": source_hash,
        "nproc": run.nproc,
        "python": first.get("python"),
        "numpy": first.get("numpy"),
        "blas": first.get("blas"),
        "blas_threads": first.get("blas_threads"),
        "blas_threads_requested": run.threads,
        "waits": "none recorded: werm is single-threaded and has no queues",
        "passes": len(passes),
        "setup_samples": setups,
        "reference_samples": run.reference,
        "wall_samples": {m: [p["wall_s"] for p in passes if p["mode"] == m] for m in ("plain", "traced")},
        "checks": checks,
        "errors": run.errors,
        "unhit_bindings": unhit,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "measured": measured,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "werm", "__init__.py")):
        print("perfbench: src/werm not found; run from the root of a werm checkout",
              file=sys.stderr)
        return 2

    run = Run(args, root)
    shutil.rmtree(run.work, ignore_errors=True)
    os.makedirs(run.inputs)
    try:
        if args.workload == "csv_cli":
            import inputs

            inputs.write_csv_cli_inputs(run.inputs, args.seed)
        setups, passes = run.measure()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    report = summarize(run, setups, passes)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {report['passes']}  nproc {report['nproc']}  "
          f"blas {report['blas']} x{report['blas_threads']}")
    for name, m in report["metrics"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    for name, m in report["measured"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}  (unbounded; host-speed dependent)")
    print(f"  {'failed_frac':28s} {report['failed_frac']:.6g} "
          f"({report['failed']}/{report['attempted']})")
    for name, ok in report["checks"].items():
        if not ok:
            print(f"  check failed: {name}")
    for error in run.errors:
        print(f"  error: {error}")
    if args.trace:
        print(f"  waits: {report['waits']}")
    correct = report["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
