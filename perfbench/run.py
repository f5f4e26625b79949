"""Benchmark of the unimetric package: one workload, one seed, one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload spectral_small --seed 1 --seconds 20 --trace 0

Workloads: spectral_small, spectral_large, subset_opt (library calls in
one worker process) and cli_session (fresh CLI processes).  With
``--trace 0`` the last stdout line reports the end-to-end metrics
ops_per_s, setup_s and peak_rss_mb; with ``--trace 1`` it reports the
per-layer metrics of :mod:`tracing`.  The program is imported from
``src/`` of the checkout; without it the benchmark exits 2.  See
README.md for what each figure means and how it is kept steady.
"""

from __future__ import annotations

import os
import sys

# single-threaded BLAS, set before numpy loads here or in any child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import host  # noqa: E402
import tracing  # noqa: E402

LIBRARY_WORKLOADS = ("spectral_small", "spectral_large", "subset_opt")
WORKLOADS = LIBRARY_WORKLOADS + ("cli_session",)
CHILD_TIMEOUT_S = 170


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def pin_to_one_cpu() -> None:
    """Pin this process, and so every child, to one CPU (as taskset would)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def run_library(root: str, args, trace_file: str) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        args.workload,
        str(args.seed),
        str(args.seconds),
        str(args.trace),
        trace_file,
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        t_ready = time.perf_counter()
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0 or not ready.strip() or not rest.strip():
        raise RuntimeError(f"worker exited {proc.returncode}")
    result = json.loads(rest.strip().splitlines()[-1])
    # set-up: interpreter start, imports and one warm-up operation, less
    # input generation, scaled by the reference passes that follow it
    raw = t_ready - t0 - json.loads(ready)["gen_s"]
    result["setup_s"] = raw * host.NOMINAL_MS / result["setup_ref_ms"]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "unimetric", "__init__.py")):
        print("perfbench: no src/unimetric here; run from the root of a checkout", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    trace_file = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
    try:
        if args.workload == "cli_session":
            import cli_session

            result = cli_session.run(
                root, child_env(root), args.seed, args.seconds, bool(args.trace), trace_file
            )
        else:
            result = run_library(root, args, trace_file)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"perfbench: {args.workload} did not run: {exc}", file=sys.stderr)
        return 1

    for error in result["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    if args.trace:
        layers = result["layers"]
        metrics = {
            name: {"value": float(layers.get(name, 0.0)), "unit": unit}
            for name, unit in tracing.PER_LAYER
        }
    else:
        metrics = {
            "ops_per_s": {"value": result["ops_per_s"], "unit": "op/s"},
            "setup_s": {"value": result["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": children_peak_rss_mb(), "unit": "MB"},
        }
    print(
        json.dumps(
            {
                "correct": result["check_errors"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
