"""Benchmark of buresgeo: four workloads, each in fresh single-threaded processes.

Usage (from the root of a checkout):

    python3 bench/run.py --workload geodesic-pairs --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics; see bench/README.md for every name and
unit. The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details (tail percentile and sample count, failure reasons, set-up samples,
the conditioning probe).

``--trace 0`` starts ``SETUP_RUNS`` set-up-only workers and one timed
worker, one after another. ``setup_s`` is the median of their times from
process start to the first timed op. Every worker gets BLAS and OpenMP
pinned to one thread. Library source comes from ``src/`` of this checkout;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "bench", "worker.py")
WORKLOADS = ("geodesic-pairs", "path-sampling", "tangent-solve", "cli-session")
SETUP_RUNS = 4
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    env = os.environ.copy()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, mode: str, seconds: float = 0.0, extra=()) -> tuple[dict, float]:
    """Run one worker to completion; returns its result and its start time."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--seconds", repr(seconds), *extra]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
                          check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker ({mode}) exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), t0


def end_to_end(args) -> tuple[dict, dict, int, int, int]:
    """Median set-up time of 5 processes and the timed worker's metrics."""
    timed, t0 = run_worker(args, "timed", args.seconds,
                           ["--corrupt-every", str(args.corrupt_every)])
    raw_setups = [timed["first_op_monotonic"] - t0]
    setups = [raw_setups[0] * timed["scale"]]
    for _ in range(SETUP_RUNS):
        res, t0 = run_worker(args, "setup")
        raw_setups.append(res["first_op_monotonic"] - t0)
        setups.append(raw_setups[-1] * res["scale"])
    if not timed["completed"]:
        raise SystemExit("no op completed correctly; latency metrics are undefined")
    metrics = {"setup_s": statistics.median(setups)}
    for name in ("ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"):
        metrics[name] = timed[name]
    detail = {key: value for key, value in timed.items() if key != "first_op_monotonic"}
    detail["setup_samples_s"] = setups
    detail["raw_setup_samples_s"] = raw_setups
    return metrics, detail, timed["attempted"], timed["refused"], timed["wrong"]


def per_layer(args) -> tuple[dict, dict, int, int, int]:
    res, _ = run_worker(args, "traced", args.seconds)
    metrics = res["layers"]
    detail = {"phases": res["phases"], "startup_ms": res["startup_ms"],
              "known_defect": res["known_defect"]}
    return metrics, detail, res["attempted"], res["refused"], res["wrong"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-every", type=int, default=0,
                        help="self-test only: corrupt the output of every k-th timed op")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "buresgeo", "__init__.py")):
        print(f"error: no library source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics, detail, attempted, refused, wrong = (per_layer if args.trace else end_to_end)(args)
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds)
    print(json.dumps({"detail": detail}))
    # Refusals (the library raising) are failed ops; ``correct`` is false
    # only when an op returned an output that failed its check.
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": refused + wrong,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
