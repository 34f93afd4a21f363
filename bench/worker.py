"""One workload in one fresh process: set-up, warm-up, then a closed loop.

Started by ``run.py`` with BLAS pinned to one thread; prints one JSON object
on its last stdout line. Modes:

- ``setup``: set up and warm up, report when the first timed op would start.
- ``timed``: the same, then time ops for ``--seconds`` with tracing off.
- ``traced``: install the timing wrappers before set-up, then alternate
  blocks of ops with the wrappers on and off for two thirds of
  ``--seconds`` (cli-session replays its argv list in-process through
  ``cli.main``), and spend the last third on cli-session's subprocess ops,
  which give the per-subcommand wall times. Interpreter start-up and the
  import split are sampled in separate subprocesses.

geodesic-pairs in ``timed`` mode and every ``traced`` run also run the
conditioning probe after their timed ops; its refusals are reported beside
the ops, never among them.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from array import array

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import buresgeo  # noqa: E402

if not os.path.abspath(buresgeo.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    sys.exit(f"buresgeo imported from {buresgeo.__file__}, not from this checkout")

import numpy as np  # noqa: E402

from tracing import SETUP_OP, Tracer  # noqa: E402
from workloads import WORKLOADS, CliSession, GeodesicPairs, conditioning_probe  # noqa: E402

# A fixed tail percentile per workload keeps op_tail_ms comparable across
# commits; each leaves well over ten samples beyond it in a 25 s run, and
# ``tail_percentile`` falls back when it does not. The in-process workloads
# use p90: their p99 is set by how often the host interrupts the process,
# which changes from run to run (p99 IQR/median 0.28-0.47 over 5-6 runs,
# against 0.06-0.13 at p90).
TAIL_PERCENTILE = {"geodesic-pairs": 90.0, "path-sampling": 90.0,
                   "tangent-solve": 90.0, "cli-session": 80.0}
IMPORT_SAMPLES = 5
# Host speed on a shared machine drifts by up to 1.5x within seconds and
# over minutes, so every timed interval is also expressed at the reference
# speed: scaled by REF_MS / (median time of the reference kernel measured
# just before it, OP_REF_REPS times before each op, REF_REPS times after
# set-up).
REF_MS = 0.2
REF_REPS = 10
OP_REF_REPS = 3
TRACE_BLOCK_S = 0.25
OUT_DIR = os.path.join(ROOT, ".bench_out")

_REF_RNG = np.random.default_rng(20240404)
_REF_H = _REF_RNG.normal(size=(8, 8)) + 1j * _REF_RNG.normal(size=(8, 8))
_REF_H = _REF_H + _REF_H.conj().T


def _reference_kernel() -> float:
    """Fixed numpy and interpreter work, independent of the library."""
    acc = 0.0
    for _ in range(4):
        w, v = np.linalg.eigh(_REF_H)
        s = np.linalg.svd(v @ _REF_H, compute_uv=False)
        acc += float(s.sum()) + float(np.max(np.abs(_REF_H - _REF_H.conj().T))) + float(w[0])
    return acc


def reference_ms(reps: int = REF_REPS) -> float:
    """Median time of the reference kernel now, in ms."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _reference_kernel()
        times.append(time.perf_counter() - t0)
    return 1e3 * float(np.median(times))


def tail_percentile(sorted_ms: list[float], wanted: float) -> tuple[float, float]:
    """Value at ``wanted`` (lowered if needed) with at least 10 samples beyond it.

    A run too short for any such percentile reports its maximum as p100.
    """
    n = len(sorted_ms)
    for p in (wanted, 75.0, 50.0):
        if p > wanted:
            continue
        idx = min(n - 1, int(np.ceil(p / 100.0 * n)) - 1)
        if n - 1 - idx >= 10:
            return p, sorted_ms[idx]
    return 100.0, sorted_ms[-1]


def make_workload(name: str, seed: int, workdir: str, in_process: bool = False):
    if name == CliSession.name:
        return CliSession(seed, workdir, in_process=in_process)
    return WORKLOADS[name](seed)


def run_ops(work, first: int, seconds: float, tracer: Tracer | None = None,
            corrupt_every: int = 0, group_by=None) -> dict:
    """Closed loop of timed ops for ``seconds`` of wall time, from op ``first``.

    Latencies of ops whose output passed its check are kept both as measured
    (``raw``) and at the reference speed; ``group_by`` additionally files the
    measured ones under a key computed from the input.
    """
    # Typed arrays, so that peak RSS barely grows with the number of ops.
    latencies, raw, refs = array("d"), array("d"), array("d")
    groups: dict[str, list[float]] = {}
    refused = wrong = 0
    reasons: dict[str, int] = {}
    setup_ref = reference_ms()
    gc.collect()
    i = first
    t_end = None
    while True:
        inp = work.make(i)
        refs.append(reference_ms(OP_REF_REPS))
        scale = REF_MS / refs[-1]
        span = tracer.begin_op(i) if tracer else None
        t0 = time.perf_counter()
        if t_end is None:
            t_end = t0 + seconds
            first_monotonic = time.monotonic()
        try:
            out = work.op(inp)
        except Exception as exc:  # a refusal is a failed op, not a crash
            t1 = time.perf_counter()
            if tracer:
                tracer.end_op(span, True)
            refused += 1
            key = f"{type(exc).__name__}: {str(exc).split(':')[0]}"
            reasons[key] = reasons.get(key, 0) + 1
        else:
            t1 = time.perf_counter()
            if tracer:
                tracer.end_op(span, False)
            if corrupt_every and (i - first) % corrupt_every == 0:
                out = work.corrupt(out)
            why = work.check(inp, out)
            if why is None:
                raw.append(t1 - t0)
                latencies.append(scale * (t1 - t0))
                if group_by:
                    groups.setdefault(group_by(inp), []).append(t1 - t0)
            else:
                wrong += 1
                reasons[why] = reasons.get(why, 0) + 1
        i += 1
        if t1 >= t_end:
            break
    return {"workload": work.name, "attempted": i - first, "refused": refused,
            "wrong": wrong, "reasons": reasons, "latencies": latencies, "raw": raw,
            "refs": refs, "setup_ref": setup_ref, "first_monotonic": first_monotonic,
            "groups": groups, "next": i}


def warm_up(work, tracer: Tracer | None = None) -> int:
    """Run and discard the workload's warm-up ops; returns the next op index."""
    for i in range(work.warmup):
        if tracer:
            tracer.begin_op(SETUP_OP)
        try:
            work.op(work.make(i))
        except Exception:  # warm-up ops are discarded, refusals included
            pass
        finally:
            if tracer:
                tracer.end_op(None, False)
    return work.warmup


def summarize(res: dict) -> dict:
    """Throughput, median and tail of the ops that completed correctly.

    ``ops_per_s`` divides those ops by the time spent inside them, so input
    generation and checks between ops do not count. The metrics are at the
    reference speed; ``raw_*`` are the same figures as measured.
    """
    ok = len(res["latencies"])
    out = {"attempted": res["attempted"], "refused": res["refused"],
           "wrong": res["wrong"], "reasons": res["reasons"], "completed": ok,
           "reference_ms_median": float(np.median(np.frombuffer(res["refs"])))}
    if ok:
        for prefix, key in (("", "latencies"), ("raw_", "raw")):
            lat_ms = np.sort(1e3 * np.frombuffer(res[key]))
            out[prefix + "ops_per_s"] = ok / (float(lat_ms.sum()) / 1e3)
            out[prefix + "op_p50_ms"] = float(np.median(lat_ms))
            out["tail_percentile"], tail = tail_percentile(lat_ms, TAIL_PERCENTILE[res["workload"]])
            out[prefix + "op_tail_ms"] = float(tail)
        out["tail_samples"] = ok
    return out


def import_sample() -> tuple[float, float, float]:
    """One bare ``import buresgeo.cli`` wall time and one ``-X importtime`` split.

    Returns (wall ms, numpy cumulative ms, buresgeo's own cumulative ms).
    """
    code = "import buresgeo.cli"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)
    wall = time.perf_counter() - t0
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], check=True,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=60)
    cumulative = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
        if m:
            cumulative[m.group(2)] = int(m.group(1))
    # buresgeo.cli is imported last and its cumulative time covers the
    # package and numpy, which the package imports first.
    numpy_us = cumulative["numpy"]
    return 1e3 * wall, numpy_us / 1e3, (cumulative["buresgeo.cli"] - numpy_us) / 1e3


def merge(results: list[dict]) -> dict:
    """Pool the results of several ``run_ops`` blocks of one workload."""
    out = {"workload": results[0]["workload"], "latencies": array("d"), "raw": array("d"),
           "refs": array("d"),
           "groups": {}, "reasons": {}, "attempted": 0, "refused": 0, "wrong": 0,
           "next": results[-1]["next"]}
    for res in results:
        for key in ("latencies", "raw", "refs"):
            out[key] += res[key]
        for key in ("attempted", "refused", "wrong"):
            out[key] += res[key]
        for key, times in res["groups"].items():
            out["groups"].setdefault(key, []).extend(times)
        for key, count in res["reasons"].items():
            out["reasons"][key] = out["reasons"].get(key, 0) + count
    return out


def traced(args, workdir: str) -> dict:
    """Per-layer metrics of one workload, plus the CLI layer on every workload.

    For two thirds of ``--seconds``, blocks of the workload's ops with the
    wrappers on and off alternate, so both see the same machine and their
    throughput ratio is the tracing overhead. The last third runs
    cli-session's subprocess ops, which time each subcommand, with one
    start-up and import sample after each of its blocks. The CLI's cost does
    not depend on the workload, so every traced run reports it; its set-up
    replays each argv in-process under the wrappers, so every layer's
    per-call time is measured in every traced run.
    """
    tracer = Tracer()
    tracer.install(buresgeo)
    tracer.begin_op(SETUP_OP)
    work = make_workload(args.workload, args.seed, workdir, in_process=True)
    cli_work = CliSession(args.seed, workdir)
    tracer.end_op(None, False)
    nxt = warm_up(work, tracer)
    blocks: dict[bool, list[dict]] = {True: [], False: []}
    for b in range(max(2, round(2 * args.seconds / 3 / TRACE_BLOCK_S))):
        on = b % 2 == 0
        tracer.enable(on)
        res = run_ops(work, nxt, TRACE_BLOCK_S, tracer if on else None)
        blocks[on].append(res)
        nxt = res["next"]
    tracer.enable(False)
    on, off = merge(blocks[True]), merge(blocks[False])
    layers = tracer.layer_metrics(on["attempted"])
    tracer.dump(os.path.join(OUT_DIR, f"spans-{args.workload}.tsv.gz"))
    phases = {"traced": summarize(on), "untraced": summarize(off)}
    layers["trace.overhead_frac"] = (phases["untraced"]["raw_ops_per_s"]
                                     / phases["traced"]["raw_ops_per_s"] - 1.0)
    cli_blocks, samples = [], []
    for _ in range(IMPORT_SAMPLES):
        res = run_ops(cli_work, nxt, args.seconds / 3 / IMPORT_SAMPLES,
                      group_by=lambda k: cli_work.commands[k][0][0])
        cli_blocks.append(res)
        nxt = res["next"]
        samples.append(import_sample())
    res = merge(cli_blocks)
    for sub in CliSession.SUBCOMMANDS:
        times = res["groups"].get(sub)
        layers[f"cli.{sub}.p50_ms"] = 1e3 * float(np.median(times)) if times else 0.0
    phases["cli_subprocess"] = summarize(res)
    startup_ms, numpy_ms, own_ms = (float(np.median(col)) for col in zip(*samples))
    layers["cli.import_numpy_ms"] = numpy_ms
    layers["cli.import_buresgeo_ms"] = own_ms
    layers["cli.startup_share"] = startup_ms / phases["cli_subprocess"]["raw_op_p50_ms"]
    totals = {key: sum(ph[key] for ph in phases.values())
              for key in ("attempted", "refused", "wrong")}
    # The probe does not depend on the workload either; wrappers are off.
    probe = conditioning_probe(args.seed)
    layers["geodesy.cond1e-6.refusal_share"] = probe["refused"] / probe["pairs"]
    layers["geodesy.cond1e-6.op_ms"] = probe["op_ms_p50"]
    return {"layers": layers, "phases": phases, "startup_ms": startup_ms,
            "known_defect": probe, **totals}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--corrupt-every", type=int, default=0)
    args = parser.parse_args()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        if args.mode == "traced":
            result = traced(args, workdir)
        else:
            work = make_workload(args.workload, args.seed, workdir)
            first = warm_up(work)
            if args.mode == "setup":
                # Same steps as the start of run_ops, which timed mode takes.
                ref = reference_ms()
                gc.collect()
                result = {"first_op_monotonic": time.monotonic(), "scale": REF_MS / ref}
            else:
                res = run_ops(work, first, args.seconds, corrupt_every=args.corrupt_every)
                who = (resource.RUSAGE_CHILDREN if args.workload == CliSession.name
                       else resource.RUSAGE_SELF)
                peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
                result = summarize(res)
                result["peak_rss_mb"] = peak_rss_mb
                result["first_op_monotonic"] = res["first_monotonic"]
                result["scale"] = REF_MS / res["setup_ref"]
                if args.workload == GeodesicPairs.name:
                    result["known_defect"] = conditioning_probe(args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
