"""Self-test of the benchmark: short runs of every workload.

    python3 bench/smoke.py

Checks that the result line has exactly the contract keys, that every
metric named in BENCHMARK.json appears with its unit in the matching mode,
that no workload fails an op, that the conditioning probe counts the known
defect on geodesic-pairs and in every traced run, that deliberately corrupted outputs count as failed ops,
and that a directory holding only the benchmark exits non-zero without a
result. Takes about a minute; exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join("bench", "run.py")]


def run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([*RUN, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170, check=False)


def result(*args: str) -> dict:
    proc = run(*args)
    if proc.returncode != 0:
        raise SystemExit(f"run {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def detail(*args: str) -> dict:
    """The detail line printed just before the result."""
    proc = run(*args)
    if proc.returncode != 0:
        raise SystemExit(f"run {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-2])["detail"]


def check_metrics(res: dict, spec: list[dict], label: str) -> None:
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, (label, set(res))
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1, label
    assert isinstance(res["failed"], int), label
    expected = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == expected, (label, set(got) ^ set(expected))
    for name, m in res["metrics"].items():
        assert set(m) == {"value", "unit"} and math.isfinite(m["value"]), (label, name, m)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for w in (w["name"] for w in bench["workloads"]):
        common = ("--workload", w, "--seed", "0", "--seconds", "1")
        res = result(*common, "--trace", "0")
        check_metrics(res, bench["end_to_end"], f"{w} trace 0")
        assert res["correct"], w
        assert res["failed"] == 0, (w, res["failed"])
        if w == "geodesic-pairs":
            assert detail(*common, "--trace", "0")["known_defect"]["refused"] > 0, \
                "the conditioning refusals must show"
        traced = result(*common, "--trace", "1")
        check_metrics(traced, bench["per_layer"], f"{w} trace 1")
        assert traced["metrics"]["geodesy.cond1e-6.refusal_share"]["value"] > 0, w
        bad = result(*common, "--trace", "0", "--corrupt-every", "5")
        assert not bad["correct"], w
        assert bad["failed"] >= math.ceil(bad["attempted"] / 5), (w, bad)
        print(f"ok {w}: {res['attempted']} ops, {res['failed']} failed; "
              f"corrupted run failed {bad['failed']} of {bad['attempted']}")
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".bench_out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "bench"), os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("--workload", "geodesic-pairs", "--seed", "0", "--seconds", "1",
                   "--trace", "0", cwd=bare)
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare)
    print("ok: a directory without the library source exits non-zero with no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
