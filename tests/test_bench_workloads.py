"""The benchmark's own correctness checks pass on a few ops of every workload.

``bench/workloads.py`` is loaded by path, as the benchmark worker loads it,
and driven the way the worker drives it: make -> op -> check, where a check
returns None for a correct output. A library change that makes a workload's
output wrong, or its ill-conditioned probe refuse, fails here.
"""

import importlib.util
import pathlib

import pytest

WORKLOADS_PY = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
OPS = 32


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["geodesic-pairs", "path-sampling", "tangent-solve"])
def test_library_workload_checks_pass(workloads, name):
    work = workloads.WORKLOADS[name](1)
    for i in range(OPS):
        inp = work.make(i)
        assert work.check(inp, work.op(inp)) is None, (name, i)


def test_cli_session_checks_pass_in_process(workloads, tmp_path):
    work = workloads.CliSession(1, str(tmp_path), in_process=True)
    for k in range(len(work.commands)):
        inp = work.make(k)
        assert work.check(inp, work.op(inp)) is None, work.commands[k][0]


def test_conditioning_probe_refuses_and_breaks_nothing(workloads):
    probe = workloads.conditioning_probe(1)
    assert (probe["refused"], probe["wrong"]) == (0, 0), probe["reasons"]
