"""The benchmark's own output gate: one pass of a workload, run as the
benchmark's warm-up pass runs it (under an installed ``Tracer``), must pass
that workload's check, so a change that the benchmark would count as failed
fails here first."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracer = _load("tracer")


def traced_pass(name, seed, out_dir):
    """The problems one traced pass over every part of workload ``name``
    finds, and the pass's per-layer totals."""
    wl = workloads.WORKLOADS[name]
    trace = tracer.Tracer()
    problems = []
    for part in wl.parts(wl.build(seed)):
        with trace:
            result = wl.run(part, str(out_dir))
        wl.finish(part, result, str(out_dir))
        problems += wl.check(part, result, str(out_dir))
    return problems, trace.totals(0)


@pytest.mark.parametrize("seed", [0, 31])
@pytest.mark.parametrize("name", ["trend-grid", "default-column"])
def test_grid_workload_passes_its_check(name, seed, tmp_path):
    problems, _ = traced_pass(name, seed, tmp_path)
    assert problems == []


def test_verify_workload_passes_its_check(tmp_path):
    problems, totals = traced_pass("verify", 0, tmp_path)
    assert problems == []
    assert totals["bandit.run_ucb_batch"]["samples"] > 0
