"""The benchmark's workloads: inputs made from a seed, the timed call, and
the output check that feeds ``failed``.

Every workload runs in one process with ``threads=1``.  The process pool is
not measured: on a two-core machine its run-to-run spread is wider than the
benchmark's bounds.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import statistics
import time
from dataclasses import dataclass, replace
from typing import Callable

from procure2d import cli, harness

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# References are recorded for master seeds 0..REFERENCE_SEEDS-1; ``--seed s``
# runs master seed ``s % REFERENCE_SEEDS``.  Seed 0 is the development default;
# seed 31 is held out, for re-checking a claim on a seed not used while the
# change was written.
REFERENCE_SEEDS = 32

# criterion-9 grid of the acceptance suite, with one type sample per repeat:
# short repeats let the reference kernel around each follow the host's speed.
TREND_L_GRID = (1000, 3162, 10000)
TREND_TYPE_SAMPLES = 1
TREND_REALIZATIONS = 20
COLUMN_REALIZATIONS = 2
# ``verify`` runs a fixed list of verify seeds, one per repeat; the benchmark
# seed only rotates their order.  A single verify seed's cost ranges over 3x
# (0.5-1.7 s), so a seed-dependent list would spread far beyond the bounds.
VERIFY_SEEDS = (0, 1, 2, 3)

RESULT_COLUMNS = ("mechanism", "L", "mean_utility_per_unit", "replications")


def master_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


# -- output checks -----------------------------------------------------------


def reference_columns(csv_text: str) -> str:
    """The ``mechanism,L,mean_utility_per_unit,replications`` columns of a
    ``results.csv``, as text compared byte for byte with the reference."""
    lines = csv_text.splitlines()
    header = lines[0].split(",")
    keep = [header.index(col) for col in RESULT_COLUMNS]
    return "".join(",".join(line.split(",")[k] for k in keep) + "\n" for line in lines)


def check_results_csv(csv_text: str, reference_text: str) -> list[str]:
    """Problems with an emitted ``results.csv``: the reference columns must
    equal the reference byte for byte; ``stderr`` must be finite and >= 0
    (its values are not pinned, so that a corrected estimator can land)."""
    problems = []
    try:
        columns = reference_columns(csv_text)
        lines = csv_text.splitlines()
        col = lines[0].split(",").index("stderr")
    except (IndexError, ValueError) as exc:
        return [f"results.csv unreadable: {exc!r}"]
    if columns != reference_text:
        problems.append("results.csv differs from the reference")
    for line in lines[1:]:
        try:
            value = float(line.split(",")[col])
        except (IndexError, ValueError):
            value = math.nan
        if not (math.isfinite(value) and value >= 0.0):
            problems.append(f"stderr not finite and >= 0 in row {line!r}")
    return problems


def check_verify(runs: list[tuple[int, str]]) -> list[str]:
    """Problems with ``verify`` runs given as (exit code, stdout): each must
    exit 0 and print at least one audit line, every one with ``status=pass``."""
    problems = []
    for code, text in runs:
        if code != 0:
            problems.append(f"verify exited {code}")
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            problems.append("verify printed no audit line")
        problems.extend(f"audit not passed: {line}" for line in lines
                        if " status=pass " not in f"{line} ")
    return problems


def read_reference(workload: str, seed: int) -> str:
    with open(reference_path(workload, seed)) as fh:
        return fh.read()


def reference_path(workload: str, seed: int) -> str:
    return os.path.join(REFERENCE_DIR, workload, f"seed-{master_seed(seed):02d}.csv")


# -- workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """A pass over the workload runs each of ``parts(inputs)`` once.
    ``run(part, out_dir)`` is one timed repeat; ``finish(part, result,
    out_dir)`` writes what the check reads, untimed; ``check(part, result,
    out_dir)`` returns the problems found; ``replications(inputs, totals)``
    counts one pass's work from its config or from a traced pass's
    per-layer totals."""

    name: str
    build: Callable
    run: Callable
    finish: Callable
    check: Callable
    replications: Callable
    parts: Callable = lambda inputs: [inputs]


def _results_paths(out_dir):
    return os.path.join(out_dir, "results.csv"), os.path.join(out_dir, "results.svg")


def _read_results(out_dir) -> str:
    with open(_results_paths(out_dir)[0]) as fh:
        return fh.read()


def _check_csv(workload):
    def check(config, result, out_dir):
        return check_results_csv(_read_results(out_dir),
                                 read_reference(workload, config.master_seed))
    return check


def results_csv(name: str, seed: int, out_dir: str) -> str:
    """Run one repeat of a grid workload; return the ``results.csv`` it emits."""
    wl = WORKLOADS[name]
    config = wl.build(seed)
    wl.finish(config, wl.run(config, out_dir), out_dir)
    return _read_results(out_dir)


def _grid_replications(config, totals):
    return config.type_samples * len(config.l_grid) * config.realizations


def _trend_build(seed):
    return harness.ExperimentConfig(
        l_grid=TREND_L_GRID, type_samples=TREND_TYPE_SAMPLES,
        realizations=TREND_REALIZATIONS, master_seed=master_seed(seed),
    )


def _trend_run(config, out_dir):
    rows = harness.run_experiment(config)
    harness.emit_results(rows, *_results_paths(out_dir))
    return rows


def _column_build(seed):
    return harness.ExperimentConfig(
        type_samples=1, realizations=COLUMN_REALIZATIONS, master_seed=master_seed(seed)
    )


def _column_run(config, out_dir):
    return harness.run_experiment(config)


def _column_finish(config, rows, out_dir):
    harness.emit_results(rows, *_results_paths(out_dir))


def _verify_build(seed):
    k = seed % len(VERIFY_SEEDS)
    order = VERIFY_SEEDS[k:] + VERIFY_SEEDS[:k]
    return [["verify", "--seed", str(s)] for s in order]


def _verify_run(argvs, out_dir):
    runs = []
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        runs.append((code, buf.getvalue()))
    return runs


def _verify_replications(argvs, totals):
    return totals["bandit.run_ucb_batch"]["samples"]


def default_grid_core_h(config, wall_s: float) -> float:
    """Core-hours of the default ``simulate`` grid extrapolated from one
    column repeat: sum over the default budgets of (seconds per replication
    at L) x 200 type samples x 100 realizations / 3600."""
    default = harness.ExperimentConfig()
    per_replication = wall_s / (config.type_samples * config.realizations)
    return per_replication * default.type_samples * default.realizations / 3600.0


def default_grid_extrapolation(config, small_runs: int = 5, realizations: int = 100) -> float:
    """Predicted over measured time of one full ``realizations`` cell at the
    smallest default budget.  The prediction scales the column's own cell at
    that budget (same type sample, same reward streams), timed ``small_runs``
    times, linearly in the realization count, as ``default_grid_core_h``
    does."""
    cell = replace(config, l_grid=config.l_grid[:1])
    small = []
    for _ in range(small_runs):
        start = time.perf_counter()
        harness.run_experiment(cell)
        small.append(time.perf_counter() - start)
    start = time.perf_counter()
    harness.run_experiment(replace(cell, realizations=realizations))
    measured = time.perf_counter() - start
    return statistics.median(small) / cell.realizations * realizations / measured


WORKLOADS = {
    w.name: w
    for w in [
        Workload("trend-grid", _trend_build, _trend_run, lambda *a: None,
                 _check_csv("trend-grid"), _grid_replications),
        Workload("default-column", _column_build, _column_run, _column_finish,
                 _check_csv("default-column"), _grid_replications),
        Workload("verify", _verify_build, _verify_run, lambda *a: None,
                 lambda argvs, runs, out_dir: check_verify(runs), _verify_replications,
                 lambda argvs: [[argv] for argv in argvs]),
    ]
}
