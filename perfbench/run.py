"""Benchmark of the procure2d package.

    python3 perfbench/run.py --workload trend-grid --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one process each
    python3 perfbench/run.py --self-test         # every output check fails on tampered output

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  One run:

1. set-up: ``SETUP_RUNS`` fresh interpreters each import ``procure2d`` and
   build the workload inputs;
2. one untimed warm-up pass over the workload's parts, traced, which also
   counts a pass's work;
3. timed repeats, one part at a time in turn, until ``--seconds`` have passed
   and the last pass is whole, each output checked.  With ``--trace 1`` a
   traced pass follows every untraced pass, and the per-layer metrics come
   from the traced passes.

The host is shared, and its speed drifts by a third and more in phases that
outlast a run.  So each untraced repeat is bracketed by a fixed reference
kernel (``reference_kernel``), which calls nothing of the package, and the
bounded time metrics are in units of that kernel's time: a repeat's wall time
over the mean of the two kernel times around it, its median per part, summed
over the parts (``wall_ref``).  The raw ``wall_s`` is printed and recorded
beside it.

Human-readable lines (median, quartiles and repeat count per metric, plus the
machine stamp) precede the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record goes to
``.bench_out/`` in the checkout, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("trend-grid", "default-column", "verify")
SETUP_RUNS = 5
MIN_REPEATS = 3
# Reported beside the BENCHMARK.json metrics: ``error_rate`` reads 0 whenever
# the run is correct, so no relative bound fits it; the raw times drift with
# the host's speed by more than any bound allowed.
EXTRA_UNITS = {"error_rate": "ratio", "wall_s": "s", "replications_per_s": "1/s"}

# Run in a fresh interpreter: time ``import procure2d``, then building the
# workload inputs, up to the first timed call.
_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import procure2d
t1 = time.perf_counter()
import workloads
workloads.WORKLOADS[sys.argv[3]].build(int(sys.argv[4]))
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""


_REFERENCE_ARRAY = numpy.random.default_rng(0).random((256, 4096))


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of scalar float arithmetic in the
    interpreter and array arithmetic in numpy, the two kinds of work the
    workloads do.  It calls nothing of the package, so only the host's speed
    moves it."""
    start = time.perf_counter()
    acc, xs = 0.0, [0.5, 1.5, 2.5, 3.5]
    for t in range(2, 150_000):
        width = math.sqrt(0.5 * math.log(t))
        for x in xs:
            if x + 0.1 * width > acc:
                acc = x - 1.0
    for _ in range(20):
        acc += float((_REFERENCE_ARRAY * 1.0001).sum(axis=0).argmax())
    return time.perf_counter() - start


class BenchError(Exception):
    """The benchmark cannot run here."""


def _summary(values):
    values = sorted(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _pass_summary(per_part: list[list[float]]) -> dict:
    """A whole pass over a workload's parts: the sum over the parts of each
    part's median, and likewise of its quartiles; ``n`` counts whole passes."""
    parts = [_summary(values) for values in per_part]
    out = {key: sum(s[key] for s in parts) for key in ("value", "q1", "q3")}
    return {**out, "n": min(s["n"] for s in parts)}


def _per_unit(work: float, times: dict) -> dict:
    """``work`` per unit of a time summary; the quartiles swap places."""
    return {"value": work / times["value"], "q1": work / times["q3"],
            "q3": work / times["q1"], "n": times["n"]}


def _setup_probe(workload: str, seed: int) -> tuple[float, float, float]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, SRC, HERE, workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    import_s, inputs_s = map(float, proc.stdout.split())
    return wall, import_s, inputs_s


def import_package():
    if not os.path.isfile(os.path.join(SRC, "procure2d", "__init__.py")):
        raise BenchError(f"no procure2d sources under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import procure2d

    if os.path.dirname(os.path.dirname(os.path.abspath(procure2d.__file__))) != SRC:
        raise BenchError(f"procure2d imported from {procure2d.__file__}, not {SRC}")


def _stamp(repeats: int) -> dict:
    import scipy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        sha = git.stdout.strip() if git.returncode == 0 else "unavailable"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unavailable"
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_sha": sha, "repeats": repeats}


def _layer_values(totals: dict, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced repeat, named ``<module>.<function>.<key>``."""

    def get(span, key):
        return totals.get(span, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    ucb, batch = "bandit.run_2d_ucb", "bandit.run_ucb_batch"
    values = {
        f"{ucb}.ns_per_round": ratio(get(ucb, "self_s") * 1e9, get(ucb, "rounds")),
        f"{ucb}.fill_ratio": ratio(get(ucb, "rounds"), get(ucb, "units")),
        f"{batch}.ns_per_sample_round": ratio(get(batch, "s") * 1e9,
                                              get(batch, "sample_rounds")),
        f"{batch}.active_ratio": ratio(get(batch, "units"), get(batch, "sample_rounds")),
        "model.reward_table.bytes": get("model.sample_reward_realization", "bytes"),
        "trace.coverage": ratio(totals["top"]["s"], wall),
    }
    for span, t in totals.items():
        for key, value in t.items():
            values.setdefault(f"{span}.{key}", value)
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    import_package()
    setup = [_setup_probe(name, seed) for _ in range(SETUP_RUNS)]
    import workloads
    from tracer import Tracer

    wl = workloads.WORKLOADS[name]
    inputs = wl.build(seed)
    out_dir = os.path.join(OUT, name)
    os.makedirs(out_dir, exist_ok=True)

    attempted = failed = 0
    problems_seen: list[str] = []

    def check(part, result):
        nonlocal attempted, failed
        wl.finish(part, result, out_dir)
        problems = wl.check(part, result, out_dir)
        attempted += 1
        failed += bool(problems)
        problems_seen.extend(problems[:max(0, 10 - len(problems_seen))])

    parts = wl.parts(inputs)

    def full_pass(tracer: Tracer) -> float:
        """One traced pass over every part; returns its wall time."""
        wall = 0.0
        for part in parts:
            with tracer:
                start = time.perf_counter()
                result = wl.run(part, out_dir)
                wall += time.perf_counter() - start
            check(part, result)
        return wall

    warm = Tracer()
    full_pass(warm)
    replications = wl.replications(inputs, warm.totals(0))

    # Per part: the untraced repeats' wall times, and the reference kernel
    # times just before and just after each.
    walls: list[list[float]] = [[] for _ in parts]
    kernels: list[list[tuple[float, float]]] = [[] for _ in parts]
    traced_walls: list[float] = []
    overheads: list[float] = []
    tracer = Tracer()
    reference_kernel()  # warm-up
    after = None
    k = 0
    deadline = time.perf_counter() + seconds
    while k % len(parts) or min(map(len, walls)) < MIN_REPEATS or time.perf_counter() < deadline:
        p = k % len(parts)
        before = after if after is not None else reference_kernel()
        start = time.perf_counter()
        result = wl.run(parts[p], out_dir)
        wall = time.perf_counter() - start
        after = reference_kernel()
        walls[p].append(wall)
        kernels[p].append((before, after))
        check(parts[p], result)
        k += 1
        if trace and k % len(parts) == 0:
            tracer.repeat = len(traced_walls)
            traced = full_pass(tracer)
            traced_walls.append(traced)
            # Paired with the untraced pass just before it.
            overheads.append(traced - sum(ws[-1] for ws in walls))
            after = None
    rel_walls = [[2.0 * w / (b + a) for w, (b, a) in zip(ws, ks)]
                 for ws, ks in zip(walls, kernels)]

    wall_s = _pass_summary(walls)
    wall_ref = _pass_summary(rel_walls)
    summaries = {
        "setup_s": _summary([s[0] for s in setup]),
        "wall_ref": wall_ref,
        "replications_per_ref": _per_unit(replications, wall_ref),
        "wall_s": wall_s,
        "replications_per_s": _per_unit(replications, wall_s),
        "peak_rss_mb": _summary(
            [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]),
        "error_rate": _summary([failed / attempted]),
    }
    if name == "default-column":
        summaries["default_grid.core_h"] = _summary(
            [workloads.default_grid_core_h(inputs, w) for w in walls[0]])
    wanted = spec["end_to_end"]

    if trace:
        per_repeat = [_layer_values(tracer.totals(r), w) for r, w in enumerate(traced_walls)]
        for key in set().union(*per_repeat):
            summaries[key] = _summary([v.get(key, 0) for v in per_repeat])
        summaries["setup.import_s"] = _summary([s[1] for s in setup])
        summaries["setup.inputs_s"] = _summary([s[2] for s in setup])
        summaries["trace.overhead_s"] = _summary(overheads)
        if name == "default-column":
            summaries["default_grid.extrapolation_ratio"] = _summary(
                [workloads.default_grid_extrapolation(inputs)])
        wanted = spec["per_layer"]
        tracer.write(os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl.gz"))

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(EXTRA_UNITS)
    summaries = {key: {**s, "unit": units[key]} for key, s in summaries.items() if key in units}
    for m in wanted:
        # A layer that does not run in this workload reports 0.
        summaries.setdefault(m["name"], {"value": 0.0, "q1": 0.0, "q3": 0.0, "n": 0,
                                         "unit": m["unit"]})
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "stamp": _stamp(len(traced_walls) if trace else min(map(len, walls))),
        "attempted": attempted, "failed": failed, "problems": problems_seen,
        "metrics": summaries,
        "samples": {"wall_s": walls, "reference_kernel_s": kernels},
    }
    with open(os.path.join(OUT, f"result-{name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for problem in problems_seen:
        print(f"{name}: check failed: {problem}")
    for key, s in sorted(summaries.items()):
        print(f"{name} {key} = {s['value']:.6g} {s['unit']} "
              f"(median; q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    print(f"{name} stamp {json.dumps(record['stamp'])}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": summaries[m["name"]]["value"],
                                    "unit": m["unit"]} for m in wanted}}


def _run_all(args) -> dict:
    """Every workload in its own process, so each reports its own peak memory."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    return combined


def main(argv=None) -> int:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"benchmark error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that each output check fails on a tampered output")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        if args.self_test:
            import_package()
            import selftest

            return selftest.main(os.path.join(OUT, "selftest"))
        if args.workload == "all":
            result = _run_all(args)
        else:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), spec)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
