"""Layer spans for the procure2d benchmark, recorded from outside the package.

A ``Tracer`` replaces the module attributes that callers look up (for
example ``procure2d.harness.run_2d_ucb``, which ``_run_cell`` calls) with
timing wrappers, and puts the originals back on ``uninstall``.  Spans are
kept in memory as tuples ``(name, start, end, parent, repeat, counts)``;
``parent`` is the index of the enclosing span or -1, and ``counts`` holds the
work a call did, computed from its arguments and result.
"""

from __future__ import annotations

import gzip
import importlib
import json
from time import perf_counter


def _ucb_counts(args, kwargs, outcome):
    outcome = outcome[0]
    return {"rounds": int(outcome.allocation.sum()), "units": int(args[0].units)}


def _batch_counts(args, kwargs, result):
    units = result[0]
    samples = units.shape[0]
    rounds = int(units.sum(axis=1).max()) if samples else 0
    return {"samples": samples, "rounds": rounds, "sample_rounds": samples * rounds,
            "units": int(units.sum())}


def _draw_counts(args, kwargs, result):
    return {"draws": int(result[0].size)}


def _table_counts(args, kwargs, realization):
    n, units = realization.table.shape
    return {"bytes": n * units}


# (module, attribute looked up by the callers, span name, counter).  A span is
# named after the module that defines the function, whichever caller it wraps.
WRAPPED = [
    ("procure2d.cli", "main", "cli.main", None),
    ("procure2d.harness", "run_experiment", "harness.run_experiment", None),
    ("procure2d.harness", "emit_results", "harness.emit_results", None),
    ("procure2d.harness", "run_2d_ucb", "bandit.run_2d_ucb", _ucb_counts),
    ("procure2d.harness", "run_eps_separated", "bandit.run_eps_separated", None),
    ("procure2d.harness", "run_2d_opt", "optimal.run_2d_opt", None),
    ("procure2d.harness", "sample_reward_realization", "model.sample_reward_realization",
     _table_counts),
    ("procure2d.bandit", "self_resample", "resample.self_resample", None),
    ("procure2d.bandit", "run_2d_opt", "optimal.run_2d_opt", None),
    ("procure2d.optimal", "alloc_greedy", "allocation.alloc_greedy", None),
    ("procure2d.audits", "run_ucb_batch", "bandit.run_ucb_batch", _batch_counts),
    ("procure2d.audits", "resample_batch", "resample.resample_batch", _draw_counts),
    ("procure2d.audits", "run_2d_opt", "optimal.run_2d_opt", None),
    ("procure2d.audits", "make_ucb_batch_utility", "audits.make_ucb_batch_utility", None),
    ("procure2d.audits", "audit_resampler", "audits.audit_resampler", None),
    ("procure2d.audits", "audit_monotone_allocation", "audits.audit_monotone_allocation",
     None),
    ("procure2d.audits", "audit_offered_utility", "audits.audit_offered_utility", None),
    ("procure2d.audits", "audit_dsic", "audits.audit_dsic", None),
    ("procure2d.audits", "audit_stochastic_bic", "audits.audit_stochastic_bic", None),
    ("procure2d.audits", "audit_iia", "audits.audit_iia", None),
]


class Tracer:
    """In-memory span recorder; ``repeat`` tags the spans of the current repeat."""

    def __init__(self):
        self.spans: list = []
        self.repeat = 0
        self._stack: list[int] = []
        self._originals: list = []

    def install(self) -> None:
        for module_name, attr, name, counter in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.repeat, None)
            if counter is not None:
                spans[sid] = (name, start, end, parent, self.repeat,
                              counter(args, kwargs, result))
            return result

        return wrapper

    def totals(self, repeat: int) -> dict[str, dict[str, float]]:
        """Per span name for one repeat: calls, total seconds ``s``, self
        seconds ``self_s`` (duration minus the time covered by child spans),
        summed counts; under ``"top"``, the time in spans without a parent."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, rep, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        top_s = 0.0
        for sid, (name, start, end, parent, rep, counts) in enumerate(self.spans):
            if rep != repeat:
                continue
            t = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["s"] += end - start
            t["self_s"] += end - start - child_s[sid]
            for key, value in (counts or {}).items():
                t[key] = t.get(key, 0) + value
            if parent < 0:
                top_s += end - start
        out["top"] = {"s": top_s}
        return out

    def write(self, path) -> None:
        """All spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt") as fh:
            for sid, (name, start, end, parent, rep, counts) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "repeat": rep, "counts": counts}) + "\n")
