"""Building, caching and loading the compiled UCB round loop."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np

from procure2d import (
    Bid, MarketConfig, RewardRealization, _native, run_2d_ucb, uniform_type_distribution,
)

HERE = Path(__file__).parent

# Runs one batch in a fresh interpreter against the cache in argv[1].
BATCH_IN_CACHE = """
import sys
from procure2d import _native
from test_ucb_build import batch_run
_native._CACHE = sys.argv[1]
units, payments = batch_run()
print(units.tolist(), payments.tolist())
"""


def batch_run():
    """The allocation and payments of 200 learning runs on one stack, at the
    draws ``(alphas, alphas)``: virtual costs 0.2, 0.5 and 0.9."""
    rng = np.random.default_rng(3)
    tables = (rng.random((200, 3, 30)) < np.array([0.9, 0.7, 0.8])[None, :, None])
    alphas = rng.choice([0.1, 0.25, 0.45], (200, 3))
    market = MarketConfig(30, 30.0, (uniform_type_distribution(0.0, 1.0, 1, 12),) * 3)
    bids = [Bid(0.0, k) for k in (10, 12, 9)]
    outcome, _ = run_2d_ucb(market, bids, RewardRealization(tables), 0.1, (alphas, alphas))
    return outcome.allocation, outcome.payments


def test_cached_library_is_reused_without_the_compiler(tmp_path, monkeypatch):
    expected = batch_run()
    monkeypatch.setattr(_native, "_CACHE", str(tmp_path))
    monkeypatch.setattr(_native, "_LIB", None)
    _native._library()
    (built,) = tmp_path.iterdir()

    def no_compiler(*args, **kwargs):
        raise AssertionError(f"compiler invoked: {args}")

    monkeypatch.setattr(_native.subprocess, "run", no_compiler)
    monkeypatch.setattr(_native, "_LIB", None)
    units, payments = batch_run()
    assert units.tolist() == expected[0].tolist()
    assert payments.tolist() == expected[1].tolist()
    assert list(tmp_path.iterdir()) == [built]


def test_a_build_removes_the_caches_stale_builds(tmp_path, monkeypatch):
    # A build of another source or command, an unrelated file and a
    # concurrent build's temporary file sit in the cache: only the stale
    # build goes.
    for name in ("_ucb-0123456789abcdef.so", "notes.txt", "tmpk3x9q2.so"):
        (tmp_path / name).write_bytes(b"")
    monkeypatch.setattr(_native, "_CACHE", str(tmp_path))
    monkeypatch.setattr(_native, "_LIB", None)
    built = Path(_native._library()._name).name
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [built, "notes.txt", "tmpk3x9q2.so"])


def test_processes_building_into_one_cache_at_once_agree(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE.parent / "src"), str(HERE)]))
    procs = [
        subprocess.Popen([sys.executable, "-c", BATCH_IN_CACHE, str(tmp_path)], env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    outputs = [proc.communicate(timeout=120) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], outputs
    units, payments = batch_run()
    expected = f"{units.tolist()} {payments.tolist()}\n"
    assert [out for out, _ in outputs] == [expected, expected]
    # One library, and no half-written build left behind.
    assert [p.name for p in tmp_path.iterdir()] == [Path(_native._library()._name).name]


def test_source_compiles_without_warnings(tmp_path):
    # The build flags plus every common warning, as errors.
    command = shlex.split(_native._CC) + _native._CFLAGS + ["-Wall", "-Wextra", "-Werror"]
    proc = subprocess.run(command + ["-o", str(tmp_path / "_ucb.so"), _native._SOURCE],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
