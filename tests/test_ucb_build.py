"""Building, caching and loading the compiled UCB round loop."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np

from procure2d import (
    Bid, MarketConfig, RewardRealization, _native, run_ucb_batch, uniform_type_distribution,
)

HERE = Path(__file__).parent

# Runs one batch in a fresh interpreter against the cache in argv[1].
BATCH_IN_CACHE = """
import sys
from procure2d import _native, bandit
from test_ucb_build import batch_case
_native._CACHE = sys.argv[1]
units, successes = bandit.run_ucb_batch(*batch_case())
print(units.tolist(), successes.tolist())
"""


def batch_case():
    rng = np.random.default_rng(3)
    tables = (rng.random((200, 3, 30)) < np.array([0.9, 0.7, 0.8])[None, :, None])
    h = rng.choice([0.2, 0.5, 0.9], (200, 3))
    market = MarketConfig(30, 30.0, (uniform_type_distribution(0.0, 1.0, 1, 12),) * 3)
    bids = [Bid(0.0, k) for k in (10, 12, 9)]
    return market, bids, RewardRealization(tables), h


def test_cached_library_is_reused_without_the_compiler(tmp_path, monkeypatch):
    expected = run_ucb_batch(*batch_case())
    monkeypatch.setattr(_native, "_CACHE", str(tmp_path))
    monkeypatch.setattr(_native, "_LIB", None)
    _native._library()
    (built,) = tmp_path.iterdir()

    def no_compiler(*args, **kwargs):
        raise AssertionError(f"compiler invoked: {args}")

    monkeypatch.setattr(_native.subprocess, "run", no_compiler)
    monkeypatch.setattr(_native, "_LIB", None)
    units, successes = run_ucb_batch(*batch_case())
    assert units.tolist() == expected[0].tolist()
    assert successes.tolist() == expected[1].tolist()
    assert list(tmp_path.iterdir()) == [built]


def test_processes_building_into_one_cache_at_once_agree(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE.parent / "src"), str(HERE)]))
    procs = [
        subprocess.Popen([sys.executable, "-c", BATCH_IN_CACHE, str(tmp_path)], env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    outputs = [proc.communicate(timeout=120) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], outputs
    units, successes = run_ucb_batch(*batch_case())
    expected = f"{units.tolist()} {successes.tolist()}\n"
    assert [out for out, _ in outputs] == [expected, expected]
    # One library, and no half-written build left behind.
    assert [p.name for p in tmp_path.iterdir()] == [Path(_native._library()._name).name]


def test_source_compiles_without_warnings(tmp_path):
    # The build flags plus every common warning, as errors.
    command = shlex.split(_native._CC) + _native._CFLAGS + ["-Wall", "-Wextra", "-Werror"]
    proc = subprocess.run(command + ["-o", str(tmp_path / "_ucb.so"), _native._SOURCE],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
