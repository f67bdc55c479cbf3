"""The one binding to the compiled library: every function ``_ucb.c``
defines is declared, and a declared function takes only the arrays its C
parameters can read."""

import ctypes
import re
from pathlib import Path

import numpy as np
import pytest

from procure2d import RewardRealization, _native, bandit, sample_reward_realization


def arguments(name):
    """Valid arguments of one declared function, inputs read-only, and the
    positions of its output arrays."""
    rng = np.random.default_rng(5)
    if name == "ucb_run":
        table = sample_reward_realization([0.9, 0.5, 0.7], 12, 0).table
        args = [3, 12, 10.0, np.array([0.2, 0.5, 0.9]), np.full(3, 5, dtype=np.int64), table,
                bandit._bonus_widths(12).copy(), bandit._inv_sqrt_counts(13).copy(),
                np.full(3, -7, dtype=np.int64), np.full(3, -7, dtype=np.int64), 9,
                np.full(9, -7, dtype=np.int64), np.full(9, 7, dtype=np.uint8), np.full(9, -7.0),
                np.full(1, -7.0)]
        outputs = {8, 9, 11, 12, 13, 14}
    elif name == "ucb_batch":
        table = RewardRealization(rng.random((2, 3, 12)) < 0.7).table
        args = [2, 3, 12, 10.0, np.array([[0.2, 0.5, 0.9], [0.9, 0.2, 0.5]]),
                np.full(3, 5, dtype=np.int64), table, bandit._bonus_widths(12).copy(),
                bandit._inv_sqrt_counts(13).copy(), np.full((2, 3), -7, dtype=np.int64),
                np.full((2, 3), -7, dtype=np.int64)]
        outputs = {9, 10}
    elif name == "seed_streams":
        # Pieces [5, 9], [7] and []: rows (entropy [5, 9], key (7,)) and
        # (entropy [5, 9], key ()).
        args = [2, np.array([5, 9, 7], dtype=np.uint32),
                np.array([[0, 2], [2, 1], [3, 0]], dtype=np.int64),
                np.array([[0, 1], [0, 2]], dtype=np.int64), np.full((2, 4), 7, dtype=np.uint64)]
        outputs = {4}
    else:
        args = [2, 3, 0.4, rng.random((2, 3)) * 0.5, np.array([0.5, 0.75]),
                np.arange(1, 9, dtype=np.uint64).reshape(2, 4), np.full((2, 3), -7.0),
                np.full((2, 3), -7.0)]
        outputs = {5, 6, 7}
    for k, arg in enumerate(args):
        if isinstance(arg, np.ndarray) and k not in outputs:
            arg.flags.writeable = False
    return args, outputs


def wrong_dtype(a):
    return a.astype(np.float32 if a.dtype == np.float64 else np.float64)


def strided(a):
    wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1],), a.dtype)
    wide[..., ::2] = a
    return wide[..., ::2]


def read_only(a):
    a = a.copy()
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("name", ["ucb_run", "ucb_batch", "seed_streams", "resample"])
def test_declared_function_refuses_an_array_it_cannot_take(name):
    args, outputs = arguments(name)
    func = getattr(_native._library(), name)
    given = {k: a.copy() for k, a in enumerate(args) if isinstance(a, np.ndarray)}
    kinds = set()
    for k, arg in given.items():
        wrong = {"dtype": wrong_dtype(arg)}
        if arg.size > 1:
            wrong["layout"] = strided(arg)
        if k in outputs:
            wrong["read-only"] = read_only(arg)
        for kind, bad in wrong.items():
            with pytest.raises(ctypes.ArgumentError, match=f"^argument {k + 1}: TypeError"):
                func(*args[:k], bad, *args[k + 1:])
            kinds.add(kind)
    assert kinds == {"dtype", "layout", "read-only"}
    # No C code ran: every output still holds what it was given.
    assert all(args[k].tobytes() == a.tobytes() for k, a in given.items())
    # The same arrays are taken, read-only inputs included (a reward table as
    # RewardRealization holds it), and the C code writes every output.
    assert func(*args) == {"ucb_run": 12, "seed_streams": None}.get(name, 0)
    assert not any(args[k].tobytes() == given[k].tobytes() for k in outputs)


def test_every_c_function_is_declared():
    # A C function with no declared signature would take its arguments
    # through ctypes' default int conversions.
    source = Path(_native._SOURCE).read_text()
    defined = re.findall(r"^(?!static\b)\w[\w \t*]*?\b(\w+)\([^;{]*\)\s*\{", source, re.M)
    assert sorted(defined) == sorted(_native._SIGNATURES)


@pytest.mark.parametrize("name, status, error, message", [
    ("ucb_run", -1, MemoryError, "out of memory in the UCB round loop"),
    ("ucb_batch", -1, MemoryError, "out of memory in the UCB round loop"),
    ("resample", -1, MemoryError, "out of memory in the resampler"),
    ("resample", -2, RuntimeError, "resampling recursion exceeded the iteration cap"),
    ("resample", -3, ValueError, "bid costs must be at most cost_hi 1.0, got 1.2"),
])
def test_failure_status_raises_its_exception(name, status, error, message):
    func = getattr(_native._library(), name)
    args, _ = arguments(name)
    if status == -3:
        args[3], args[4] = np.array([[0.3, 1.2]]), np.array([1.0])
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        func.errcheck(status, func, tuple(args))
