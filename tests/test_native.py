"""The one binding to the compiled library: every function ``_ucb.c``
defines is declared, and a declared function takes only the arrays its C
parameters can read."""

import ctypes
import re
from pathlib import Path

import numpy as np
import pytest

from procure2d import RewardRealization, _native, bandit


def arguments(name):
    """Valid arguments of one declared function, inputs read-only, and the
    positions of its output arrays."""
    rng = np.random.default_rng(5)
    if name == "ucb_run":
        # Two traced samples on undrawn rows: the traced call writes every
        # output, and draws the rows it reads into the table, an input that a
        # whole table passes read-only.
        table = RewardRealization(rng.random((2, 3, 12)) < 0.7).table
        args = [2, 3, 12, 10.0, np.array([[0.2, 0.5, 0.9], [0.9, 0.2, 0.5]]),
                np.full(3, 5, dtype=np.int64), np.array([0.3, 0.6, 0.9]),
                np.arange(1, 25, dtype=np.uint64).reshape(2, 3, 4), np.zeros((2, 3), np.int64),
                table, bandit._bonus_widths(12).copy(), bandit._inv_sqrt_counts(13).copy(),
                np.full((2, 3), -7, dtype=np.int64), np.full((2, 3), -7, dtype=np.int64), 9,
                np.full((2, 9), -7, dtype=np.int64), np.full((2, 9), 7, dtype=np.uint8),
                np.full((2, 9), -7.0)]
        outputs = {7, 8, 12, 13, 15, 16, 17}
    elif name == "row_streams":
        # Two tables of three rows, 12 uniforms each.
        args = [2, 3, 12, np.arange(1, 9, dtype=np.uint64).reshape(2, 4),
                np.full((2, 3, 4), 7, dtype=np.uint64)]
        outputs = {4}
    elif name == "draw_rows":
        # Two undrawn rows of 12 outcomes, drawn through 5 and 12.
        args = [2, 2, 12, np.array([0.3, 0.8]), np.arange(1, 9, dtype=np.uint64).reshape(2, 4),
                np.zeros(2, dtype=np.int64), np.array([5, 12], dtype=np.int64),
                np.full((2, 12), 7, dtype=np.uint8)]
        outputs = {4, 5, 7}
    elif name == "count_rows":
        # Three windows of a 2x12 table: a whole row, an empty window and
        # one ending at the width.
        args = [3, 12, (rng.random((2, 12)) < 0.5).astype(np.uint8),
                np.array([0, 1, 1], dtype=np.int64), np.array([0, 4, 3], dtype=np.int64),
                np.array([12, 4, 12], dtype=np.int64), np.full(3, -7, dtype=np.int64)]
        outputs = {6}
    elif name == "seed_streams":
        # Pieces [5, 9], [7] and [], of lengths 2, 1 and 0: rows (entropy
        # [5, 9], key (7,)) and (entropy [5, 9], key ()).
        args = [2, np.array([5, 9, 7], dtype=np.uint32), 3, np.array([2, 1, 0], dtype=np.int64),
                np.array([[0, 1], [0, 2]], dtype=np.int64), np.full((2, 4), 7, dtype=np.uint64)]
        outputs = {5}
    elif name == "resample":
        args = [2, 3, 0.4, rng.random((2, 3)) * 0.5, np.array([0.5, 0.75]),
                np.arange(1, 9, dtype=np.uint64).reshape(2, 4), np.full((2, 3), -7.0),
                np.full((2, 3), -7.0)]
        outputs = {5, 6, 7}
    else:
        raise KeyError(f"no arguments for {name}: give each declared function its own branch")
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


@pytest.mark.parametrize("name", sorted(_native._SIGNATURES))
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
    assert func(*args) == 0
    assert not any(args[k].tobytes() == given[k].tobytes() for k in outputs)


def test_every_c_function_is_declared():
    # A C function with no declared signature would take its arguments
    # through ctypes' default int conversions.
    source = Path(_native._SOURCE).read_text()
    defined = re.findall(r"^(?!static\b)\w[\w \t*]*?\b(\w+)\([^;{]*\)\s*\{", source, re.M)
    assert sorted(defined) == sorted(_native._SIGNATURES)


@pytest.mark.parametrize("name, status, error, message", [
    ("ucb_run", -1, MemoryError, "out of memory in the UCB round loop"),
    ("seed_streams", -1, MemoryError, "out of memory in the stream seeding"),
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
