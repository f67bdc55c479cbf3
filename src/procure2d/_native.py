"""The compiled library ``_ucb.c``: its cached build and load, and the
signature of every function it defines.  Callers pass numpy arrays straight
to the declared functions and get a negative status back as an exception."""

import ctypes
import hashlib
import os
import shlex
import subprocess
import sysconfig
import tempfile

import numpy as np

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_ucb.c")
# Where the compiled library is cached, and the compiler that builds it.
_CACHE = os.path.join(os.path.dirname(_SOURCE), "__pycache__")
_CC = sysconfig.get_config_var("CC") or "cc"
_CFLAGS = ["-O2", "-ffp-contract=off", "-shared", "-fPIC"]
_LIB = None


class UcbBuildError(OSError):
    """The C round loop could not be compiled or loaded."""


class ResampleCapError(RuntimeError):
    """The resampler still moved after its cap of passes: ``mu`` is too close
    to 1 for the geometric recursion to end."""


class _Array:
    """The argtype of a C-contiguous array of ``dtype``, writable when
    ``out``, checked before any C code runs, or of ``None`` (a NULL pointer)
    when ``optional``.  It passes the address as a ``c_void_p``: ctypes would
    pass a bare int as a C ``int``."""

    def __init__(self, dtype, out: bool = False, optional: bool = False):
        self.dtype, self.out, self.optional = np.dtype(dtype), out, optional

    def from_param(self, a):
        if a is None and self.optional:
            return None
        if not (isinstance(a, np.ndarray) and a.dtype == self.dtype and a.flags.c_contiguous
                and (a.flags.writeable or not self.out)):
            raise TypeError(f"expected a C-contiguous{' writable' * self.out} {self.dtype} array")
        return ctypes.c_void_p(a.ctypes.data)


_SIZE, _REAL = ctypes.c_int64, ctypes.c_double
_F64, _I64, _U8 = _Array(np.float64), _Array(np.int64), _Array(np.uint8)
_U32, _U64 = _Array(np.uint32), _Array(np.uint64)
_F64_OUT, _I64_OUT = _Array(np.float64, out=True), _Array(np.int64, out=True)
_U8_OUT, _U64_OUT = _Array(np.uint8, out=True), _Array(np.uint64, out=True)
# The return and argument types of every function ``_ucb.c`` defines.
# ``ucb_run`` takes a whole table with no qualities, row streams or drawn
# counts (``None``), and its table as an input, so that a read-only whole
# table reaches it without a copy: it writes only a streamed realization's
# tables, which are writable.
_SIGNATURES = {
    "ucb_run": (ctypes.c_int, [_SIZE, _SIZE, _SIZE, _REAL, _F64, _I64,
                               _Array(np.float64, optional=True),
                               _Array(np.uint64, out=True, optional=True),
                               _Array(np.int64, out=True, optional=True), _U8, _F64, _F64, _SIZE,
                               _I64_OUT, _I64_OUT, _SIZE, _I64_OUT, _U8_OUT, _F64_OUT]),
    "row_streams": (ctypes.c_int, [_SIZE, _SIZE, _SIZE, _U64, _U64_OUT]),
    "draw_rows": (ctypes.c_int, [_SIZE, _SIZE, _SIZE, _F64, _U64_OUT, _I64_OUT, _I64, _U8_OUT]),
    "seed_streams": (ctypes.c_int, [_SIZE, _U32, _SIZE, _I64, _I64, _U64_OUT]),
    "resample": (ctypes.c_int, [_SIZE, _SIZE, _REAL, _F64, _F64, _U64_OUT, _F64_OUT, _F64_OUT]),
}


def _check_status(status, func, args):
    """``status``, unless it is -1 (out of memory), -2 (the resampler's
    iteration cap) or -3 (a bid, argument 3, above its cost_hi, argument 4)."""
    if status == -1:
        where = {"resample": "the resampler", "seed_streams": "the stream seeding"}.get(
            func.__name__, "the UCB round loop")
        raise MemoryError(f"out of memory in {where}")
    if status == -2:
        raise ResampleCapError("resampling recursion exceeded the iteration cap")
    if status == -3:
        cost_hi = args[4][0] if len(args[4]) == 1 else args[4].tolist()
        raise ValueError(f"bid costs must be at most cost_hi {cost_hi}, got {args[3].max()}")
    return status


def _build(command: list[str], path: str) -> None:
    """Compile ``_ucb.c`` to ``path``.  Each build writes a name of its own
    and renames it into place, so processes that build at once each load a
    whole library."""
    os.makedirs(_CACHE, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=_CACHE)
    os.close(fd)
    try:
        proc = subprocess.run(command + ["-o", tmp, _SOURCE], capture_output=True, text=True)
        if proc.returncode != 0:
            lines = [line for line in proc.stderr.splitlines() if line.strip()]
            raise UcbBuildError(lines[0] if lines else f"exit status {proc.returncode}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _library() -> ctypes.CDLL:
    """The compiled library, built on first use into a cache file named after
    the sha256 of the source and the compile command."""
    global _LIB
    if _LIB is None:
        command = shlex.split(_CC) + _CFLAGS
        try:
            with open(_SOURCE, "rb") as fh:
                key = hashlib.sha256(fh.read() + repr(command).encode()).hexdigest()
            path = os.path.join(_CACHE, f"_ucb-{key[:16]}.so")
            if not os.path.exists(path):
                _build(command, path)
            lib = ctypes.CDLL(path)
        except OSError as exc:
            reason = exc.strerror or str(exc)
            raise UcbBuildError(
                f"cannot build the UCB round loop with {shlex.join(command)}: {reason}"
            ) from exc
        for name, (restype, argtypes) in _SIGNATURES.items():
            func = getattr(lib, name)
            func.restype, func.argtypes, func.errcheck = restype, argtypes, _check_status
        _LIB = lib
    return _LIB
