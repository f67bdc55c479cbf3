"""Self-resampling bid perturbation and the premium it makes mechanisms pay.

The resampler maps a reported cost to a pair ``(alpha, beta)`` with
``cost_hi >= alpha >= beta >= bid``: with probability ``1 - mu`` both equal
the bid; otherwise ``beta`` is uniform on ``[bid, cost_hi]`` and ``alpha``
continues resampling upward geometrically.  Mechanisms allocate at ``alpha``
and, whenever ``beta`` strictly exceeded the bid, pay a premium scaled by
``1/mu`` so that the premium's expectation equals the integral of the
expected allocation over all higher cost bids.  That integral is exactly the
surcharge a truthful payment rule owes, which is what makes the transformed
mechanism truthful in expectation.  Each mechanism draws with
``self_resample`` or ``resample_batch`` and pays by ``transform_premium``.

Random streams are numpy's own, ``default_rng(SeedSequence(entropy,
spawn_key=key))``, but ``stream_states`` derives their PCG64 states for many
keys in one vectorized pass, without building a ``SeedSequence`` or a
generator per stream: the simulation harness derives every stream of a
cell at once, and ``child_states`` gives the per-bid children ``(i,)`` of a
public seed.  A state is drawn by assigning it to a reused generator's
``bit_generator``, or by ``generator_at``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ResampleDraw",
    "self_resample",
    "resample_batch",
    "transform_premium",
]

_MAX_RESAMPLE_ITERATIONS = 10**6


@dataclass(frozen=True)
class ResampleDraw:
    """One resampler output; always cost_hi >= alpha >= beta >= bid."""

    alpha: float
    beta: float


def _check_mu(mu: float) -> float:
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must lie in (0, 1), got {mu}")
    return float(mu)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and the PCG64
# multiplier (O'Neill, *PCG*, 2014).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_WORD = 0xFFFFFFFF
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_STATE_MASK = (1 << 128) - 1


def _uint32_words(value) -> list[int]:
    """``value`` (a non-negative int or a sequence of them, nested at will) as
    numpy's ``SeedSequence`` reads it: each int its little-endian 32-bit
    words, 0 being ``[0]``, concatenated in order."""
    if isinstance(value, (int, np.integer)):
        value = int(value)
        if value < 0:
            raise ValueError(f"seed entropy must be non-negative, got {value}")
        words = [value & _WORD]
        while value > _WORD:
            value >>= 32
            words.append(value & _WORD)
        return words
    if isinstance(value, (str, bytes, float, np.inexact)):
        raise TypeError(f"seed entropy must be integers, got {value!r}")
    words = []
    for v in value:
        if type(v) is int and 0 <= v <= _WORD:
            words.append(v)
        else:
            words += _uint32_words(v)
    return words


def _hash_consts(start: int, mult: int, count: int) -> np.ndarray:
    """The ``count + 1`` successive values ``start * mult**k mod 2**32`` of a
    hash constant, as a (count + 1, 1) column that broadcasts over streams."""
    consts = [start]
    for _ in range(count):
        consts.append(consts[-1] * mult & _WORD)
    return np.array(consts, dtype=np.uint32)[:, None]


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return r ^ (r >> np.uint32(16))


def stream_states(rows) -> list[dict]:
    """The PCG64 state of ``default_rng(SeedSequence(entropy,
    spawn_key=key))`` for each ``(entropy, key)`` row, derived for all rows in
    one pass of numpy arithmetic on uint32 words.

    Each dict is ready to assign to a ``PCG64``'s ``state``, so one reused
    generator can draw any number of streams.  ``entropy`` is an int or a
    sequence of ints, as ``SeedSequence`` accepts it; a spawn key ``(i,)``
    names the ``i``-th child of ``SeedSequence(entropy)``, with the default
    pool size.  The derivation is numpy's own: the entropy words, padded with
    zeros to the pool size when a spawn key follows, are hashed into a pool
    of four words, which ``generate_state(4, uint64)`` turns into PCG64's
    seed and increment, and the state is PCG64's ``srandom`` step on them,
    ``(inc + seed) * M + inc`` mod 2**128, in Python ints.
    """
    rows = list(rows)
    if not rows:
        return []
    # A root's children share its entropy object: read each object once.
    # ``rows`` keeps every object alive, so no id is reused meanwhile.
    run_words, key_words = {}, {}
    words = []
    for entropy, key in rows:
        row = run_words.get(id(entropy))
        if row is None:
            row = run_words[id(entropy)] = _uint32_words(entropy)
        if key:
            key = tuple(key)
            if key not in key_words:
                key_words[key] = _uint32_words(key)
            row = row + [0] * (_POOL_SIZE - len(row)) + key_words[key]
        words.append(row)
    lengths = [len(row) for row in words]
    width = max(_POOL_SIZE, *lengths)
    flat = [w for row in words for w in row + [0] * (width - len(row))]
    entropy = np.array(flat, dtype=np.uint32).reshape(len(words), width).T
    lengths = np.array(lengths)

    # hashmix's constant advances once per call, the same for every stream:
    # one call per pool word, three per source word in the pool mix, then
    # four per entropy word past the pool.
    h = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * (width - _POOL_SIZE))

    def hashmix(value, k, count):
        v = (value ^ h[k : k + count]) * h[k + 1 : k + count + 1]
        return v ^ (v >> np.uint32(16))

    pool = hashmix(entropy[:_POOL_SIZE], 0, _POOL_SIZE)
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], hashmix(pool[src], k, len(dst)))
        k += len(dst)
    for j in range(_POOL_SIZE, width):
        mixed = _mix(pool, hashmix(entropy[j], k, _POOL_SIZE))
        pool = np.where(lengths > j, mixed, pool)
        k += _POOL_SIZE

    # generate_state(4, uint64): eight words cycling over the pool, paired
    # little-endian into seed (w0, w1) and increment (w2, w3), high word first.
    hb = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    out = (pool[np.arange(2 * _POOL_SIZE) % _POOL_SIZE] ^ hb[:-1]) * hb[1:]
    out ^= out >> np.uint32(16)
    out = out.astype(np.uint64)
    w = (out[0::2] | out[1::2] << np.uint64(32)).tolist()
    states = []
    for w0, w1, w2, w3 in zip(*w):
        inc = ((w2 << 64 | w3) << 1 | 1) & _STATE_MASK
        state = ((inc + (w0 << 64 | w1)) * _PCG64_MULT + inc) & _STATE_MASK
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def generator_at(state: dict) -> np.random.Generator:
    """A new ``Generator`` whose ``PCG64`` is set to ``state``, a dict from
    ``stream_states``."""
    rng = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.state = state
    return rng


def child_states(seed, n: int) -> list[dict]:
    """``stream_states`` of the children ``(i,)``, ``i < n``, of ``seed``:
    anything ``SeedSequence`` accepts, or a ``SeedSequence`` of the default
    pool size.

    Child ``i`` draws as the ``i``-th child of the first ``spawn(n)`` on a
    fresh sequence, but nothing is spawned: ``spawn`` advances the sequence
    it is called on, so a caller reusing one ``SeedSequence`` would get
    different draws on every call.
    """
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    if seq.pool_size != _POOL_SIZE:
        raise ValueError(f"seed sequences must have pool size {_POOL_SIZE}, got {seq.pool_size}")
    return stream_states([(seq.entropy, seq.spawn_key + (i,)) for i in range(n)])


def self_resample(bid_cost: float, bounds: tuple[float, float], mu: float, seed) -> ResampleDraw:
    """Draw ``(alpha, beta)`` for one bid.  Deterministic given ``seed``.

    The recursion depth is geometric with mean ``1/(1 - mu)``; a hard cap of
    ``10**6`` iterations guards against pathological generators and raises
    ``RuntimeError`` rather than silently truncating.
    """
    mu = _check_mu(mu)
    lo, hi = bounds
    if not lo <= bid_cost <= hi:
        raise ValueError(f"bid cost {bid_cost} outside bounds [{lo}, {hi}]")
    rng = np.random.default_rng(seed)
    # Branch draws use "u < mu means keep resampling" so that a shared seed
    # couples draws monotonically across bid values.
    if rng.random() >= mu:
        return ResampleDraw(bid_cost, bid_cost)
    beta = min(float(rng.uniform(bid_cost, hi)), hi)
    alpha = beta
    for _ in range(_MAX_RESAMPLE_ITERATIONS):
        if rng.random() >= mu:
            return ResampleDraw(alpha, beta)
        alpha = min(float(rng.uniform(alpha, hi)), hi)
    raise RuntimeError("resampling recursion exceeded the iteration cap")


def resample_batch(
    bid_cost, cost_hi: float, mu: float, size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized resampler: ``size`` independent draws at one bid (or at
    per-draw bids when ``bid_cost`` is an array of length ``size``).

    Every pass through the recursion draws exactly ``2 * size`` uniforms in
    one call, however few draws are still active (it updates only those, by
    index), so two calls with identically seeded generators are coupled
    draw-by-draw across different bid values (the coupling behind the
    monotonicity property).
    """
    mu = _check_mu(mu)
    bid_cost = np.asarray(bid_cost, dtype=float)
    if bid_cost.size and not bid_cost.max() <= cost_hi:
        raise ValueError(f"bid costs must be at most cost_hi {cost_hi}, got {bid_cost.max()}")
    active = rng.random(size) < mu
    beta = np.where(active, bid_cost + rng.random(size) * (cost_hi - bid_cost), bid_cost)
    np.minimum(beta, cost_hi, out=beta)
    alpha = beta.copy()
    live = np.flatnonzero(active)
    for _ in range(_MAX_RESAMPLE_ITERATIONS):
        if not live.size:
            break
        uniforms = rng.random(2 * size)
        live = live[uniforms[live] < mu]
        alpha[live] += uniforms[size + live] * (cost_hi - alpha[live])
    else:
        raise RuntimeError("resampling recursion exceeded the iteration cap")
    np.minimum(alpha, cost_hi, out=alpha)
    return alpha, beta


def transform_premium(units, mu: float, bid_cost, cost_hi, beta):
    """The ``1/mu``-scaled premium ``units * (cost_hi - bid_cost) / mu`` where
    the resampled ``beta`` moved above the bid, else 0.

    This is the one payment rule of the transformation: every mechanism pays
    ``bid_cost * units`` plus this premium.  Works on scalars (returning a
    float) and on numpy arrays, elementwise.
    """
    mu = _check_mu(mu)
    premium = np.where(
        np.greater(beta, bid_cost), np.multiply(units, np.subtract(cost_hi, bid_cost)) / mu, 0.0
    )
    return premium if premium.ndim else float(premium)
