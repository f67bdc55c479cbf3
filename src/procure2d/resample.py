"""Self-resampling bid perturbation and the premium it makes mechanisms pay.

The resampler maps a reported cost to a pair ``(alpha, beta)`` with
``cost_hi >= alpha >= beta >= bid``: with probability ``1 - mu`` both equal
the bid; otherwise ``beta`` is uniform on ``[bid, cost_hi]`` and ``alpha``
continues resampling upward geometrically.  Mechanisms allocate at ``alpha``
and, whenever ``beta`` strictly exceeded the bid, pay a premium scaled by
``1/mu`` so that the premium's expectation equals the integral of the
expected allocation over all higher cost bids.  That integral is exactly the
surcharge a truthful payment rule owes, which is what makes the transformed
mechanism truthful in expectation.  Each mechanism pays by
``transform_premium``.

The law has one implementation, in ``_ucb.c``, which ``_native`` builds and
loads with the UCB round loop.  It steps numpy's PCG64 streams directly, so
its draws are those of a numpy ``Generator`` bit for bit: ``resample_batch``
draws on one generator's stream, ``self_resample`` is a batch of one, and
``resample_streams`` draws one bid on each of many streams in one call, as a
simulation cell draws all its resampled bids.  Each returns its draws as one
pair ``(alpha, beta)``: two floats from ``self_resample``, two arrays from
the others.  That pair is all the randomness a learning run takes.

Random streams are numpy's own, ``default_rng(SeedSequence(entropy,
spawn_key=key))``, but ``stream_states`` derives the state words of many
streams at once, without building a ``SeedSequence`` or a generator per
stream: it reads each distinct entropy and key into uint32 words once, and
one C call, ``seed_streams`` in ``_ucb.c``, runs numpy's seed hash and
PCG64's seeding step on every row.  ``child_states`` gives the per-bid
children ``(i,)`` of a public seed.  A numpy generator draws a stream once
its state is set from ``state_dict``, or by ``generator_at``; C code draws
on a generator's stream through ``generator_words``.
"""

from __future__ import annotations

import contextlib
import itertools

import numpy as np

from ._native import _library

__all__ = [
    "self_resample",
    "resample_batch",
    "transform_premium",
]

def _check_mu(mu: float) -> float:
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must lie in (0, 1), got {mu}")
    return float(mu)


_POOL_SIZE = 4  # numpy's default SeedSequence pool size, the one _ucb.c hashes with
_WORD = 0xFFFFFFFF
_WORD64 = (1 << 64) - 1


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


def stream_states(rows) -> np.ndarray:
    """The PCG64 streams of ``default_rng(SeedSequence(entropy,
    spawn_key=key))`` for the ``(entropy, key)`` rows, derived for all rows in
    one call: an (m, 4) uint64 array of state words, each row the 128-bit
    state, high word first, then the 128-bit increment.

    ``resample_streams`` draws on the rows directly; ``state_dict`` turns a
    row into the ``state`` of a numpy ``PCG64``, so one reused generator can
    draw any number of streams.  ``entropy`` is an int or a sequence of ints,
    as ``SeedSequence`` accepts it; a spawn key ``(i,)`` names the ``i``-th
    child of ``SeedSequence(entropy)``, with the default pool size.  The
    derivation is numpy's own, SeedSequence's hash of the words and PCG64's
    seeding step, run on every row by ``seed_streams`` in ``_ucb.c``.
    """
    rows = list(rows)
    m = len(rows)
    # A root's children share its entropy object: number the distinct objects
    # and keys in first-seen order and read the words of each once.  ``rows``
    # keeps every object alive, so no id is reused meanwhile.
    entropy_at, key_at = {}, {}
    entropy_rows = np.fromiter(
        (entropy_at.setdefault(id(entropy), len(entropy_at)) for entropy, _ in rows), np.int64, m)
    key_rows = np.fromiter(
        (key_at.setdefault(tuple(key), len(key_at)) for _, key in rows), np.int64, m)
    pieces = [_uint32_words(entropy) for entropy in {id(e): e for e, _ in rows}.values()]
    pieces += map(_uint32_words, key_at)
    lengths = np.fromiter(map(len, pieces), np.int64, len(pieces))
    words = np.fromiter(itertools.chain.from_iterable(pieces), np.uint32, int(lengths.sum()))
    row_pieces = np.stack([entropy_rows, key_rows + len(entropy_at)], axis=1)
    states = np.empty((m, 4), dtype=np.uint64)
    _library().seed_streams(m, words, len(pieces), lengths, row_pieces, states)
    return states


def state_dict(words) -> dict:
    """The ``PCG64.state`` of one row of ``stream_states``."""
    s_hi, s_lo, i_hi, i_lo = np.asarray(words, dtype=np.uint64).tolist()
    return {"bit_generator": "PCG64",
            "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
            "has_uint32": 0, "uinteger": 0}


def generator_at(words) -> np.random.Generator:
    """A new ``Generator`` whose ``PCG64`` is set to one row of
    ``stream_states``."""
    rng = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.state = state_dict(words)
    return rng


@contextlib.contextmanager
def generator_words(rng: np.random.Generator, drawer: str):
    """The state words of ``rng``'s stream as a (1, 4) row, for C code to
    spend in place; on exit ``rng`` continues where the words end, PCG64's
    buffered 32-bit half-word kept.  ``rng`` must run on PCG64: ``drawer``
    names what needs it in the ``TypeError`` otherwise."""
    bits = rng.bit_generator
    if not isinstance(bits, np.random.PCG64):
        raise TypeError(f"{drawer} a PCG64 generator, got {type(bits).__name__}")
    state = bits.state
    pcg = state["state"]
    words = np.array([[pcg["state"] >> 64, pcg["state"] & _WORD64, pcg["inc"] >> 64,
                       pcg["inc"] & _WORD64]], dtype=np.uint64)
    yield words
    s_hi, s_lo = words[0, :2].tolist()
    pcg["state"] = s_hi << 64 | s_lo
    bits.state = state


def child_states(seed, n: int) -> np.ndarray:
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


def _resample(bid_costs, cost_hi, mu: float, size: int, states: np.ndarray):
    """The resampling law, in ``_ucb.c``: ``size`` draws on each of the m
    streams whose state words are the rows of ``states``, at the bids
    ``bid_costs`` (m x size, broadcast) below ``cost_hi`` (one per stream,
    broadcast).  Writes each stream's end state back into ``states`` and
    returns (alpha, beta), each m x size."""
    mu = _check_mu(mu)
    if states.shape[1:] != (4,):
        raise ValueError(f"stream states must be (m, 4) uint64 words, got {states.shape!r}")
    m = len(states)
    bids, highs = np.empty((m, size)), np.empty(m)
    bids[...], highs[...] = bid_costs, cost_hi
    alpha, beta = np.empty((m, size)), np.empty((m, size))
    _library().resample(m, size, mu, bids, highs, states, alpha, beta)
    return alpha, beta


def resample_streams(bid_costs, cost_highs, mu: float, states) -> tuple[np.ndarray, np.ndarray]:
    """One draw on each stream whose state words are a row of ``states``
    (``stream_states`` rows, spent in place), at the bids ``bid_costs`` below
    ``cost_highs``, one of each per stream, as the arrays (alpha, beta): every
    resampled bid of a simulation cell in one call."""
    alpha, beta = _resample(np.asarray(bid_costs, dtype=float)[:, None], cost_highs, mu, 1,
                            states)
    return alpha[:, 0], beta[:, 0]


def self_resample(bid_cost: float, bounds: tuple, mu: float, seed) -> tuple[float, float]:
    """Draw ``(alpha, beta)`` for one bid, always ``cost_hi >= alpha >= beta
    >= bid``: ``resample_batch`` of one draw on ``default_rng(seed)``.
    Deterministic given ``seed``.

    The recursion depth is geometric with mean ``1/(1 - mu)``; a hard cap of
    ``10**6`` passes guards against ``mu`` so near 1 that the recursion
    practically never ends, and raises ``RuntimeError`` rather than silently
    truncating.
    """
    lo, hi = bounds
    if not lo <= bid_cost <= hi:
        raise ValueError(f"bid cost {bid_cost} outside bounds [{lo}, {hi}]")
    alpha, beta = resample_batch(bid_cost, hi, mu, 1, np.random.default_rng(seed))
    return float(alpha[0]), float(beta[0])


def resample_batch(
    bid_cost, cost_hi: float, mu: float, size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """``size`` independent draws at one bid (or at per-draw bids when
    ``bid_cost`` is an array of length ``size``) on ``rng``'s stream, which
    must run on PCG64; ``rng`` continues where the draws leave it.

    Every pass through the recursion reads exactly ``2 * size`` uniforms
    (the first pass ``size`` branch uniforms, then ``size`` for beta),
    however few draws still move, so two calls with identically seeded
    generators are coupled draw-by-draw across different bid values (the
    coupling behind the monotonicity property).
    """
    with generator_words(rng, "the resampler draws on") as words:
        alpha, beta = _resample(bid_cost, cost_hi, mu, size, words)
    return alpha[0], beta[0]


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
