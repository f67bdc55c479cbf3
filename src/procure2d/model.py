"""Domain model for capacitated procurement with latent quality.

Each agent sells units of a single good at a private per-unit cost and up to
a private integer capacity; every delivered unit independently succeeds with
the agent's fixed but unobserved quality.  The buyer values a successful unit
at the reward scale R, so a unit from agent i is worth ``R * q_i`` in
expectation.  A table of such outcomes has one numpy PCG64 stream: outcome
``(i, j)`` of an ``n x L`` table is ``u < q_i`` for uniform ``i * L + j``.
The one drawer of outcomes is C code in ``_ucb.c``, which starts each row
on its own stream, jumped to ``i * L``, so a row can be drawn in pieces and
in any order.

A table is whole (``sample_reward_realization``) or streamed
(``stream_reward_realization``), which draws nothing up front: the learner
and the baselines draw each row as far as they read it, never past
``min(k_i, L)`` for an agent reporting capacity ``k_i``, the most any
mechanism buys from it.

``TypeDistribution`` carries one agent's (cost, capacity) prior as the
virtual cost driving the auctions: the information-rent-adjusted cost
``H(c, k) = c + F(c|k) / f(c|k)``, held in the closed form ``H(c) = a + b*c``
with ``b > 0``, together with the per-unit score ``G = R*q - H`` and its
closed-form inverse used to price threshold payments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._native import _library
from .resample import generator_words

__all__ = [
    "AgentType",
    "Bid",
    "TypeDistribution",
    "MarketConfig",
    "RewardRealization",
    "uniform_type_distribution",
    "sample_reward_realization",
    "stream_reward_realization",
]


def _check_int(value, name: str) -> int:
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_qualities(qualities, n: int | None = None) -> list[float]:
    """The one rule for a quality vector: 1-D, ``n`` entries when ``n`` is
    given, each in [0, 1] (so never NaN).  Returns the entries as floats."""
    q = np.asarray(qualities, dtype=float)
    if q.ndim != 1 or (n is not None and q.size != n):
        expected = "a vector of" if n is None else n
        raise ValueError(f"expected {expected} qualities, got shape {q.shape}")
    values = q.tolist()
    if not all(0.0 <= x <= 1.0 for x in values):
        raise ValueError("qualities must lie in [0, 1]")
    return values


@dataclass(frozen=True)
class AgentType:
    """True private type of one agent: per-unit cost, capacity, quality."""

    cost: float
    capacity: int
    quality: float

    def __post_init__(self):
        _check_int(self.capacity, "capacity")
        if self.capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {self.capacity}")
        if not 0.0 <= self.quality <= 1.0:
            raise ValueError(f"quality must lie in [0, 1], got {self.quality}")

    def truthful_bid(self) -> "Bid":
        return Bid(self.cost, self.capacity)

    def deviated_bid(self, cost: float | None = None, capacity: int | None = None) -> "Bid":
        """A (possibly misreported) bid.  Capacity may only be under-reported."""
        cap = self.capacity if capacity is None else _check_int(capacity, "capacity")
        if cap > self.capacity:
            raise ValueError(
                f"capacity over-report forbidden: {cap} > true capacity {self.capacity}"
            )
        return Bid(self.cost if cost is None else cost, cap)


@dataclass(frozen=True)
class Bid:
    """Reported (cost, capacity) pair.

    Capacity under-reporting is undetectable and therefore allowed; bids above
    the true capacity must never be constructed (``AgentType.deviated_bid``
    enforces this when the true type is at hand).
    """

    cost: float
    capacity: int

    def __post_init__(self):
        _check_int(self.capacity, "capacity")
        if self.capacity < 0:
            raise ValueError(f"reported capacity must be >= 0, got {self.capacity}")
        if not math.isfinite(self.cost):
            raise ValueError(f"reported cost must be finite, got {self.cost}")


@dataclass(frozen=True)
class TypeDistribution:
    """Joint (cost, capacity) prior of one agent, held as its virtual cost.

    The cost law enters the auctions only through Myerson's virtual cost
    ``H(c, k) = c + F(c|k) / f(c|k)``, here affine and capacity-independent:
    ``linear_h = (a, b)`` gives ``H(c) = a + b*c``.  ``b > 0`` is required,
    so H increases in cost and the prior is regular by construction.

    The scoring methods take a ``capacity`` argument (mechanisms pass
    residual capacities, possibly below ``cap_bounds[0]``) so that a
    per-capacity virtual cost needs no call-site change.
    """

    cost_bounds: tuple[float, float]
    cap_bounds: tuple[int, int]
    linear_h: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.cost_bounds
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"cost_bounds must satisfy lo < hi, got {self.cost_bounds}")
        klo = _check_int(self.cap_bounds[0], "cap_bounds[0]")
        khi = _check_int(self.cap_bounds[1], "cap_bounds[1]")
        if not 0 <= klo <= khi:
            raise ValueError(f"cap_bounds must satisfy 0 <= lo <= hi, got {self.cap_bounds}")
        a, b = self.linear_h
        if not (math.isfinite(a) and math.isfinite(b) and b > 0):
            raise ValueError(
                f"linear_h = (a, b) must be finite with b > 0 "
                f"(virtual cost increasing in cost), got {self.linear_h}"
            )

    def virtual_cost(self, cost: float, capacity: int) -> float:
        """H(c, k) = a + b*c."""
        lo, hi = self.cost_bounds
        if not lo <= cost <= hi:
            raise ValueError(f"cost {cost} outside bounds [{lo}, {hi}]")
        a, b = self.linear_h
        return a + b * cost

    def g_score(self, quality: float, reward_scale: float, cost: float, capacity: int) -> float:
        """Per-unit virtual surplus G = R*q - H(c, k)."""
        return reward_scale * quality - self.virtual_cost(cost, capacity)

    def g_inverse(self, quality: float, reward_scale: float, score: float, capacity: int) -> float:
        """The cost z solving G(z) = score, clamped to the upper cost bound.

        Scores below ``G(cost_hi)`` return ``cost_hi`` (the price cap used by
        the payment rule); scores above ``G(cost_lo)`` have no solution and
        raise ``ValueError``.
        """
        lo, hi = self.cost_bounds
        target = reward_scale * quality - score  # H(z) must equal this
        a, b = self.linear_h
        z = (target - a) / b
        if z < lo - 1e-9:
            raise ValueError(f"score {score} above the invertible range (max G at cost_lo)")
        return min(max(z, lo), hi)


def uniform_type_distribution(
    cost_lo: float, cost_hi: float, cap_lo: int, cap_hi: int
) -> TypeDistribution:
    """Independent uniform cost on [cost_lo, cost_hi] times a discrete-uniform
    integer capacity on {cap_lo, ..., cap_hi}.

    ``F(c)/f(c) = c - cost_lo``, so the virtual cost is ``H(c) = 2c - cost_lo``.
    """
    return TypeDistribution((cost_lo, cost_hi), (cap_lo, cap_hi), (-cost_lo, 2.0))


@dataclass(frozen=True)
class MarketConfig:
    """One auction instance: budget of units, reward scale, per-agent priors.
    ``check_bids`` admits its bid profiles and ``check_run`` its learning runs."""

    units: int
    reward_scale: float
    distributions: tuple[TypeDistribution, ...]

    def __post_init__(self):
        _check_int(self.units, "units")
        if self.units < 0:
            raise ValueError(f"units must be >= 0, got {self.units}")
        if not 0 < self.reward_scale < math.inf:
            raise ValueError(f"reward_scale must be finite and > 0, got {self.reward_scale}")
        if len(self.distributions) < 1:
            raise ValueError("at least one agent distribution is required")
        object.__setattr__(self, "distributions", tuple(self.distributions))

    @property
    def n_agents(self) -> int:
        return len(self.distributions)

    def check_bids(self, bids) -> None:
        """Refuse a profile unless it holds one bid per agent, each cost within
        its prior's cost bounds and each capacity at most its prior's upper
        capacity bound (``Bid`` holds capacities to integers >= 0, so
        withholding down to 0 is a legal report)."""
        if len(bids) != self.n_agents:
            raise ValueError(f"expected {self.n_agents} bids, got {len(bids)}")
        self.check_costs([bid.cost for bid in bids])
        for i, (bid, dist) in enumerate(zip(bids, self.distributions)):
            if bid.capacity > (top := dist.cap_bounds[1]):
                raise ValueError(f"agent {i} bid capacity {bid.capacity} above prior bound {top}")

    def check_costs(self, costs) -> None:
        """``check_bids``' cost rule alone, on one cost per agent."""
        for i, (cost, dist) in enumerate(zip(costs, self.distributions)):
            lo, hi = dist.cost_bounds
            if not lo <= cost <= hi:
                raise ValueError(f"agent {i} bid cost {cost} outside [{lo}, {hi}]")

    def check_run(self, bids, realization: RewardRealization) -> tuple[int, ...]:
        """The one rule for a learning run: ``units >= n_agents`` (the seeding
        pass buys one unit from each agent), bids that pass ``check_bids``,
        and one ``n_agents x units`` table or one stack of them.  Returns the
        stacking shape, ``()`` or ``(B,)``."""
        n, units, shape = self.n_agents, self.units, realization.table.shape
        if units < n:
            raise ValueError(f"units ({units}) must be >= number of agents ({n})")
        self.check_bids(bids)
        if shape[-2:] != (n, units):
            raise ValueError(
                f"realization tables must be {n}x{units}, got {shape[-2]}x{shape[-1]}"
            )
        if len(shape) > 3:
            raise ValueError(f"a run takes one {n}x{units} table or one stack of them, "
                             f"got shape {shape}")
        return shape[:-2]


@dataclass(frozen=True)
class RowStreams:
    """Where each row of a streamed realization stands: its quality (one per
    agent), its stream's four state words at its next undrawn outcome, and
    its drawn count, for every row of every table (``(..., n, 4)`` and
    ``(..., n)``).  Built by ``stream_reward_realization``; the runs and
    ``RewardRealization.draw_through`` advance it in place."""

    qualities: np.ndarray
    states: np.ndarray
    counts: np.ndarray


@dataclass(frozen=True)
class RewardRealization:
    """Bernoulli outcome table of shape ``(..., n, L)``: entry ``[..., i, j]``
    is the outcome of the j-th unit procured from agent i (counted per agent,
    not globally); leading axes stack tables, as the audits do.  The one rule
    for outcome tables: bool or integer entries, each 0 or 1.  Kept read-only
    C-contiguous uint8, with no copy of a C-contiguous uint8 or bool table: a
    bool table holds 0 and 1 by construction, so it is viewed as uint8
    unchecked.

    A streamed realization (``stream_reward_realization``) also carries
    ``streams``: its rows are drawn only as far as the runs have read them.
    Its tables are the caller's writable buffer, viewed as uint8 and kept
    writable, and hold no outcome past a row's drawn count; the runs draw as
    they read, and ``draw_through`` draws ahead.  An outcome is the same
    whenever it is drawn."""

    table: np.ndarray
    streams: RowStreams | None = field(default=None, kw_only=True)

    def __post_init__(self):
        table = np.asarray(self.table)
        if table.ndim < 2:
            raise ValueError(f"realization table must be (..., n, L), got shape {table.shape}")
        kind = table.dtype.kind
        if kind not in "biu":
            raise TypeError(f"realization table must hold 0/1 integers, got dtype {table.dtype}")
        if self.streams is not None:
            if not (table.dtype in (bool, np.uint8) and table.flags.c_contiguous
                    and table.flags.writeable):
                raise ValueError("a streamed realization's tables must be a writable "
                                 "C-contiguous bool or uint8 array")
            table = table.view(np.uint8)  # the caller's buffer, written as the runs draw
        elif kind != "b" and table.size and (table.max() > 1 or (kind == "i" and table.min() < 0)):
            raise ValueError("realization table entries must be 0 or 1")
        elif kind == "b":
            table = np.ascontiguousarray(table).view(np.uint8)
        else:
            table = np.ascontiguousarray(table, dtype=np.uint8).view()
        object.__setattr__(self, "table", table)
        if self.streams is None:
            table.flags.writeable = False
        else:
            self._check_streams(table.shape)

    def _check_streams(self, shape) -> None:
        """The C code trusts a streamed realization's arrays for their
        shapes, and its drawn counts for where it writes."""
        def fits(a, dtype, shape, writable=True):
            return (isinstance(a, np.ndarray) and a.dtype == dtype and a.shape == shape
                    and a.flags.c_contiguous and (a.flags.writeable or not writable))

        s = self.streams
        if not (fits(s.qualities, np.float64, shape[-2:-1], False)
                and fits(s.states, np.uint64, shape[:-1] + (4,))
                and fits(s.counts, np.int64, shape[:-1])):
            raise ValueError(f"a streamed realization of {shape} tables needs n float64 "
                             "qualities, and writable C-contiguous uint64 states (..., n, 4) "
                             "and int64 drawn counts (..., n)")
        if not ((s.counts >= 0) & (s.counts <= shape[-1])).all():
            raise ValueError(f"a row's drawn count must lie in [0, L = {shape[-1]}]")

    def draw_through(self, lengths) -> None:
        """Draw every row of a streamed realization through at least
        ``lengths`` outcomes (at most L), an int64 array broadcast to its
        ``(..., n)`` rows.  A realization that is not streamed holds all its
        outcomes already."""
        streams = self.streams
        if streams is None:
            return
        to = np.empty(streams.counts.shape, dtype=np.int64)
        to[...] = lengths
        n, width = self.table.shape[-2:]
        _library().draw_rows(to.size, n, width, streams.qualities, streams.states,
                             streams.counts, to, self.table)


def sample_reward_realization(qualities, n_units: int, seed) -> RewardRealization:
    """Draw the n x L outcome table, row i i.i.d. Bernoulli(q_i): outcome
    ``(i, j)`` is ``u < q_i`` for uniform ``i * L + j`` of the stream of
    ``np.random.default_rng(seed)``, as ``random((n, L)) < q`` would draw it.

    Deterministic given ``seed`` (int, SeedSequence, or Generator, which
    must run on PCG64).  A Generator passed in ends where the table leaves
    it, its buffered 32-bit half-word kept.  The table is drawn as bool,
    which the realization views as uint8 without a check.
    """
    q = _check_qualities(qualities)
    n_units = _check_int(n_units, "n_units")
    if n_units < 0:
        raise ValueError(f"n_units must be >= 0, got {n_units}")
    table = np.empty((len(q), n_units), dtype=bool)
    with generator_words(np.random.default_rng(seed), "drawing reward outcomes needs") as words:
        _draw_tables(words, q, table)
    return RewardRealization(table)


def stream_reward_realization(qualities, states, out) -> RewardRealization:
    """A streamed realization of ``len(states)`` tables, drawn as the runs
    read them: table t is ``sample_reward_realization(qualities, L, seed)``'s
    table for the stream whose state words are row t of ``states``
    (``resample.stream_states`` rows, not spent).  ``out``, a writable
    C-contiguous ``(len(states), n, L)`` bool array, holds the tables; each
    row's outcomes are written into it when a run first reads them, in
    chunks of a few dozen, never past the most the runs may buy from the
    row's agent.

    Jumping each row's stream to its first outcome, in log time, is all the
    drawing done here: no outcome no run reads is drawn, and the table's
    entries past a row's drawn count are never read."""
    q = np.array(_check_qualities(qualities))
    states = np.ascontiguousarray(states, dtype=np.uint64)
    if np.ndim(out) != 3:
        raise ValueError(f"out must be a (tables, n, L) array, got shape {np.shape(out)}")
    tables, n, width = out.shape
    if n != len(q) or states.shape != (tables, 4):
        raise ValueError(f"expected {tables} streams of 4 state words and {len(q)} rows per "
                         f"table, got states of shape {states.shape} and {n} rows")
    rows = np.empty((tables, n, 4), dtype=np.uint64)
    _library().row_streams(tables, n, width, states, rows)
    streams = RowStreams(q, rows, np.zeros((tables, n), dtype=np.int64))
    return RewardRealization(out, streams=streams)


def _draw_tables(words: np.ndarray, qualities, out: np.ndarray) -> None:
    """Fill the writable C-contiguous bool or uint8 ``out`` of shape ``(..., n,
    L)`` on the one stream whose state words are ``words``: its row ``r`` (of
    every table in turn) is ``u < qualities[r % n]`` for uniforms ``r * L``
    on.  ``words`` is spent in place to the end of the last table."""
    n, width = out.shape[-2:]
    m = math.prod(out.shape[:-1])
    rows = np.empty((m + 1, 4), dtype=np.uint64)  # the last, the stream's end
    lib = _library()
    lib.row_streams(1, m + 1, width, words, rows)
    lib.draw_rows(m, n, width, np.array(qualities, dtype=float), rows, np.zeros(m, np.int64),
                  np.full(m, width, dtype=np.int64), out.reshape(m, width).view(np.uint8))
    words[...] = rows[m]
