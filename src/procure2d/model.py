"""Domain model for capacitated procurement with latent quality.

Each agent sells units of a single good at a private per-unit cost and up to
a private integer capacity; every delivered unit independently succeeds with
the agent's fixed but unobserved quality.  The buyer values a successful unit
at the reward scale R, so a unit from agent i is worth ``R * q_i`` in
expectation.  ``_draw_outcomes`` draws every table of such outcomes.

No mechanism buys more than ``min(k_i, L)`` units from an agent reporting
capacity ``k_i``, so a simulation table need only hold row i's outcomes
through that length: ``sample_reward_realization(..., capacities=)`` draws
just those prefixes, bit for bit the outcomes of the whole table, and
records them as ``RewardRealization.drawn``; ``MarketConfig.check_run``
refuses a bid that would read past its row's drawn prefix.

``TypeDistribution`` carries one agent's (cost, capacity) prior as the
virtual cost driving the auctions: the information-rent-adjusted cost
``H(c, k) = c + F(c|k) / f(c|k)``, held in the closed form ``H(c) = a + b*c``
with ``b > 0``, together with the per-unit score ``G = R*q - H`` and its
closed-form inverse used to price threshold payments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AgentType",
    "Bid",
    "TypeDistribution",
    "MarketConfig",
    "RewardRealization",
    "uniform_type_distribution",
    "sample_reward_realization",
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

    def virtual_cost_array(self, costs: np.ndarray, capacity: int) -> np.ndarray:
        costs = np.asarray(costs, dtype=float)
        lo, hi = self.cost_bounds
        if costs.size and not (lo <= costs.min() and costs.max() <= hi):
            raise ValueError("cost array leaves the distribution bounds")
        a, b = self.linear_h
        return a + b * costs

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
        ``n_agents x units`` tables, and on a table drawn only through row
        prefixes, no bid that could buy past its row's prefix.  Returns the
        tables' stacking shape."""
        n, units, shape = self.n_agents, self.units, realization.table.shape
        if units < n:
            raise ValueError(f"units ({units}) must be >= number of agents ({n})")
        self.check_bids(bids)
        if shape[-2:] != (n, units):
            raise ValueError(
                f"realization tables must be {n}x{units}, got {shape[-2]}x{shape[-1]}"
            )
        for i, (bid, drawn) in enumerate(zip(bids, realization.drawn or ())):
            if min(bid.capacity, units) > drawn:
                raise ValueError(
                    f"agent {i} bid capacity {bid.capacity} reads past the "
                    f"{drawn} outcomes drawn for its row"
                )
        return shape[:-2]


@dataclass(frozen=True)
class RewardRealization:
    """Bernoulli outcome table of shape ``(..., n, L)``: entry ``[..., i, j]``
    is the outcome of the j-th unit procured from agent i (counted per agent,
    not globally); leading axes stack tables, as the audits do.  The one rule
    for outcome tables: bool or integer entries, each 0 or 1.  Kept read-only
    C-contiguous uint8, with no copy of a C-contiguous uint8 or bool table: a
    bool table holds 0 and 1 by construction, so it is viewed as uint8
    unchecked.

    ``drawn`` is ``None`` for whole tables.  On tables drawn only through
    row prefixes (``sample_reward_realization`` with ``capacities``), it
    holds each row's prefix length, the same for every table of a stack; the
    entries past it are 0 and stand for no outcome, and
    ``MarketConfig.check_run`` refuses any run that could read them."""

    table: np.ndarray
    drawn: tuple[int, ...] | None = None

    def __post_init__(self):
        table = np.asarray(self.table)
        if table.ndim < 2:
            raise ValueError(f"realization table must be (..., n, L), got shape {table.shape}")
        kind = table.dtype.kind
        if kind not in "biu":
            raise TypeError(f"realization table must hold 0/1 integers, got dtype {table.dtype}")
        if kind != "b" and table.size and (table.max() > 1 or (kind == "i" and table.min() < 0)):
            raise ValueError("realization table entries must be 0 or 1")
        if kind == "b":
            table = np.ascontiguousarray(table).view(np.uint8)
        else:
            table = np.ascontiguousarray(table, dtype=np.uint8).view()
        table.flags.writeable = False
        object.__setattr__(self, "table", table)
        if self.drawn is not None:
            drawn = tuple(_check_int(k, "drawn length") for k in self.drawn)
            n, width = table.shape[-2:]
            if len(drawn) != n or not all(0 <= k <= width for k in drawn):
                raise ValueError(
                    f"drawn must give one prefix length in [0, {width}] per row of the "
                    f"{n}x{width} tables, got {self.drawn!r}"
                )
            object.__setattr__(self, "drawn", drawn)


def sample_reward_realization(qualities, n_units: int, seed, capacities=None, *,
                              out=None) -> RewardRealization:
    """Draw the n x L outcome table, row i i.i.d. Bernoulli(q_i).

    Deterministic given ``seed`` (int, SeedSequence, or Generator).  With
    ``capacities`` (one integer >= 0 per row), row i is drawn only through
    ``min(capacities[i], L)``, the most units any mechanism buys from an
    agent of that capacity.  The drawn entries equal the whole table's, the
    rest are 0, ``drawn`` records the lengths, and a Generator passed in
    (which must run on PCG64, to skip the undrawn outputs) ends where the
    whole table would leave it.  The table is drawn as bool, which the
    realization views as uint8 without a check; ``out``, a writable
    C-contiguous bool ``n x L`` array (one table of a stack, say), receives
    it in place of a new array.
    """
    q = _check_qualities(qualities)
    n_units = _check_int(n_units, "n_units")
    if n_units < 0:
        raise ValueError(f"n_units must be >= 0, got {n_units}")
    rng = np.random.default_rng(seed)
    drawn = None
    if capacities is not None:
        caps = [_check_int(k, "capacity") for k in capacities]
        if len(caps) != len(q) or min(caps, default=0) < 0:
            raise ValueError(f"expected {len(q)} capacities >= 0, got {capacities!r}")
        if not isinstance(rng.bit_generator, np.random.PCG64):
            name = type(rng.bit_generator).__name__
            raise TypeError(f"drawing to capacities needs a PCG64 generator, got {name}")
        drawn = tuple(min(k, n_units) for k in caps)
    table = np.empty((len(q), n_units), dtype=bool) if out is None else out
    if not (isinstance(table, np.ndarray) and table.shape == (len(q), n_units)
            and table.dtype == bool and table.flags.c_contiguous and table.flags.writeable):
        raise ValueError(f"out must be a writable C-contiguous bool {len(q)}x{n_units} array")
    _draw_outcomes(rng, q, table, drawn)
    return RewardRealization(table, drawn)


_DRAW_FLOATS = 1 << 17  # uniforms ``_draw_outcomes`` holds at once (at least one row)


def _draw_outcomes(rng: np.random.Generator, qualities, out: np.ndarray, lengths=None) -> None:
    """Fill the C-contiguous bool or uint8 ``out`` of shape ``(..., n, L)`` with
    ``u < qualities[i]`` at ``[..., i, j]``, ``u`` the matching uniform of one
    ``rng.random(out.shape)`` call, drawn in blocks of whole rows through one
    reused buffer and compared in place.

    ``lengths`` (Python ints, one per row of one ``n x L`` table) draws row i
    only through ``lengths[i]`` and zeroes the rest.  ``random()`` spends one
    64-bit output per uniform, so row i starts at output ``i * L``: the gaps
    are skipped by ``bit_generator.advance``, and the last one leaves ``rng``
    at the whole table's end (advancing also drops PCG64's buffered 32-bit
    half-word, which ``random()`` never reads)."""
    if lengths is not None:
        width, bits = out.shape[-1], rng.bit_generator
        uniforms = np.empty(max(lengths, default=0))
        at = 0  # outputs consumed so far
        for i, (q, k) in enumerate(zip(qualities, lengths)):
            if at != i * width:
                bits.advance(i * width - at)
            chunk = uniforms[:k]
            rng.random(out=chunk)
            np.less(chunk, q, out=out[i, :k])
            out[i, k:] = 0
            at = i * width + k
        if at != out.size:
            bits.advance(out.size - at)
    elif out.size:
        rows = out.reshape(-1, out.shape[-1])
        q = np.tile(qualities, len(rows) // out.shape[-2])[:, None]  # one per stacked table
        step = min(len(rows), max(1, _DRAW_FLOATS // rows.shape[1]))
        uniforms = np.empty((step, rows.shape[1]))
        for start in range(0, len(rows), step):
            chunk = uniforms[: len(rows) - start]
            rng.random(out=chunk)
            np.less(chunk, q[start : start + step], out=rows[start : start + step])
