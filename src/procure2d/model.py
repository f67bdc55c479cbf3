"""Domain model for capacitated procurement with latent quality.

Each agent sells units of a single good at a private per-unit cost and up to
a private integer capacity; every delivered unit independently succeeds with
the agent's fixed but unobserved quality.  The buyer values a successful unit
at the reward scale R, so a unit from agent i is worth ``R * q_i`` in
expectation.

``TypeDistribution`` carries one agent's (cost, capacity) prior together with
the virtual-cost machinery driving the auctions: the information-rent-adjusted
cost ``H(c, k) = c + F(c|k) / f(c|k)``, the per-unit score ``G = R*q - H``,
and the score inverse used to price threshold payments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "AgentType",
    "Bid",
    "TypeDistribution",
    "MarketConfig",
    "RewardRealization",
    "uniform_type_distribution",
    "sample_reward_realization",
    "DegenerateDistributionError",
    "IrregularDistributionError",
]


class DegenerateDistributionError(ValueError):
    """Conditional cost density is zero or negative where positivity is required."""


class IrregularDistributionError(ValueError):
    """Virtual cost lacks the monotonicity the optimal auction relies on."""


def _check_int(value, name: str) -> int:
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


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


# Width at which ``TypeDistribution.g_inverse`` stops bisecting.
_BISECT_TOL = 1e-9


def _integer_grid(lo: int, hi: int, max_points: int) -> np.ndarray:
    count = hi - lo + 1
    if count <= max_points:
        return np.arange(lo, hi + 1)
    return np.unique(np.round(np.linspace(lo, hi, max_points)).astype(int))


@dataclass(frozen=True, eq=False)
class TypeDistribution:
    """Joint (cost, capacity) prior of one agent.

    ``cond_cdf`` and ``cond_density`` are callables of ``(cost, capacity)``
    that describe the cost law given the capacity.  ``linear_h``, when
    present, states that the virtual cost is capacity-independent and
    affine, ``H(c) = a + b*c``; the built-in uniform family uses it for
    exact scoring and closed-form score inversion.

    Conditional callables must accept any integer capacity in
    ``[0, cap_bounds[1]]``: mechanisms evaluate them at residual capacities
    that can fall below the prior's lower bound.
    """

    cost_bounds: tuple[float, float]
    cap_bounds: tuple[int, int]
    cond_cdf: Callable[[float, int], float]
    cond_density: Callable[[float, int], float]
    linear_h: tuple[float, float] | None = None
    known_regular: bool = False
    _regularity_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        lo, hi = self.cost_bounds
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"cost_bounds must satisfy lo < hi, got {self.cost_bounds}")
        klo = _check_int(self.cap_bounds[0], "cap_bounds[0]")
        khi = _check_int(self.cap_bounds[1], "cap_bounds[1]")
        if not 0 <= klo <= khi:
            raise ValueError(f"cap_bounds must satisfy 0 <= lo <= hi, got {self.cap_bounds}")

    # -- virtual cost and scores ------------------------------------------

    def virtual_cost(self, cost: float, capacity: int) -> float:
        """H(c, k) = c + F(c|k) / f(c|k).

        Raises ``DegenerateDistributionError`` when the conditional density is
        not strictly positive at the evaluation point.
        """
        lo, hi = self.cost_bounds
        if not lo <= cost <= hi:
            raise ValueError(f"cost {cost} outside bounds [{lo}, {hi}]")
        if self.linear_h is not None:
            a, b = self.linear_h
            return a + b * cost
        dens = self.cond_density(cost, capacity)
        if dens <= 0.0:
            raise DegenerateDistributionError(
                f"conditional density {dens} at (cost={cost}, capacity={capacity})"
            )
        return cost + self.cond_cdf(cost, capacity) / dens

    def virtual_cost_array(self, costs: np.ndarray, capacity: int) -> np.ndarray:
        costs = np.asarray(costs, dtype=float)
        lo, hi = self.cost_bounds
        if costs.size and (costs.min() < lo or costs.max() > hi):
            raise ValueError("cost array leaves the distribution bounds")
        if self.linear_h is not None:
            a, b = self.linear_h
            return a + b * costs
        return np.array([self.virtual_cost(float(c), capacity) for c in costs])

    def g_score(self, quality: float, reward_scale: float, cost: float, capacity: int) -> float:
        """Per-unit virtual surplus G = R*q - H(c, k)."""
        return reward_scale * quality - self.virtual_cost(cost, capacity)

    def g_inverse(self, quality: float, reward_scale: float, score: float, capacity: int) -> float:
        """The cost z solving G(z) = score, clamped to the upper cost bound.

        Scores below ``G(cost_hi)`` return ``cost_hi`` (the price cap used by
        the payment rule); scores above ``G(cost_lo)`` have no solution and
        raise ``ValueError``.  Closed form when ``linear_h`` is available,
        bisection to absolute tolerance ``_BISECT_TOL`` otherwise.
        """
        lo, hi = self.cost_bounds
        target = reward_scale * quality - score  # H(z) must equal this
        if self.linear_h is not None:
            a, b = self.linear_h
            if b <= 0:
                raise DegenerateDistributionError("affine virtual cost must be increasing")
            z = (target - a) / b
            if z < lo - 1e-9:
                raise ValueError(f"score {score} above the invertible range (max G at cost_lo)")
            return min(max(z, lo), hi)
        h_lo = self.virtual_cost(lo, capacity)
        if target < h_lo - 1e-12:
            raise ValueError(f"score {score} above the invertible range (max G at cost_lo)")
        if target >= self.virtual_cost(hi, capacity):
            return hi
        a, b = lo, hi
        while b - a > _BISECT_TOL:
            mid = 0.5 * (a + b)
            if self.virtual_cost(mid, capacity) < target:
                a = mid
            else:
                b = mid
        return 0.5 * (a + b)

    # -- shape checks ------------------------------------------------------

    def check_regularity(self, grid_resolution: int = 64) -> bool:
        """True iff H is non-decreasing in cost and non-increasing in capacity
        on an evaluation grid (equality tolerance 1e-12).

        Degenerate densities report False rather than raising.  Results are
        cached per resolution; the built-in family short-circuits.
        """
        if grid_resolution < 1:
            raise ValueError("grid_resolution must be >= 1")
        if self.known_regular:
            return True
        cached = self._regularity_cache.get(grid_resolution)
        if cached is None:
            cached = self._regularity_scan(grid_resolution)
            self._regularity_cache[grid_resolution] = cached
        return cached

    def _regularity_scan(self, resolution: int) -> bool:
        lo, hi = self.cost_bounds
        costs = np.linspace(lo, hi, resolution)
        caps = _integer_grid(self.cap_bounds[0], self.cap_bounds[1], resolution)
        try:
            h = np.array([[self.virtual_cost(float(c), int(k)) for c in costs] for k in caps])
        except DegenerateDistributionError:
            return False
        if h.shape[1] > 1 and np.any(np.diff(h, axis=1) < -1e-12):
            return False
        if h.shape[0] > 1 and np.any(np.diff(h, axis=0) > 1e-12):
            return False
        return True

    def validate(self, grid_resolution: int = 33) -> None:
        """Numerically sanity-check the conditional callables on a grid.

        Verifies F(cost_lo|k) = 0, F(cost_hi|k) = 1, monotonicity of F, strict
        positivity of f on the interior, and that f matches the central
        difference of F.  Raises ``ValueError`` describing the first failure.
        """
        lo, hi = self.cost_bounds
        costs = np.linspace(lo, hi, grid_resolution)
        step = (hi - lo) * 1e-6
        for k in _integer_grid(self.cap_bounds[0], self.cap_bounds[1], grid_resolution):
            k = int(k)
            cdf = np.array([self.cond_cdf(float(c), k) for c in costs])
            if abs(cdf[0]) > 1e-9 or abs(cdf[-1] - 1.0) > 1e-9:
                raise ValueError(
                    f"cond_cdf endpoints must be 0 and 1 at capacity {k}, "
                    f"got {cdf[0]} and {cdf[-1]}"
                )
            if np.any(np.diff(cdf) < -1e-12):
                raise ValueError(f"cond_cdf not non-decreasing at capacity {k}")
            for c in costs[1:-1]:
                c = float(c)
                dens = self.cond_density(c, k)
                if dens <= 0.0:
                    raise ValueError(f"cond_density not positive at (cost={c}, capacity={k})")
                diff = (self.cond_cdf(c + step, k) - self.cond_cdf(c - step, k)) / (2 * step)
                if abs(diff - dens) > 1e-3 * max(1.0, abs(dens)):
                    raise ValueError(
                        f"cond_density disagrees with the derivative of cond_cdf at "
                        f"(cost={c}, capacity={k}): {dens} vs {diff}"
                    )


def uniform_type_distribution(
    cost_lo: float, cost_hi: float, cap_lo: int, cap_hi: int
) -> TypeDistribution:
    """Independent uniform cost on [cost_lo, cost_hi] times a discrete-uniform
    integer capacity on {cap_lo, ..., cap_hi}.

    Capacity-independent, hence regular, with the affine virtual cost
    ``H(c) = 2c - cost_lo`` and exact closed-form score inversion.
    """
    if not cost_hi > cost_lo:
        raise ValueError(f"need cost_hi > cost_lo, got [{cost_lo}, {cost_hi}]")
    cap_lo = _check_int(cap_lo, "cap_lo")
    cap_hi = _check_int(cap_hi, "cap_hi")
    if not 0 <= cap_lo <= cap_hi:
        raise ValueError(f"need 0 <= cap_lo <= cap_hi, got [{cap_lo}, {cap_hi}]")
    width = cost_hi - cost_lo

    def cond_cdf(c: float, k: int) -> float:
        return min(max((c - cost_lo) / width, 0.0), 1.0)

    def cond_density(c: float, k: int) -> float:
        return 1.0 / width

    return TypeDistribution(
        cost_bounds=(cost_lo, cost_hi),
        cap_bounds=(cap_lo, cap_hi),
        cond_cdf=cond_cdf,
        cond_density=cond_density,
        linear_h=(-cost_lo, 2.0),
        known_regular=True,
    )


@dataclass(frozen=True)
class MarketConfig:
    """One auction instance: budget of units, reward scale, per-agent priors."""

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


@dataclass(frozen=True)
class RewardRealization:
    """n x L table of Bernoulli outcomes; entry (i, j) is the outcome of the
    j-th unit procured from agent i (counted per agent, not globally)."""

    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table)
        if table.ndim != 2:
            raise ValueError(f"realization table must be 2-D, got shape {table.shape}")
        if not ((table == 0) | (table == 1)).all():
            raise ValueError("realization table entries must be 0 or 1")
        table = table.astype(np.uint8)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    @property
    def n_agents(self) -> int:
        return self.table.shape[0]

    @property
    def n_units(self) -> int:
        return self.table.shape[1]


def sample_reward_realization(qualities, n_units: int, seed) -> RewardRealization:
    """Draw the n x L outcome table, row i i.i.d. Bernoulli(q_i).

    Deterministic given ``seed`` (int, SeedSequence, or Generator).
    """
    q = np.asarray(qualities, dtype=float)
    if q.ndim != 1:
        raise ValueError("qualities must be a vector")
    if not ((q >= 0.0) & (q <= 1.0)).all():
        raise ValueError("qualities must lie in [0, 1]")
    n_units = _check_int(n_units, "n_units")
    if n_units < 0:
        raise ValueError(f"n_units must be >= 0, got {n_units}")
    rng = np.random.default_rng(seed)
    table = (rng.random((q.size, n_units)) < q[:, None]).astype(np.uint8)
    return RewardRealization(table)
