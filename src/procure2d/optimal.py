"""Optimal auction for known qualities: greedy virtual-surplus allocation
with threshold payments.

Winners are paid a critical price per unit: the highest cost they could have
bid and still won that unit against the competition, capped at their upper
cost bound.  ``run_2d_opt`` sorts the agents by score once per auction; the
allocation is one walk of that order, and each winner's rivals are priced by
another walk of the same order over the residual capacities, with that
winner left out.  The test suite recomputes every payment through the
equivalent cost-integral form (bid cost times units, plus the integral of
the allocation over all higher cost bids); the two agreeing is the main
correctness check on the payment rule.  ``alloc_greedy`` is the same walk
behind a validating wrapper, for callers holding a score vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import Bid, MarketConfig, _check_qualities

__all__ = [
    "MechanismOutcome",
    "alloc_greedy",
    "run_2d_opt",
    "auctioneer_utility",
]


@dataclass(frozen=True)
class MechanismOutcome:
    """Allocation vector, payment vector, and the buyer's utility."""

    allocation: np.ndarray
    payments: np.ndarray
    auctioneer_utility: float


def auctioneer_utility(allocation, payments, qualities, reward_scale: float) -> float:
    """sum_i (units_i * R * q_i - payment_i)."""
    allocation = np.asarray(allocation, dtype=float)
    payments = np.asarray(payments, dtype=float)
    q = np.asarray(qualities, dtype=float)
    return float(np.dot(allocation, reward_scale * q) - payments.sum())


def _score_order(scores) -> list[int]:
    """Agent indices by non-increasing score, ties by ascending index."""
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


def _walk(order, scores, capacities, budget: int) -> list[int]:
    """Units per agent from walking ``order``: each agent takes
    ``min(capacity, remaining budget)``; the walk stops at the first negative
    score or when the budget runs out."""
    units = [0] * len(scores)
    remaining = budget
    for i in order:
        if remaining <= 0 or scores[i] < 0.0:
            break
        take = min(capacities[i], remaining)
        units[i] = take
        remaining -= take
    return units


def alloc_greedy(scores, capacities, budget: int) -> np.ndarray:
    """Allocate up to ``budget`` units greedily by non-increasing score.

    Agents are processed in non-increasing score order (ties broken by
    ascending index); each receives ``min(capacity, remaining budget)``.
    Processing stops at the first negative score or when the budget runs out;
    zero-score agents are eligible.  For non-negative capacities this
    maximizes ``sum(scores * units)`` over integer allocations with
    ``units <= capacities`` and ``sum(units) <= budget``.
    """
    scores = np.asarray(scores, dtype=float)
    caps = np.asarray(capacities)
    if scores.ndim != 1 or caps.shape != scores.shape:
        raise ValueError("scores and capacities must be equal-length vectors")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    if not np.issubdtype(caps.dtype, np.integer):
        raise TypeError("capacities must be integers")
    if caps.size and caps.min() < 0:
        raise ValueError("capacities must be >= 0")
    budget = int(budget)
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")

    scores = scores.tolist()
    units = _walk(_score_order(scores), scores, caps.tolist(), budget)
    return np.array(units, dtype=np.int64)


def run_2d_opt(
    config: MarketConfig,
    qualities,
    bids: Sequence[Bid],
) -> MechanismOutcome:
    """Run the optimal known-quality auction on a bid profile.

    Winners are paid per unit the critical bid at which a competitor (on
    residual capacity) would have taken the unit, capped at the winner's
    upper cost bound; units no competitor could absorb are paid at the upper
    bound.  Losers pay and receive nothing.  Every ``TypeDistribution`` is
    regular (its virtual cost increases in cost), so no prior is refused.
    """
    config.check_bids(bids)
    q = _check_qualities(qualities, config.n_agents)
    reward_scale = config.reward_scale
    caps = [bid.capacity for bid in bids]
    scores = [
        dist.g_score(q[i], reward_scale, bids[i].cost, caps[i])
        for i, dist in enumerate(config.distributions)
    ]
    if not all(map(math.isfinite, scores)):
        raise ValueError("scores must be finite")
    order = _score_order(scores)
    units = _walk(order, scores, caps, config.units)

    payments = [0.0] * len(units)
    for i, won in enumerate(units):
        if won == 0:
            continue
        dist_i = config.distributions[i]
        # Highest cost at which the winner still allocates: the upper cost
        # bound, shrunk to G_i^{-1}(0) when the winner's own score would turn
        # negative before reaching it.  Units beyond that bid are never won,
        # so they cannot be priced above it.
        price_cap = dist_i.g_inverse(q[i], reward_scale, 0.0, caps[i])
        residual = [cap - taken for cap, taken in zip(caps, units)]
        residual[i] = 0
        rival_units = _walk(order, scores, residual, won)
        pay = float(won - sum(rival_units)) * price_cap
        # Summed over rivals in ascending index, not in score order: the
        # payment's last bits depend on the order of the additions.
        for k, taken in enumerate(rival_units):
            if taken:
                critical = dist_i.g_inverse(q[i], reward_scale, scores[k], caps[i])
                pay += float(taken) * min(critical, price_cap)
        payments[i] = pay

    units = np.array(units, dtype=np.int64)
    payments = np.array(payments)
    return MechanismOutcome(units, payments, auctioneer_utility(units, payments, q, reward_scale))

