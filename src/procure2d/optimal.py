"""Optimal auction for known qualities: greedy virtual-surplus allocation
with threshold payments.

Winners are paid a critical price per unit: the highest cost they could have
bid and still won that unit against the competition, capped at their upper
cost bound.  ``run_2d_opt`` sorts the agents by score once per auction; the
allocation is one walk of that order, and each winner's rivals are priced by
another walk of the same order over the residual capacities, with that
winner left out.  ``integral_payment`` recomputes the same amount through the
equivalent cost-integral form (bid cost times units, plus the integral of
the allocation over all higher cost bids) by exact summation of the step
function; the two routes agreeing is the main correctness check on the
payment rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .allocation import _score_order, _walk, alloc_greedy
from .model import Bid, MarketConfig, _check_qualities

__all__ = [
    "MechanismOutcome",
    "run_2d_opt",
    "integral_payment",
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


def _validate_instance(config: MarketConfig, qualities, bids: Sequence[Bid]) -> list[float]:
    config.check_bids(bids)
    return _check_qualities(qualities, config.n_agents)


def _scores(config: MarketConfig, q: list[float], bids: Sequence[Bid]) -> list[float]:
    scores = [
        dist.g_score(q[i], config.reward_scale, bids[i].cost, bids[i].capacity)
        for i, dist in enumerate(config.distributions)
    ]
    if not all(map(math.isfinite, scores)):
        raise ValueError("scores must be finite")
    return scores


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
    q = _validate_instance(config, qualities, bids)
    reward_scale = config.reward_scale
    caps = [bid.capacity for bid in bids]
    scores = _scores(config, q, bids)
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


def integral_payment(
    config: MarketConfig,
    qualities,
    bids: Sequence[Bid],
    agent: int,
) -> float:
    """Payment to ``agent`` via the cost-integral identity.

    Computes ``c_i * x_i(c_i) + integral over z in [c_i, cost_hi] of x_i(z)``
    where ``x_i(z)`` is the allocation to the agent were it to bid cost z,
    everything else fixed.  The allocation is a step function of z; its
    breakpoints are the bids at which some competitor's score overtakes the
    agent's, so the integral is an exact finite sum evaluated at segment
    midpoints.
    """
    q = _validate_instance(config, qualities, bids)
    i = agent
    dist_i = config.distributions[i]
    cost_lo, cost_hi = dist_i.cost_bounds
    bid_cost = bids[i].cost
    cap_i = bids[i].capacity
    reward_scale = config.reward_scale
    caps = np.array([bid.capacity for bid in bids], dtype=np.int64)
    scores = _scores(config, q, bids)

    def units_at(z: float) -> int:
        s = scores.copy()
        s[i] = dist_i.g_score(q[i], reward_scale, z, cap_i)
        return int(alloc_greedy(s, caps, config.units)[i])

    score_at_lo = dist_i.g_score(q[i], reward_scale, cost_lo, cap_i)
    cuts = {bid_cost, cost_hi}
    rival_scores = [float(scores[k]) for k in range(len(bids)) if k != i]
    for g in rival_scores + [0.0]:
        if g <= score_at_lo:
            z = dist_i.g_inverse(q[i], reward_scale, g, cap_i)
            if bid_cost < z < cost_hi:
                cuts.add(z)

    points = sorted(cuts)
    total = 0.0
    for a, b in zip(points[:-1], points[1:]):
        if b > a:
            total += units_at(0.5 * (a + b)) * (b - a)
    return bid_cost * units_at(bid_cost) + total
