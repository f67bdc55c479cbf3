"""Optimal auction for known qualities: greedy virtual-surplus allocation
with threshold payments.

Winners are paid a critical price per unit: the highest cost they could have
bid and still won that unit against the competition, capped at their upper
cost bound.  ``run_2d_opt`` admits one bid profile or a sequence of them,
then runs every profile as one row of the one core, ``_auction``, which the
explore-then-commit baseline also runs, on its own admitted rows.  The core
works on ``(rows, n)`` arrays: a stable sort orders each row by score, the
allocation is one walk of that order (a clipped running sum of the
capacities), and every winner's rivals are priced by another walk of the
same order over the residual capacities, with that winner left out: one
stacked walk for the winners of all rows.  The test suite
recomputes every payment through the equivalent cost-integral form (bid
cost times units, plus the integral of the allocation over all higher cost
bids); the two agreeing is the main correctness check on the payment rule.
``alloc_greedy`` is the walk on one row behind a validating wrapper, for
callers holding a score vector.
"""

from __future__ import annotations

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
    """Allocation vector, payment vector, and the buyer's utility; the outcome
    of many runs carries their leading axes on every field."""

    allocation: np.ndarray
    payments: np.ndarray
    auctioneer_utility: float


def auctioneer_utility(allocation, payments, qualities, reward_scale: float) -> float:
    """sum_i (units_i * R * q_i - payment_i)."""
    allocation = np.asarray(allocation, dtype=float)
    payments = np.asarray(payments, dtype=float)
    q = np.asarray(qualities, dtype=float)
    return float(np.dot(allocation, reward_scale * q) - payments.sum())


def _walk(caps, budget):
    """Units per slot when the slots, in order along the last axis, each take
    ``min(capacity, remaining budget)``: the budget less the capacities
    before the slot, clipped to ``[0, capacity]``.  ``budget`` broadcasts
    against ``caps`` without the last axis."""
    before = caps.cumsum(axis=-1) - caps
    return np.minimum(np.maximum(budget - before, 0), caps)


def _order(scores, caps):
    """Each row's stable order by non-increasing score (ties to the lowest
    index) and the int64 capacities in that order, zero from the first
    negative score on, where every walk stops."""
    order = (-scores).argsort(axis=1, kind="stable")
    return order, np.where(scores < 0.0, 0, caps)[np.arange(len(order))[:, None], order]


def _clip(z, lo, hi):
    """``min(max(z, lo), hi)`` elementwise with Python's rule for equal
    arguments (the first wins), so that signed zeros come out as
    ``TypeDistribution.g_inverse`` gives them."""
    z = np.where(lo > z, lo, z)
    return np.where(hi < z, hi, z)


def _priors(distributions) -> np.ndarray:
    """Each agent's virtual cost ``(a, b)`` and cost bounds ``(lo, hi)``: a
    ``(4, 1, n)`` array, one row serving every row of a call."""
    return np.array([(*dist.linear_h, *dist.cost_bounds) for dist in distributions]).T[:, None]


def _auction(q, costs, caps, budget, reward_scale: float, priors):
    """The auction on admitted rows: units and threshold payments, each
    ``(rows, n)``, at bid costs ``costs`` and int64 capacities ``caps`` (each
    ``(rows, n)``) and qualities ``q`` (the same, or one row for every row),
    buying at most ``budget[r]`` units in row r.  ``priors`` holds the virtual
    cost's ``(a, b)`` and the cost bounds ``(lo, hi)`` per row and agent, a
    ``(4, rows, n)`` array or one ``(4, 1, n)`` for every row (``_priors``).

    The winner in slot w of the score order is priced by its rivals: the
    units a walk of the residual capacities, with the winner left out, sells
    at the winner's units.  That is what a walk of the whole budget with the
    winner left out sells beyond the allocation, so one stacked walk per
    slot up to the last winning one prices every winner of every row.  Each
    winner's payment is its units no rival takes at its price cap (the upper
    cost bound, shrunk to ``G^{-1}(0)`` when its own score would turn
    negative before reaching it), plus each rival's units at the cost where
    the winner's score meets that rival's, never above the cap.  The rival
    terms are added in ascending rival index, not in score order: the
    payment's last bits depend on the order of the additions.
    """
    a, b, lo, hi = priors
    worth = reward_scale * q
    scores = worth - (a + b * costs)
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    order, live = _order(scores, caps)
    rows, n = order.shape
    took = _walk(live, budget[:, None])
    # Slots up to the last that sells in any row, each left out of one walk;
    # then each rival's units beyond the allocation, at the rival's index
    # (the left-out slot's own entry, -units, to 0).
    selling = np.logical_or.reduce(took, axis=0).nonzero()[0]
    slots = int(selling[-1]) + 1 if selling.size else 0
    walks = _walk(live[:, None, :] * ~np.eye(slots, n, dtype=bool), budget[:, None, None])
    row = np.arange(rows)[:, None]
    winner = order[:, :slots]
    rivals = np.empty_like(walks)
    rivals[row[:, :, None], np.arange(slots)[:, None], order[:, None, :]] = np.maximum(
        walks - took[:, None, :], 0)

    # The cost at which each winner's score falls to each rival's score, and
    # last to zero (its price cap); no rival's price exceeds the cap.
    worth = worth[row if len(worth) > 1 else 0, winner][:, :, None]
    a, b, lo, hi = priors[:, row if priors.shape[1] > 1 else 0, winner][:, :, :, None]
    met = np.concatenate([scores, np.zeros((rows, 1))], axis=1)
    costs_met = _clip((worth - met[:, None, :] - a) / b, lo, hi)
    price_cap, critical = costs_met[:, :, n:], costs_met[:, :, :n]
    critical = np.where(price_cap < critical, price_cap, critical)
    # The payment adds its terms one at a time in ascending rival index (its
    # last bits depend on the order); a rival that takes nothing adds -0.0,
    # which leaves every float as it is.
    won = took[:, :slots]
    terms = np.concatenate([(won - rivals.sum(axis=2))[:, :, None] * price_cap,
                            np.where(rivals > 0, rivals * critical, -0.0)], axis=2)
    units, payments = np.empty_like(took), np.zeros((rows, n))
    units[row, order] = took
    payments[row, winner] = np.where(won > 0, terms.cumsum(axis=2)[:, :, -1], 0.0)
    return units, payments


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
    (order,), (live,) = _order(scores[None], caps.astype(np.int64)[None])
    units = np.empty_like(live)
    units[order] = _walk(live, budget)
    return units


def run_2d_opt(config: MarketConfig, qualities, bids: Sequence[Bid] | Sequence[Sequence[Bid]]):
    """Run the optimal known-quality auction on a bid profile, or on each of
    a sequence of profiles.

    Winners are paid per unit the critical bid at which a competitor (on
    residual capacity) would have taken the unit, capped at the winner's
    upper cost bound; units no competitor could absorb are paid at the upper
    bound.  Losers pay and receive nothing.  Every ``TypeDistribution`` is
    regular (its virtual cost increases in cost), so no prior is refused.

    ``bids`` is one profile, giving one ``MechanismOutcome``, or a sequence
    of profiles, giving a list of outcomes, one per profile: every profile is
    admitted, then all run as the rows of one call of the core.
    """
    one = not len(bids) or isinstance(bids[0], Bid)
    profiles = [bids] if one else list(bids)
    for profile in profiles:
        config.check_bids(profile)
    q = np.array(_check_qualities(qualities, config.n_agents))
    costs = np.array([[bid.cost for bid in profile] for profile in profiles])
    caps = np.array([[bid.capacity for bid in profile] for profile in profiles], dtype=np.int64)
    reward_scale = config.reward_scale
    units, payments = _auction(q[None], costs, caps, np.full(len(profiles), config.units),
                               reward_scale, _priors(config.distributions))
    outcomes = [MechanismOutcome(u, p, auctioneer_utility(u, p, q, reward_scale))
                for u, p in zip(units, payments)]
    return outcomes[0] if one else outcomes
