"""Greedy capacitated allocation of a unit budget in score order."""

from __future__ import annotations

import numpy as np

__all__ = ["alloc_greedy"]


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
