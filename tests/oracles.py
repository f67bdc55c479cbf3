"""Independent oracles shared by the test modules.

Everything here recomputes expected values from first principles (exhaustive
enumeration, direct formula evaluation) without touching the implementation
paths under test.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from procure2d import (
    AgentType,
    MarketConfig,
    MechanismOutcome,
    RunTrace,
    TraceStep,
    uniform_type_distribution,
)


def brute_force_best_value(scores, capacities, budget) -> float:
    """Maximum of sum(scores * units) over all feasible integer allocations."""
    best = 0.0
    ranges = [range(int(c) + 1) for c in capacities]
    for units in itertools.product(*ranges):
        if sum(units) > budget:
            continue
        value = float(np.dot(scores, units))
        if value > best:
            best = value
    return best


def random_small_instance(rng, *, n_max=4, cap_max=5, units_max=12, quality_lo=0.0):
    """A random regular market: uniform costs on [0, 1], small capacities."""
    n = int(rng.integers(2, n_max + 1))
    dist = uniform_type_distribution(0.0, 1.0, 1, cap_max)
    types = [
        AgentType(
            float(rng.uniform(0.0, 1.0)),
            int(rng.integers(1, cap_max + 1)),
            float(rng.uniform(quality_lo, 1.0)),
        )
        for _ in range(n)
    ]
    market = MarketConfig(int(rng.integers(1, units_max + 1)), 30.0, (dist,) * n)
    return market, types


def units_vs_own_score(own_scores, rival_scores, rival_caps, own_cap, budget) -> np.ndarray:
    """Units the greedy rule hands an agent as a function of its own score,
    vectorized, derived by rank counting instead of simulating the allocator:
    whoever outranks the agent absorbs capacity first, the agent takes what
    is left up to its capacity, and a negative own score yields nothing.

    Assumes no exact score ties between the agent and a rival (true almost
    surely for the random instances this is used on), and that every rival
    score is distinct from zero.
    """
    own_scores = np.asarray(own_scores, dtype=float)
    rival_scores = np.asarray(rival_scores, dtype=float)
    rival_caps = np.asarray(rival_caps, dtype=np.int64)
    keep = rival_scores >= 0  # negative-score rivals never absorb anything
    order = np.argsort(-rival_scores[keep], kind="stable")
    sorted_scores = rival_scores[keep][order]
    prefix = np.concatenate([[0], np.cumsum(rival_caps[keep][order])])
    # rivals with score strictly above the agent's get served first
    beats = np.searchsorted(-sorted_scores, -own_scores, side="left")
    left = np.clip(budget - prefix[beats], 0, own_cap)
    return np.where(own_scores >= 0, left, 0).astype(np.int64)


def scalar_ucb_run(config, bids, realization, mu, draws, bonus_scale=0.5):
    """The 2D-UCB learning auction decided one round at a time, computing
    each round's width with ``math`` and checking every agent's capacity: the
    reference that ``run_2d_ucb`` must reproduce bit for bit.  Takes the
    resample draws explicitly and returns ``(MechanismOutcome, RunTrace)``."""
    n = config.n_agents
    n_rounds = config.units
    reward_scale = config.reward_scale
    h = [
        dist.virtual_cost(draw.alpha, bid.capacity)
        for dist, draw, bid in zip(config.distributions, draws, bids)
    ]
    caps = [bid.capacity for bid in bids]
    rows = [realization.table[i] for i in range(n)]
    counts, succ, q_hat = [0] * n, [0] * n, [0.0] * n
    trace = RunTrace()

    unit = 0
    for i in range(n):
        if caps[i] < 1:
            continue
        r = int(rows[i][0])
        counts[i] = 1
        succ[i] = r
        q_hat[i] = float(r)
        trace.steps.append(TraceStep(unit, i, r, None))
        unit += 1

    inv_sqrt = [1.0 / math.sqrt(c) if c else 0.0 for c in counts]
    for t in range(n, n_rounds):
        best = -math.inf
        pick = -1
        width = math.sqrt(bonus_scale * math.log(t))
        for j in range(n):
            if counts[j] < caps[j]:
                s = reward_scale * (q_hat[j] + width * inv_sqrt[j]) - h[j]
                if s > best:
                    best = s
                    pick = j
        if pick < 0:
            break
        if best <= 0.0:
            trace.steps.append(TraceStep(t, None, None, best))
            break
        r = int(rows[pick][counts[pick]])
        succ[pick] += r
        counts[pick] += 1
        q_hat[pick] = succ[pick] / counts[pick]
        inv_sqrt[pick] = 1.0 / math.sqrt(counts[pick])
        trace.steps.append(TraceStep(t, pick, r, best))

    payments = np.zeros(n)
    for i, (bid, draw) in enumerate(zip(bids, draws)):
        payments[i] = bid.cost * counts[i]
        if draw.beta > bid.cost:
            cost_hi = config.distributions[i].cost_bounds[1]
            payments[i] += float(counts[i]) * (cost_hi - bid.cost) / mu
    utility = reward_scale * sum(succ) - float(payments.sum())
    return MechanismOutcome(np.array(counts, dtype=np.int64), payments, utility), trace
