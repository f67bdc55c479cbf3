"""Sequential procurement with quality learning.

``run_2d_ucb`` buys one unit per round: bids are resampled once up front,
every agent supplies one unit to seed an empirical quality estimate, and each
later round goes to the capacity-feasible agent with the best optimistic
score ``R * (q_hat + width(t) / sqrt(n_i)) - H(alpha)``, where
``width(t) = sqrt(c ln t)`` (``c = 1/2`` by default, ``c = 2`` is UCB1's wide
bonus) and ties go to the lowest index.  The first non-positive best score
ends the whole auction.  Payments follow the resampling transformation: bid
cost per unit, plus the ``1/mu`` premium when the agent's beta moved
(``resample.transform_premium``, the rule every mechanism here pays by).

The round loop makes the same decisions as that scalar rule in two phases.
A full scan scores every agent still below capacity and buys one unit from
the best.  A leader run then keeps buying from it, for at most
``_LEADER_HORIZON`` further rounds, while its score beats both 0 and the
best rival score at the run's last round.  While the leader alone is
procured, a rival's estimate and sample count stay fixed, so its score moves
only through the width, which never shrinks (``_bonus_widths`` checks this),
and round-to-nearest float arithmetic is monotone in each operand: the
rival's score at the last round bounds its score at every round before, and
a leader above the bound is the strict maximum the full scan would pick.
A leader change costs one extra pass over the rivals, about one round's
work, so the cost stays a bounded amount per round whatever the instance;
an earlier loop that advanced the leader in numpy blocks paid about 25 us
per change, and its cost followed the number of leader changes, which
differs threefold between instances.  Rewards and widths are read through
``memoryview`` (Python ints and floats, no numpy scalars), the widths from
one lazily grown table per bonus scale built with ``math.log`` and
``math.sqrt``, which ``run_ucb_batch`` reads too, so both runners see the
same bits at every budget.  Trace scores are Python floats.

The narrow ``c = 1/2`` is the default because the reward scale is tens of
times the cost range: under UCB1's wide bonus the scores stay optimistic
long after the estimates separate, and the learner trails even the
explore-then-commit baselines (see ``run_2d_ucb``).

``run_eps_separated`` is the explore-then-commit baseline: a fixed number of
round-robin exploration units, then one shot of the optimal auction run with
the frozen quality estimates on the residual capacities.

``run_ucb_batch`` evaluates many replications of the UCB allocation loop at
once on stacked reward tables; it exists because truthfulness audits need
five to six orders of magnitude more runs than a per-run Python loop can
deliver, and it is cross-checked against ``run_2d_ucb`` in the test suite.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import Bid, MarketConfig, RewardRealization
from .optimal import MechanismOutcome, run_2d_opt
from .resample import ResampleDraw, child_seeds, self_resample, transform_premium

__all__ = [
    "TraceStep",
    "RunTrace",
    "run_2d_ucb",
    "run_ucb_batch",
    "run_eps_separated",
]


@dataclass(frozen=True)
class TraceStep:
    """One procurement (or the terminal stop): round, agent, observed reward,
    and the optimistic score that justified the choice.  ``agent`` is None on
    the stop row; ``g_hat`` is None on initialization rows."""

    round: int
    agent: int | None
    reward: int | None
    g_hat: float | None


@dataclass
class RunTrace:
    steps: list[TraceStep] = field(default_factory=list)

    def agents(self) -> list[int]:
        return [s.agent for s in self.steps if s.agent is not None]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("round,agent,reward,g_hat\n")
            for s in self.steps:
                agent = "" if s.agent is None else s.agent
                reward = "" if s.reward is None else s.reward
                g_hat = "" if s.g_hat is None else repr(s.g_hat)
                fh.write(f"{s.round},{agent},{reward},{g_hat}\n")


def _resolve_draws(bids, distributions, mu, seed, draws):
    if draws is not None:
        if len(draws) != len(bids):
            raise ValueError("need one resample draw per bid")
        return list(draws)
    return [
        self_resample(bid.cost, dist.cost_bounds, mu, child)
        for bid, dist, child in zip(bids, distributions, child_seeds(seed, len(bids)))
    ]


# Bonus widths ``sqrt(c ln t)`` by bonus scale ``c``, shared by every run in
# the process and grown on demand to the largest budget seen.
_WIDTHS: dict[float, np.ndarray] = {}

# Rounds a leader run in ``run_2d_ucb`` may cover past its full scan before
# the rivals' bound is recomputed.  A longer horizon loosens the bound, so
# more runs end early; a shorter one rescans more often.  On the ten default
# budgets (one type sample, two realizations, master seeds 0 and 31) 64 left
# 3.0-4.1% of the rounds to full scans, against 6.5-7.2% at 16 and 5.6-8.5%
# at 256.
_LEADER_HORIZON = 64


def _bonus_widths(bonus_scale: float, n_rounds: int) -> np.ndarray:
    """Widths ``sqrt(bonus_scale * ln t)`` for every round ``t < n_rounds``
    (entry 0 is unused), always built with ``math.log`` and ``math.sqrt`` so
    that every caller sees the same bits whatever its budget."""
    widths = _WIDTHS.get(bonus_scale, np.full(1, math.nan))
    if len(widths) < n_rounds:
        grown = (math.sqrt(bonus_scale * math.log(t)) for t in range(len(widths), n_rounds))
        widths = np.concatenate([widths, np.fromiter(grown, float, n_rounds - len(widths))])
        # run_2d_ucb's leader runs are exact only if no width ever shrinks
        if not (np.diff(widths[1:]) >= 0.0).all():
            raise RuntimeError(f"bonus widths for scale {bonus_scale} are not non-decreasing")
        _WIDTHS[bonus_scale] = widths
    return widths


def run_2d_ucb(
    config: MarketConfig,
    bids: Sequence[Bid],
    realization: RewardRealization,
    mu: float,
    seed,
    *,
    resample_draws: Sequence[ResampleDraw] | None = None,
    record_trace: bool = True,
    bonus_scale: float = 0.5,
    regularity_grid: int = 64,
) -> tuple[MechanismOutcome, RunTrace | None]:
    """One full learning auction over ``config.units`` rounds.

    Requires ``units >= n_agents`` so the seeding pass is feasible.  The
    reported auctioneer utility is realized (reward scale times observed
    successes, minus payments), not the expectation under the true qualities,
    which the mechanism never sees.  ``bonus_scale`` is ``c`` in the
    exploration width ``sqrt(c ln t)``.  The narrow 0.5 is the default: with
    reward scales tens of times the cost range, UCB1's wide bonus (2.0) keeps
    every score optimistic long past the point where the estimates separate,
    and the learner then trails even the explore-then-commit baselines at
    realistic budgets.  The narrow bonus keeps the logarithmic exploration
    schedule and lets the learner approach the omniscient benchmark faster
    than every baseline.

    Deviation from the paper: an agent reporting capacity 0 is skipped in
    the seeding pass, but the round loop still starts at round ``n``, so a
    run buys at most ``units`` minus the number of such agents.
    """
    n = config.n_agents
    n_rounds = config.units
    if n_rounds < n:
        raise ValueError(f"units ({n_rounds}) must be >= number of agents ({n})")
    if len(bids) != n:
        raise ValueError(f"expected {n} bids, got {len(bids)}")
    if realization.table.shape != (n, n_rounds):
        raise ValueError(
            f"realization must be {n}x{n_rounds}, got {realization.table.shape!r}"
        )
    if not 0.0 <= bonus_scale < math.inf:
        raise ValueError(f"bonus_scale must be finite and >= 0, got {bonus_scale}")
    for i, dist in enumerate(config.distributions):
        if not dist.check_regularity(regularity_grid):
            raise ValueError(f"distribution of agent {i} is not regular")

    draws = _resolve_draws(bids, config.distributions, mu, seed, resample_draws)
    reward_scale = config.reward_scale
    h = [
        float(dist.virtual_cost(draw.alpha, bid.capacity))
        for dist, draw, bid in zip(config.distributions, draws, bids)
    ]
    caps = [bid.capacity for bid in bids]
    # memoryviews index to Python ints
    rows = [memoryview(realization.table[i]) for i in range(n)]

    counts, succ, q_hat = [0] * n, [0] * n, [0.0] * n
    trace = RunTrace() if record_trace else None

    # Seeding pass: one unit from every agent unconditionally (capacity
    # permitting).
    unit = 0
    for i in range(n):
        if caps[i] < 1:
            continue
        r = int(rows[i][0])
        counts[i] = 1
        succ[i] = r
        q_hat[i] = float(r)
        if trace is not None:
            trace.steps.append(TraceStep(unit, i, r, None))
        unit += 1

    # Optimistic scores are recomputed for every agent at the current round:
    # a score must be a function of (estimate, samples, round) alone, never of
    # when the agent was last procured, or the allocation loses its
    # cost-monotonicity.
    widths = memoryview(_bonus_widths(bonus_scale, n_rounds))  # yields Python floats
    inv_sqrt = [1.0 / math.sqrt(c) if c else 0.0 for c in counts]
    live = [j for j in range(n) if counts[j] < caps[j]]
    t = n
    while t < n_rounds:
        # Full scan: the scalar rule over every agent below capacity.
        width = widths[t]
        best = -math.inf
        pick = -1
        for j in live:
            s = reward_scale * (q_hat[j] + width * inv_sqrt[j]) - h[j]
            if s > best:
                best = s
                pick = j
        if pick < 0:
            break  # every agent at reported capacity
        if best <= 0.0:
            if trace is not None:
                trace.steps.append(TraceStep(t, None, None, best))
            break  # no future units for anyone

        # Leader run: ``pick`` takes round t, and every later round up to
        # ``horizon`` in which its score beats ``floor``, the larger of 0 and
        # the best rival score at ``horizon``, which bounds every rival's
        # score until then (see the module docstring).  A leader above it is
        # the strict maximum, whatever the tie order.  Any other round goes
        # back to the full scan.
        horizon = min(t + _LEADER_HORIZON, n_rounds - 1)
        width = widths[horizon]
        floor = 0.0
        for j in live:
            if j != pick:
                s = reward_scale * (q_hat[j] + width * inv_sqrt[j]) - h[j]
                if s > floor:
                    floor = s
        c = counts[pick]
        successes = succ[pick]
        row = rows[pick]
        h_pick = h[pick]
        end = min(horizon + 1, t + caps[pick] - c)  # past horizon or capacity
        s = best
        while True:
            r = row[c]
            successes += r
            c += 1
            q = successes / c
            inv = 1.0 / math.sqrt(c)
            if trace is not None:
                trace.steps.append(TraceStep(t, pick, r, s))
            t += 1
            if t == end:
                break
            s = reward_scale * (q + widths[t] * inv) - h_pick
            if not s > floor:
                break
        counts[pick] = c
        succ[pick] = successes
        q_hat[pick] = q
        inv_sqrt[pick] = inv
        if c == caps[pick]:
            live.remove(pick)

    units = np.array(counts, dtype=np.int64)
    costs = np.array([bid.cost for bid in bids])
    cost_highs = [dist.cost_bounds[1] for dist in config.distributions]
    premium = transform_premium(units, mu, costs, cost_highs, [d.beta for d in draws])
    payments = costs * units + premium
    utility = reward_scale * sum(succ) - float(payments.sum())
    outcome = MechanismOutcome(units, payments, utility)
    return outcome, trace


def run_ucb_batch(
    reward_scale: float,
    virtual_costs: np.ndarray,
    capacities: np.ndarray,
    realizations: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized UCB allocation loop over stacked replications.

    ``virtual_costs`` is (samples, n) of per-agent H values at the resampled
    costs, ``realizations`` is (samples, n, rounds) of Bernoulli outcomes.
    Returns (units, successes), each (samples, n).  Uses the default (narrow)
    exploration bonus; every agent must have reported capacity >= 1.
    Matches ``run_2d_ucb`` decision for decision (see the consistency test).
    """
    realizations = np.asarray(realizations)
    samples, n, n_rounds = realizations.shape
    caps = np.asarray(capacities, dtype=np.int64)
    h = np.asarray(virtual_costs, dtype=float)
    if caps.shape != (n,) or h.shape != (samples, n):
        raise ValueError("shape mismatch between capacities, virtual costs, realizations")
    if caps.min() < 1:
        raise ValueError("batch runner requires every reported capacity >= 1")
    if n_rounds < n:
        raise ValueError(f"rounds ({n_rounds}) must be >= number of agents ({n})")

    counts = np.ones((samples, n), dtype=np.int64)
    succ = realizations[:, :, 0].astype(np.int64)
    q_hat = succ.astype(float)
    inv_sqrt = np.ones((samples, n))
    stopped = np.zeros(samples, dtype=bool)
    rows = np.arange(samples)

    widths = memoryview(_bonus_widths(0.5, n_rounds))
    for t in range(n, n_rounds):
        width = widths[t]
        scores = reward_scale * (q_hat + width * inv_sqrt) - h
        masked = np.where(counts < caps, scores, -np.inf)
        pick = np.argmax(masked, axis=1)
        best = masked[rows, pick]
        stopped |= best <= 0.0
        if stopped.all():
            break
        act = np.flatnonzero(~stopped)
        chosen = pick[act]
        consumed = counts[act, chosen]
        r = realizations[act, chosen, consumed]
        succ[act, chosen] += r
        counts[act, chosen] += 1
        new_counts = counts[act, chosen]
        q_hat[act, chosen] = succ[act, chosen] / new_counts
        inv_sqrt[act, chosen] = 1.0 / np.sqrt(new_counts)
    return counts, succ


def run_eps_separated(
    config: MarketConfig,
    bids: Sequence[Bid],
    realization: RewardRealization,
    explore_rounds: int,
    mu: float,
    seed,
    *,
    resample_draws: Sequence[ResampleDraw] | None = None,
    record_trace: bool = True,
    regularity_grid: int = 64,
) -> tuple[MechanismOutcome, RunTrace | None]:
    """Explore-then-commit baseline.

    Spreads ``explore_rounds`` units round-robin across agents regardless of
    bids, freezes the empirical qualities, then allocates the remaining
    budget with one optimal-auction run at the resampled costs on the
    residual capacities.  Exploration units are paid bid cost plus the
    resampling premium; exploitation units are paid by the optimal auction's
    threshold rule.
    """
    n = config.n_agents
    n_rounds = config.units
    if len(bids) != n:
        raise ValueError(f"expected {n} bids, got {len(bids)}")
    if not n <= explore_rounds <= n_rounds:
        raise ValueError(
            f"explore_rounds must lie in [{n}, {n_rounds}], got {explore_rounds}"
        )
    if realization.table.shape != (n, n_rounds):
        raise ValueError(
            f"realization must be {n}x{n_rounds}, got {realization.table.shape!r}"
        )
    caps = [bid.capacity for bid in bids]
    total_cap = sum(caps)
    if explore_rounds > total_cap:
        warnings.warn(
            f"explore_rounds {explore_rounds} exceeds total reported capacity "
            f"{total_cap}; clipping",
            stacklevel=2,
        )
        explore_rounds = total_cap

    draws = _resolve_draws(bids, config.distributions, mu, seed, resample_draws)
    reward_scale = config.reward_scale
    rows = [realization.table[i] for i in range(n)]
    trace = RunTrace() if record_trace else None

    explored = [0] * n
    spent = 0
    i = 0
    while spent < explore_rounds:
        if explored[i] < caps[i]:
            if trace is not None:
                trace.steps.append(TraceStep(spent, i, int(rows[i][explored[i]]), None))
            explored[i] += 1
            spent += 1
        i = (i + 1) % n

    explore_succ = [int(rows[i][: explored[i]].sum()) for i in range(n)]
    q_hat = np.array(
        [explore_succ[i] / explored[i] if explored[i] else 0.0 for i in range(n)]
    )

    exploit_budget = n_rounds - spent
    exploit_bids = [
        Bid(draw.alpha, caps[i] - explored[i]) for i, draw in enumerate(draws)
    ]
    sub_config = MarketConfig(exploit_budget, reward_scale, config.distributions)
    exploit = run_2d_opt(sub_config, q_hat, exploit_bids, regularity_grid=regularity_grid)

    counts = np.array([explored[i] + int(exploit.allocation[i]) for i in range(n)], dtype=np.int64)
    costs = np.array([bid.cost for bid in bids])
    cost_highs = [dist.cost_bounds[1] for dist in config.distributions]
    premium = transform_premium(explored, mu, costs, cost_highs, [d.beta for d in draws])
    payments = costs * explored + exploit.payments + premium
    total_succ = 0
    unit = spent
    for i in range(n):
        extra = int(exploit.allocation[i])
        succ_i = explore_succ[i] + int(rows[i][explored[i] : explored[i] + extra].sum())
        total_succ += succ_i
        if trace is not None:
            g_hat = config.distributions[i].g_score(
                float(q_hat[i]), reward_scale, draws[i].alpha, exploit_bids[i].capacity
            ) if extra else None
            for j in range(extra):
                trace.steps.append(
                    TraceStep(unit, i, int(rows[i][explored[i] + j]), g_hat)
                )
                unit += 1

    utility = reward_scale * total_succ - float(payments.sum())
    outcome = MechanismOutcome(counts, payments, utility)
    return outcome, trace
