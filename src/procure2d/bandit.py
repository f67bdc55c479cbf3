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

The rule has one implementation, the round loop in ``_ucb.c``: a seeding
pass, then every round a full scan over the agents below capacity, for a
block of a few independent auctions (lanes) advanced together round by
round.  ``run_2d_ucb`` calls it as a block of one lane (``ucb_run``), once
per auction.  ``run_ucb_batch`` calls ``ucb_batch``, which walks stacked
reward tables in blocks of lanes, for the truthfulness audits, which run
tens of thousands of 30-50-round auctions per deviated bid.  The top of
``_ucb.c`` says, with timings, why the two keep the scan's running best
differently.  Both pass in the bonus widths and the ``1 / sqrt(n_i)`` table
built here with ``math.log`` and ``math.sqrt``, so every score has the bits
of the reference loop in the test suite.  ``_native`` builds, loads and
declares the library, which also holds the resampler's law and stream
seeding for ``resample``; a failed build raises ``UcbBuildError``.

``run_eps_separated`` is the explore-then-commit baseline: a fixed number of
round-robin exploration units, then one shot of the optimal auction run with
the frozen quality estimates on the residual capacities.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._native import UcbBuildError, _library
from .model import Bid, MarketConfig, RewardRealization
from .optimal import MechanismOutcome, run_2d_opt
from .resample import ResampleDraw, child_states, resample_streams, transform_premium
# Only so that the attribute perfbench's tracer wraps exists
# (tests/test_exports.py): no command draws through it, so its layer reads 0.
from .resample import self_resample  # noqa: F401

__all__ = [
    "TraceStep",
    "RunTrace",
    "UcbBuildError",
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
    """The resample draws of a run: ``draws`` when given, one per bid, else
    one draw per bid, bid ``i``'s on child ``(i,)`` of ``seed``, all in one
    call of the resampler."""
    if draws is not None:
        if len(draws) != len(bids):
            raise ValueError("need one resample draw per bid")
        return list(draws)
    highs = [dist.cost_bounds[1] for dist in distributions]
    return resample_streams([bid.cost for bid in bids], highs, mu, child_states(seed, len(bids)))


# Bonus widths ``sqrt(c ln t)`` by bonus scale ``c``, shared by every run in
# the process and grown on demand to the largest budget seen.
_WIDTHS: dict[float, np.ndarray] = {}

# ``1 / sqrt(c)`` for every sample count ``c``, entry 0 being 0.0 (an agent
# with no sample), shared by both UCB runners and grown on demand.
_INV_SQRT = np.zeros(1)


def _bonus_widths(bonus_scale: float, n_rounds: int) -> np.ndarray:
    """Widths ``sqrt(bonus_scale * ln t)`` for every round ``t < n_rounds``
    (entry 0 is unused), always built with ``math.log`` and ``math.sqrt`` so
    that every caller sees the same bits whatever its budget."""
    widths = _WIDTHS.get(bonus_scale)
    if widths is None:
        widths = np.full(1, math.nan)
    if len(widths) < n_rounds:
        grown = (math.sqrt(bonus_scale * math.log(t)) for t in range(len(widths), n_rounds))
        widths = np.concatenate([widths, np.fromiter(grown, float, n_rounds - len(widths))])
        _WIDTHS[bonus_scale] = widths
    return widths


def _inv_sqrt_counts(n_counts: int) -> np.ndarray:
    """``1.0 / math.sqrt(c)`` for every count ``c < n_counts``, 0.0 at 0."""
    global _INV_SQRT
    table = _INV_SQRT
    if len(table) < n_counts:
        grown = (1.0 / math.sqrt(c) for c in range(len(table), n_counts))
        table = np.concatenate([table, np.fromiter(grown, float, n_counts - len(table))])
        _INV_SQRT = table
    return table


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

    Optimistic scores are recomputed for every agent at every round: a score
    must be a function of (estimate, samples, round) alone, never of when the
    agent was last procured, or the allocation loses its cost-monotonicity.

    Deviation from the paper: an agent reporting capacity 0 is skipped in
    the seeding pass, but the round loop still starts at round ``n``, so a
    run buys at most ``units`` minus the number of such agents.
    """
    n = config.n_agents
    n_rounds = config.units
    if config.check_run(bids, realization):
        raise ValueError(f"run_2d_ucb takes one {n}x{n_rounds} table, got a stack")
    if not 0.0 <= bonus_scale < math.inf:
        raise ValueError(f"bonus_scale must be finite and >= 0, got {bonus_scale}")

    draws = _resolve_draws(bids, config.distributions, mu, seed, resample_draws)
    reward_scale = config.reward_scale
    h = [
        float(dist.virtual_cost(draw.alpha, bid.capacity))
        for dist, draw, bid in zip(config.distributions, draws, bids)
    ]
    caps = [bid.capacity for bid in bids]
    table = realization.table
    units = np.empty(n, dtype=np.int64)
    succ = np.empty(n, dtype=np.int64)
    # Winner, reward and score of rounds n, n+1, ... when a trace is asked for.
    trace_len = n_rounds - n if record_trace else 0
    picks = np.empty(trace_len, dtype=np.int64)
    rewards = np.empty(trace_len, dtype=np.uint8)
    scores = np.empty(trace_len)
    stop_score = np.empty(1)
    stop = _library().ucb_run(
        n, n_rounds, reward_scale, np.array(h), np.array(caps, dtype=np.int64), table,
        _bonus_widths(bonus_scale, n_rounds), _inv_sqrt_counts(n_rounds + 1),
        units, succ, trace_len, picks, rewards, scores, stop_score,
    )

    trace = None
    if record_trace:
        seeded = [i for i in range(n) if caps[i] >= 1]
        trace = RunTrace([TraceStep(u, i, int(table[i, 0]), None) for u, i in enumerate(seeded)])
        bought = stop - n
        trace.steps += map(
            TraceStep, range(n, stop), picks[:bought].tolist(), rewards[:bought].tolist(),
            scores[:bought].tolist(),
        )
        if stop_score[0] > -math.inf:
            trace.steps.append(TraceStep(stop, None, None, stop_score.item()))

    costs = np.array([bid.cost for bid in bids])
    cost_highs = [dist.cost_bounds[1] for dist in config.distributions]
    premium = transform_premium(units, mu, costs, cost_highs, [d.beta for d in draws])
    payments = costs * units + premium
    utility = reward_scale * int(succ.sum()) - float(payments.sum())
    outcome = MechanismOutcome(units, payments, utility)
    return outcome, trace


def run_ucb_batch(
    config: MarketConfig,
    bids: Sequence[Bid],
    realizations: RewardRealization,
    virtual_costs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``run_2d_ucb``'s allocation over stacked replications, admitted by the
    same ``MarketConfig.check_run``: reward scale and budget from ``config``,
    capacities from ``bids``.  ``realizations`` holds a (samples, n, units)
    stack and ``virtual_costs`` the (samples, n) H values at each sample's
    resampled costs.  Returns (units, successes), each (samples, n).  Every
    sample runs ``run_2d_ucb``'s round loop with the default (narrow) bonus,
    so the two make the same decisions; the C loop advances the samples in
    blocks of a few at a time.
    """
    table = realizations.table
    if len(config.check_run(bids, realizations)) != 1:
        raise ValueError(f"run_ucb_batch takes a (samples, n, units) stack, got {table.shape}")
    (samples, n, n_rounds), h = table.shape, np.ascontiguousarray(virtual_costs, dtype=float)
    if h.shape != (samples, n):
        raise ValueError(f"virtual costs must be {samples}x{n}, got shape {h.shape!r}")
    if not np.isfinite(h).all():
        raise ValueError("virtual costs must be finite")

    caps = np.array([bid.capacity for bid in bids], dtype=np.int64)
    units = np.empty((samples, n), dtype=np.int64)
    successes = np.empty((samples, n), dtype=np.int64)
    _library().ucb_batch(
        samples, n, n_rounds, config.reward_scale, h, caps, table,
        _bonus_widths(0.5, n_rounds), _inv_sqrt_counts(n_rounds + 1), units, successes,
    )
    return units, successes


def _round_robin_split(caps: list[int], budget: int) -> list[int]:
    """Units per agent when ``budget <= sum(caps)`` units are dealt one at a
    time round-robin over the agents below capacity, in index order.

    In closed form: every agent gets ``min(cap, level)``, ``level`` being the
    largest with ``sum(min(cap, level)) <= budget``, and the rest go one each
    to the lowest-index agents with ``cap > level``.  Walking the capacities
    in ascending order, ``below`` counts the units of the agents that fill
    before the level reaches the next capacity.
    """
    below = 0
    for k, cap in enumerate(sorted(caps)):
        live = len(caps) - k
        if below + live * cap > budget:
            break
        below += cap
    else:
        return list(caps)
    level, extra = divmod(budget - below, live)
    units = [min(cap, level) for cap in caps]
    for i in [i for i, cap in enumerate(caps) if cap > level][:extra]:
        units[i] += 1
    return units


def run_eps_separated(
    config: MarketConfig,
    bids: Sequence[Bid],
    realization: RewardRealization,
    explore_rounds: int,
    mu: float,
    seed,
    *,
    resample_draws: Sequence[ResampleDraw] | None = None,
) -> MechanismOutcome:
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
    if config.check_run(bids, realization):
        raise ValueError(f"run_eps_separated takes one {n}x{n_rounds} table, got a stack")
    if not n <= explore_rounds <= n_rounds:
        raise ValueError(
            f"explore_rounds must lie in [{n}, {n_rounds}], got {explore_rounds}"
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

    explored = _round_robin_split(caps, explore_rounds)

    explore_succ = [int(np.count_nonzero(rows[i][: explored[i]])) for i in range(n)]
    q_hat = np.array(
        [explore_succ[i] / explored[i] if explored[i] else 0.0 for i in range(n)]
    )

    exploit_budget = n_rounds - explore_rounds
    exploit_bids = [
        Bid(draw.alpha, caps[i] - explored[i]) for i, draw in enumerate(draws)
    ]
    sub_config = MarketConfig(exploit_budget, reward_scale, config.distributions)
    exploit = run_2d_opt(sub_config, q_hat, exploit_bids)

    counts = np.array([explored[i] + int(exploit.allocation[i]) for i in range(n)], dtype=np.int64)
    costs = np.array([bid.cost for bid in bids])
    cost_highs = [dist.cost_bounds[1] for dist in config.distributions]
    premium = transform_premium(explored, mu, costs, cost_highs, [d.beta for d in draws])
    payments = costs * explored + exploit.payments + premium
    total_succ = sum(int(np.count_nonzero(rows[i][: counts[i]])) for i in range(n))
    utility = reward_scale * total_succ - float(payments.sum())
    return MechanismOutcome(counts, payments, utility)
