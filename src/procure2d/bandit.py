"""Sequential procurement with quality learning.

``run_2d_ucb`` buys one unit per round on bids resampled once up front, the
pair ``(alpha, beta)`` it is handed (``seeded_draws`` draws one from a seed):
every agent supplies one unit to seed an empirical quality estimate, and each
later round goes to the capacity-feasible agent with the best optimistic
score ``R * (q_hat + width(t) / sqrt(n_i)) - H(alpha)``, where
``width(t) = sqrt(c ln t)`` with the constant ``c = 1/2`` (``_BONUS_SCALE``;
UCB1's wide bonus has ``c = 2``) and ties go to the lowest index.  The first
non-positive best score ends the whole auction.  Payments follow the
resampling transformation: bid cost per unit, plus the ``1/mu`` premium when
the agent's beta moved (``resample.transform_premium``, the rule every
mechanism here pays by).

The rule has one implementation, the round loop in ``_ucb.c``: a seeding
pass, then every round a full scan over the agents below capacity, for a
block of a few independent auctions (lanes) advanced together round by
round.  ``run_2d_ucb`` calls it as a block of one lane (``ucb_run``), once
per auction.  ``run_ucb_batch`` calls ``ucb_batch``, which walks stacked
reward tables in blocks of lanes, for the truthfulness audits, which run
tens of thousands of 30-50-round auctions per deviated bid.  It spreads a
batch's samples over the CPUs the process may run on: one contiguous chunk
of samples per CPU, each in its own ``ucb_batch`` call on its own thread,
which run at once because ctypes releases the interpreter lock during a
call.  A sample's result depends on its own row alone, so the outputs do
not depend on the split.  The top of ``_ucb.c`` says, with timings, why the
two keep the scan's running best differently.  Both pass in the bonus
widths and the ``1 / sqrt(n_i)`` table built here with ``math.log`` and
``math.sqrt``, so every score has the bits of the reference loop in the test
suite.  ``_native`` builds, loads and declares the library, which also holds,
for ``resample``, the resampler's law and the whole of numpy's stream
seeding, SeedSequence's hash and PCG64's seeding step; a failed build raises
``UcbBuildError``.

``run_eps_separated`` is the explore-then-commit baseline: a fixed number of
round-robin exploration units, then one shot of the optimal auction run with
the frozen quality estimates on the residual capacities.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._native import UcbBuildError, _library
from .model import Bid, MarketConfig, RewardRealization
from .optimal import MechanismOutcome, run_2d_opt
from .resample import child_states, resample_streams, transform_premium
# Only so that the attribute perfbench's tracer wraps exists
# (tests/test_exports.py): no command draws through it, so its layer reads 0.
from .resample import self_resample  # noqa: F401

__all__ = [
    "TraceStep",
    "RunTrace",
    "UcbBuildError",
    "seeded_draws",
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


def seeded_draws(config: MarketConfig, bids: Sequence[Bid], mu: float, seed):
    """The resampled bids of a run on ``seed``, the arrays ``(alpha, beta)``
    with one entry each per bid: bid ``i`` resampled on child ``(i,)`` of
    ``seed``, all bids in one resampler call.  A ``SeedSequence`` passed in
    is not spent."""
    config.check_bids(bids)
    highs = [dist.cost_bounds[1] for dist in config.distributions]
    return resample_streams([bid.cost for bid in bids], highs, mu, child_states(seed, len(bids)))


def _draw_lists(draws, n: int) -> tuple[list[float], list[float]]:
    """A run's pair ``(alpha, beta)`` as two lists of floats, refused unless
    it holds one alpha and one beta per bid."""
    alpha, beta = (np.asarray(side, dtype=float) for side in draws)
    if alpha.shape != (n,) or beta.shape != (n,):
        raise ValueError(f"need one alpha and one beta per bid: {n} bids, got alpha of shape "
                         f"{alpha.shape} and beta of shape {beta.shape}")
    return alpha.tolist(), beta.tolist()


# The bonus scale ``c``, and the widths ``sqrt(c ln t)``, shared by every run
# in the process and grown on demand to the largest budget seen (entry 0 is
# unused).
_BONUS_SCALE = 0.5
_WIDTHS = np.full(1, math.nan)

# ``1 / sqrt(c)`` for every sample count ``c``, entry 0 being 0.0 (an agent
# with no sample), shared by both UCB runners and grown on demand.
_INV_SQRT = np.zeros(1)


def _bonus_widths(n_rounds: int) -> np.ndarray:
    """Widths ``sqrt(_BONUS_SCALE * ln t)`` for every round ``t < n_rounds``,
    always built with ``math.log`` and ``math.sqrt`` so that every caller sees
    the same bits whatever its budget."""
    global _WIDTHS
    widths = _WIDTHS
    if len(widths) < n_rounds:
        grown = (math.sqrt(_BONUS_SCALE * math.log(t)) for t in range(len(widths), n_rounds))
        widths = np.concatenate([widths, np.fromiter(grown, float, n_rounds - len(widths))])
        _WIDTHS = widths
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
    draws,
    *,
    record_trace: bool = True,
) -> tuple[MechanismOutcome, RunTrace | None]:
    """One full learning auction over ``config.units`` rounds on the resampled
    bids ``draws``: ``(alpha, beta)``, one of each per bid (``seeded_draws``).

    Requires ``units >= n_agents`` so the seeding pass is feasible.  The
    reported auctioneer utility is realized (reward scale times observed
    successes, minus payments), not the expectation under the true qualities,
    which the mechanism never sees.  The exploration width ``sqrt(c ln t)``
    has the narrow ``c = 0.5``: with reward scales tens of times the cost
    range, UCB1's wide bonus (``c = 2``) keeps every score optimistic long
    past the point where the estimates separate, and the learner then trails
    even the explore-then-commit baselines at realistic budgets.  The narrow
    bonus keeps the logarithmic exploration schedule and lets the learner
    approach the omniscient benchmark faster than every baseline.

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

    alpha, beta = _draw_lists(draws, n)
    reward_scale = config.reward_scale
    h = [
        float(dist.virtual_cost(a, bid.capacity))
        for dist, a, bid in zip(config.distributions, alpha, bids)
    ]
    # No run buys more than the budget from one agent.
    caps = [min(bid.capacity, n_rounds) for bid in bids]
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
        _bonus_widths(n_rounds), _inv_sqrt_counts(n_rounds + 1),
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
    premium = transform_premium(units, mu, costs, cost_highs, beta)
    payments = costs * units + premium
    utility = reward_scale * int(succ.sum()) - float(payments.sum())
    outcome = MechanismOutcome(units, payments, utility)
    return outcome, trace


# Fewest samples worth a thread of their own in ``run_ucb_batch``.
_MIN_CHUNK = 2048


def _cpus() -> int:
    """How many CPUs this process may run on: its affinity set where the
    platform has one, else the CPU count.  Caps the threads of
    ``run_ucb_batch`` and the worker processes of ``run_experiment``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _workers(samples: int) -> int:
    """How many chunks ``run_ucb_batch`` splits ``samples`` into: one per CPU
    this process may run on, each of at least ``_MIN_CHUNK`` samples."""
    return max(1, min(_cpus(), samples // _MIN_CHUNK))


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
    sample runs ``run_2d_ucb``'s round loop with the same bonus widths, so
    the two make the same decisions; the C loop advances the samples in
    blocks of a few at a time.

    The samples are split into contiguous chunks, one per CPU this process
    may run on but none under ``_MIN_CHUNK`` samples.  The calling thread
    runs the first chunk and a new thread each other one, all in C without
    the interpreter lock; every thread has ended when the call returns or
    raises.  A batch too small for two chunks, or a one-CPU process, runs as
    one chunk on the calling thread.  Each sample's result depends on its
    own row alone, so the outputs are the same however the batch is split.
    """
    table = realizations.table
    if len(config.check_run(bids, realizations)) != 1:
        raise ValueError(f"run_ucb_batch takes a (samples, n, units) stack, got {table.shape}")
    (samples, n, n_rounds), h = table.shape, np.ascontiguousarray(virtual_costs, dtype=float)
    if h.shape != (samples, n):
        raise ValueError(f"virtual costs must be {samples}x{n}, got shape {h.shape!r}")
    if not np.isfinite(h).all():
        raise ValueError("virtual costs must be finite")

    caps = np.array([min(bid.capacity, n_rounds) for bid in bids], dtype=np.int64)
    units = np.empty((samples, n), dtype=np.int64)
    successes = np.empty((samples, n), dtype=np.int64)
    # Resolved before any thread starts, so that no thread builds the library
    # or grows the shared tables.
    ucb_batch = _library().ucb_batch
    widths, inv_sqrt = _bonus_widths(n_rounds), _inv_sqrt_counts(n_rounds + 1)
    chunks = _workers(samples)
    edges = [samples * k // chunks for k in range(chunks + 1)]
    errors = [None] * chunks

    def run(k):
        a, b = edges[k], edges[k + 1]
        try:
            ucb_batch(b - a, n, n_rounds, config.reward_scale, h[a:b], caps, table[a:b],
                      widths, inv_sqrt, units[a:b], successes[a:b])
        except BaseException as exc:  # raised in the caller once every thread ends
            errors[k] = exc

    started = []
    try:
        for k in range(1, chunks):
            thread = threading.Thread(target=run, args=(k,))
            thread.start()
            started.append(thread)
        run(0)
    finally:
        for thread in started:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
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
    draws,
) -> MechanismOutcome:
    """Explore-then-commit baseline on the resampled bids ``(alpha, beta)``.

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

    alpha, beta = _draw_lists(draws, n)
    reward_scale = config.reward_scale
    rows = [realization.table[i] for i in range(n)]

    explored = _round_robin_split(caps, explore_rounds)

    explore_succ = [int(np.count_nonzero(rows[i][: explored[i]])) for i in range(n)]
    q_hat = np.array(
        [explore_succ[i] / explored[i] if explored[i] else 0.0 for i in range(n)]
    )

    exploit_budget = n_rounds - explore_rounds
    exploit_bids = [Bid(a, caps[i] - explored[i]) for i, a in enumerate(alpha)]
    sub_config = MarketConfig(exploit_budget, reward_scale, config.distributions)
    exploit = run_2d_opt(sub_config, q_hat, exploit_bids)

    counts = np.array([explored[i] + int(exploit.allocation[i]) for i in range(n)], dtype=np.int64)
    costs = np.array([bid.cost for bid in bids])
    cost_highs = [dist.cost_bounds[1] for dist in config.distributions]
    premium = transform_premium(explored, mu, costs, cost_highs, beta)
    payments = costs * explored + exploit.payments + premium
    total_succ = sum(int(np.count_nonzero(rows[i][: counts[i]])) for i in range(n))
    utility = reward_scale * total_succ - float(payments.sum())
    return MechanismOutcome(counts, payments, utility)
