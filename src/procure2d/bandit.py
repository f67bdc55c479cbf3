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

The rule has one implementation, the round loop in ``_ucb.c``, reached
through one C entry, ``ucb_run``, from one place, ``_run_chunks``, which runs
a stack of auctions in chunks, one per CPU, each on its own thread, and
passes in the bonus widths and the ``1 / sqrt(n_i)`` table built here with
``math.log`` and ``math.sqrt``, so every score has the bits of the reference
loop in the test suite.  ``run_2d_ucb`` runs one table or a stack of them, at
the virtual costs ``a + b * alpha`` of its draws, for the commands, the
simulation blocks and the truthfulness audits alike; a stack's outcome is one
``MechanismOutcome`` of arrays.  On a streamed realization
(``model.stream_reward_realization``) the round loop draws each row's
outcomes, a few dozen at a time, when a pick first reaches them.  ``_native``
builds, loads and declares the library, which also holds the C code of the
outcome drawer and of ``resample``; a failed build raises ``UcbBuildError``.

``run_eps_separated`` is the explore-then-commit baseline: a fixed number of
round-robin exploration units, then one optimal auction, the array core of
``optimal``, on the frozen quality estimates and the residual capacities.
Handed several exploration budgets, one call runs them all, on one table or
on a stack of tables, admitting the bids, the tables and the draws once and
committing every (table, budget) run in one call of the core, as a simulation
cell does for each block of realizations; its outcome's fields carry the
(table, budget) axes.  A streamed block is drawn in two calls: through every
row's exploration window before the estimates are counted, then through the
units bought before the successes are.  Each count is one call of
``count_rows`` in ``_ucb.c`` over every (table, budget, agent) window.
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
from .optimal import MechanismOutcome, _auction, _priors
from .resample import child_states, resample_streams, transform_premium
# Only so that the attributes perfbench's tracer wraps exist
# (tests/test_exports.py): no command calls them here, so their layers read 0.
from .optimal import run_2d_opt  # noqa: F401
from .resample import self_resample  # noqa: F401

__all__ = [
    "TraceStep",
    "RunTrace",
    "UcbBuildError",
    "seeded_draws",
    "run_2d_ucb",
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


def _admit_draws(config: MarketConfig, draws, tables=None, budgets=None):
    """A pair ``(alpha, beta)`` as two float arrays of shape ``([tables,]
    [budgets,] n)``, one alpha and one beta per bid (of each budget of each
    table), refused unless it is one and every alpha lies within its prior."""
    n = config.n_agents
    runs = [(k, noun) for k, noun in ((tables, "table"), (budgets, "budget")) if k is not None]
    nouns = ["bid"] + [noun for _, noun in reversed(runs)]
    want = f"per {', '.join(nouns[:-1])} and {nouns[-1]}" if runs else "per bid"
    want += ": " + "".join(f"{k} {noun}s of " for k, noun in runs) + f"{n} bids"
    shape = (*(k for k, _ in runs), n)
    alpha, beta = (np.asarray(side, dtype=float) for side in draws)
    if alpha.shape != shape or beta.shape != shape:
        raise ValueError(f"need one alpha and one beta {want}, got alpha of shape "
                         f"{alpha.shape} and beta of shape {beta.shape}")
    lo, hi = np.array([dist.cost_bounds for dist in config.distributions]).T
    inside = ((lo <= alpha) & (alpha <= hi)).reshape(-1, n).all(axis=1)
    if not inside.all():
        config.check_costs(alpha.reshape(-1, n)[np.argmin(inside)].tolist())
    return alpha, beta


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


# Fewest samples worth a thread of their own in ``_run_chunks``.
_MIN_CHUNK = 2048


def _cpus() -> int:
    """How many CPUs this process may run on: its affinity set where the
    platform has one, else the CPU count.  Caps the threads of
    ``_run_chunks`` and the worker processes of ``run_experiment``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _workers(samples: int) -> int:
    """How many chunks ``_run_chunks`` splits ``samples`` into: one per CPU
    this process may run on, each of at least ``_MIN_CHUNK`` samples."""
    return max(1, min(_cpus(), samples // _MIN_CHUNK))


def _run_chunks(config: MarketConfig, bids: Sequence[Bid], realization: RewardRealization,
                h: np.ndarray, trace_len: int = 0):
    """``ucb_run`` on an admitted realization's ``(samples, n, units)``
    stack at the ``(samples, n)`` virtual costs ``h``: units and successes,
    ``(samples, n)``, and the winner, reward and score of each sample's first
    ``trace_len`` rounds after seeding (a stopping round's score alone).  On
    a streamed realization the loop draws each row as it reads it; a whole
    one passes no row streams, and the loop never draws.

    The samples are split into contiguous chunks, one per CPU this process
    may run on but none under ``_MIN_CHUNK`` samples.  The calling thread
    runs the first chunk and a new thread each other one, all in C without
    the interpreter lock; every thread has ended when the call returns or
    raises.  A batch too small for two chunks, or a one-CPU process, runs as
    one chunk on the calling thread.  Each sample's result depends on its
    own row alone, so the outputs are the same however the batch is split.
    """
    n, n_rounds = realization.table.shape[-2:]
    table = realization.table.reshape(-1, n, n_rounds)
    samples, streams = len(table), realization.streams
    q = states = drawn = None  # a whole table: nothing to draw
    if streams is not None:
        q, states = streams.qualities, streams.states.reshape(-1, n, 4)
        drawn = streams.counts.reshape(-1, n)
    # No run buys more than the budget from one agent.
    caps = np.array([min(bid.capacity, n_rounds) for bid in bids], dtype=np.int64)
    units, successes = (np.empty((samples, n), dtype=np.int64) for _ in range(2))
    picks = np.empty((samples, trace_len), dtype=np.int64)
    rewards = np.empty((samples, trace_len), dtype=np.uint8)
    scores = np.empty((samples, trace_len))
    # Resolved before any thread starts, so that no thread builds the library
    # or grows the shared tables.
    ucb_run = _library().ucb_run
    widths, inv_sqrt = _bonus_widths(n_rounds), _inv_sqrt_counts(n_rounds + 1)
    chunks = _workers(samples)
    edges = [samples * k // chunks for k in range(chunks + 1)]
    errors = [None] * chunks

    def run(k):
        a, b = edges[k], edges[k + 1]
        rows = (None, None) if streams is None else (states[a:b], drawn[a:b])
        try:
            ucb_run(b - a, n, n_rounds, config.reward_scale, h[a:b], caps, q, *rows, table[a:b],
                    widths, inv_sqrt, units[a:b], successes[a:b], trace_len, picks[a:b],
                    rewards[a:b], scores[a:b])
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
    return units, successes, picks, rewards, scores


def _row_sums(columns: np.ndarray) -> np.ndarray:
    """Each column's sum of an agent-major ``(n, runs)`` array, added in the
    order numpy sums a row of ``n`` (``rows.sum(axis=1)``): one by one below
    8 terms; up to 128, eight running sums of every eighth term, added as a
    tree, then the rest one by one; above, the first half (a multiple of 8)
    and the rest apart.  Whole rows of runs are added at a time."""
    n = len(columns)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _row_sums(columns[:half]) + _row_sums(columns[half:])
    summed = n - n % 8 if n >= 8 else 1  # the terms in the running sums
    acc = columns[: min(summed, 8)].copy()
    for i in range(8, summed, 8):
        acc += columns[i : i + 8]
    total = acc[0] if n < 8 else (((acc[0] + acc[1]) + (acc[2] + acc[3]))
                                  + ((acc[4] + acc[5]) + (acc[6] + acc[7])))
    for column in columns[summed:]:
        total += column
    return total


def run_2d_ucb(
    config: MarketConfig,
    bids: Sequence[Bid],
    realization: RewardRealization,
    mu: float,
    draws,
    *,
    record_trace: bool = True,
):
    """One full learning auction over ``config.units`` rounds on the resampled
    bids ``draws``: ``(alpha, beta)``, one of each per bid (``seeded_draws``).
    Returns its outcome and, with ``record_trace``, its trace, else None.
    Given a ``(B, n, L)`` stack of tables, with draws of shape ``(B, n)`` and
    ``record_trace=False``, returns one outcome of the B runs and None: its
    allocation and payments are ``(B, n)``, its utilities ``(B,)``, row t
    that of table t on row t of the draws.  Resampled costs must lie within
    their priors' bounds.

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
    n, n_rounds = config.n_agents, config.units
    stack = config.check_run(bids, realization)
    if len(stack) > 1:
        raise ValueError(f"run_2d_ucb takes one {n}x{n_rounds} table or one stack of them, "
                         f"got shape {realization.table.shape}")
    if stack and record_trace:
        raise ValueError("run_2d_ucb records no trace on a stack: pass record_trace=False")
    # Each per-agent term is worked on agent-major, (n, runs), as one scalar
    # over a row of runs; H and the payments are written back run-major.
    alpha, beta = (side.reshape(-1, n).T for side in _admit_draws(config, draws, *stack))
    a, b, _, cost_highs = _priors(config.distributions)[:, 0, :, None]
    h, payments = np.empty((2, alpha.shape[1], n))
    np.add(a, b * alpha, out=h.T)
    # Winner, reward and score of rounds n, n+1, ... when a trace is asked for.
    trace_len = n_rounds - n if record_trace else 0
    units, succ, picks, rewards, scores = _run_chunks(config, bids, realization, h, trace_len)

    costs = np.array([[bid.cost] for bid in bids])
    bought = np.ascontiguousarray(units.T, dtype=float)
    premium = transform_premium(bought, mu, costs, cost_highs, beta)
    np.add(np.multiply(costs, bought, out=bought), premium, out=payments.T)
    # Each run's payments summed along its row, in numpy's order for a row.
    utilities = config.reward_scale * _row_sums(succ.T) - _row_sums(payments.T)
    if stack:
        return MechanismOutcome(units, payments, utilities), None
    outcome = MechanismOutcome(units[0], payments[0], utilities.item())
    if not record_trace:
        return outcome, None

    # Every round from n on buys one unit until the one that stops.
    seeded = [i for i, bid in enumerate(bids) if bid.capacity >= 1]
    table = realization.table
    trace = RunTrace([TraceStep(u, i, int(table[i, 0]), None) for u, i in enumerate(seeded)])
    bought = int(units.sum()) - len(seeded)
    trace.steps += map(
        TraceStep, range(n, n + bought), picks[0, :bought].tolist(),
        rewards[0, :bought].tolist(), scores[0, :bought].tolist(),
    )
    if bought < trace_len and scores[0, bought] > -math.inf:
        trace.steps.append(TraceStep(n + bought, None, None, scores[0, bought].item()))
    return outcome, trace


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


def _count_ones(tables: np.ndarray, budgets: int, start, stop) -> np.ndarray:
    """The ones of ``tables[t, i, start:stop]`` for every (table, budget,
    agent), ``start`` and ``stop`` broadcast to ``(tables, budgets, n)``:
    one ``count_rows`` call in ``_ucb.c`` over every window."""
    m, n, width = tables.shape
    shape = (m, budgets, n)
    rows = (np.arange(m) * n)[:, None, None] + np.arange(n)  # window (t, e, i) reads row t * n + i
    rows, start, stop = (np.ascontiguousarray(np.broadcast_to(k, shape), dtype=np.int64)
                         for k in (rows, start, stop))
    ones = np.empty(shape, dtype=np.int64)
    _library().count_rows(ones.size, width, tables, rows, start, stop, ones)
    return ones


def run_eps_separated(
    config: MarketConfig, bids: Sequence[Bid], realization: RewardRealization, explore_rounds,
    mu: float, draws,
):
    """Explore-then-commit baseline on the resampled bids ``(alpha, beta)``.

    Spreads ``explore_rounds`` units round-robin across agents regardless of
    bids, freezes the empirical qualities, then allocates the remaining
    budget with one run of the optimal auction's core at the resampled costs
    on the residual capacities.  Exploration units are paid bid cost plus the
    resampling premium; exploitation units are paid by the optimal auction's
    threshold rule.

    ``explore_rounds`` is one budget, with draws of shape ``(n,)``, giving
    one outcome; or a 1-D sequence of E budgets, with draws of shape
    ``(E, n)``, giving one outcome with ``(E, n)`` allocation and payments
    and ``(E,)`` utilities, row e that of budget e on row e of the draws.
    With E budgets, ``realization`` may instead hold a ``(B, n, L)`` stack of
    tables, with draws of shape ``(B, E, n)``, giving ``(B, E, n)`` and
    ``(B, E)`` fields, row ``[t, e]`` that of table t at budget e.  Every run
    of a call is admitted once and committed in one call of the core.
    Resampled costs must lie within their priors' bounds.
    """
    n, n_rounds = config.n_agents, config.units
    stack = config.check_run(bids, realization)
    shape = np.shape(explore_rounds)
    if len(shape) > 1 or shape == (0,):
        raise ValueError(f"explore_rounds must be one budget or a non-empty 1-D sequence of "
                         f"budgets, got shape {shape}")
    if stack and not shape:
        raise ValueError(f"run_eps_separated takes one {n}x{n_rounds} table, got a stack")
    if len(stack) > 1:
        raise ValueError(f"run_eps_separated takes one {n}x{n_rounds} table or one stack of "
                         f"them, got shape {realization.table.shape}")
    alpha, beta = _admit_draws(config, draws, *stack, budgets=shape[0] if shape else None)

    caps = [bid.capacity for bid in bids]
    total_cap = sum(caps)
    explored = []
    for explore in explore_rounds if shape else [explore_rounds]:
        if not n <= explore <= n_rounds:
            raise ValueError(f"explore_rounds must lie in [{n}, {n_rounds}], got {explore}")
        if explore > total_cap:
            warnings.warn(f"explore_rounds {explore} exceeds total reported capacity "
                          f"{total_cap}; clipping", stacklevel=2)
            explore = total_cap
        explored.append(_round_robin_split(caps, explore))
    explored = np.array(explored, dtype=np.int64)

    # Successes per (table, budget, agent) in exploration, then the commit
    # auctions of every (table, budget) row on the frozen estimates, then the
    # successes of the units bought.  A streamed realization is drawn through
    # each row's exploration window first, then through its bought units, so
    # each count reads only the drawn part of its row.
    tables = realization.table.reshape(-1, n, n_rounds)
    realization.draw_through(explored.max(axis=0))
    seen = _count_ones(tables, len(explored), 0, explored)
    q_hat = np.divide(seen, explored, out=np.zeros(seen.shape), where=explored > 0)
    residual = np.tile(np.array(caps) - explored, (len(tables), 1))
    budgets = np.tile(n_rounds - explored.sum(axis=1), len(tables))
    priors = _priors(config.distributions)
    units, exploit_pay = (side.reshape(seen.shape) for side in _auction(
        q_hat.reshape(-1, n), alpha.reshape(-1, n), residual, budgets, config.reward_scale,
        priors))

    stops = explored + units
    realization.draw_through(stops.max(axis=1))
    successes = (seen + _count_ones(tables, len(explored), explored, stops)).sum(axis=2)

    costs = np.array([bid.cost for bid in bids])
    premium = transform_premium(explored, mu, costs, priors[3, 0], beta)
    payments = costs * explored + exploit_pay + premium
    utilities = config.reward_scale * successes - payments.sum(axis=2)
    runs = (*stack, *shape)
    return MechanismOutcome(stops.reshape(*runs, n), payments.reshape(*runs, n),
                            utilities.reshape(runs) if runs else utilities.item())
