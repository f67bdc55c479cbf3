"""Independent oracles shared by the test modules.

Everything here recomputes expected values from first principles (exhaustive
enumeration, direct formula evaluation) without touching the implementation
paths under test.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import warnings

import numpy as np
import pytest

from procure2d import (
    AgentType,
    Bid,
    MarketConfig,
    MechanismOutcome,
    RunTrace,
    TraceStep,
    run_2d_opt,
    run_2d_ucb,
    run_eps_separated,
    sample_reward_realization,
    transform_premium,
    uniform_type_distribution,
)
from procure2d import bandit
from procure2d.harness import _exponent_label


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
    resample draws ``(alpha, beta)`` as ``run_2d_ucb`` does and returns
    ``(MechanismOutcome, RunTrace)``."""
    n = config.n_agents
    n_rounds = config.units
    reward_scale = config.reward_scale
    alpha, beta = draws
    h = [
        dist.virtual_cost(a, bid.capacity)
        for dist, a, bid in zip(config.distributions, alpha, bids)
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
    for i, (bid, b) in enumerate(zip(bids, beta)):
        payments[i] = bid.cost * counts[i]
        if b > bid.cost:
            cost_hi = config.distributions[i].cost_bounds[1]
            payments[i] += float(counts[i]) * (cost_hi - bid.cost) / mu
    utility = reward_scale * sum(succ) - float(payments.sum())
    return MechanismOutcome(np.array(counts, dtype=np.int64), payments, utility), trace


def split_runs(outcome):
    """The runs of an outcome whose fields carry leading run axes (a stack's
    tables, a grid's budgets), as nested lists of one-run outcomes."""
    if np.ndim(outcome.auctioneer_utility) == 0:
        return outcome
    return [split_runs(MechanismOutcome(*run)) for run in zip(
        outcome.allocation, outcome.payments, outcome.auctioneer_utility)]


@contextlib.contextmanager
def patched_bonus_scale(c):
    """Inside the block, ``run_2d_ucb`` explores with the
    width ``sqrt(c ln t)``, as ``scalar_ucb_run`` does at ``bonus_scale=c``.
    Any ``c`` but the package's own gets a width table of its own, and both
    are restored on exit; the package's own keeps the shared table."""
    with pytest.MonkeyPatch.context() as patch:
        if c != bandit._BONUS_SCALE:
            patch.setattr(bandit, "_BONUS_SCALE", c)
            patch.setattr(bandit, "_WIDTHS", np.full(1, math.nan))
        yield


def greedy_units_numpy(scores, capacities, budget) -> np.ndarray:
    """The greedy rule on numpy arrays: one ``np.lexsort`` by descending
    score, ties by ascending index, then each agent in turn takes
    ``min(capacity, remaining)`` until the budget is spent or a score is
    negative.  The reference for ``alloc_greedy`` and ``run_2d_opt``, and the
    allocator of ``integral_payment``."""
    scores = np.asarray(scores, dtype=float)
    caps = np.asarray(capacities)
    units = np.zeros(scores.size, dtype=np.int64)
    remaining = int(budget)
    order = np.lexsort((np.arange(scores.size), -scores))
    for idx in order:
        if remaining <= 0 or scores[idx] < 0.0:
            break
        take = min(int(caps[idx]), remaining)
        units[idx] = take
        remaining -= take
    return units


def integral_payment(config, qualities, bids, agent: int) -> float:
    """Payment to ``agent`` via the cost-integral identity (Myerson 1981):
    the reference for ``run_2d_opt``'s threshold payments.

    Computes ``c_i * x_i(c_i) + integral over z in [c_i, cost_hi] of x_i(z)``
    where ``x_i(z)`` is the allocation to the agent were it to bid cost z,
    everything else fixed, by ``greedy_units_numpy``.  The allocation is a
    step function of z; its breakpoints are the bids at which some
    competitor's score overtakes the agent's, so the integral is an exact
    finite sum evaluated at segment midpoints.
    """
    q = np.asarray(qualities, dtype=float).tolist()
    i = agent
    dist_i = config.distributions[i]
    cost_lo, cost_hi = dist_i.cost_bounds
    bid_cost = bids[i].cost
    cap_i = bids[i].capacity
    reward_scale = config.reward_scale
    caps = np.array([bid.capacity for bid in bids], dtype=np.int64)
    scores = [
        dist.g_score(q[k], reward_scale, bids[k].cost, bids[k].capacity)
        for k, dist in enumerate(config.distributions)
    ]

    def units_at(z: float) -> int:
        s = scores.copy()
        s[i] = dist_i.g_score(q[i], reward_scale, z, cap_i)
        return int(greedy_units_numpy(s, caps, config.units)[i])

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


def opt_auction_numpy(config, qualities, bids) -> MechanismOutcome:
    """The optimal known-quality auction on numpy arrays, re-sorting the
    scores for the allocation and again for every winner's rivals: the
    reference that ``run_2d_opt`` must reproduce bit for bit (allocation,
    payments and the buyer's utility)."""
    q = np.asarray(qualities, dtype=float)
    n = config.n_agents
    reward_scale = config.reward_scale
    caps = np.array([bid.capacity for bid in bids], dtype=np.int64)
    scores = np.array(
        [
            dist.g_score(q[i], reward_scale, bids[i].cost, bids[i].capacity)
            for i, dist in enumerate(config.distributions)
        ]
    )
    units = greedy_units_numpy(scores, caps, config.units)

    payments = np.zeros(n)
    for i in range(n):
        if units[i] == 0:
            continue
        dist_i = config.distributions[i]
        price_cap = dist_i.g_inverse(q[i], reward_scale, 0.0, bids[i].capacity)
        residual = caps - units
        residual[i] = 0
        rival_units = greedy_units_numpy(scores, residual, int(units[i]))
        pay = float(units[i] - rival_units.sum()) * price_cap
        for k in np.flatnonzero(rival_units):
            critical = dist_i.g_inverse(q[i], reward_scale, float(scores[k]), bids[i].capacity)
            pay += float(rival_units[k]) * min(critical, price_cap)
        payments[i] = pay

    utility = float(np.dot(units.astype(float), reward_scale * q) - payments.sum())
    return MechanismOutcome(units, payments, utility)


def threshold_auction_lists(q, reward_scale, costs, caps, budget, distributions):
    """The optimal auction one profile at a time on plain lists, through the
    priors' own ``g_score`` and ``g_inverse``: units and threshold payments
    per agent.  Agents are sorted by score once (ties by ascending index);
    the allocation walks that order, and each winner's rivals walk it again
    over the residual capacities with the winner left out.  The reference
    for the array core ``optimal._auction``, bit for bit."""
    scores = [dist.g_score(q[i], reward_scale, costs[i], caps[i])
              for i, dist in enumerate(distributions)]
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))

    def walk(capacities, remaining):
        units = [0] * len(scores)
        for i in order:
            if remaining <= 0 or scores[i] < 0.0:
                break
            units[i] = min(capacities[i], remaining)
            remaining -= units[i]
        return units

    units = walk(caps, budget)
    payments = [0.0] * len(units)
    for i, won in enumerate(units):
        if won == 0:
            continue
        dist_i = distributions[i]
        price_cap = dist_i.g_inverse(q[i], reward_scale, 0.0, caps[i])
        residual = [cap - taken for cap, taken in zip(caps, units)]
        residual[i] = 0
        rival_units = walk(residual, won)
        pay = float(won - sum(rival_units)) * price_cap
        for k, taken in enumerate(rival_units):  # in ascending index
            if taken:
                critical = dist_i.g_inverse(q[i], reward_scale, scores[k], caps[i])
                pay += float(taken) * min(critical, price_cap)
        payments[i] = pay
    return units, payments


def round_robin_explore(caps, budget) -> list[int]:
    """Units per agent when ``budget`` exploration units are dealt one at a
    time round-robin over the agents below capacity, stepped unit by unit:
    the reference for ``run_eps_separated``'s closed-form split.  Requires
    ``budget <= sum(caps)``."""
    n = len(caps)
    explored = [0] * n
    spent = 0
    i = 0
    while spent < budget:
        if explored[i] < caps[i]:
            explored[i] += 1
            spent += 1
        i = (i + 1) % n
    return explored


def eps_reference(config, bids, realization, explore_rounds, mu, draws) -> MechanismOutcome:
    """One explore-then-commit run the way ``run_eps_separated`` ran it before
    it took several budgets: round-robin exploration stepped unit by unit,
    then the commit auction through ``run_2d_opt`` on its own market,
    ``MarketConfig(L - explore, R, priors)`` with the bids ``Bid(alpha_i,
    cap_i - explored_i)``.  Warns, as the baseline does, when the budget
    exceeds the total capacity and is clipped to it."""
    n = config.n_agents
    alpha, beta = (np.asarray(side, dtype=float).tolist() for side in draws)
    caps = [bid.capacity for bid in bids]
    if explore_rounds > sum(caps):
        warnings.warn(f"explore_rounds {explore_rounds} exceeds total reported capacity "
                      f"{sum(caps)}; clipping")
        explore_rounds = sum(caps)
    rows = realization.table
    explored = round_robin_explore(caps, explore_rounds)
    seen = [int(np.count_nonzero(rows[i, : explored[i]])) for i in range(n)]
    q_hat = np.array([seen[i] / explored[i] if explored[i] else 0.0 for i in range(n)])
    market = MarketConfig(config.units - explore_rounds, config.reward_scale, config.distributions)
    exploit = run_2d_opt(market, q_hat, [Bid(a, caps[i] - explored[i]) for i, a in enumerate(alpha)])

    counts = np.array(explored, dtype=np.int64) + exploit.allocation
    costs = np.array([bid.cost for bid in bids])
    highs = [dist.cost_bounds[1] for dist in config.distributions]
    premium = transform_premium(explored, mu, costs, highs, beta)
    payments = costs * explored + exploit.payments + premium
    successes = sum(int(np.count_nonzero(rows[i, : counts[i]])) for i in range(n))
    return MechanismOutcome(counts, payments, config.reward_scale * successes - float(payments.sum()))


def seed_sequence_cell(config, l_index, type_sample) -> dict[str, np.ndarray]:
    """``harness._run_cell`` with every stream built by numpy itself: each
    root is ``default_rng(SeedSequence([master_seed, tag, ...]))`` and bid
    ``i``'s resample stream is ``SeedSequence(root entropy, spawn_key=(i,))``
    (tags 11 types, 12 capacities, 13 reward table, 14 learner, 15 the
    ``v``-th explore-then-commit run)."""
    def rng(*entropy):
        return np.random.default_rng(np.random.SeedSequence([config.master_seed, *entropy]))

    def draws(*entropy):
        return tuple(zip(*(
            scalar_resample(bid.cost, dist.cost_bounds, config.mu, np.random.SeedSequence(
                [config.master_seed, *entropy], spawn_key=(i,)))
            for i, (bid, dist) in enumerate(zip(bids, market.distributions))
        )))

    units, n, reps = config.l_grid[l_index], config.n, config.realizations
    types = rng(11, type_sample)
    costs = types.uniform(config.cost_lo, config.cost_hi, n)
    qualities = types.uniform(config.quality_lo, config.quality_hi, n)
    cap_lo, cap_hi = config.cap_bounds(units)
    capacities = rng(12, type_sample, l_index).integers(cap_lo, cap_hi, n, endpoint=True)
    dist = uniform_type_distribution(config.cost_lo, config.cost_hi, cap_lo, cap_hi)
    market = MarketConfig(units, config.reward_scale, (dist,) * n)
    bids = [Bid(float(costs[i]), int(capacities[i])) for i in range(n)]

    out = {label: np.empty(reps) for label in config.mechanism_labels()}
    out["opt"][:] = run_2d_opt(market, qualities, bids).auctioneer_utility / units
    for r in range(reps):
        table = sample_reward_realization(qualities, units, rng(13, type_sample, l_index, r))
        ucb, _ = run_2d_ucb(market, bids, table, config.mu, draws(14, type_sample, l_index, r))
        out["ucb"][r] = ucb.auctioneer_utility / units
        for v, exponent in enumerate(config.eps_exponents):
            explore = max(n, int(round(units ** exponent)))
            eps = run_eps_separated(market, bids, table, explore, config.mu,
                                    draws(15, type_sample, l_index, r, v))
            out[f"eps-{_exponent_label(exponent)}"][r] = eps.auctioneer_utility / units
    return out


def block_stream_rows(seed, type_sample, l_index, start, stop, n, runs) -> list:
    """The ``(entropy, key)`` rows of a simulation block's streams, built one
    by one as ``resample.stream_states`` takes them: each realization's
    table root ``[seed, 13, type_sample, l_index, r]``, then per realization
    its learner's children ``(i,)`` of ``[seed, 14, ..., r]`` and each of its
    ``runs - 1`` explore-then-commit runs' of ``[seed, 15, ..., r, v]``."""
    rows = [([seed, 13, type_sample, l_index, r], ()) for r in range(start, stop)]
    for r in range(start, stop):
        roots = [[seed, 14, type_sample, l_index, r]] + [
            [seed, 15, type_sample, l_index, r, v] for v in range(runs - 1)]
        rows += [(root, (i,)) for root in roots for i in range(n)]
    return rows


# The reference for the outcome drawer in ``_ucb.c``, which every table of
# ``model`` must reproduce bit for bit: numpy's own ``random()`` and ``less``.
_DRAW_FLOATS = 1 << 17  # uniforms ``_draw_outcomes`` holds at once (at least one row)


def _draw_outcomes(rng: np.random.Generator, qualities, out: np.ndarray) -> None:
    """Fill the C-contiguous bool or uint8 ``out`` of shape ``(..., n, L)`` with
    ``u < qualities[i]`` at ``[..., i, j]``, ``u`` the matching uniform of one
    ``rng.random(out.shape)`` call, drawn in blocks of whole rows through one
    reused buffer and compared in place."""
    if not out.size:
        return
    rows = out.reshape(-1, out.shape[-1])
    q = np.tile(qualities, len(rows) // out.shape[-2])[:, None]  # one per stacked table
    step = min(len(rows), max(1, _DRAW_FLOATS // rows.shape[1]))
    uniforms = np.empty((step, rows.shape[1]))
    for start in range(0, len(rows), step):
        chunk = uniforms[: len(rows) - start]
        rng.random(out=chunk)
        np.less(chunk, q[start : start + step], out=rows[start : start + step])


# Two reference loops for the resampling law in ``_ucb.c``, which must
# reproduce both bit for bit.
_MAX_RESAMPLE_ITERATIONS = 10**6


def scalar_resample(bid_cost, bounds, mu, seed) -> tuple[float, float]:
    """One self-resampler draw, one uniform at a time through ``random()`` and
    ``uniform()``, capping every step at ``cost_hi``.  Draws beta only when
    the bid moves, so it may leave the generator short of where a batch of
    one leaves it."""
    hi = bounds[1]
    rng = np.random.default_rng(seed)
    if rng.random() >= mu:
        return bid_cost, bid_cost
    beta = min(float(rng.uniform(bid_cost, hi)), hi)
    alpha = beta
    for _ in range(_MAX_RESAMPLE_ITERATIONS):
        if rng.random() >= mu:
            return alpha, beta
        alpha = min(float(rng.uniform(alpha, hi)), hi)
    raise RuntimeError("resampling recursion exceeded the iteration cap")


def numpy_resample_batch(bid_cost, cost_hi, mu, size, rng):
    """``size`` resampler draws in numpy passes of ``2 * size`` uniforms each,
    updating the moving draws by index and capping alpha at ``cost_hi`` once
    at the end."""
    bid_cost = np.asarray(bid_cost, dtype=float)
    active = rng.random(size) < mu
    beta = np.where(active, bid_cost + rng.random(size) * (cost_hi - bid_cost), bid_cost)
    np.minimum(beta, cost_hi, out=beta)
    alpha = beta.copy()
    live = np.flatnonzero(active)
    for _ in range(_MAX_RESAMPLE_ITERATIONS):
        if not live.size:
            break
        uniforms = rng.random(2 * size)
        live = live[uniforms[live] < mu]
        alpha[live] += uniforms[size + live] * (cost_hi - alpha[live])
    else:
        raise RuntimeError("resampling recursion exceeded the iteration cap")
    np.minimum(alpha, cost_hi, out=alpha)
    return alpha, beta


def step_integral(fn, lo, hi, points) -> float:
    """Exact integral of a monotone step function over ``[lo, hi]`` via jump
    bisection, by a fresh scan of ``points`` points per call: the offered-
    utility audit's former per-start integral, the reference for its one
    scan per capacity.

    Bisects every cell whose endpoints differ down to width 1e-12; within a
    constant-valued cell monotonicity guarantees the function is constant
    throughout.
    """
    xs = np.linspace(lo, hi, points)
    vals = [fn(float(x)) for x in xs]
    total = 0.0
    for a, b, fa, fb in zip(xs[:-1], xs[1:], vals[:-1], vals[1:]):
        a, b = float(a), float(b)
        if fa == fb:
            total += fa * (b - a)
            continue
        stack = [(a, b, fa, fb)]
        while stack:
            x0, x1, f0, f1 = stack.pop()
            if f0 == f1:
                total += f0 * (x1 - x0)
            elif x1 - x0 < 1e-12:
                total += 0.5 * (f0 + f1) * (x1 - x0)
            else:
                mid = 0.5 * (x0 + x1)
                fm = fn(mid)
                stack.append((x0, mid, f0, fm))
                stack.append((mid, x1, fm, f1))
    return total
