"""``run_2d_ucb``, on one table and on a stack of them, against the reference
round loop in ``tests/oracles.py``."""

import itertools
import math
import os
import re
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import patched_bonus_scale, scalar_ucb_run

from procure2d import (
    Bid,
    ExperimentConfig,
    MarketConfig,
    MechanismOutcome,
    RewardRealization,
    audit_iia,
    run_2d_ucb,
    run_eps_separated,
    seeded_draws,
    uniform_type_distribution,
)
from procure2d import _native, bandit, harness

DIST = uniform_type_distribution(0.0, 1.0, 0, 20_000)

# Auctions of at least LEADER_ROUNDS rounds run on ucb_run's leader routine,
# the shorter ones on its plain scan.
LEADER_ROUNDS = int(re.search(r"^#define LEADER_ROUNDS (\d+)$",
                              Path(_native._SOURCE).read_text(), re.M).group(1))


def assert_matches_oracle(market, bids, table, draws, bonus_scale):
    mu = 0.1
    with patched_bonus_scale(bonus_scale):
        outcome, trace = run_2d_ucb(market, bids, table, mu, draws)
        # The same run as the one table of a stack, which records no trace.
        untraced, none = run_2d_ucb(market, bids, RewardRealization(table.table[None]), mu,
                                    tuple(np.asarray(side)[None] for side in draws))
    expected, expected_trace = scalar_ucb_run(market, bids, table, mu, draws, bonus_scale)
    assert outcome.allocation.tolist() == expected.allocation.tolist()
    assert outcome.payments.tolist() == expected.payments.tolist()
    assert outcome.auctioneer_utility == expected.auctioneer_utility
    assert trace.steps == expected_trace.steps
    for step in trace.steps:
        assert step.agent is None or type(step.agent) is int
        assert step.reward is None or type(step.reward) is int
        assert step.g_hat is None or type(step.g_hat) is float
    assert none is None
    assert untraced.allocation[0].tolist() == expected.allocation.tolist()
    assert untraced.payments[0].tolist() == expected.payments.tolist()
    assert untraced.auctioneer_utility[0] == expected.auctioneer_utility
    return trace


@st.composite
def instances(draw):
    n = draw(st.integers(1, 4))
    units = draw(st.one_of(st.integers(n, 200), st.integers(1000, 5000),
                           st.integers(LEADER_ROUNDS - 2, LEADER_ROUNDS + 2)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    qualities = rng.uniform(0.0, 1.0, n)
    if draw(st.booleans()):
        qualities[0] = 0.97  # one clearly best agent: long leader runs
    table = (rng.random((n, units)) < qualities[:, None]).astype(np.uint8)
    costs = [draw(st.floats(0.0, 1.0)) for _ in range(n)]
    caps = [draw(st.one_of(st.integers(0, 40), st.integers(0, units))) for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        # identical agents 0 and 1: every score of theirs ties exactly
        costs[1], caps[1], table[1] = costs[0], caps[0], table[0]
    reward_scale = draw(st.sampled_from([30.0, 3.0, 1.0]))
    alphas, betas = [], []
    for cost in costs:
        moved = draw(st.booleans())
        beta = draw(st.floats(cost, 1.0)) if moved else cost
        alpha = draw(st.floats(beta, 1.0)) if moved else cost
        alphas.append(alpha)
        betas.append(beta)
    draws = (alphas, betas)
    market = MarketConfig(units, reward_scale, (DIST,) * n)
    bids = [Bid(c, k) for c, k in zip(costs, caps)]
    return market, bids, RewardRealization(table), draws


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(instances(), st.sampled_from([0.5, 2.0]))
def test_kernel_matches_scalar_loop(instance, bonus_scale):
    assert_matches_oracle(*instance, bonus_scale)


def two_agent_case(units, caps, reward_scale=30.0, costs=(0.2, 0.6)):
    rng = np.random.default_rng(units)
    table = np.vstack([
        (rng.random(units) < 0.95).astype(np.uint8),
        (rng.random(units) < 0.3).astype(np.uint8),
    ])
    market = MarketConfig(units, reward_scale, (DIST, DIST))
    bids = [Bid(costs[0], caps[0]), Bid(costs[1], caps[1])]
    return market, bids, RewardRealization(table), (list(costs), list(costs))


def longest_streak(agents, agent):
    longest = streak = 0
    for a in agents:
        streak = streak + 1 if a == agent else 0
        longest = max(longest, streak)
    return longest


@pytest.mark.parametrize("bonus_scale", [0.5, 2.0])
def test_long_leader_runs(bonus_scale):
    case = two_agent_case(5000, (5000, 5000))
    trace = assert_matches_oracle(*case, bonus_scale)
    assert trace.agents().count(0) > 2500


@pytest.mark.parametrize("bonus_scale", [0.5, 2.0])
def test_leader_streak_spans_several_horizons(bonus_scale):
    case = two_agent_case(20_000, (20_000, 20_000))
    trace = assert_matches_oracle(*case, bonus_scale)
    assert longest_streak(trace.agents(), 0) > 256


@pytest.mark.parametrize("bonus_scale", [0.5, 2.0])
@pytest.mark.parametrize("caps", [(10_000, 10_000), (3000, 10_000)], ids=["open", "capped"])
@pytest.mark.parametrize("rival_cost", [0.3, 0.3 + 1e-7], ids=["tied", "dearer"])
def test_leader_changes_on_most_rounds(caps, rival_cost, bonus_scale):
    # Every unit pays 1, so a purchase leaves the buyer's estimate at 1.0 and
    # shrinks its bonus: the rival leads the next round.  With equal costs the
    # scores tie exactly whenever the counts are equal; a rival dearer by
    # 1e-7 never ties and still takes every other round.  ucb_run finds its
    # best through a branch, and here that branch changes direction on most
    # rounds.  Capped, agent 0 fills at 3000 units and agent 1 runs alone.
    units = 10_000
    market = MarketConfig(units, 30.0, (DIST, DIST))
    bids = [Bid(0.3, caps[0]), Bid(rival_cost, caps[1])]
    draws = ([0.3, rival_cost], [0.3, rival_cost])
    table = RewardRealization(np.ones((2, units), dtype=np.uint8))
    trace = assert_matches_oracle(market, bids, table, draws, bonus_scale)
    agents = trace.agents()
    assert len(agents) == units and agents.count(0) == min(caps[0], units // 2)
    assert sum(a != b for a, b in zip(agents, agents[1:])) > units // 2


@pytest.mark.parametrize("master_seed", [0, 1, 2])
def test_harness_instances_match_scalar_loop(monkeypatch, master_seed):
    # Five agents with the types, capacities, rewards and resample draws that
    # run_experiment draws at L = 20,000, the instances the paper's
    # experiment runs: the one table of a one-realization cell's block.
    calls = []

    def record(market, bids, realization, mu, draws, **kwargs):
        calls.append((market, bids, realization, draws))
        return run_2d_ucb(market, bids, realization, mu, draws, **kwargs)

    monkeypatch.setattr(harness, "run_2d_ucb", record)
    config = ExperimentConfig(l_grid=(20_000,), type_samples=1, realizations=1,
                              master_seed=master_seed)
    harness._run_cell(config, 0, 0)
    ((market, bids, block, (alpha, beta)),) = calls
    realization = RewardRealization(block.table[0])
    draws = alpha[0], beta[0]
    for bonus_scale in (0.5, 2.0):
        trace = assert_matches_oracle(market, bids, realization, draws, bonus_scale)
        assert len(set(trace.agents())) == 5
        assert len(trace.steps) == 20_000


def test_tie_with_the_bound_goes_to_the_lower_index():
    # The identical agents of test_exact_ties_go_to_the_lower_index at an odd
    # budget: agent 1 leads into the last round, where agent 0's bound ties
    # its score exactly, and agent 0 takes the round.
    units = 401
    table = np.ones((2, units), dtype=np.uint8)
    market = MarketConfig(units, 30.0, (DIST, DIST))
    bids = [Bid(0.3, units), Bid(0.3, units)]
    draws = ([0.3] * 2, [0.3] * 2)
    trace = assert_matches_oracle(market, bids, RewardRealization(table), draws, 0.5)
    assert trace.agents()[-3:] == [0, 1, 0]


def test_only_live_agent_runs_to_the_budget():
    # Agent 1 is full after seeding, so the leader has no rival to bound.
    case = two_agent_case(4000, (4000, 1))
    trace = assert_matches_oracle(*case, 0.5)
    assert trace.agents() == [0, 1] + [0] * 3998


def test_only_live_agent_stops_on_non_positive_score():
    case = two_agent_case(5000, (5000, 1), reward_scale=1.0, costs=(0.5, 0.9))
    trace = assert_matches_oracle(*case, 0.5)
    stop = trace.steps[-1]
    assert stop.agent is None and stop.g_hat <= 0.0 and stop.round < 4000
    assert trace.agents() == [0, 1] + [0] * (stop.round - 2)


@pytest.mark.parametrize("bonus_scale", [0.5, 2.0])
def test_bonus_widths_never_shrink(monkeypatch, bonus_scale):
    # The table is grown from scratch, as a fresh process grows it.
    monkeypatch.setattr(bandit, "_BONUS_SCALE", bonus_scale)
    monkeypatch.setattr(bandit, "_WIDTHS", np.full(1, math.nan))
    widths = bandit._bonus_widths(100_001)
    assert len(widths) == 100_001
    assert (np.diff(widths[1:]) >= 0.0).all()


def test_shrinking_bonus_widths_are_refused(monkeypatch):
    # A log that falls back at t = 300: the widths of rounds 299 and 300
    # shrink, and the leader runs' bound would no longer hold.  The table is
    # refused, and the one before it kept.
    shrinking = types.SimpleNamespace(
        log=lambda t: math.log(t) - (t >= 300), sqrt=math.sqrt, inf=math.inf)
    monkeypatch.setattr(bandit, "_WIDTHS", np.full(1, math.nan))
    short = bandit._bonus_widths(300)
    monkeypatch.setattr(bandit, "math", shrinking)
    with pytest.raises(RuntimeError, match="shrink"):
        bandit._bonus_widths(400)
    assert bandit._WIDTHS is short
    assert bandit._bonus_widths(300) is short


def test_leader_capacity_binds_mid_run():
    case = two_agent_case(5000, (1500, 5000))
    trace = assert_matches_oracle(*case, 0.5)
    agents = trace.agents()
    assert agents.count(0) == 1500
    last = len(agents) - 1 - agents[::-1].index(0)
    assert agents[last - 100 : last + 1] == [0] * 101  # it was winning when capacity bound


def test_non_positive_score_stops_the_run():
    # A small reward scale: the leader's bonus decays until its score drops
    # to zero in the middle of a long run, which ends the auction.
    case = two_agent_case(5000, (5000, 5000), reward_scale=1.0, costs=(0.5, 0.9))
    trace = assert_matches_oracle(*case, 0.5)
    stop = trace.steps[-1]
    assert stop.agent is None and stop.g_hat <= 0.0 and stop.round < 4000
    assert trace.steps[-2].agent == 0


@pytest.mark.parametrize("bonus_scale", [0.5, 2.0])
def test_exact_ties_go_to_the_lower_index(bonus_scale):
    # Identical agents with identical reward rows: whenever their counts are
    # equal their scores tie exactly, and agent 0 takes the round.
    units = 400
    table = np.ones((2, units), dtype=np.uint8)
    market = MarketConfig(units, 30.0, (DIST, DIST))
    bids = [Bid(0.3, units), Bid(0.3, units)]
    draws = ([0.3] * 2, [0.3] * 2)
    trace = assert_matches_oracle(market, bids, RewardRealization(table), draws, bonus_scale)
    assert trace.agents() == [0, 1] * (units // 2)


def test_zero_capacity_agent_is_never_procured():
    case = two_agent_case(3000, (0, 3000))
    trace = assert_matches_oracle(*case, 0.5)
    assert 0 not in trace.agents()


def test_zero_capacity_agent_leaves_the_run_one_unit_short():
    # The round loop still starts at round n, so the seeding unit the
    # zero-capacity agent skipped is never bought.
    case = two_agent_case(3000, (0, 3000))
    outcome, _ = run_2d_ucb(*case[:3], 0.1, case[3])
    assert outcome.allocation.tolist() == [0, 2999]


def test_same_seed_sequence_gives_the_same_run():
    market = MarketConfig(40, 30.0, (DIST,) * 3)
    bids = [Bid(0.2, 20), Bid(0.4, 20), Bid(0.3, 20)]
    rng = np.random.default_rng(8)
    table = RewardRealization((rng.random((3, 40)) < 0.7).astype(np.uint8))
    seed = np.random.SeedSequence(12345)
    first, _ = run_2d_ucb(market, bids, table, 0.9, seeded_draws(market, bids, 0.9, seed))
    second, _ = run_2d_ucb(market, bids, table, 0.9, seeded_draws(market, bids, 0.9, seed))
    fresh, _ = run_2d_ucb(market, bids, table, 0.9,
                          seeded_draws(market, bids, 0.9, np.random.SeedSequence(12345)))
    assert first.payments.tolist() == second.payments.tolist() == fresh.payments.tolist()
    assert first.allocation.tolist() == second.allocation.tolist()
    eps_first = run_eps_separated(market, bids, table, 6, 0.9,
                                  seeded_draws(market, bids, 0.9, seed))
    eps_second = run_eps_separated(market, bids, table, 6, 0.9,
                                   seeded_draws(market, bids, 0.9, seed))
    assert eps_first.payments.tolist() == eps_second.payments.tolist()
    assert seed.n_children_spawned == 0


def test_iia_fails_when_first_divergence_excludes_the_changed_agent():
    report = audit_iia([0, 1, 2, 1, 0], [0, 1, 2, 2, 0], changed_agent=0)
    assert not report.passed and not report.inconclusive
    assert report.witness == {"round": 3, "from": 1, "to": 2}


def test_inverse_square_roots_match_math_sqrt(monkeypatch):
    # Entry 0 stays 0.0, the value a zero-capacity agent keeps; the table is
    # grown from scratch, in two steps, as both runners grow it.
    monkeypatch.setattr(bandit, "_INV_SQRT", np.zeros(1))
    bandit._inv_sqrt_counts(1000)
    table = bandit._inv_sqrt_counts(100_001)
    expected = [0.0] + [1.0 / math.sqrt(c) for c in range(1, 100_001)]
    assert table.tolist() == expected
    assert bandit._inv_sqrt_counts(10) is table


def batch_run(reward_scale, caps, tables, alphas):
    """``run_2d_ucb`` on a stack of tables, in a market of ``DIST`` agents
    bidding cost 0 and reporting ``caps``, at the draws ``(alphas, alphas)``:
    every bid whose alpha moved above 0 is paid the premium."""
    market = MarketConfig(tables.shape[-1], reward_scale, (DIST,) * len(caps))
    bids = [Bid(0.0, k) for k in caps]
    outcome, none = run_2d_ucb(market, bids, RewardRealization(tables), 0.1, (alphas, alphas))
    assert none is None
    return outcome


def assert_same_runs(got, expected):
    assert np.array_equal(got.allocation, expected.allocation)
    assert np.array_equal(got.payments, expected.payments)
    assert np.array_equal(got.auctioneer_utility, expected.auctioneer_utility)


def assert_batch_matches_oracle(reward_scale, alphas, caps, tables):
    """Runs ``run_2d_ucb`` on stacked tables and ``scalar_ucb_run`` on each
    sample with the same draws; returns the oracle's traces."""
    samples, n, units = tables.shape
    outcome = batch_run(reward_scale, caps, tables, alphas)
    assert outcome.allocation.shape == outcome.payments.shape == (samples, n)
    assert outcome.allocation.dtype == np.int64
    assert outcome.auctioneer_utility.shape == (samples,)
    market = MarketConfig(units, reward_scale, (DIST,) * n)
    bids = [Bid(0.0, k) for k in caps]
    traces = []
    for s in range(samples):
        draws = ([float(a) for a in alphas[s]],) * 2
        expected, trace = scalar_ucb_run(market, bids, RewardRealization(tables[s]), 0.1, draws)
        assert outcome.allocation[s].tolist() == expected.allocation.tolist(), s
        assert outcome.payments[s].tolist() == expected.payments.tolist(), s
        assert outcome.auctioneer_utility[s] == expected.auctioneer_utility, s
        traces.append(trace)
    return traces


@st.composite
def batch_instances(draw):
    n = draw(st.integers(1, 5))
    units = draw(st.integers(n, 60))
    samples = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    qualities = rng.uniform(0.0, 1.0, n)
    tables = (rng.random((samples, n, units)) < qualities[None, :, None]).astype(np.uint8)
    if n >= 2 and draw(st.booleans()):
        tables[:, 1] = tables[:, 0]  # agents 0 and 1 tie whenever their H does
    # Resampled costs from a few values, so that H ties exactly across agents.
    levels = draw(st.lists(st.sampled_from([0.05, 0.2, 0.35, 0.5, 0.9]), min_size=1, max_size=3))
    alphas = rng.choice(levels, (samples, n))
    caps = [draw(st.one_of(st.just(1), st.integers(1, 8), st.integers(1, units + 1)))
            for _ in range(n)]
    reward_scale = draw(st.sampled_from([30.0, 3.0, 1.0, 0.5]))
    return reward_scale, alphas, caps, tables


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(batch_instances())
def test_batch_kernel_matches_scalar_loop(instance):
    assert_batch_matches_oracle(*instance)


@pytest.mark.parametrize("block_rows", [8192, 7])
def test_batch_rows_stop_in_different_rounds_and_when_all_agents_are_full(block_rows):
    # A small reward scale: rows stop on a non-positive score at rounds that
    # depend on their rewards and costs.  Capacities sum to 17 of 40 units,
    # so rows that never stop end with every agent full.  Agent 2 has
    # capacity 1 and is full from the start.  The rows are also run in
    # blocks of ``block_rows`` (at 7, 43 blocks, the last one short): a row's
    # run must not depend on the rows stacked with it.
    rng = np.random.default_rng(5)
    samples, units = 300, 40
    tables = (rng.random((samples, 3, units)) < np.array([0.9, 0.7, 0.8])[None, :, None])
    alphas = rng.choice([0.2, 0.35, 0.5], (samples, 3))
    traces = assert_batch_matches_oracle(1.0, alphas, [8, 8, 1], tables.astype(np.uint8))
    whole = batch_run(1.0, [8, 8, 1], tables, alphas)
    blocks = [batch_run(1.0, [8, 8, 1], tables[i:i + block_rows], alphas[i:i + block_rows])
              for i in range(0, samples, block_rows)]
    for field in ("allocation", "payments", "auctioneer_utility"):
        parts = [getattr(block, field) for block in blocks]
        assert np.array_equal(getattr(whole, field), np.concatenate(parts))
    stops = {t.steps[-1].round for t in traces if t.steps[-1].agent is None}
    assert len(stops) >= 5
    full = [t for t in traces if t.steps[-1].agent is not None]
    assert full and all(len(t.steps) == 17 for t in full)
    assert all(t.agents().count(2) == 1 for t in traces)


@pytest.mark.parametrize("reward_scale", [1.0, 30.0])
@pytest.mark.parametrize("caps", [[0, 8, 8], [8, 0, 30], [0, 0, 5]])
def test_batch_rows_with_a_zero_capacity_agent_match_the_scalar_loop(caps, reward_scale):
    # An agent reporting capacity 0 is skipped in the seeding pass and never
    # bought from, in the batch runner as in the scalar one.
    alphas, tables = mixed_stop_batch(50)
    traces = assert_batch_matches_oracle(reward_scale, alphas, caps, tables)
    withheld = {j for j, k in enumerate(caps) if k == 0}
    assert all(withheld.isdisjoint(t.agents()) for t in traces)


def test_batch_kernel_breaks_exact_ties_toward_the_lower_index():
    # Identical agents on all-ones rewards tie whenever their counts are
    # equal, and the lowest index takes the round; agent 2's capacity of 7
    # binds mid-run, after which agents 0 and 1 alternate.
    tables = np.ones((4, 3, 30), dtype=np.uint8)
    alphas = np.full((4, 3), 0.35)
    traces = assert_batch_matches_oracle(30.0, alphas, [30, 30, 7], tables)
    assert traces[0].agents() == [0, 1, 2] * 7 + [0, 1] * 4 + [0]


def mixed_stop_batch(samples=300, units=40):
    """Resampled costs and reward tables of three agents on which, at reward
    scale 1, the learner stops on a non-positive score at many different
    rounds, and never in other rows."""
    rng = np.random.default_rng(5)
    tables = (rng.random((samples, 3, units)) < np.array([0.9, 0.7, 0.8])[None, :, None])
    alphas = rng.choice([0.2, 0.35, 0.5], (samples, 3))
    return alphas, tables.astype(np.uint8)


def virtual_costs(alphas, caps):
    return np.array([[DIST.virtual_cost(a, k) for a, k in zip(row, caps)] for row in alphas])


# ``ucb_run``'s qualities, row streams and drawn counts for whole tables.
WHOLE = (None, None, None)


@pytest.mark.parametrize("samples", [1, 3, 4, 5, 9])
def test_batch_sizes_straddle_block_edges(samples):
    # Every row equals the reference loop, and a call writes no row past its
    # samples: the inputs and outputs handed to the C loop are the leading
    # rows of larger arrays whose trailing rows are guards.
    caps, guards = [8, 8, 1], 4
    alphas, tables = mixed_stop_batch(samples)
    pad = ((0, guards), (0, 0))
    h = np.pad(virtual_costs(alphas, caps), pad, constant_values=math.nan)
    table = np.pad(tables, pad + ((0, 0),), constant_values=1)
    assert_batch_matches_oracle(1.0, alphas, caps, tables)
    units_out = batch_run(1.0, caps, tables, alphas).allocation
    successes = [[int(tables[s, j, : units_out[s, j]].sum()) for j in range(3)]
                 for s in range(samples)]
    counts = [np.full((samples + guards, 3), -7, dtype=np.int64) for _ in range(2)]
    empty = [np.empty((samples, 0), dtype) for dtype in (np.int64, np.uint8, float)]
    _native._library().ucb_run(
        samples, 3, 40, 1.0, h[:samples], np.array(caps, dtype=np.int64), *WHOLE, table[:samples],
        bandit._bonus_widths(40), bandit._inv_sqrt_counts(41), counts[0][:samples],
        counts[1][:samples], 0, *empty,
    )
    for guarded in counts:
        assert (guarded[samples:] == -7).all()
    assert np.array_equal(counts[0][:samples], units_out)
    assert counts[1][:samples].tolist() == successes


def test_a_traced_call_writes_each_samples_trace_at_its_offset():
    # A traced call of several samples gives each sample's reference trace
    # at its offset, ending at the score that stopped it, or -inf when every
    # agent is full.
    caps = [8, 8, 1]
    alphas, tables = mixed_stop_batch(6)
    market = MarketConfig(40, 1.0, (DIST,) * 3)
    trace_len = 37
    picks = np.full((6, trace_len), -7, dtype=np.int64)
    rewards, scores = np.full((6, trace_len), 7, dtype=np.uint8), np.full((6, trace_len), -7.0)
    counts = [np.empty((6, 3), dtype=np.int64) for _ in range(2)]
    _native._library().ucb_run(
        6, 3, 40, 1.0, virtual_costs(alphas, caps), np.array(caps, dtype=np.int64),
        *WHOLE, tables, bandit._bonus_widths(40), bandit._inv_sqrt_counts(41), *counts,
        trace_len, picks, rewards, scores,
    )
    ends = set()
    for s in range(6):
        bids = [Bid(float(a), k) for a, k in zip(alphas[s], caps)]
        draws = (alphas[s].tolist(),) * 2
        expected, trace = scalar_ucb_run(market, bids, RewardRealization(tables[s]), 0.1, draws)
        steps = trace.steps[3:]
        bought = int(counts[0][s].sum()) - 3
        assert picks[s, :bought].tolist() == [step.agent for step in steps[:bought]]
        assert rewards[s, :bought].tolist() == [step.reward for step in steps[:bought]]
        assert scores[s, :bought].tolist() == [step.g_hat for step in steps[:bought]]
        end = steps[bought].g_hat if bought < len(steps) else -math.inf
        assert scores[s, bought] == end
        ends.add(end == -math.inf)
        assert counts[0][s].tolist() == expected.allocation.tolist()
    assert ends == {True, False}


def stop_of(trace, units):
    """How the reference run ended: ("score", round), ("budget", units) or
    ("full", units bought)."""
    last = trace.steps[-1]
    if last.agent is None:
        return "score", last.round
    return ("budget" if len(trace.steps) == units else "full"), len(trace.steps)


# The rows of one batch share capacities, so rows that never stop on a score
# all run out of budget (capacities summing past the 40 rounds) or all fill
# every agent (capacities summing to 17); each batch puts them beside rows
# that stop on a score at different rounds.
@pytest.mark.parametrize("caps, other", [([30, 30, 1], "budget"), ([8, 8, 1], "full")],
                         ids=["budget", "full"])
def test_rows_ending_in_different_ways_share_a_block(caps, other):
    alphas, tables = mixed_stop_batch()
    stops = [stop_of(t, 40) for t in assert_batch_matches_oracle(1.0, alphas, caps, tables)]
    by_round = sorted((r for r, (how, _) in enumerate(stops) if how == "score"),
                      key=lambda r: stops[r][1])
    ends = [r for r, (how, _) in enumerate(stops) if how == other]
    early, late = by_round[0], by_round[-1]
    assert stops[early][1] < stops[late][1] and len(ends) >= 4
    # Row 0 stops first; the rows after it go on to later rounds.
    block = ([early, ends[0], late] + ends[1:])[:4]
    assert {stops[r][0] for r in block} == {"score", other}
    assert_batch_matches_oracle(1.0, alphas[block], caps, tables[block])
    outcome = batch_run(1.0, caps, tables[block], alphas[block])
    for perm in itertools.islice(itertools.permutations(range(len(block))), 24):
        perm = list(perm)
        permuted = batch_run(1.0, caps, tables[block][perm], alphas[block][perm])
        assert_same_runs(permuted, MechanismOutcome(
            outcome.allocation[perm], outcome.payments[perm], outcome.auctioneer_utility[perm]))


def test_permuting_rows_permutes_the_outcome():
    caps = [8, 8, 1]
    alphas, tables = mixed_stop_batch(13)
    outcome = batch_run(1.0, caps, tables, alphas)
    rng = np.random.default_rng(9)
    for _ in range(10):
        perm = rng.permutation(len(alphas))
        permuted = batch_run(1.0, caps, tables[perm], alphas[perm])
        assert_same_runs(permuted, MechanismOutcome(
            outcome.allocation[perm], outcome.payments[perm], outcome.auctioneer_utility[perm]))


@pytest.fixture(scope="module")
def split_batch():
    """The ``mixed_stop_batch`` of 4,097 rows and its capacities."""
    alphas, tables = mixed_stop_batch(4097)
    return [8, 8, 1], tables, alphas


@pytest.mark.parametrize("chunks", [2, 3, 5])
@pytest.mark.parametrize("samples", [0, 1, 3, 4, 5, 9, 4097])
def test_splitting_a_batch_leaves_every_row_as_it_was(monkeypatch, split_batch, chunks, samples):
    # Chunk edges fall at uneven rows, and some chunks are empty when the
    # batch holds fewer samples than there are chunks; every row still comes
    # out as from one chunk, and no thread outlives the call.  The threads
    # switch as often as the interpreter lets them.
    caps, tables, alphas = split_batch
    args = 1.0, caps, tables[:samples], alphas[:samples]
    monkeypatch.setattr(bandit, "_workers", lambda _: 1)
    whole = batch_run(*args)
    monkeypatch.setattr(bandit, "_workers", lambda _: chunks)
    threads, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        split = batch_run(*args)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads
    assert_same_runs(split, whole)


class _FailingLibrary:
    """A library whose ``ucb_run`` raises on the chunks starting at the rows
    in ``fail_at``, each with an exception naming its row (8 times its first
    virtual cost), and otherwise waits a little before it writes its rows, so
    that a chunk that raises early is not the last one running."""

    def __init__(self, fail_at):
        self.fail_at, self.finished = fail_at, []

    def ucb_run(self, samples, n, n_rounds, reward_scale, h, caps, quality, states, drawn, table,
                widths, inv_sqrt, units, successes, trace_len, picks, rewards, scores):
        row = int(h[0, 0] * 8)
        if row in self.fail_at:
            raise MemoryError(f"chunk at row {row}")
        time.sleep(0.05)
        units[...], successes[...] = 1, 0
        self.finished.append(row)


@pytest.mark.parametrize("fail_at, raised", [({0}, 0), ({4}, 4), ({8}, 8), ({4, 8}, 4)],
                         ids=["calling-thread", "middle", "last", "two"])
def test_a_chunk_that_raises_reaches_the_caller_after_every_thread_ends(
        monkeypatch, fail_at, raised):
    # Three chunks of four rows; row r's alphas are r / 16, and so its virtual
    # costs r / 8, so each chunk's first row names it.  The first failing
    # chunk's exception is raised, and only once every other chunk has
    # finished and every thread is gone.
    library = _FailingLibrary(fail_at)
    monkeypatch.setattr(bandit, "_library", lambda: library)
    monkeypatch.setattr(bandit, "_workers", lambda _: 3)
    alphas = np.repeat(np.arange(12.0)[:, None] / 16, 3, axis=1)
    threads = threading.active_count()
    with pytest.raises(MemoryError, match=f"^chunk at row {raised}$"):
        batch_run(1.0, [8, 8, 1], np.ones((12, 3, 40), dtype=np.uint8), alphas)
    assert threading.active_count() == threads
    assert sorted(library.finished) == sorted({0, 4, 8} - fail_at)


def _no_thread(self):
    raise AssertionError("a thread was started")


def test_worker_count_holds_every_chunk_to_the_minimum(monkeypatch):
    # On a host of 10,000 CPUs every chunk still holds _MIN_CHUNK samples or
    # more; small batches and one-CPU processes make one chunk.  Asking
    # starts no thread.
    monkeypatch.setattr(threading.Thread, "start", _no_thread)
    least = bandit._MIN_CHUNK
    sizes = [0, 1, least - 1, least, 2 * least - 1, 2 * least, 20_000, 10**9]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(10_000)), raising=False)
    assert [bandit._workers(s) for s in sizes] == [1, 1, 1, 1, 1, 2, 20_000 // least, 10_000]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert [bandit._workers(s) for s in sizes] == [1] * len(sizes)
    # Where affinity is not available, the CPU count stands in for it.
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert [bandit._workers(s) for s in sizes] == [1, 1, 1, 1, 1, 2, 3, 3]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert [bandit._workers(s) for s in sizes] == [1] * len(sizes)


def test_one_cpu_runs_a_large_batch_on_the_calling_thread(monkeypatch, split_batch):
    caps, tables, alphas = split_batch
    expected = batch_run(1.0, caps, tables, alphas)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(threading.Thread, "start", _no_thread)
    assert_same_runs(batch_run(1.0, caps, tables, alphas), expected)
