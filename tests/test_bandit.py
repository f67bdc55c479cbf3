import itertools
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procure2d import (
    Bid,
    MarketConfig,
    RewardRealization,
    audit_iia,
    make_ucb_batch_utility,
    run_2d_opt,
    run_2d_ucb,
    run_eps_separated,
    sample_reward_realization,
    seeded_draws,
    self_resample,
    stream_reward_realization,
    uniform_type_distribution,
)
from procure2d import _native, bandit
from procure2d.bandit import _round_robin_split
from procure2d.model import RowStreams
from procure2d.resample import generator_at, stream_states

from oracles import eps_reference, patched_bonus_scale, round_robin_explore, split_runs

DIST = uniform_type_distribution(0.0, 1.0, 1, 50)


def market(units, n):
    return MarketConfig(units, 30.0, (DIST,) * n)


def pinned(bids):
    """Resampler draws frozen at the bid: no premium, alpha = reported cost."""
    costs = [b.cost for b in bids]
    return costs, costs


class TestGoldenTrace:
    """Two agents, pinned draws, hand-fixed reward table; the whole run is
    simulated by hand and frozen here."""

    def setup_method(self):
        self.market = market(6, 2)
        self.bids = [Bid(0.2, 4), Bid(0.3, 4)]
        self.table = RewardRealization(
            np.array([[1, 0, 1, 1, 0, 0], [0, 1, 1, 0, 1, 1]], dtype=np.uint8)
        )

    def run(self):
        return run_2d_ucb(self.market, self.bids, self.table, 0.1, pinned(self.bids))

    def test_agent_sequence(self):
        _, trace = self.run()
        # hand simulation: A's early success holds off B until A's capacity
        # binds at round 5, then B takes the last unit
        assert trace.agents() == [0, 1, 0, 0, 0, 1]

    def test_allocation_payments_utility(self):
        outcome, _ = self.run()
        assert outcome.allocation.tolist() == [4, 2]
        assert outcome.payments.tolist() == pytest.approx([0.8, 0.6])
        # realized: A succeeded 3 of 4, B 1 of 2; 30*4 - 1.4
        assert outcome.auctioneer_utility == pytest.approx(30.0 * 4 - 1.4)

    def test_scores_along_trace(self):
        _, trace = self.run()
        h = [0.4, 0.6]

        def score(successes, count, t, virtual_cost):
            bonus = math.sqrt(math.log(t) / 2.0) / math.sqrt(count)
            return 30.0 * (successes / count + bonus) - virtual_cost

        expected = [
            (2, 0, 0, score(1, 1, 2, h[0])),
            (3, 0, 1, score(1, 2, 3, h[0])),
            (4, 0, 1, score(2, 3, 4, h[0])),
            (5, 1, 1, score(0, 1, 5, h[1])),
        ]
        loop_steps = [s for s in trace.steps if s.g_hat is not None]
        assert [(s.round, s.agent, s.reward) for s in loop_steps] == [
            e[:3] for e in expected
        ]
        for step, exp in zip(loop_steps, expected):
            assert step.g_hat == pytest.approx(exp[3], abs=1e-12)

    def test_init_rows_have_no_score(self):
        _, trace = self.run()
        assert [(s.round, s.agent, s.reward) for s in trace.steps[:2]] == [
            (0, 0, 1),
            (1, 1, 0),
        ]
        assert all(s.g_hat is None for s in trace.steps[:2])


def test_single_agent_buys_everything_at_bid_price():
    m = market(10, 1)
    bids = [Bid(0.3, 20)]
    table = sample_reward_realization([0.9], 10, 5)
    outcome, trace = run_2d_ucb(m, bids, table, 0.1, pinned(bids))
    assert outcome.allocation.tolist() == [10]
    assert outcome.payments[0] == pytest.approx(0.3 * 10)
    assert trace.agents() == [0] * 10


def test_stops_when_everyone_is_at_capacity():
    m = market(12, 2)
    bids = [Bid(0.1, 3), Bid(0.2, 4)]
    table = sample_reward_realization([0.8, 0.8], 12, 6)
    outcome, _ = run_2d_ucb(m, bids, table, 0.1, pinned(bids))
    assert outcome.allocation.tolist() == [3, 4]


def test_stops_permanently_on_non_positive_score():
    # A tiny reward scale keeps even the optimistic scores below the virtual
    # costs once seeding reveals zero quality, so the auction ends at once.
    m = MarketConfig(12, 1.0, (DIST, DIST))
    bids = [Bid(0.9, 6), Bid(0.95, 6)]
    table = RewardRealization(np.zeros((2, 12), dtype=np.uint8))
    outcome, trace = run_2d_ucb(m, bids, table, 0.1, pinned(bids))
    assert outcome.allocation.tolist() == [1, 1]  # the unconditional seeding pass
    stop_rows = [s for s in trace.steps if s.agent is None]
    assert len(stop_rows) == 1 and stop_rows[0].g_hat <= 0


def test_budget_below_agent_count_rejected():
    m = market(2, 3)
    bids = [Bid(0.1, 2)] * 3
    table = sample_reward_realization([0.5] * 3, 2, 0)
    with pytest.raises(ValueError, match="units"):
        run_2d_ucb(m, bids, table, 0.1, pinned(bids))


def test_rewards_in_trace_match_consumed_entries():
    m = market(25, 3)
    bids = [Bid(0.2, 10), Bid(0.4, 12), Bid(0.3, 9)]
    table = sample_reward_realization([0.7, 0.6, 0.5], 25, 9)
    outcome, trace = run_2d_ucb(m, bids, table, 0.1, seeded_draws(m, bids, 0.1, 3))
    consumed = [0, 0, 0]
    for step in trace.steps:
        if step.agent is None:
            continue
        assert step.reward == table.table[step.agent, consumed[step.agent]]
        consumed[step.agent] += 1
    assert consumed == outcome.allocation.tolist()
    assert all(
        units <= bid.capacity for units, bid in zip(outcome.allocation, bids)
    )


def test_allocation_depends_only_on_consumed_prefix():
    # Flipping every entry the run never consumed must not change the trace.
    m = market(20, 3)
    bids = [Bid(0.25, 8), Bid(0.45, 8), Bid(0.35, 8)]
    table = sample_reward_realization([0.8, 0.55, 0.65], 20, 17)
    outcome, trace = run_2d_ucb(m, bids, table, 0.1, pinned(bids))
    scrambled = np.array(table.table, copy=True)
    for i, used in enumerate(outcome.allocation):
        scrambled[i, used:] = 1 - scrambled[i, used:]
    outcome2, trace2 = run_2d_ucb(m, bids, RewardRealization(scrambled), 0.1, pinned(bids))
    assert trace2.steps == trace.steps
    assert (outcome2.allocation == outcome.allocation).all()


def test_units_monotone_in_reported_capacity():
    rng = np.random.default_rng(21)
    for _ in range(25):
        n = 3
        m = market(18, n)
        costs = rng.uniform(0.0, 1.0, n)
        table = sample_reward_realization(rng.uniform(0.3, 1.0, n), 18, int(rng.integers(1 << 30)))
        agent = int(rng.integers(n))
        previous = -1
        for cap in range(1, 9):
            bids = [Bid(float(costs[j]), 8) for j in range(n)]
            bids[agent] = Bid(float(costs[agent]), cap)
            outcome, _ = run_2d_ucb(m, bids, table, 0.1, pinned(bids))
            assert outcome.allocation[agent] >= previous
            previous = outcome.allocation[agent]


def test_units_non_increasing_in_reported_cost():
    # Realization, rival bids, and the resampling seed all held fixed.
    rng = np.random.default_rng(22)
    for _ in range(25):
        n = 3
        m = market(24, n)
        rival_costs = rng.uniform(0.0, 1.0, n - 1)
        table = sample_reward_realization(rng.uniform(0.3, 1.0, n), 24, int(rng.integers(1 << 30)))
        seed = int(rng.integers(1 << 30))
        previous = math.inf
        for cost in np.linspace(0.0, 1.0, 11):
            bids = [Bid(float(cost), 9)] + [Bid(float(c), 9) for c in rival_costs]
            outcome, _ = run_2d_ucb(m, bids, table, 0.1, seeded_draws(m, bids, 0.1, seed))
            assert outcome.allocation[0] <= previous
            previous = outcome.allocation[0]


def test_truthful_expost_individual_rationality():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = 3
        m = market(15, n)
        costs = rng.uniform(0.0, 1.0, n)
        bids = [Bid(float(c), 6) for c in costs]
        table = sample_reward_realization(rng.uniform(0.2, 1.0, n), 15, int(rng.integers(1 << 30)))
        draws = seeded_draws(m, bids, 0.1, int(rng.integers(1 << 30)))
        outcome, _ = run_2d_ucb(m, bids, table, 0.1, draws)
        surplus = outcome.payments - costs * outcome.allocation
        assert (surplus >= -1e-12).all()


def test_truthful_surplus_strict_exactly_when_beta_moved():
    m = market(12, 2)
    costs = [0.3, 0.5]
    bids = [Bid(costs[0], 5), Bid(costs[1], 5)]
    table = sample_reward_realization([0.8, 0.7], 12, 4)
    draws = ([0.45, 0.5], [0.4, 0.5])  # only agent 0 moved
    outcome, _ = run_2d_ucb(m, bids, table, 0.1, draws)
    surplus = outcome.payments - np.array(costs) * outcome.allocation
    assert surplus[0] > 0  # premium owed: beta moved and units were procured
    assert surplus[1] == pytest.approx(0.0, abs=1e-15)


def test_iia_under_bid_perturbation():
    rng = np.random.default_rng(24)
    violations = []
    for _ in range(40):
        n = 3
        m = market(20, n)
        costs = rng.uniform(0.1, 0.9, n)
        bids = [Bid(float(c), 8) for c in costs]
        table = sample_reward_realization(rng.uniform(0.3, 1.0, n), 20, int(rng.integers(1 << 30)))
        _, base = run_2d_ucb(m, bids, table, 0.1, pinned(bids))
        moved = list(bids)
        moved[0] = Bid(float(rng.uniform(0.1, 0.9)), 8)
        _, perturbed = run_2d_ucb(m, moved, table, 0.1, pinned(moved))
        report = audit_iia(base.agents(), perturbed.agents(), changed_agent=0)
        violations.append(not report.passed)
    assert not any(violations)


def test_iia_vacuous_below_three_agents():
    report = audit_iia([0, 1, 0], [1, 0, 0], changed_agent=0)
    assert report.inconclusive
    assert "vacuous" in report.details["note"]


def test_wide_bonus_switch_changes_run():
    m = market(20, 2)
    bids = [Bid(0.4, 18), Bid(0.45, 18)]
    table = sample_reward_realization([0.9, 0.4], 20, 2)
    narrow_out, _ = run_2d_ucb(m, bids, table, 0.1, pinned(bids))
    with patched_bonus_scale(2.0):
        wide_out, _ = run_2d_ucb(m, bids, table, 0.1, pinned(bids))
    # both allocate the full budget; the wider bonus explores more
    assert narrow_out.allocation.sum() == wide_out.allocation.sum() == 20
    assert narrow_out.allocation[0] >= wide_out.allocation[0]
    assert (narrow_out.allocation != wide_out.allocation).any()


def test_batch_runner_matches_scalar_exactly():
    rng = np.random.default_rng(30)
    n, rounds, samples = 3, 25, 150
    m = market(rounds, n)
    bids = [Bid(0.25, 9), Bid(0.5, 11), Bid(0.4, 10)]
    qualities = np.array([0.8, 0.6, 0.7])
    tables = (rng.random((samples, n, rounds)) < qualities[None, :, None]).astype(np.uint8)
    alphas = rng.uniform([b.cost for b in bids], 1.0, (samples, n))
    betas = np.broadcast_to([b.cost for b in bids], (samples, n))
    stack, _ = run_2d_ucb(m, bids, RewardRealization(tables), 0.1, (alphas, betas))
    for s in range(samples):
        outcome, _ = run_2d_ucb(m, bids, RewardRealization(tables[s]), 0.1, (alphas[s], betas[s]))
        assert (outcome.allocation == stack.allocation[s]).all()
        assert (outcome.payments == stack.payments[s]).all()
        assert outcome.auctioneer_utility == stack.auctioneer_utility[s]
    # No run succeeds on more units than it buys.
    assert (stack.auctioneer_utility
            <= 30.0 * stack.allocation.sum(axis=1) - stack.payments.sum(axis=1)).all()


@pytest.mark.parametrize("n", [*range(1, 18), 127, 128, 129, 136, 300, 1029])
def test_row_sums_add_in_numpys_order_for_a_row(n):
    # The learner sums each run's payments agent-major, down a column of the
    # transpose; numpy sums a row of 8 or more in pairwise blocks, so the two
    # must agree bit for bit, on the strided transpose the learner passes.
    rng = np.random.default_rng(n)
    rows = rng.standard_normal((64, n)) * 10.0 ** rng.integers(-12, 12, (64, n))
    assert np.array_equal(bandit._row_sums(rows.T), rows.sum(axis=1))
    counts = rng.integers(0, 1000, (64, n))
    assert np.array_equal(bandit._row_sums(counts.T), counts.sum(axis=1))


def _bad_batch_input(case):
    """Arguments of ``run_2d_ucb`` on a stack with one input the C loop would
    misread.  The draws are admitted by their priors' cost bounds, which
    refuse a NaN alpha and so a NaN virtual cost; a ``MarketConfig`` refuses a
    NaN reward scale or no agents, and a ``Bid`` a fractional or negative
    capacity, as they are built."""
    rng = np.random.default_rng(4)
    tables = (rng.random((6, 3, 20)) < 0.7).astype(np.uint8)
    alphas = np.full((6, 3), 0.3)
    caps = [5, 4, 4]
    reward_scale = 30.0
    dists = (DIST,) * 3
    if case == "nan-virtual-cost":
        alphas[:, 0] = math.nan  # agent 0 would never be picked after seeding
    elif case == "nan-reward-scale":
        reward_scale = math.nan  # every row would stop after seeding
    elif case == "fractional-capacity":
        caps = [5, 4, 2.9]  # would be truncated to 2
    elif case == "negative-capacity":
        caps = [5, 4, -1]
    elif case == "zero-agents":
        dists = ()
    bids = [Bid(0.3, k) for k in caps]
    return MarketConfig(20, reward_scale, dists), bids, RewardRealization(tables), 0.1, (
        alphas, alphas)


BAD_BATCH_INPUTS = {
    "nan-virtual-cost": (ValueError, r"^agent 0 bid cost nan outside \[0\.0, 1\.0\]$"),
    "nan-reward-scale": (ValueError, "reward_scale must be finite"),
    "fractional-capacity": (TypeError, "capacity must be an integer, got 2.9"),
    "negative-capacity": (ValueError, "reported capacity must be >= 0, got -1"),
    "zero-agents": (ValueError, "at least one agent"),
}


@pytest.mark.parametrize("case", list(BAD_BATCH_INPUTS))
def test_batch_runner_refuses_input_it_would_misread(case):
    error, message = BAD_BATCH_INPUTS[case]
    with pytest.raises(error, match=message):
        run_2d_ucb(*_bad_batch_input(case))


# A float table would be truncated by the uint8 cast, and a 2 would let
# successes exceed units: ``RewardRealization`` refuses both, for one (n, L)
# table and for a (samples, n, rounds) stack of them alike.
@pytest.mark.parametrize("shape", [(3, 20), (6, 3, 20)], ids=["run_2d_ucb", "run_ucb_batch"])
@pytest.mark.parametrize("bad, error, message", [
    (lambda t: t.astype(float), TypeError, "must hold 0/1 integers, got dtype float64"),
    (lambda t: t * 2, ValueError, "entries must be 0 or 1"),
], ids=["float-table", "table-of-twos"])
def test_outcome_tables_are_refused_by_one_rule(shape, bad, error, message):
    tables = (np.random.default_rng(4).random(shape) < 0.7).astype(np.uint8)
    with pytest.raises(error, match=f"^realization table {message}$"):
        RewardRealization(bad(tables))


# A capacity-8 bid under a prior capped at 5.  Every mechanism, and the
# audits' batched utility, admits a profile by ``MarketConfig.check_bids``,
# so each refuses this one up front with the same message, naming the 8:
# explore-then-commit too, whether its residual capacity would have been 7
# (two exploration units) or within the prior (six).
CAPPED = uniform_type_distribution(0.0, 1.0, 1, 5)
OVER_CAP = {
    "opt": lambda m, bids, table: run_2d_opt(m, [0.9, 0.4], bids),
    "ucb": lambda m, bids, table: run_2d_ucb(m, bids, table, 0.1, pinned(bids)),
    "eps-short": lambda m, bids, table: run_eps_separated(m, bids, table, 2, 0.1, pinned(bids)),
    "eps-long": lambda m, bids, table: run_eps_separated(m, bids, table, 6, 0.1, pinned(bids)),
    "batch-utility": lambda m, bids, table: make_ucb_batch_utility(
        m, bids, 1, 0.6, [0.9, 0.4], 0.1, 10, 0),
}


@pytest.mark.parametrize("mechanism", list(OVER_CAP))
def test_capacity_above_the_prior_is_refused_by_every_mechanism(mechanism):
    m = MarketConfig(6, 30.0, (CAPPED, CAPPED))
    bids = [Bid(0.2, 8), Bid(0.6, 3)]
    table = sample_reward_realization([0.9, 0.4], 6, 1)
    with pytest.raises(ValueError) as refused:
        OVER_CAP[mechanism](m, bids, table)
    assert str(refused.value) == "agent 0 bid capacity 8 above prior bound 5"


# Three malformed learning runs.  ``MarketConfig.check_run`` admits the runs
# of both learning entry points, on one table and on a stack, so each refuses
# each case with the same message: explore-then-commit names the budget, not
# its exploration range, and the learner on a stack sees the prior's capacity
# bound.
MALFORMED_RUNS = {
    "units-below-agents": (
        MarketConfig(2, 30.0, (CAPPED,) * 3), [Bid(0.2, 3)] * 3, 2,
        "units (2) must be >= number of agents (3)"),
    "table-of-wrong-unit-count": (
        MarketConfig(6, 30.0, (CAPPED,) * 2), [Bid(0.2, 3)] * 2, 5,
        "realization tables must be 2x6, got 2x5"),
    "capacity-above-prior": (
        MarketConfig(6, 30.0, (CAPPED,) * 2), [Bid(0.2, 8), Bid(0.6, 3)], 6,
        "agent 0 bid capacity 8 above prior bound 5"),
}
LEARNING_RUNS = {
    "ucb": lambda m, bids, tables: run_2d_ucb(
        m, bids, RewardRealization(tables[0]), 0.1, pinned(bids)),
    "eps": lambda m, bids, tables: run_eps_separated(
        m, bids, RewardRealization(tables[0]), m.n_agents, 0.1, pinned(bids)),
    "batch": lambda m, bids, tables: run_2d_ucb(
        m, bids, RewardRealization(tables), 0.1, (np.full(tables.shape[:2], 0.2),) * 2),
}


@pytest.mark.parametrize("runner", list(LEARNING_RUNS))
@pytest.mark.parametrize("case", list(MALFORMED_RUNS))
def test_malformed_runs_are_refused_by_one_rule(case, runner):
    m, bids, table_units, message = MALFORMED_RUNS[case]
    tables = np.ones((4, m.n_agents, table_units), dtype=np.uint8)
    with pytest.raises(ValueError) as refused:
        LEARNING_RUNS[runner](m, bids, tables)
    assert str(refused.value) == message


# A whole table holds every outcome of every row, so both scalar learning
# runs admit any capacity on it, even one past the budget.
SCALAR_RUNS = {
    "ucb": lambda m, bids, table: run_2d_ucb(m, bids, table, 0.1, pinned(bids)),
    "eps": lambda m, bids, table: run_eps_separated(
        m, bids, table, m.n_agents, 0.1, pinned(bids)),
}


@pytest.mark.parametrize("runner", list(SCALAR_RUNS))
def test_whole_tables_admit_every_capacity_as_before(runner):
    m = market(10, 2)
    table = sample_reward_realization([0.9, 0.4], 10, 1)
    for bids in ([Bid(0.2, 50), Bid(0.6, 0)], [Bid(0.2, 50), Bid(0.6, 3)]):
        SCALAR_RUNS[runner](m, bids, table)


WIDE = uniform_type_distribution(0.0, 1.0, 1, 400)


@pytest.mark.parametrize("case", range(8))
def test_runs_on_capacity_drawn_tables_equal_runs_on_whole_tables(case):
    # One table of a streamed block, drawn only as far as each scalar run
    # reads it and never past min(k_i, L), against the same table drawn whole.
    pick = np.random.default_rng(case)
    n = int(pick.integers(2, 5))
    units = int(pick.integers(n, 300))
    caps = pick.integers(2, 400, n)
    if case % 2:
        caps[0] = 0
    m = MarketConfig(units, 30.0, (WIDE,) * n)
    q = pick.random(n)
    bids = [Bid(float(c), int(k)) for c, k in zip(pick.random(n), caps)]
    explore = int(pick.integers(n, min(units, caps.sum()) + 1))
    draws = seeded_draws(m, bids, 0.1, case)
    for run in (lambda table: run_2d_ucb(m, bids, table, 0.1, draws)[0],
                lambda table: run_eps_separated(m, bids, table, explore, 0.1, draws)):
        block, (whole,) = streamed_block(q, units, 1, 50 + case)
        streams = block.streams
        drawn = RewardRealization(block.table[0], streams=RowStreams(q, streams.states[0],
                                                                     streams.counts[0]))
        assert_same_outcomes([run(drawn)], [run(whole)])
        assert_drawn_within_capacity(block, caps)


def test_runners_refuse_a_table_of_the_wrong_rank():
    # One-budget explore-then-commit takes one table (the learner takes
    # either: UCB_REFUSALS).
    m, bids = market(20, 3), [Bid(0.3, 5)] * 3
    table = sample_reward_realization([0.9, 0.4, 0.7], 20, 1)
    stack = RewardRealization(np.stack([table.table] * 2))
    with pytest.raises(ValueError, match="^run_eps_separated takes one 3x20 table, got a stack$"):
        run_eps_separated(m, bids, stack, 3, 0.1, pinned(bids))


# A pair of resampled bids that is not one alpha and one beta per bid.
WRONG_DRAWS = {
    "short-alpha": ([0.3] * 2, [0.3] * 3),
    "short-beta": ([0.3] * 3, [0.3] * 2),
    "unequal-lengths": ([0.3] * 4, [0.3] * 2),
}
DRAW_RUNNERS = {
    "ucb": lambda m, bids, table, draws: run_2d_ucb(m, bids, table, 0.1, draws),
    "eps": lambda m, bids, table, draws: run_eps_separated(m, bids, table, 3, 0.1, draws),
}


@pytest.mark.parametrize("runner", list(DRAW_RUNNERS))
@pytest.mark.parametrize("case", list(WRONG_DRAWS))
def test_runners_refuse_draws_not_one_per_bid(case, runner):
    m, bids = market(20, 3), [Bid(0.3, 5)] * 3
    table = sample_reward_realization([0.9, 0.4, 0.7], 20, 1)
    alpha, beta = WRONG_DRAWS[case]
    with pytest.raises(ValueError) as refused:
        DRAW_RUNNERS[runner](m, bids, table, (alpha, beta))
    assert str(refused.value) == (
        f"need one alpha and one beta per bid: 3 bids, got alpha of shape ({len(alpha)},) "
        f"and beta of shape ({len(beta)},)")


def test_seeded_draws_leave_a_seed_sequence_unspent():
    m = market(10, 4)
    bids = [Bid(c, 3) for c in (0.1, 0.5, 0.9, 0.3)]
    seed = np.random.SeedSequence(77)
    first, second = seeded_draws(m, bids, 0.6, seed), seeded_draws(m, bids, 0.6, seed)
    assert [side.tolist() for side in first] == [side.tolist() for side in second]
    assert seed.n_children_spawned == 0


@pytest.mark.parametrize("seed", [0, 31, 2**63 + 5, [3, 1, 4]])
def test_seeded_draws_resample_bid_i_on_child_i(seed):
    # Each bid under its own cost bound, so each draw reads its own prior.
    dists = tuple(uniform_type_distribution(0.0, hi, 1, 50) for hi in (1.0, 2.0, 0.5, 4.0, 1.0))
    m = MarketConfig(10, 30.0, dists)
    bids = [Bid(c, 3) for c in (0.1, 1.5, 0.5, 0.2, 0.99)]
    alpha, beta = seeded_draws(m, bids, 0.6, seed)
    children = np.random.SeedSequence(seed).spawn(len(bids))
    expected = [self_resample(bid.cost, dist.cost_bounds, 0.6, child)
                for bid, dist, child in zip(bids, dists, children)]
    assert list(zip(alpha.tolist(), beta.tolist())) == expected
    assert any(b > bid.cost for b, bid in zip(beta, bids))  # some bid moved


class TestEpsSeparated:
    def test_pure_exploration(self):
        m = market(6, 2)
        bids = [Bid(0.2, 5), Bid(0.6, 5)]
        table = sample_reward_realization([0.9, 0.4], 6, 1)
        outcome = run_eps_separated(m, bids, table, 6, 0.1, pinned(bids))
        assert outcome.allocation.tolist() == [3, 3]
        assert outcome.payments.tolist() == pytest.approx([0.2 * 3, 0.6 * 3])

    # With explore_rounds == units every unit is an exploration unit, so the
    # allocation is the per-agent exploration count.
    def test_round_robin_split(self):
        m = market(5, 3)
        bids = [Bid(0.3, 6), Bid(0.5, 6), Bid(0.4, 6)]
        table = sample_reward_realization([0.7, 0.7, 0.7], 5, 2)
        outcome = run_eps_separated(m, bids, table, 5, 0.1, pinned(bids))
        assert outcome.allocation.tolist() == [2, 2, 1]

    def test_round_robin_skips_exhausted_agents(self):
        m = market(5, 2)
        bids = [Bid(0.3, 1), Bid(0.5, 7)]
        table = sample_reward_realization([0.7, 0.7], 5, 3)
        outcome = run_eps_separated(m, bids, table, 5, 0.1, pinned(bids))
        assert outcome.allocation.tolist() == [1, 4]

    def test_explore_beyond_capacity_clips_with_warning(self):
        m = market(10, 2)
        bids = [Bid(0.3, 2), Bid(0.5, 2)]
        table = sample_reward_realization([0.7, 0.7], 10, 4)
        with pytest.warns(UserWarning, match="clipping"):
            outcome = run_eps_separated(m, bids, table, 9, 0.1, pinned(bids))
        assert outcome.allocation.tolist() == [2, 2]

    def test_split_equals_the_round_robin_loop(self):
        # Capacity 0 and an exploration budget equal to the total capacity
        # (what clipping leaves) included.
        rng = np.random.default_rng(25)
        for _ in range(500):
            caps = [int(c) for c in rng.integers(0, 12, int(rng.integers(1, 7)))]
            for budget in (0, sum(caps), int(rng.integers(0, sum(caps) + 1))):
                expected = round_robin_explore(caps, budget)
                assert _round_robin_split(caps, budget) == expected, (caps, budget)

    def test_clipped_exploration_skips_zero_capacity(self):
        m = market(6, 3)
        bids = [Bid(0.3, 0), Bid(0.5, 3), Bid(0.4, 1)]
        table = sample_reward_realization([0.7, 0.7, 0.7], 6, 5)
        with pytest.warns(UserWarning, match="clipping"):
            outcome = run_eps_separated(m, bids, table, 5, 0.1, pinned(bids))
        assert outcome.allocation.tolist() == [0, 3, 1]

    def test_explore_bounds_validated(self):
        m = market(10, 2)
        bids = [Bid(0.3, 8), Bid(0.5, 8)]
        table = sample_reward_realization([0.7, 0.7], 10, 4)
        with pytest.raises(ValueError):
            run_eps_separated(m, bids, table, 1, 0.1, pinned(bids))
        with pytest.raises(ValueError):
            run_eps_separated(m, bids, table, 11, 0.1, pinned(bids))

    def test_premium_on_exploration_units(self):
        m = market(4, 2)
        bids = [Bid(0.2, 4), Bid(0.9, 4)]
        table = RewardRealization(np.ones((2, 4), dtype=np.uint8))
        draws = ([0.6, 0.9], [0.5, 0.9])
        outcome = run_eps_separated(m, bids, table, 4, 0.1, draws)
        # two exploration units each, no exploitation budget left
        assert outcome.allocation.tolist() == [2, 2]
        assert outcome.payments[0] == pytest.approx(0.2 * 2 + 2 * (1.0 - 0.2) / 0.1)
        assert outcome.payments[1] == pytest.approx(0.9 * 2)

    def test_payment_adds_explore_exploit_then_premium(self):
        # Agent 0 explores two units, wins all six exploitation units and its
        # beta moved.  At these numbers any other order of the three terms
        # rounds to a different float.
        m = market(10, 2)
        bids = [Bid(0.43, 8), Bid(0.62, 8)]
        table = RewardRealization(
            np.vstack([np.ones(10, dtype=np.uint8), np.zeros(10, dtype=np.uint8)])
        )
        draws = ([0.77, 0.62], [0.6, 0.62])
        outcome = run_eps_separated(m, bids, table, 4, 0.1, draws)
        assert outcome.allocation.tolist() == [8, 2]
        exploit = run_2d_opt(market(6, 2), [1.0, 0.0], [Bid(0.77, 6), Bid(0.62, 6)])
        explored, exploited = 0.43 * 2, float(exploit.payments[0])
        premium = 2 * (1.0 - 0.43) / 0.1
        assert explored + exploited + premium != explored + (exploited + premium)
        assert explored + exploited + premium != explored + premium + exploited
        assert outcome.payments[0] == explored + exploited + premium
        assert outcome.payments[1] == 0.62 * 2 + float(exploit.payments[1])

    def test_exploitation_uses_frozen_estimates(self):
        # Agent 1 looks perfect during exploration, agent 0 worthless; the
        # exploitation block must go entirely to agent 1.
        m = market(10, 2)
        bids = [Bid(0.1, 8), Bid(0.4, 8)]
        table = RewardRealization(
            np.vstack([np.zeros(10, dtype=np.uint8), np.ones(10, dtype=np.uint8)])
        )
        outcome = run_eps_separated(m, bids, table, 4, 0.1, pinned(bids))
        assert outcome.allocation.tolist() == [2, 8]


def clipping_warnings(run):
    """``run()``'s result and the number of clipping warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run()
    return result, sum("clipping" in str(w.message) for w in caught)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_budget_grid_equals_the_reference_and_one_budget_runs(data):
    # n up to 9 runs the payment sums on both sides of numpy's 8-element
    # pairwise block; tied costs and tied tables tie the commit auction's
    # scores; a small total capacity clips budgets.
    n = data.draw(st.integers(1, 9), label="n")
    units = data.draw(st.integers(n, 60), label="units")
    caps = data.draw(st.lists(st.integers(0, 25), min_size=n, max_size=n), label="caps")
    cost = st.sampled_from([0.0, 0.3, 0.5, 1.0]) | st.floats(0.0, 1.0)
    costs = data.draw(st.lists(cost, min_size=n, max_size=n), label="costs")
    m = MarketConfig(units, 30.0, (uniform_type_distribution(0.0, 1.0, 1, 25),) * n)
    bids = [Bid(c, k) for c, k in zip(costs, caps)]
    seed = data.draw(st.integers(0, 2**32), label="seed")
    table_kind = data.draw(st.sampled_from(["drawn", "ones", "same-rows"]))
    if table_kind == "drawn":
        q = np.random.default_rng(seed).random(n)
        table = sample_reward_realization(q, units, seed)
    else:
        row = np.random.default_rng(seed).random(units) < 0.6 if table_kind == "same-rows" else 1
        table = RewardRealization(np.broadcast_to(row, (n, units)).astype(np.uint8))
    budget = st.integers(n, units)
    budgets = data.draw(st.lists(budget, min_size=1, max_size=5), label="budgets")
    mu = data.draw(st.sampled_from([0.1, 0.6]), label="mu")
    if data.draw(st.booleans(), label="pinned"):
        alpha = beta = np.array([costs] * len(budgets))
    else:
        rows = [seeded_draws(m, bids, mu, [seed, e]) for e in range(len(budgets))]
        alpha, beta = (np.array(side) for side in zip(*rows))

    grid, clipped = clipping_warnings(
        lambda: run_eps_separated(m, bids, table, budgets, mu, (alpha, beta)))
    assert clipped == sum(b > sum(caps) for b in budgets)
    assert grid.allocation.shape == grid.payments.shape == (len(budgets), n)
    grid = split_runs(grid)
    for e, explore in enumerate(budgets):
        row = (alpha[e], beta[e])
        for run in (eps_reference, run_eps_separated):
            expected, _ = clipping_warnings(lambda: run(m, bids, table, explore, mu, row))
            assert np.array_equal(grid[e].allocation, expected.allocation)
            assert np.array_equal(grid[e].payments, expected.payments)
            assert grid[e].auctioneer_utility == expected.auctioneer_utility


# Budget grids the grid form refuses, each with one line; a market of three
# bids over 20 units, so budgets must lie in [3, 20].
GRID_REFUSALS = {
    "draws-not-a-row-per-budget": (
        [3, 4], ([0.3] * 3, [0.3] * 3),
        "need one alpha and one beta per bid and budget: 2 budgets of 3 bids, got alpha of "
        "shape (3,) and beta of shape (3,)"),
    "draws-of-too-few-bids": (
        [3, 4], ([[0.3] * 2] * 2, [[0.3] * 2] * 2),
        "need one alpha and one beta per bid and budget: 2 budgets of 3 bids, got alpha of "
        "shape (2, 2) and beta of shape (2, 2)"),
    "beta-of-another-shape": (
        [3, 4], ([[0.3] * 3] * 2, [[0.3] * 3] * 3),
        "need one alpha and one beta per bid and budget: 2 budgets of 3 bids, got alpha of "
        "shape (2, 3) and beta of shape (3, 3)"),
    "empty-budgets": (
        [], (np.empty((0, 3)), np.empty((0, 3))),
        "explore_rounds must be one budget or a non-empty 1-D sequence of budgets, got shape "
        "(0,)"),
    "2-d-budgets": (
        [[3, 4]], ([[0.3] * 3] * 2, [[0.3] * 3] * 2),
        "explore_rounds must be one budget or a non-empty 1-D sequence of budgets, got shape "
        "(1, 2)"),
    "first-budget-too-small": (
        [2, 4], ([[0.3] * 3] * 2, [[0.3] * 3] * 2),
        "explore_rounds must lie in [3, 20], got 2"),
    "last-budget-too-large": (
        [3, 4, 21], ([[0.3] * 3] * 3, [[0.3] * 3] * 3),
        "explore_rounds must lie in [3, 20], got 21"),
    "alpha-above-its-prior": (
        [3, 4], ([[0.3] * 3, [0.3, 0.3, 1.5]], [[0.3] * 3] * 2),
        "agent 2 bid cost 1.5 outside [0.0, 1.0]"),
    "alpha-below-its-prior": (
        [3, 4], ([[-0.25, 0.3, 0.3], [0.3] * 3], [[0.3] * 3] * 2),
        "agent 0 bid cost -0.25 outside [0.0, 1.0]"),
}


@pytest.mark.parametrize("case", list(GRID_REFUSALS))
def test_budget_grid_refusals_are_one_line(case):
    m, bids = market(20, 3), [Bid(0.3, 5)] * 3
    table = sample_reward_realization([0.9, 0.4, 0.7], 20, 1)
    budgets, draws, message = GRID_REFUSALS[case]
    with pytest.raises(ValueError) as refused:
        run_eps_separated(m, bids, table, budgets, 0.1, draws)
    assert str(refused.value) == message


def test_one_budget_refuses_an_alpha_outside_its_prior():
    # What the commit auction's admission used to refuse, with its message.
    m, bids = market(20, 3), [Bid(0.3, 5)] * 3
    table = sample_reward_realization([0.9, 0.4, 0.7], 20, 1)
    with pytest.raises(ValueError) as refused:
        run_eps_separated(m, bids, table, 3, 0.1, ([0.3, 1.25, 0.3], [0.3] * 3))
    assert str(refused.value) == "agent 1 bid cost 1.25 outside [0.0, 1.0]"


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_block_runs_each_table_as_the_reference_does(data):
    # A stack of tables, each run at every budget on its own row of draws:
    # run [t, e] is the reference run of table t at budget e.
    n = data.draw(st.integers(1, 9), label="n")
    units = data.draw(st.integers(n, 60), label="units")
    caps = data.draw(st.lists(st.integers(0, 25), min_size=n, max_size=n), label="caps")
    costs = data.draw(st.lists(st.sampled_from([0.0, 0.3, 0.5, 1.0]) | st.floats(0.0, 1.0),
                               min_size=n, max_size=n), label="costs")
    m = MarketConfig(units, 30.0, (uniform_type_distribution(0.0, 1.0, 1, 25),) * n)
    bids = [Bid(c, k) for c, k in zip(costs, caps)]
    seed = data.draw(st.integers(0, 2**32), label="seed")
    q = np.random.default_rng(seed).random(n)
    tables = [sample_reward_realization(q, units, [seed, t])
              for t in range(data.draw(st.integers(1, 4), label="tables"))]
    stack = RewardRealization(np.stack([t.table for t in tables]))
    budgets = data.draw(st.lists(st.integers(n, units), min_size=1, max_size=4), label="budgets")
    mu = data.draw(st.sampled_from([0.1, 0.6]), label="mu")
    rows = [[seeded_draws(m, bids, mu, [seed, t, e]) for e in range(len(budgets))]
            for t in range(len(tables))]
    alpha, beta = (np.array([[row[side] for row in table] for table in rows]) for side in (0, 1))

    block, clipped = clipping_warnings(
        lambda: run_eps_separated(m, bids, stack, budgets, mu, (alpha, beta)))
    assert clipped == sum(b > sum(caps) for b in budgets)
    assert block.allocation.shape == (len(tables), len(budgets), n)
    assert block.auctioneer_utility.shape == (len(tables), len(budgets))
    block = split_runs(block)
    for t, table in enumerate(tables):
        for e, explore in enumerate(budgets):
            expected, _ = clipping_warnings(lambda: eps_reference(
                m, bids, table, explore, mu, (alpha[t, e], beta[t, e])))
            got = block[t][e]
            assert np.array_equal(got.allocation, expected.allocation)
            assert np.array_equal(got.payments, expected.payments)
            assert got.auctioneer_utility == expected.auctioneer_utility


# Block calls the block form refuses, each with one line: two 3x20 tables
# and two budgets take draws of shape (2, 2, 3).
BLOCK_REFUSALS = {
    "draws-of-one-table": (
        (2, 3, 20), ([[0.3] * 3] * 2, [[0.3] * 3] * 2),
        "need one alpha and one beta per bid, budget and table: 2 tables of 2 budgets of 3 "
        "bids, got alpha of shape (2, 3) and beta of shape (2, 3)"),
    "draws-of-too-few-bids": (
        (2, 3, 20), ([[[0.3] * 2] * 2] * 2, [[[0.3] * 2] * 2] * 2),
        "need one alpha and one beta per bid, budget and table: 2 tables of 2 budgets of 3 "
        "bids, got alpha of shape (2, 2, 2) and beta of shape (2, 2, 2)"),
    "beta-of-another-shape": (
        (2, 3, 20), ([[[0.3] * 3] * 2] * 2, [[[0.3] * 3] * 2] * 3),
        "need one alpha and one beta per bid, budget and table: 2 tables of 2 budgets of 3 "
        "bids, got alpha of shape (2, 2, 3) and beta of shape (3, 2, 3)"),
    "stack-of-stacks": (
        (1, 2, 3, 20), ([[[[0.3] * 3] * 2] * 2], [[[[0.3] * 3] * 2] * 2]),
        "a run takes one 3x20 table or one stack of them, got shape (1, 2, 3, 20)"),
}


@pytest.mark.parametrize("case", list(BLOCK_REFUSALS))
def test_block_refusals_are_one_line(case):
    m, bids = market(20, 3), [Bid(0.3, 5)] * 3
    shape, draws, message = BLOCK_REFUSALS[case]
    stack = RewardRealization(np.ones(shape, dtype=np.uint8))
    with pytest.raises(ValueError) as refused:
        run_eps_separated(m, bids, stack, [3, 4], 0.1, draws)
    assert str(refused.value) == message


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_stack_runs_each_table_as_its_one_table_run(data):
    # One learner call on a stack of tables: run t is table t's traced
    # one-table run on row t of the draws.  Zero capacities skip the seeding
    # pass; tied costs and tables tie the scores.
    n = data.draw(st.integers(1, 9), label="n")
    units = data.draw(st.integers(n, 80), label="units")
    caps = data.draw(st.lists(st.integers(0, 25) | st.integers(0, units), min_size=n,
                              max_size=n), label="caps")
    costs = data.draw(st.lists(st.sampled_from([0.0, 0.3, 0.5, 1.0]) | st.floats(0.0, 1.0),
                               min_size=n, max_size=n), label="costs")
    m = MarketConfig(units, data.draw(st.sampled_from([30.0, 1.0]), label="reward_scale"),
                     (uniform_type_distribution(0.0, 1.0, 0, 80),) * n)
    bids = [Bid(c, k) for c, k in zip(costs, caps)]
    seed = data.draw(st.integers(0, 2**32), label="seed")
    q = np.random.default_rng(seed).random(n)
    if data.draw(st.booleans(), label="tied-tables"):
        q[:] = q[0]
    size = data.draw(st.integers(1, 9), label="tables")
    tables = [sample_reward_realization(q, units, [seed, t]) for t in range(size)]
    stack = RewardRealization(np.stack([t.table for t in tables]))
    mu = data.draw(st.sampled_from([0.1, 0.6]), label="mu")
    rows = [seeded_draws(m, bids, mu, [seed, t]) for t in range(size)]
    alpha, beta = (np.array(side) for side in zip(*rows))

    block, none = run_2d_ucb(m, bids, stack, mu, (alpha, beta))
    assert none is None
    assert block.allocation.shape == block.payments.shape == (size, n)
    assert block.auctioneer_utility.shape == (size,)
    block = split_runs(block)
    for t, table in enumerate(tables):
        expected, _ = run_2d_ucb(m, bids, table, mu, (alpha[t], beta[t]))
        assert np.array_equal(block[t].allocation, expected.allocation)
        assert np.array_equal(block[t].payments, expected.payments)
        assert block[t].auctioneer_utility == expected.auctioneer_utility


# Learner calls refused with one line: one 3x20 table takes draws of shape
# (3,), a stack of two of them draws of shape (2, 3).
UCB_REFUSALS = {
    "draws-of-one-table": (
        (2, 3, 20), ([0.3] * 3, [0.3] * 3),
        "need one alpha and one beta per bid and table: 2 tables of 3 bids, got alpha of "
        "shape (3,) and beta of shape (3,)"),
    "draws-of-too-few-tables": (
        (2, 3, 20), ([[0.3] * 3], [[0.3] * 3]),
        "need one alpha and one beta per bid and table: 2 tables of 3 bids, got alpha of "
        "shape (1, 3) and beta of shape (1, 3)"),
    "stack-alpha-above-its-prior": (
        (2, 3, 20), ([[0.3] * 3, [0.3, 0.3, 1.5]], [[0.3] * 3] * 2),
        "agent 2 bid cost 1.5 outside [0.0, 1.0]"),
    "one-table-alpha-above-its-prior": (
        (3, 20), ([0.3, 1.25, 0.3], [0.3] * 3),
        "agent 1 bid cost 1.25 outside [0.0, 1.0]"),
    "stack-of-stacks": (
        (1, 2, 3, 20), ([[[0.3] * 3] * 2], [[[0.3] * 3] * 2]),
        "a run takes one 3x20 table or one stack of them, got shape (1, 2, 3, 20)"),
}


@pytest.mark.parametrize("case", list(UCB_REFUSALS))
def test_learner_refusals_are_one_line(case):
    m, bids = market(20, 3), [Bid(0.3, 5)] * 3
    shape, draws, message = UCB_REFUSALS[case]
    tables = RewardRealization(np.ones(shape, dtype=np.uint8))
    with pytest.raises(ValueError) as refused:
        run_2d_ucb(m, bids, tables, 0.1, draws)
    assert str(refused.value) == message


def test_trace_csv_format(tmp_path):
    m = market(6, 2)
    bids = [Bid(0.2, 4), Bid(0.3, 4)]
    table = sample_reward_realization([0.9, 0.1], 6, 0)
    _, trace = run_2d_ucb(m, bids, table, 0.1, pinned(bids))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "round,agent,reward,g_hat"
    assert len(lines) == len(trace.steps) + 1
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0" and first[3] == ""


# -- streamed realizations ----------------------------------------------------
# A block of ``_run_cell`` is a streamed realization: nothing is drawn up
# front, the learner draws a row DRAW_CHUNK outcomes at a time when a pick
# reaches the row's drawn count, and the baselines draw through their
# exploration windows, then through their bought units.  The block's stack is
# filled with 2s, so a read of an undrawn entry changes an outcome: every run
# must equal its run on the same tables drawn whole, and no row may be drawn
# past min(k_i, L).

CHUNK = int(re.search(r"^#define DRAW_CHUNK (\d+)$", Path(_native._SOURCE).read_text(),
                      re.M).group(1))
STREAM_UNITS = 2 * CHUNK + 7
STREAM_CAPS = {
    "straddling-chunks": [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, STREAM_UNITS, STREAM_UNITS + 3],
    # CHUNK + 4 units in all: the larger explore budgets clip.
    "short-of-the-budget": [0, 1, 2, CHUNK + 1],
}


def streamed_block(q, units, tables, seed):
    """A streamed realization of ``tables`` tables on a stack of 2s, and the
    same tables drawn whole, one realization each."""
    roots = stream_states([([seed, t], ()) for t in range(tables)])
    stack = np.full((tables, len(q), units), 2, dtype=np.uint8)
    block = stream_reward_realization(q, roots, stack)
    return block, [sample_reward_realization(q, units, generator_at(root)) for root in roots]


def assert_same_outcomes(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert np.array_equal(a.allocation, b.allocation)
        assert np.array_equal(a.payments, b.payments)
        assert a.auctioneer_utility == b.auctioneer_utility


def assert_drawn_within_capacity(block, caps):
    limit = np.minimum(caps, block.table.shape[-1])
    assert (block.streams.counts <= limit).all(), block.streams.counts


def stream_market(caps, units, seed):
    pick = np.random.default_rng(seed)
    n = len(caps)
    q = pick.random(n)
    q[0], q[-1] = 1.0, 0.5
    m = MarketConfig(units, 30.0, (uniform_type_distribution(0.0, 1.0, 0, max(caps)),) * n)
    return m, q, [Bid(float(c), k) for c, k in zip(pick.random(n), caps)]


def block_draws(m, bids, tables, runs, seed):
    """``(alpha, beta)`` of shape ``(tables, runs, n)``."""
    rows = [[seeded_draws(m, bids, 0.1, [seed, t, v]) for v in range(runs)]
            for t in range(tables)]
    return tuple(np.array([[row[side] for row in table] for table in rows]) for side in (0, 1))


def learner_and_baselines(m, bids, realizations, draws, budgets):
    """The learner's outcomes, then the baselines', on a block or on each of
    a list of whole tables, with their draws."""
    alpha, beta = draws
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # budgets past total capacity clip
        if isinstance(realizations, RewardRealization):
            learner = split_runs(run_2d_ucb(m, bids, realizations, 0.1,
                                            (alpha[:, 0], beta[:, 0]))[0])
            baselines = split_runs(run_eps_separated(m, bids, realizations, budgets, 0.1,
                                                     (alpha[:, 1:], beta[:, 1:])))
        else:
            learner = [run_2d_ucb(m, bids, table, 0.1, (alpha[t, 0], beta[t, 0]))[0]
                       for t, table in enumerate(realizations)]
            baselines = [split_runs(run_eps_separated(m, bids, table, budgets, 0.1,
                                                      (alpha[t, 1:], beta[t, 1:])))
                         for t, table in enumerate(realizations)]
    return learner, [o for row in baselines for o in row]


@pytest.mark.parametrize("order", ["learner-first", "baselines-first"])
@pytest.mark.parametrize("kind", list(STREAM_CAPS))
def test_streamed_block_runs_equal_whole_table_runs(kind, order):
    caps, units = STREAM_CAPS[kind], STREAM_UNITS
    m, q, bids = stream_market(caps, units, 3)
    budgets = [m.n_agents, CHUNK - 1, CHUNK + 5, units]
    draws = block_draws(m, bids, 3, 1 + len(budgets), 4)
    block, whole = streamed_block(q, units, 3, 5)
    assert not block.streams.counts.any()
    if order == "baselines-first":  # the learner then reads rows drawn ahead of it
        alpha, beta = draws
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_eps_separated(m, bids, block, budgets, 0.1, (alpha[:, 1:], beta[:, 1:]))
        assert_drawn_within_capacity(block, caps)
    got, expected = (learner_and_baselines(m, bids, r, draws, budgets) for r in (block, whole))
    assert_same_outcomes(got[0], expected[0])
    assert_same_outcomes(got[1], expected[1])
    assert_drawn_within_capacity(block, caps)
    counts = block.streams.counts
    for t, table in enumerate(whole):
        for i, k in enumerate(counts[t].tolist()):
            assert np.array_equal(block.table[t, i, :k], table.table[i, :k])
            assert (block.table[t, i, k:] == 2).all()  # nothing past the drawn count


@pytest.mark.parametrize("kind", list(STREAM_CAPS))
def test_a_streamed_table_traces_as_the_whole_table(tmp_path, kind):
    # One table of a block, with its row streams, run with a trace: the
    # trace file and the outcome are the whole table's byte for byte.
    caps, units = STREAM_CAPS[kind], STREAM_UNITS
    m, q, bids = stream_market(caps, units, 6)
    block, whole = streamed_block(q, units, 2, 7)
    for t, table in enumerate(whole):
        streams = block.streams
        one = RewardRealization(block.table[t],
                                streams=RowStreams(q, streams.states[t], streams.counts[t]))
        draws, outcomes = seeded_draws(m, bids, 0.1, t), {}
        for name, realization in (("streamed", one), ("whole", table)):
            outcomes[name], trace = run_2d_ucb(m, bids, realization, 0.1, draws)
            trace.to_csv(tmp_path / f"{name}.csv")
        assert_same_outcomes([outcomes["streamed"]], [outcomes["whole"]])
        assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    assert_drawn_within_capacity(block, caps)


def test_a_long_streamed_stack_equals_whole_tables():
    # A (3, 5, 3000) stack runs on the C loop's leader routine, where a
    # leader buys many DRAW_CHUNKs of its row in one streak, each drawn when
    # the streak reaches it.
    caps, units, tables = [3000, 3000, 2000, 900, 3000], 3000, 3
    m, q, bids = stream_market(caps, units, 21)
    alpha, beta = block_draws(m, bids, tables, 1, 22)
    block, whole = streamed_block(q, units, tables, 23)
    got = split_runs(run_2d_ucb(m, bids, block, 0.1, (alpha[:, 0], beta[:, 0]))[0])
    expected, streaks = [], []
    for t, table in enumerate(whole):
        outcome, trace = run_2d_ucb(m, bids, table, 0.1, (alpha[t, 0], beta[t, 0]))
        expected.append(outcome)
        streaks.append(max(len(list(run)) for _, run in itertools.groupby(trace.agents())))
    assert_same_outcomes(got, expected)
    assert_drawn_within_capacity(block, caps)
    assert min(streaks) > 4 * CHUNK


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_streamed_blocks_equal_whole_tables_on_random_markets(data):
    n = data.draw(st.integers(1, 5), label="n")
    units = data.draw(st.integers(n, 3 * CHUNK), label="units")
    caps = data.draw(st.lists(st.integers(0, units + 3), min_size=n, max_size=n), label="caps")
    tables = data.draw(st.integers(1, 3), label="tables")
    seed = data.draw(st.integers(0, 2**32), label="seed")
    m, q, bids = stream_market(caps, units, seed)
    budgets = data.draw(st.lists(st.integers(n, units), min_size=1, max_size=4), label="budgets")
    draws = block_draws(m, bids, tables, 1 + len(budgets), seed)
    block, whole = streamed_block(q, units, tables, seed)
    got, expected = (learner_and_baselines(m, bids, r, draws, budgets) for r in (block, whole))
    assert_same_outcomes(got[0], expected[0])
    assert_same_outcomes(got[1], expected[1])
    assert_drawn_within_capacity(block, caps)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_count_rows_counts_each_window_as_count_nonzero(data):
    # Windows of a (B, n, L) stack, one per (table, budget, agent): empty
    # ones, ones ending at the width, and rows one outcome wide among them.
    tables, n, budgets = (data.draw(st.integers(1, 4)) for _ in range(3))
    width = data.draw(st.sampled_from([1, 2, 7, 8, 9, 40]))
    stack = np.random.default_rng(data.draw(st.integers(0, 2**32))).random(
        (tables, n, width)) < data.draw(st.sampled_from([0.0, 0.5, 1.0]))
    ends = st.lists(st.integers(0, width), min_size=2, max_size=2).map(sorted)
    windows = np.array(data.draw(st.lists(ends, min_size=tables * budgets * n,
                                          max_size=tables * budgets * n)))
    start, stop = windows.T.reshape(2, tables, budgets, n)
    ones = bandit._count_ones(stack.view(np.uint8), budgets, start, stop)
    assert ones.dtype == np.int64
    assert ones.tolist() == [[[np.count_nonzero(stack[t, i, start[t, e, i]:stop[t, e, i]])
                               for i in range(n)] for e in range(budgets)]
                             for t in range(tables)]
