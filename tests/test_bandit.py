import math

import numpy as np
import pytest

from procure2d import (
    Bid,
    MarketConfig,
    ResampleDraw,
    RewardRealization,
    audit_iia,
    run_2d_opt,
    run_2d_ucb,
    run_eps_separated,
    run_ucb_batch,
    sample_reward_realization,
    uniform_type_distribution,
)

DIST = uniform_type_distribution(0.0, 1.0, 1, 50)


def market(units, n):
    return MarketConfig(units, 30.0, (DIST,) * n)


def pinned(bids):
    """Resampler draws frozen at the bid: no premium, alpha = reported cost."""
    return [ResampleDraw(b.cost, b.cost) for b in bids]


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
        return run_2d_ucb(
            self.market, self.bids, self.table, 0.1, 0, resample_draws=pinned(self.bids)
        )

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
    outcome, trace = run_2d_ucb(m, bids, table, 0.1, 0, resample_draws=pinned(bids))
    assert outcome.allocation.tolist() == [10]
    assert outcome.payments[0] == pytest.approx(0.3 * 10)
    assert trace.agents() == [0] * 10


def test_stops_when_everyone_is_at_capacity():
    m = market(12, 2)
    bids = [Bid(0.1, 3), Bid(0.2, 4)]
    table = sample_reward_realization([0.8, 0.8], 12, 6)
    outcome, _ = run_2d_ucb(m, bids, table, 0.1, 0, resample_draws=pinned(bids))
    assert outcome.allocation.tolist() == [3, 4]


def test_stops_permanently_on_non_positive_score():
    # A tiny reward scale keeps even the optimistic scores below the virtual
    # costs once seeding reveals zero quality, so the auction ends at once.
    m = MarketConfig(12, 1.0, (DIST, DIST))
    bids = [Bid(0.9, 6), Bid(0.95, 6)]
    table = RewardRealization(np.zeros((2, 12), dtype=np.uint8))
    outcome, trace = run_2d_ucb(m, bids, table, 0.1, 0, resample_draws=pinned(bids))
    assert outcome.allocation.tolist() == [1, 1]  # the unconditional seeding pass
    stop_rows = [s for s in trace.steps if s.agent is None]
    assert len(stop_rows) == 1 and stop_rows[0].g_hat <= 0


def test_budget_below_agent_count_rejected():
    m = market(2, 3)
    bids = [Bid(0.1, 2)] * 3
    table = sample_reward_realization([0.5] * 3, 2, 0)
    with pytest.raises(ValueError, match="units"):
        run_2d_ucb(m, bids, table, 0.1, 0)


def test_rewards_in_trace_match_consumed_entries():
    m = market(25, 3)
    bids = [Bid(0.2, 10), Bid(0.4, 12), Bid(0.3, 9)]
    table = sample_reward_realization([0.7, 0.6, 0.5], 25, 9)
    outcome, trace = run_2d_ucb(m, bids, table, 0.1, 3)
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
    outcome, trace = run_2d_ucb(m, bids, table, 0.1, 11, resample_draws=pinned(bids))
    scrambled = np.array(table.table, copy=True)
    for i, used in enumerate(outcome.allocation):
        scrambled[i, used:] = 1 - scrambled[i, used:]
    outcome2, trace2 = run_2d_ucb(
        m, bids, RewardRealization(scrambled), 0.1, 11, resample_draws=pinned(bids)
    )
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
            outcome, _ = run_2d_ucb(m, bids, table, 0.1, 4, resample_draws=pinned(bids))
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
            outcome, _ = run_2d_ucb(m, bids, table, 0.1, seed)
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
        outcome, _ = run_2d_ucb(m, bids, table, 0.1, int(rng.integers(1 << 30)))
        surplus = outcome.payments - costs * outcome.allocation
        assert (surplus >= -1e-12).all()


def test_truthful_surplus_strict_exactly_when_beta_moved():
    m = market(12, 2)
    costs = [0.3, 0.5]
    bids = [Bid(costs[0], 5), Bid(costs[1], 5)]
    table = sample_reward_realization([0.8, 0.7], 12, 4)
    draws = [ResampleDraw(0.45, 0.4), ResampleDraw(0.5, 0.5)]  # only agent 0 moved
    outcome, _ = run_2d_ucb(m, bids, table, 0.1, 0, resample_draws=draws)
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
        _, base = run_2d_ucb(m, bids, table, 0.1, 0, resample_draws=pinned(bids))
        moved = list(bids)
        moved[0] = Bid(float(rng.uniform(0.1, 0.9)), 8)
        _, perturbed = run_2d_ucb(m, moved, table, 0.1, 0, resample_draws=pinned(moved))
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
    narrow_out, _ = run_2d_ucb(m, bids, table, 0.1, 0, resample_draws=pinned(bids))
    wide_out, _ = run_2d_ucb(
        m, bids, table, 0.1, 0,
        resample_draws=pinned(bids), bonus_scale=2.0,
    )
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
    h = 2.0 * alphas  # unit-interval uniform costs
    caps = np.array([b.capacity for b in bids])
    units, successes = run_ucb_batch(30.0, h, caps, tables)
    for s in range(samples):
        draws = [ResampleDraw(float(alphas[s, j]), bids[j].cost) for j in range(n)]
        outcome, _ = run_2d_ucb(
            m, bids, RewardRealization(tables[s]), 0.1, 0,
            resample_draws=draws, record_trace=False,
        )
        assert (outcome.allocation == units[s]).all()
    assert (successes <= units).all()


class TestEpsSeparated:
    def test_pure_exploration(self):
        m = market(6, 2)
        bids = [Bid(0.2, 5), Bid(0.6, 5)]
        table = sample_reward_realization([0.9, 0.4], 6, 1)
        outcome, _ = run_eps_separated(m, bids, table, 6, 0.1, 0, resample_draws=pinned(bids))
        assert outcome.allocation.tolist() == [3, 3]
        assert outcome.payments.tolist() == pytest.approx([0.2 * 3, 0.6 * 3])

    def test_round_robin_split(self):
        m = market(12, 2)
        bids = [Bid(0.3, 6), Bid(0.5, 6)]
        table = sample_reward_realization([0.7, 0.7], 12, 2)
        outcome, trace = run_eps_separated(m, bids, table, 4, 0.1, 0, resample_draws=pinned(bids))
        explored = [s.agent for s in trace.steps[:4]]
        assert explored == [0, 1, 0, 1]

    def test_round_robin_skips_exhausted_agents(self):
        m = market(8, 2)
        bids = [Bid(0.3, 1), Bid(0.5, 7)]
        table = sample_reward_realization([0.7, 0.7], 8, 3)
        _, trace = run_eps_separated(m, bids, table, 5, 0.1, 0, resample_draws=pinned(bids))
        explored = [s.agent for s in trace.steps[:5]]
        assert explored == [0, 1, 1, 1, 1]

    def test_explore_beyond_capacity_clips_with_warning(self):
        m = market(10, 2)
        bids = [Bid(0.3, 2), Bid(0.5, 2)]
        table = sample_reward_realization([0.7, 0.7], 10, 4)
        with pytest.warns(UserWarning, match="clipping"):
            outcome, _ = run_eps_separated(
                m, bids, table, 9, 0.1, 0, resample_draws=pinned(bids)
            )
        assert outcome.allocation.tolist() == [2, 2]

    def test_explore_bounds_validated(self):
        m = market(10, 2)
        bids = [Bid(0.3, 8), Bid(0.5, 8)]
        table = sample_reward_realization([0.7, 0.7], 10, 4)
        with pytest.raises(ValueError):
            run_eps_separated(m, bids, table, 1, 0.1, 0)
        with pytest.raises(ValueError):
            run_eps_separated(m, bids, table, 11, 0.1, 0)

    def test_premium_on_exploration_units(self):
        m = market(4, 2)
        bids = [Bid(0.2, 4), Bid(0.9, 4)]
        table = RewardRealization(np.ones((2, 4), dtype=np.uint8))
        draws = [ResampleDraw(0.6, 0.5), ResampleDraw(0.9, 0.9)]
        outcome, _ = run_eps_separated(m, bids, table, 4, 0.1, 0, resample_draws=draws)
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
        draws = [ResampleDraw(0.77, 0.6), ResampleDraw(0.62, 0.62)]
        outcome, _ = run_eps_separated(m, bids, table, 4, 0.1, 0, resample_draws=draws)
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
        outcome, _ = run_eps_separated(m, bids, table, 4, 0.1, 0, resample_draws=pinned(bids))
        assert outcome.allocation.tolist() == [2, 8]


def test_trace_csv_format(tmp_path):
    m = market(6, 2)
    bids = [Bid(0.2, 4), Bid(0.3, 4)]
    table = sample_reward_realization([0.9, 0.1], 6, 0)
    _, trace = run_2d_ucb(m, bids, table, 0.1, 0, resample_draws=pinned(bids))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "round,agent,reward,g_hat"
    assert len(lines) == len(trace.steps) + 1
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0" and first[3] == ""
