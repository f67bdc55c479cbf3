import numpy as np
import pytest

from procure2d import (
    Bid,
    DeviationGrid,
    MarketConfig,
    TypeDistribution,
    audit_dsic,
    audit_offered_utility,
    auctioneer_utility,
    make_opt_probe,
    run_2d_opt,
    sample_reward_realization,
    uniform_type_distribution,
)

from oracles import (
    brute_force_best_value,
    integral_payment,
    opt_auction_numpy,
    random_small_instance,
)


@pytest.fixture
def two_agent_market():
    dist = uniform_type_distribution(0.0, 10.0, 1, 5)
    market = MarketConfig(3, 30.0, (dist, dist))
    bids = [Bid(2.0, 3), Bid(5.0, 5)]
    qualities = np.array([0.8, 0.6])
    return market, qualities, bids


def test_worked_two_agent_instance(two_agent_market):
    market, qualities, bids = two_agent_market
    outcome = run_2d_opt(market, qualities, bids)
    assert outcome.allocation.tolist() == [3, 0]
    # the rival's score prices every unit: 3 * G_A^{-1}(G_B) = 3 * (24-8)/2
    assert outcome.payments[0] == pytest.approx(24.0, abs=1e-9)
    assert outcome.payments[1] == 0.0
    assert outcome.auctioneer_utility == pytest.approx(48.0, abs=1e-9)


def test_integral_oracle_on_worked_instance(two_agent_market):
    market, qualities, bids = two_agent_market
    # breakpoint at z=8 where the rival overtakes; 2*3 + 3*(8-2) = 24
    assert integral_payment(market, qualities, bids, 0) == pytest.approx(24.0, abs=1e-9)


def test_lone_winner_paid_upper_bound(two_agent_market):
    market, qualities, _ = two_agent_market
    dist = market.distributions[0]
    solo = MarketConfig(4, 30.0, (dist,))
    outcome = run_2d_opt(solo, np.array([0.8]), [Bid(2.0, 3)])
    assert outcome.allocation.tolist() == [3]
    assert outcome.payments[0] == pytest.approx(3 * 10.0)


def test_price_cap_at_upper_cost_bound():
    # Unit-interval costs with a rival whose score sits below G_i(1):
    # inverting lands above the bound, so every unit prices at 1.
    dist = uniform_type_distribution(0.0, 1.0, 1, 5)
    market = MarketConfig(3, 30.0, (dist, dist))
    qualities = np.array([0.9, 0.1])
    bids = [Bid(0.2, 3), Bid(0.4, 5)]
    g_low = dist.g_score(qualities[1], 30.0, bids[1].cost, 5)
    assert 0.0 < g_low < dist.g_score(qualities[0], 30.0, 1.0, 3)
    outcome = run_2d_opt(market, qualities, bids)
    assert outcome.allocation.tolist() == [3, 0]
    assert outcome.payments[0] == pytest.approx(3 * 1.0, abs=1e-9)
    assert integral_payment(market, qualities, bids, 0) == pytest.approx(
        outcome.payments[0], abs=1e-9
    )


def test_integral_payment_zero_for_losers(two_agent_market):
    market, qualities, bids = two_agent_market
    assert integral_payment(market, qualities, bids, 1) == 0.0


def test_matches_numpy_reference_bit_for_bit():
    # In half the markets, costs and qualities on coarse grids make exact
    # score ties and zero scores common; in the other half they are drawn
    # freely, so that critical prices fall inside the cost range and the
    # order in which a payment adds them shows in its last bits.  Scores run
    # negative, capacities reach 0 and budgets run from 0 to past the total
    # capacity.  One prior in four is a second affine prior, so that markets
    # mix two score inverses.
    skewed = TypeDistribution((0.0, 1.0), (0, 5), (0.25, 1.5))
    uniform = uniform_type_distribution(0.0, 1.0, 0, 5)
    rng = np.random.default_rng(2000)
    seen = dict.fromkeys(["tie", "zero", "negative", "no_capacity", "no_budget", "slack"], 0)
    for _ in range(2000):
        n = int(rng.integers(1, 8))
        reward_scale = float(rng.choice([2.0, 4.0, 30.0]))
        dists = tuple(skewed if rng.random() < 0.25 else uniform for _ in range(n))
        caps = rng.integers(0, 6, n)
        if rng.random() < 0.5:
            qualities = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], n)
            costs = rng.integers(0, 11, n) / 10
        else:
            qualities = rng.uniform(0.0, 1.0, n)
            costs = rng.uniform(0.0, 1.0, n)
        bids = [Bid(float(c), int(k)) for c, k in zip(costs, caps)]
        market = MarketConfig(int(rng.integers(0, 36)), reward_scale, dists)

        got = run_2d_opt(market, qualities, bids)
        want = opt_auction_numpy(market, qualities, bids)
        assert got.allocation.dtype == want.allocation.dtype
        assert got.allocation.tobytes() == want.allocation.tobytes()
        assert got.payments.tobytes() == want.payments.tobytes()
        assert got.auctioneer_utility == want.auctioneer_utility

        scores = [d.g_score(q, reward_scale, b.cost, b.capacity)
                  for d, q, b in zip(dists, qualities, bids)]
        seen["tie"] += len(set(scores)) < n
        seen["zero"] += 0.0 in scores
        seen["negative"] += min(scores) < 0.0
        seen["no_capacity"] += any(b.capacity == 0 for b in bids)
        seen["no_budget"] += market.units == 0
        seen["slack"] += market.units > sum(b.capacity for b in bids)
    assert min(seen.values()) >= 20, seen


def test_payments_match_integral_oracle_on_random_instances():
    rng = np.random.default_rng(90)
    for _ in range(120):
        market, types = random_small_instance(rng)
        qualities = np.array([t.quality for t in types])
        bids = [t.truthful_bid() for t in types]
        outcome = run_2d_opt(market, qualities, bids)
        for i in range(market.n_agents):
            oracle = integral_payment(market, qualities, bids, i)
            assert outcome.payments[i] == pytest.approx(oracle, abs=1e-9)


def test_mixed_priors_price_with_the_winners_own_inverse():
    # A winner's critical bids invert the rival scores through the winner's
    # own prior; markets mixing two priors tell that apart from the rival's.
    skewed = TypeDistribution((0.0, 1.0), (0, 5), (0.25, 1.5))
    uniform = uniform_type_distribution(0.0, 1.0, 0, 5)
    rng = np.random.default_rng(95)
    for m in range(150):
        n = int(rng.integers(2, 5))
        dists = (skewed, uniform) + tuple(
            skewed if rng.random() < 0.5 else uniform for _ in range(n - 2)
        )
        qualities = rng.uniform(0.0, 1.0, n)
        costs, caps = rng.uniform(0.0, 1.0, n), rng.integers(1, 6, n)
        bids = [Bid(float(c), int(k)) for c, k in zip(costs, caps)]
        market = MarketConfig(int(rng.integers(1, 13)), 4.0, dists)
        outcome = run_2d_opt(market, qualities, bids)
        for i in range(n):
            assert outcome.payments[i] == pytest.approx(
                integral_payment(market, qualities, bids, i), abs=1e-9
            )

        agent = int(rng.integers(n))
        probe = make_opt_probe(market, qualities, bids, agent)
        grid = DeviationGrid.spanning(dists[agent], bids[agent].capacity, n_costs=11)
        report = audit_dsic(probe, bids[agent].cost, bids[agent].capacity, grid)
        assert report.passed, report.line()
        if m % 10 == 0:  # one step scan per capacity keeps this audit cheap
            report = audit_offered_utility(probe, grid, 1.0)
            assert report.passed, report.line()


def test_virtual_surplus_is_maximal():
    rng = np.random.default_rng(91)
    for _ in range(80):
        market, types = random_small_instance(rng)
        qualities = np.array([t.quality for t in types])
        bids = [t.truthful_bid() for t in types]
        dist = market.distributions[0]
        scores = np.array(
            [dist.g_score(t.quality, 30.0, t.cost, t.capacity) for t in types]
        )
        caps = [t.capacity for t in types]
        outcome = run_2d_opt(market, qualities, bids)
        achieved = float(np.dot(scores, outcome.allocation))
        assert achieved == pytest.approx(
            brute_force_best_value(scores, caps, market.units), abs=1e-9
        )


def test_per_unit_prices_within_bid_and_bound():
    rng = np.random.default_rng(92)
    for _ in range(150):
        market, types = random_small_instance(rng)
        qualities = np.array([t.quality for t in types])
        bids = [t.truthful_bid() for t in types]
        outcome = run_2d_opt(market, qualities, bids)
        for i, bid in enumerate(bids):
            if outcome.allocation[i] == 0:
                assert outcome.payments[i] == 0.0
                continue
            per_unit = outcome.payments[i] / outcome.allocation[i]
            assert bid.cost - 1e-9 <= per_unit <= 1.0 + 1e-9


def test_truthful_utility_non_negative():
    rng = np.random.default_rng(93)
    for _ in range(150):
        market, types = random_small_instance(rng)
        qualities = np.array([t.quality for t in types])
        bids = [t.truthful_bid() for t in types]
        outcome = run_2d_opt(market, qualities, bids)
        for i, t in enumerate(types):
            assert outcome.payments[i] - t.cost * outcome.allocation[i] >= -1e-9


def test_allocation_monotone_in_own_bid():
    rng = np.random.default_rng(94)
    for _ in range(60):
        market, types = random_small_instance(rng)
        qualities = np.array([t.quality for t in types])
        bids = [t.truthful_bid() for t in types]
        agent = int(rng.integers(market.n_agents))
        costs = np.linspace(0.0, 1.0, 9)
        caps = range(1, types[agent].capacity + 1)
        for cap in caps:
            previous = None
            for c in costs:
                trial = list(bids)
                trial[agent] = Bid(float(c), cap)
                units = int(run_2d_opt(market, qualities, trial).allocation[agent])
                if previous is not None:
                    assert units <= previous
                previous = units
        # more capacity never hurts, cost fixed
        for c in (0.1, 0.6):
            previous = None
            for cap in caps:
                trial = list(bids)
                trial[agent] = Bid(c, cap)
                units = int(run_2d_opt(market, qualities, trial).allocation[agent])
                if previous is not None:
                    assert units >= previous
                previous = units


def test_auctioneer_utility_arithmetic():
    assert auctioneer_utility([3, 0], [24.0, 0.0], [0.8, 0.6], 30.0) == pytest.approx(48.0)
    assert auctioneer_utility([0, 0], [0.0, 0.0], [0.8, 0.6], 30.0) == 0.0


def test_expected_vs_realized_utility_agree():
    # Realized Bernoulli rewards average to the expected-form utility.
    dist = uniform_type_distribution(0.0, 1.0, 1, 6)
    market = MarketConfig(8, 30.0, (dist,) * 3)
    qualities = np.array([0.75, 0.5, 0.9])
    bids = [Bid(0.2, 4), Bid(0.5, 6), Bid(0.35, 3)]
    outcome = run_2d_opt(market, qualities, bids)
    draws = 100_000
    rng_seed = 1234
    table = sample_reward_realization(
        np.repeat(qualities, outcome.allocation), draws, rng_seed
    )
    # each row is one allocated unit; realized utility per draw
    realized = 30.0 * table.table.sum(axis=0) - outcome.payments.sum()
    expected = outcome.auctioneer_utility
    stderr = realized.std(ddof=1) / np.sqrt(draws)
    assert abs(realized.mean() - expected) < 3 * stderr
