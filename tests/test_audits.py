import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procure2d import audits, bandit
from procure2d import (
    AgentType,
    Bid,
    DeviationGrid,
    MarketConfig,
    alloc_greedy,
    audit_dsic,
    audit_monotone_allocation,
    audit_offered_utility,
    audit_resampler,
    audit_stochastic_bic,
    make_opt_probe,
    make_ucb_batch_utility,
    uniform_type_distribution,
)
from oracles import step_integral

DIST = uniform_type_distribution(0.0, 1.0, 1, 5)


def instance(seed=0, n=3, units=6):
    rng = np.random.default_rng(seed)
    types = [
        AgentType(
            float(rng.uniform(0.0, 1.0)),
            int(rng.integers(2, 6)),
            float(rng.uniform(0.2, 1.0)),
        )
        for _ in range(n)
    ]
    market = MarketConfig(units, 30.0, (DIST,) * n)
    return market, types


class TestMonotoneAllocation:
    def test_opt_passes(self):
        market, types = instance(1)
        qualities = np.array([t.quality for t in types])
        bids = [t.truthful_bid() for t in types]
        probe = make_opt_probe(market, qualities, bids, 0)
        grid = DeviationGrid.spanning(DIST, types[0].capacity)
        report = audit_monotone_allocation(lambda c, k: probe(c, k)[0], grid)
        assert report.passed and report.violation == 0

    def test_broken_rule_fails_with_witness(self):
        # pays more units to pricier bids
        def backwards(cost, capacity):
            return np.round(np.asarray(cost) * 4).astype(int)

        grid = DeviationGrid(np.linspace(0.0, 1.0, 11), (3,))
        report = audit_monotone_allocation(backwards, grid)
        assert not report.passed
        assert report.witness["units_high"] > report.witness["units_low"]
        # the witness replays: re-probing reproduces the violation
        again = backwards(report.witness["cost_high"], 3) - backwards(
            report.witness["cost_low"], 3
        )
        assert again == report.violation

    def test_single_point_grid_trivially_passes(self):
        grid = DeviationGrid(np.array([0.4]), (2,))
        report = audit_monotone_allocation(lambda c, k: 3, grid)
        assert report.passed


class TestOfferedUtility:
    def test_opt_satisfies_all_three_conditions(self):
        market, types = instance(4)
        qualities = np.array([t.quality for t in types])
        bids = [t.truthful_bid() for t in types]
        probe = make_opt_probe(market, qualities, bids, 1)
        grid = DeviationGrid(np.linspace(0.0, 1.0, 7), tuple(range(1, types[1].capacity + 1)))
        report = audit_offered_utility(probe, grid, 1.0)
        assert report.passed, report.line()

    def test_premium_vanishes_at_upper_bound(self):
        market, types = instance(5)
        qualities = np.array([t.quality for t in types])
        bids = [t.truthful_bid() for t in types]
        probe = make_opt_probe(market, qualities, bids, 0)
        units, payment = probe(1.0, types[0].capacity)
        assert payment - 1.0 * units == pytest.approx(0.0, abs=1e-12)

    def test_constant_payment_mechanism_fails_integral_identity(self):
        def flat(cost, capacity):
            units = np.where(np.asarray(cost) < 0.5, 3, 1)
            return units, 2.5  # payment ignores everything

        grid = DeviationGrid(np.linspace(0.0, 1.0, 9), (3,))
        report = audit_offered_utility(flat, grid, 1.0)
        assert not report.passed
        assert report.details["integral_mismatch"] > 1e-3

    def test_payment_wrong_only_across_a_step_fails(self):
        # Six units against capacities 4 + 3 + 3: agent 0 sells 4 units while
        # its score beats rival 1's (cost below 0.5) and 3 above, so its
        # allocation steps inside [c, cost_hi] and the integral is bisected.
        market = MarketConfig(6, 30.0, (DIST,) * 3)
        bids = [Bid(0.2, 4), Bid(0.5, 3), Bid(0.2, 3)]
        probe = make_opt_probe(market, np.array([0.7, 0.7, 0.5]), bids, 0)
        calls = []

        def counted(cost, capacity):
            calls.extend(np.atleast_1d(cost).tolist())
            return probe(cost, capacity)

        def shifted(cost, capacity):
            units, payment = probe(cost, capacity)
            return units, payment + np.where((0 < units) & (units < capacity), 1e-4, 0.0)

        grid = DeviationGrid(np.linspace(0.0, 1.0, 7), (4,))
        report = audit_offered_utility(counted, grid, 1.0)
        assert report.passed, report.line()
        scan_points = {*map(float, np.linspace(0.0, 1.0, audits._STEP_POINTS)),
                       *map(float, grid.costs)}
        assert set(calls) - scan_points  # the bisection ran
        wrong = audit_offered_utility(shifted, grid, 1.0)
        assert not wrong.passed
        assert wrong.witness["check"] == "integral_mismatch"

    def test_step_free_probe_is_called_once_per_scan_point(self):
        # Constant allocation priced at the upper bound: no cell is bisected,
        # so each capacity costs one call, on each scan point once.
        calls = []

        def flat(cost, capacity):
            calls.append([(c, capacity) for c in cost.tolist()])
            return capacity, capacity * 1.0

        grid = DeviationGrid(np.linspace(0.05, 0.95, 11), (1, 2, 3))
        report = audit_offered_utility(flat, grid, 1.0)
        assert report.passed, report.line()
        assert len(calls) == len(grid.capacities)
        for points in calls:
            assert len(set(points)) == len(points) <= audits._STEP_POINTS + len(grid.costs) + 1

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_scan_integrals_match_per_start_integrals(self, data):
        # Non-increasing steps with levels in [0, 1]: the two routes bisect
        # different cells, and each trapezoid at a jump errs by under half the
        # jump times 1e-12, so with a total drop of at most 1 they agree to 1e-12.
        hi = 1.0
        costs = data.draw(st.lists(st.floats(0.0, hi), min_size=1, max_size=8))
        scan_points = np.linspace(min(costs), hi, audits._STEP_POINTS).tolist() + costs
        steps = data.draw(st.lists(
            st.floats(0.0, hi) | st.sampled_from(scan_points), max_size=6))
        levels = sorted(data.draw(st.lists(
            st.floats(0.0, 1.0), min_size=len(steps) + 1, max_size=len(steps) + 1)),
            reverse=True)
        closed = data.draw(st.booleans())  # which side of a step takes the lower level

        def units(x):
            return levels[sum(x >= s if closed else x > s for s in steps)]

        scan = audits._scan_capacity(lambda c, k: ([units(x) for x in c], 0.0), 1, costs, hi)
        for c in costs:
            expected = step_integral(units, c, hi, audits._STEP_POINTS)
            assert abs(scan[c][1] - expected) <= 1e-12, (c, scan[c][1], expected)


def test_opt_probe_runs_the_auction_once_per_bid(monkeypatch):
    # Audits sharing a probe revisit the same bids; equal costs of either
    # float type are one bid.  A call on an array of costs runs the bids no
    # earlier call ran, each once, as the profiles of one run_2d_opt call.
    runs, run = [], audits.run_2d_opt

    def record(config, qualities, profiles):
        runs.append([profile[1].cost for profile in profiles])
        return run(config, qualities, profiles)

    monkeypatch.setattr(audits, "run_2d_opt", record)
    market, types = instance(4)
    probe = make_opt_probe(market, np.array([t.quality for t in types]),
                           [t.truthful_bid() for t in types], 1)
    first = probe(0.25, 2)
    assert probe(np.float64(0.25), np.int64(2)) == first and runs == [[0.25]]
    probe(0.25, 1)
    assert runs == [[0.25], [0.25]]
    units, payments = probe(np.array([0.5, 0.25, 0.75, 0.5]), 2)
    assert runs == [[0.25], [0.25], [0.5, 0.75]]
    assert (units[1], payments[1]) == first and (units[0], payments[0]) == probe(0.5, 2)
    assert units.dtype == np.int64 and payments.dtype == float and len(runs) == 3


class TestDsic:
    def test_opt_truthful_on_random_instances(self):
        rng = np.random.default_rng(11)
        for seed in range(10):
            market, types = instance(seed, n=int(rng.integers(2, 5)))
            qualities = np.array([t.quality for t in types])
            agent = int(rng.integers(len(types)))
            bids = [t.truthful_bid() for t in types]
            probe = make_opt_probe(market, qualities, bids, agent)
            grid = DeviationGrid.spanning(DIST, types[agent].capacity, n_costs=15)
            report = audit_dsic(probe, types[agent].cost, types[agent].capacity, grid)
            assert report.passed, report.line()

    def test_pay_your_bid_mechanism_fails(self):
        market, types = instance(12)
        qualities = np.array([t.quality for t in types])
        bids = [t.truthful_bid() for t in types]

        def pay_bid(cost, capacity):
            units = []
            for c in np.atleast_1d(cost).tolist():
                trial = list(bids)
                trial[0] = Bid(c, capacity)
                scores = np.array(
                    [DIST.g_score(qualities[i], 30.0, trial[i].cost, trial[i].capacity)
                     for i in range(len(trial))]
                )
                caps = np.array([b.capacity for b in trial])
                units.append(int(alloc_greedy(scores, caps, market.units)[0]))
            units = np.reshape(units, np.shape(cost))
            return units, cost * units

        grid = DeviationGrid.spanning(DIST, types[0].capacity, n_costs=21)
        report = audit_dsic(pay_bid, types[0].cost, types[0].capacity, grid)
        assert not report.passed
        # witness replays
        c, k = report.witness["cost"], report.witness["capacity"]
        units, payment = pay_bid(c, k)
        assert payment - types[0].cost * units == pytest.approx(
            report.witness["deviation_utility"]
        )

    def test_truth_only_grid_passes(self):
        market, types = instance(13)
        qualities = np.array([t.quality for t in types])
        bids = [t.truthful_bid() for t in types]
        probe = make_opt_probe(market, qualities, bids, 0)
        grid = DeviationGrid(np.array([types[0].cost]), (types[0].capacity,))
        report = audit_dsic(probe, types[0].cost, types[0].capacity, grid)
        assert report.passed and report.violation == 0.0


class TestStochasticBic:
    def make_batch(self, samples=4000, seed=21, units=18):
        types = [AgentType(0.35, 4, 0.8), AgentType(0.55, 4, 0.6), AgentType(0.5, 3, 0.7)]
        dist = uniform_type_distribution(0.0, 1.0, 1, 6)
        market = MarketConfig(units, 30.0, (dist,) * 3)
        bids = [t.truthful_bid() for t in types]
        batch = make_ucb_batch_utility(
            market, bids, 0, types[0].cost,
            np.array([t.quality for t in types]), 0.1, samples, seed,
        )
        return batch, types[0], dist

    def test_ucb_with_premium_passes(self):
        batch, agent, dist = self.make_batch()
        grid = DeviationGrid(np.linspace(0.0, 1.0, 7), (2, 4))
        report = audit_stochastic_bic(batch, agent.cost, agent.capacity, grid)
        assert report.passed, report.line()

    # A competing market: the same agents at 8 units against their 11 units
    # of capacity, so the learner's allocation, not only its premium,
    # decides the verdict.  In the 18-unit market every agent sells its whole
    # capacity at any bid.  A learner whose score for agent 0 rises with its
    # cost (its virtual cost H replaced by 2 - H) gains by misreporting only
    # by a few hundredths of a utility unit, so the audit needs about 100,000
    # samples to see it; at 20,000 it passes.
    def test_ucb_passes_a_competing_market(self):
        batch, agent, dist = self.make_batch(samples=100_000, units=8)
        grid = DeviationGrid(np.linspace(0.0, 1.0, 7), (2, 4))
        report = audit_stochastic_bic(batch, agent.cost, agent.capacity, grid)
        assert report.passed, report.line()

    def test_cost_increasing_learner_fails_a_competing_market(self, monkeypatch):
        honest = bandit._run_chunks

        def cost_increasing(config, bids, realization, h, *args):
            mutated = h.copy()
            mutated[:, 0] = 2.0 - mutated[:, 0]
            return honest(config, bids, realization, mutated, *args)

        monkeypatch.setattr(bandit, "_run_chunks", cost_increasing)
        batch, agent, dist = self.make_batch(samples=100_000, units=8)
        grid = DeviationGrid(np.linspace(0.0, 1.0, 7), (2, 4))
        report = audit_stochastic_bic(batch, agent.cost, agent.capacity, grid)
        assert not report.passed, report.line()

    def test_premium_stripped_mechanism_fails(self, monkeypatch):
        # The counterexample mechanism pays the bid cost alone.
        monkeypatch.setattr(bandit, "transform_premium", lambda *args: 0.0)
        batch, agent, dist = self.make_batch()
        grid = DeviationGrid(np.linspace(0.0, 1.0, 7), (4,))
        report = audit_stochastic_bic(batch, agent.cost, agent.capacity, grid)
        assert not report.passed
        assert report.witness["cost"] > agent.cost  # over-reporting pays

    def test_small_sample_is_inconclusive_not_fail(self):
        batch, agent, dist = self.make_batch(samples=200)
        grid = DeviationGrid(np.array([agent.cost]), (agent.capacity,))
        report = audit_stochastic_bic(batch, agent.cost, agent.capacity, grid)
        assert report.inconclusive
        assert report.status == "inconclusive"

    def test_one_resampler_draw_per_cost(self, monkeypatch):
        # The deviating agent's draw depends on its cost alone: a sweep over
        # two capacities draws once per cost, and gives exactly what an
        # estimator built afresh for every call gives.
        costs = []
        draw = audits.resample_batch

        def counted(cost, *args, **kwargs):
            costs.append(cost)
            return draw(cost, *args, **kwargs)

        monkeypatch.setattr(audits, "resample_batch", counted)
        batch, _, _ = self.make_batch(samples=1000)
        costs.clear()  # the rivals' draws, taken when the estimator is built
        sweep = [(c, k) for k in (2, 4) for c in (0.1, 0.5, 0.9)]
        utilities = [batch(c, k) for c, k in sweep]
        assert costs == [0.1, 0.5, 0.9]
        for (c, k), got in zip(sweep, utilities):
            fresh, _, _ = self.make_batch(samples=1000)
            assert got.tobytes() == fresh(c, k).tobytes()

    def test_single_agent_near_degenerate_mu_ties(self):
        # Constant allocation: truth and every deviation tie in expectation.
        agent = AgentType(0.4, 3, 0.9)
        dist = uniform_type_distribution(0.0, 1.0, 1, 4)
        market = MarketConfig(5, 1000.0, (dist,))
        batch = make_ucb_batch_utility(
            market, [agent.truthful_bid()], 0, agent.cost,
            np.array([agent.quality]), 0.999, 3000, 31,
        )
        grid = DeviationGrid(np.linspace(0.0, 1.0, 5), (3,))
        report = audit_stochastic_bic(batch, agent.cost, agent.capacity, grid)
        assert report.passed, report.line()


    @pytest.mark.parametrize("units", [12, 30])
    def test_withholding_all_capacity_is_audited(self, units):
        # A prior from capacity 0: the spanning grid sweeps the deviation
        # that withholds every unit, which buys nothing and earns nothing.
        dist = uniform_type_distribution(0.0, 1.0, 0, 6)
        types = [AgentType(0.35, 5, 0.8), AgentType(0.55, 4, 0.6), AgentType(0.5, 3, 0.7)]
        market = MarketConfig(units, 30.0, (dist,) * 3)
        batch = make_ucb_batch_utility(
            market, [t.truthful_bid() for t in types], 0, types[0].cost,
            [t.quality for t in types], 0.1, 1500, 13,
        )
        grid = DeviationGrid.spanning(dist, types[0].capacity, n_costs=5)
        assert grid.capacities == (0, 1, 2, 3, 4, 5)
        report = audit_stochastic_bic(batch, types[0].cost, types[0].capacity, grid)
        assert report.status == "pass", report.line()
        assert not batch(0.2, 0).any()

    @pytest.mark.parametrize("premium,cost,capacity,digest,total", [
        (True, 0.35, 12, "405bcbe756d12dd7ccdf0f1f88c91df9", 18167.5),
        (True, 0.9, 15, "94f004938af160153c70630dfd1ed22d", 20737.300000000003),
        (True, 0.0, 1, "4512e128032b65bfc2876f679f745519", 1635.0),
        (False, 0.9, 15, "079c7e206833324f70bb6d9ba3e3b4f8", 17559.300000000003),
    ])
    def test_batch_utilities_are_pinned(self, monkeypatch, premium, cost, capacity, digest,
                                        total):
        # Exact per-sample utilities at 2,500 samples, not a whole number of
        # reward-table chunks.  Capacities (36) exceed the 30 units, so the
        # agents compete and the units bought follow the reward draws.  Each
        # utility is the learner's payment less the true cost of the units it
        # buys; the premium-stripped learner pays the bid cost alone.
        if not premium:
            monkeypatch.setattr(bandit, "transform_premium", lambda *args: 0.0)
        types = [AgentType(0.35, 12, 0.8), AgentType(0.55, 10, 0.6), AgentType(0.5, 14, 0.7)]
        market = MarketConfig(30, 30.0, (uniform_type_distribution(0.0, 1.0, 1, 15),) * 3)
        batch = make_ucb_batch_utility(
            market, [t.truthful_bid() for t in types], 0, 0.35,
            [t.quality for t in types], 0.1, 2500, [7, 5],
        )
        utility = batch(cost, capacity)
        assert utility.shape == (2500,) and utility.dtype == np.float64
        assert hashlib.sha256(utility.tobytes()).hexdigest()[:32] == digest
        assert float(utility.sum()) == total


class TestResamplerAudit:
    def test_passes_at_reference_parameters(self):
        report = audit_resampler(0.1, (0.0, 1.0), 50_000, seed=41)
        assert report.passed, report.line()
        assert abs(report.details["move_probability"] - 0.1) < 0.005
        assert report.details["uniform_ks_pvalue"] > 0.01
        assert all(p > 0.01 for p in report.details["memoryless_ks_pvalues"])

    def test_detects_wrong_branch_probability(self):
        # Audit the draws of a resampler run at a different mu than claimed.
        from procure2d import resample_batch

        report = audit_resampler(0.2, (0.0, 1.0), 50_000, seed=42)
        assert report.passed
        # now lie about mu: claim 0.3 while the guarantee checks 0.2-draws
        mismatched = audit_resampler(0.3, (0.0, 1.0), 50_000, seed=43)
        assert mismatched.passed  # each audit is self-consistent
        # a direct mismatch: feed mu=0.3 expectations a 0.2 sample by hand
        alpha, beta = resample_batch(0.0, 1.0, 0.2, 50_000, np.random.default_rng(44))
        moved = float((beta > 0).mean())
        sigma = (0.3 * 0.7 / 50_000) ** 0.5
        assert abs(moved - 0.3) > 3 * sigma  # the discrepancy is detectable

    def test_wrong_branch_probability_fails_the_audit(self, monkeypatch):
        # A resampler that moves with probability 2*mu, audited as mu.
        draw = audits.resample_batch
        monkeypatch.setattr(audits, "resample_batch",
                            lambda bid, hi, mu, size, rng: draw(bid, hi, 2 * mu, size, rng))
        report = audit_resampler(0.1, (0.0, 1.0), 5000, seed=45)
        assert not report.passed and report.status == "fail"
        assert report.witness["check"] == "branch-probability"

    def test_no_moved_draw_is_inconclusive(self):
        # At mu = 1e-5 no draw of 30,000 moves, so beta's conditional law
        # cannot be tested: neither pass nor fail.
        report = audit_resampler(1e-5, (0.0, 1.0), 30_000, seed=0)
        assert report.details["move_probability"] == 0.0
        assert report.status == "inconclusive", report.line()
        assert "uniform_ks_pvalue" not in report.details

    def test_reused_seed_sequence_is_not_spent(self):
        seq = np.random.SeedSequence(2024)
        first = audit_resampler(0.5, (0.0, 1.0), 2000, seq)
        second = audit_resampler(0.5, (0.0, 1.0), 2000, seq)
        assert first.line() == second.line()
        assert first.line() == audit_resampler(0.5, (0.0, 1.0), 2000, 2024).line()

        types = [AgentType(0.35, 4, 0.8), AgentType(0.55, 4, 0.6)]
        market = MarketConfig(10, 30.0, (DIST,) * 2)
        bids = [t.truthful_bid() for t in types]
        utilities = [
            make_ucb_batch_utility(market, bids, 0, 0.35, [0.8, 0.6], 0.5, 200, seq)(0.2, 3)
            for _ in range(2)
        ]
        assert np.array_equal(utilities[0], utilities[1])
        assert seq.n_children_spawned == 0


NAN = float("nan")
NAN_GRID = DeviationGrid(np.linspace(0.0, 1.0, 5), (1, 2))


class TestNanFails:
    # A probe that computes NaN has checked nothing: each audit must fail.
    def test_monotone_allocation(self):
        report = audit_monotone_allocation(lambda c, k: NAN, NAN_GRID)
        assert report.status == "fail" and report.violation == np.inf
        where = report.witness
        assert (where["capacity"], where["cost_low"], where["cost_high"]) == (1, 0.0, 0.25)

    def test_offered_utility(self):
        report = audit_offered_utility(lambda c, k: (1, NAN), NAN_GRID, 1.0)
        assert report.status == "fail" and report.violation == np.inf
        assert report.witness == {"cost": 1.0, "capacity": 1, "check": "nonneg_violation"}
        assert all(report.details[check] == np.inf for check in (
            "nonneg_violation", "capacity_monotone_violation", "integral_mismatch"))

    def test_dsic(self):
        report = audit_dsic(lambda c, k: (1, NAN), 0.5, 2, NAN_GRID)
        assert report.status == "fail" and report.violation == np.inf
        assert (report.witness["cost"], report.witness["capacity"]) == (0.0, 1)

    def test_stochastic_bic(self):
        samples = audits._MIN_SAMPLES
        report = audit_stochastic_bic(lambda c, k: np.full(samples, NAN), 0.5, 2, NAN_GRID)
        assert not report.inconclusive
        assert report.status == "fail" and report.violation == np.inf
        assert report.details["worst_margin"] == -np.inf

    def test_resampler(self, monkeypatch):
        draw = audits.resample_batch

        def nan_alpha(*args):
            alpha, beta = draw(*args)
            return np.full_like(alpha, NAN), beta

        monkeypatch.setattr(audits, "resample_batch", nan_alpha)
        report = audit_resampler(0.1, (0.0, 1.0), 5000, seed=46)
        assert report.status == "fail" and report.violation == np.inf
        assert report.witness == {"check": "ordering"}
        assert report.details["ordering_violation"] == np.inf

    def test_finite_excess_keeps_first_worst_witness(self):
        report = audits.AuditReport("x", 0.0, 0.5)
        for at, excess in enumerate([-1.0, 0.7, 0.2, 0.7]):
            report.note(excess, {"at": at})
        assert (report.violation, report.witness, report.passed) == (0.7, {"at": 1}, False)


class TestQualityRule:
    # ``make_ucb_batch_utility`` refuses the quality vectors ``run_2d_opt``
    # refuses, with the same message.
    @pytest.mark.parametrize("qualities", [
        [0.8, 0.6, 0.7, 0.5], [0.8, 0.6], [[0.8, 0.6, 0.7]],
        [NAN, 0.6, 0.7], [1.2, 0.6, 0.7], [0.8, -0.1, 0.7],
    ], ids=["too-many", "too-few", "matrix", "nan", "above-one", "negative"])
    def test_batch_utility_refuses_what_opt_refuses(self, qualities):
        market, types = instance(0)
        bids = [t.truthful_bid() for t in types]
        with pytest.raises(ValueError) as opt_error:
            audits.run_2d_opt(market, qualities, bids)
        with pytest.raises(ValueError) as batch_error:
            make_ucb_batch_utility(market, bids, 0, types[0].cost, qualities, 0.1, 10, 0)
        assert str(batch_error.value) == str(opt_error.value)


class TestReports:
    def test_line_and_text_block_formats(self):
        market, types = instance(51)
        qualities = np.array([t.quality for t in types])
        bids = [t.truthful_bid() for t in types]
        probe = make_opt_probe(market, qualities, bids, 0)
        grid = DeviationGrid.spanning(DIST, types[0].capacity, n_costs=5)
        report = audit_dsic(probe, types[0].cost, types[0].capacity, grid)
        line = report.line()
        assert line.startswith("dominant-strategy-truthfulness status=pass")
        assert "tolerance=" in line

    def test_fail_iff_violation_exceeds_tolerance(self):
        from procure2d import AuditReport

        assert AuditReport("x", 0.5, 1.0).passed
        assert not AuditReport("x", 1.5, 1.0).passed

    def test_deviation_grid_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            DeviationGrid(np.array([0.1]), (-1,))
