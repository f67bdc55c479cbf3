import numpy as np
import pytest

from procure2d import (
    AgentType,
    Bid,
    DegenerateDistributionError,
    MarketConfig,
    RewardRealization,
    TypeDistribution,
    sample_reward_realization,
    uniform_type_distribution,
)


@pytest.fixture
def unit_uniform():
    return uniform_type_distribution(0.0, 1.0, 1, 5)


@pytest.fixture
def wide_uniform():
    return uniform_type_distribution(0.0, 10.0, 1, 5)


class TestVirtualCost:
    def test_unit_uniform_doubles_cost(self, unit_uniform):
        assert unit_uniform.virtual_cost(0.3, 3) == pytest.approx(0.6)

    def test_lower_bound_is_fixed_point(self, wide_uniform):
        # F vanishes at the lower bound, so H(cost_lo) = cost_lo
        assert wide_uniform.virtual_cost(0.0, 2) == pytest.approx(0.0)
        shifted = uniform_type_distribution(3.0, 7.0, 1, 4)
        assert shifted.virtual_cost(3.0, 2) == pytest.approx(3.0)

    def test_wide_uniform(self, wide_uniform):
        assert wide_uniform.virtual_cost(2.0, 1) == pytest.approx(4.0)

    def test_generic_path_matches_closed_form(self):
        base = uniform_type_distribution(0.0, 10.0, 1, 5)
        generic = TypeDistribution(
            cost_bounds=base.cost_bounds,
            cap_bounds=base.cap_bounds,
            joint_density=base.joint_density,
            cond_cdf=base.cond_cdf,
            cond_density=base.cond_density,
        )
        for c in np.linspace(0.0, 10.0, 17):
            assert generic.virtual_cost(float(c), 2) == pytest.approx(
                base.virtual_cost(float(c), 2), abs=1e-9
            )

    def test_exceeds_cost_everywhere(self, unit_uniform):
        for c in np.linspace(0.0, 1.0, 21):
            assert unit_uniform.virtual_cost(float(c), 1) >= c

    def test_zero_density_raises(self):
        dist = TypeDistribution(
            cost_bounds=(0.0, 1.0),
            cap_bounds=(1, 2),
            joint_density=lambda c, k: 0.0,
            cond_cdf=lambda c, k: c,
            cond_density=lambda c, k: 0.0,
        )
        with pytest.raises(DegenerateDistributionError):
            dist.virtual_cost(0.5, 1)

    def test_out_of_bounds_cost_rejected(self, unit_uniform):
        with pytest.raises(ValueError):
            unit_uniform.virtual_cost(1.5, 1)


class TestScores:
    def test_g_score_unit_interval(self, unit_uniform):
        assert unit_uniform.g_score(0.8, 30.0, 0.2, 3) == pytest.approx(23.6)

    def test_g_score_zero_quality_at_lower_bound(self, unit_uniform):
        assert unit_uniform.g_score(0.0, 30.0, 0.0, 1) == pytest.approx(0.0)

    def test_g_score_wide(self, wide_uniform):
        assert wide_uniform.g_score(0.6, 30.0, 5.0, 2) == pytest.approx(8.0)

    def test_g_inverse_closed_form(self, wide_uniform):
        # G(c) = 24 - 2c, so G^{-1}(8) = 8
        assert wide_uniform.g_inverse(0.8, 30.0, 8.0, 3) == pytest.approx(8.0)

    def test_g_inverse_at_top_score_returns_lower_bound(self, wide_uniform):
        top = wide_uniform.g_score(0.8, 30.0, 0.0, 3)
        assert wide_uniform.g_inverse(0.8, 30.0, top, 3) == pytest.approx(0.0)

    def test_g_inverse_clamps_low_scores_to_upper_bound(self, unit_uniform):
        low = unit_uniform.g_score(0.9, 30.0, 1.0, 2) - 5.0
        assert unit_uniform.g_inverse(0.9, 30.0, low, 2) == 1.0

    def test_g_inverse_above_range_errors(self, unit_uniform):
        top = unit_uniform.g_score(0.9, 30.0, 0.0, 2)
        with pytest.raises(ValueError):
            unit_uniform.g_inverse(0.9, 30.0, top + 1.0, 2)

    def test_bisection_matches_closed_form(self):
        base = uniform_type_distribution(0.0, 10.0, 1, 5)
        generic = TypeDistribution(
            cost_bounds=base.cost_bounds,
            cap_bounds=base.cap_bounds,
            joint_density=base.joint_density,
            cond_cdf=base.cond_cdf,
            cond_density=base.cond_density,
        )
        rng = np.random.default_rng(42)
        for _ in range(50):
            q = float(rng.uniform(0.2, 1.0))
            g = float(rng.uniform(base.g_score(q, 30.0, 10.0, 2), base.g_score(q, 30.0, 0.0, 2)))
            assert generic.g_inverse(q, 30.0, g, 2) == pytest.approx(
                base.g_inverse(q, 30.0, g, 2), abs=1e-9
            )

    def test_inverse_of_score_is_identity(self, unit_uniform, wide_uniform):
        rng = np.random.default_rng(3)
        for dist in (unit_uniform, wide_uniform):
            lo, hi = dist.cost_bounds
            for _ in range(50):
                c = float(rng.uniform(lo, hi))
                q = float(rng.uniform(0.0, 1.0))
                g = dist.g_score(q, 30.0, c, 2)
                assert dist.g_inverse(q, 30.0, g, 2) == pytest.approx(c, abs=1e-9)


class TestRegularity:
    def test_uniform_family_is_regular(self, unit_uniform):
        assert unit_uniform.check_regularity(33)

    def test_step_density_is_irregular(self):
        # Density jumping up mid-interval makes F/f, and with it H, drop.
        def cdf(c, k):
            return 0.1 * c if c < 0.5 else 0.05 + 1.9 * (c - 0.5)

        def density(c, k):
            return 0.1 if c < 0.5 else 1.9

        dist = TypeDistribution(
            cost_bounds=(0.0, 1.0),
            cap_bounds=(1, 3),
            joint_density=lambda c, k: density(c, k) / 3.0,
            cond_cdf=cdf,
            cond_density=density,
        )
        # sanity: H really does decrease across the density jump
        assert dist.virtual_cost(0.499, 1) > dist.virtual_cost(0.501, 1)
        assert not dist.check_regularity(33)

    def test_capacity_dependent_violation(self):
        # Information rent growing with capacity breaks H non-increasing in k.
        dist = TypeDistribution(
            cost_bounds=(0.0, 1.0),
            cap_bounds=(1, 4),
            joint_density=lambda c, k: 1.0 / (4.0 * k),
            cond_cdf=lambda c, k: min(max(c, 0.0), 1.0),
            cond_density=lambda c, k: 1.0 / k,
        )
        assert not dist.check_regularity(9)

    def test_single_point_grid_passes(self):
        dist = uniform_type_distribution(0.0, 1.0, 2, 2)
        assert dist.check_regularity(1)

    def test_degenerate_density_reports_false(self):
        dist = TypeDistribution(
            cost_bounds=(0.0, 1.0),
            cap_bounds=(1, 2),
            joint_density=lambda c, k: 0.0,
            cond_cdf=lambda c, k: c,
            cond_density=lambda c, k: 0.0,
        )
        assert not dist.check_regularity(5)


class TestDistributionValidation:
    def test_uniform_family_validates(self, unit_uniform):
        unit_uniform.validate()

    def test_cdf_endpoints_enforced(self):
        dist = TypeDistribution(
            cost_bounds=(0.0, 1.0),
            cap_bounds=(1, 2),
            joint_density=lambda c, k: 0.5,
            cond_cdf=lambda c, k: 0.5 * c,  # tops out at 0.5
            cond_density=lambda c, k: 0.5,
        )
        with pytest.raises(ValueError, match="endpoints"):
            dist.validate()

    def test_density_cdf_mismatch_detected(self):
        dist = TypeDistribution(
            cost_bounds=(0.0, 1.0),
            cap_bounds=(1, 2),
            joint_density=lambda c, k: 1.0,
            cond_cdf=lambda c, k: c,
            cond_density=lambda c, k: 2.0,  # not the derivative of F
        )
        with pytest.raises(ValueError, match="derivative"):
            dist.validate()


class TestTypesAndBids:
    def test_quality_bounds_enforced(self):
        with pytest.raises(ValueError):
            AgentType(0.5, 3, 1.2)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            AgentType(0.5, -1, 0.5)

    def test_truthful_bid_copies_type(self):
        agent = AgentType(0.4, 3, 0.9)
        assert agent.truthful_bid() == Bid(0.4, 3)

    def test_capacity_over_report_forbidden(self):
        agent = AgentType(0.4, 3, 0.9)
        with pytest.raises(ValueError, match="over-report"):
            agent.deviated_bid(capacity=4)
        assert agent.deviated_bid(cost=0.6, capacity=2) == Bid(0.6, 2)

    def test_market_config_validation(self, unit_uniform):
        with pytest.raises(ValueError):
            MarketConfig(-1, 30.0, (unit_uniform,))
        with pytest.raises(ValueError):
            MarketConfig(5, 0.0, (unit_uniform,))
        with pytest.raises(ValueError):
            MarketConfig(5, 30.0, ())


class TestRewardRealization:
    def test_extreme_qualities(self):
        table = sample_reward_realization([1.0, 0.0], 25, 7)
        assert table.table[0].sum() == 25
        assert table.table[1].sum() == 0

    def test_binomial_concentration(self):
        table = sample_reward_realization([0.5], 10_000, 11)
        assert abs(table.table[0].mean() - 0.5) < 0.015  # 3 binomial sigmas

    def test_seed_reproducibility(self):
        first = sample_reward_realization([0.3, 0.7], 50, 123)
        second = sample_reward_realization([0.3, 0.7], 50, 123)
        assert (first.table == second.table).all()
        third = sample_reward_realization([0.3, 0.7], 50, 124)
        assert (first.table != third.table).any()

    def test_table_shape_and_immutability(self):
        table = sample_reward_realization([0.5, 0.5, 0.5], 9, 0)
        assert table.table.shape == (3, 9)
        with pytest.raises(ValueError):
            table.table[0, 0] = 1

    def test_non_binary_entries_rejected(self):
        with pytest.raises(ValueError):
            RewardRealization(np.array([[0, 2]]))
        for bad in (0.5, np.nan):
            with pytest.raises(ValueError):
                RewardRealization(np.array([[0.0, 1.0, bad]]))
        # -1 and 256 wrap to 255 and 0 in uint8: rejected before the conversion
        for bad in (-1, 256):
            with pytest.raises(ValueError):
                RewardRealization(np.array([[0, 1, bad]], dtype=np.int16))

    def test_conditional_cdf_shape_on_grid(self):
        dist = uniform_type_distribution(0.25, 2.0, 1, 4)
        for k in range(1, 5):
            values = [dist.cond_cdf(c, k) for c in np.linspace(0.25, 2.0, 33)]
            assert values[0] == pytest.approx(0.0, abs=1e-12)
            assert values[-1] == pytest.approx(1.0, abs=1e-12)
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
