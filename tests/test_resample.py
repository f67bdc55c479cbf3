import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from procure2d import (
    Bid,
    ResampleDraw,
    alloc_greedy,
    resample_batch,
    self_resample,
    transform_allocate_and_pay,
    transform_premium,
)

from oracles import units_vs_own_score

MU = 0.1
BOUNDS = (0.0, 1.0)


def scalar_draws(bid, count, seed, mu=MU, bounds=BOUNDS):
    rng = np.random.default_rng(seed)
    draws = [self_resample(bid, bounds, mu, rng) for _ in range(count)]
    return np.array([d.alpha for d in draws]), np.array([d.beta for d in draws])


def test_branch_probability():
    count = 100_000
    _, beta = scalar_draws(0.2, count, seed=1)
    moved = (beta > 0.2).mean()
    sigma = math.sqrt(MU * (1 - MU) / count)
    assert abs(moved - MU) <= 3 * sigma


def test_degenerate_interval_returns_upper_bound():
    rng = np.random.default_rng(2)
    for _ in range(200):
        draw = self_resample(1.0, BOUNDS, MU, rng)
        assert draw == ResampleDraw(1.0, 1.0)


def test_output_ordering_on_every_draw():
    alpha, beta = scalar_draws(0.3, 20_000, seed=3)
    assert (alpha >= beta).all()
    assert (beta >= 0.3).all()
    assert (alpha <= 1.0).all()


def test_conditional_beta_is_uniform():
    alpha, beta = scalar_draws(0.25, 100_000, seed=4)
    cond = beta[beta > 0.25]
    result = stats.kstest(cond, "uniform", args=(0.25, 0.75))
    assert result.pvalue > 0.01


def test_monotone_coupling_across_bids():
    # Same seed, increasing bid: both outputs must move up pointwise.
    for seed in range(40):
        prev_alpha = prev_beta = -np.inf
        for bid in np.linspace(0.0, 1.0, 9):
            draw = self_resample(float(bid), BOUNDS, MU, np.random.default_rng(seed))
            assert draw.alpha >= prev_alpha - 1e-15
            assert draw.beta >= prev_beta - 1e-15
            prev_alpha, prev_beta = draw.alpha, draw.beta


def test_batch_matches_scalar_in_distribution():
    count = 60_000
    s_alpha, s_beta = scalar_draws(0.4, count, seed=5)
    b_alpha, b_beta = resample_batch(0.4, 1.0, MU, count, np.random.default_rng(6))
    assert abs((s_beta > 0.4).mean() - (b_beta > 0.4).mean()) < 0.01
    assert stats.ks_2samp(s_alpha[s_alpha > 0.4], b_alpha[b_alpha > 0.4]).pvalue > 0.01
    assert stats.ks_2samp(s_beta[s_beta > 0.4], b_beta[b_beta > 0.4]).pvalue > 0.01


@settings(max_examples=300, deadline=None)
@given(
    st.floats(0.0, 10.0),
    st.floats(0.0, 10.0),
    st.floats(0.0, 0.99, exclude_min=True),
    st.integers(0, 2**64 - 1),
)
def test_batch_of_one_equals_scalar_bit_for_bit(a, b, mu, entropy):
    # The two resamplers are kept separately, for single bids and for large
    # audits; with one draw and the same seed they must agree exactly.
    bid, hi = min(a, b), max(a, b)
    seed = np.random.SeedSequence(entropy)
    draw = self_resample(bid, (0.0, hi), mu, seed)
    alpha, beta = resample_batch(bid, hi, mu, 1, np.random.default_rng(seed))
    assert (draw.alpha, draw.beta) == (float(alpha[0]), float(beta[0]))


def test_invalid_mu_rejected():
    with pytest.raises(ValueError):
        self_resample(0.5, BOUNDS, 0.0, 1)
    with pytest.raises(ValueError):
        self_resample(0.5, BOUNDS, 1.0, 1)


def test_premium_direct_evaluation():
    assert transform_premium(3.0, 0.1, 0.2, 8.2, 0.5) == pytest.approx(240.0)
    assert transform_premium(3.0, 0.1, 0.2, 8.2, 0.2) == 0.0
    premium = transform_premium(np.array([3, 3]), 0.1, 0.2, 8.2, np.array([0.5, 0.2]))
    assert premium.tolist() == [transform_premium(3.0, 0.1, 0.2, 8.2, 0.5), 0.0]


def test_transform_pays_no_premium_when_beta_stays():
    bids = [Bid(0.2, 3), Bid(0.5, 2)]
    draws = [ResampleDraw(0.2, 0.2), ResampleDraw(0.5, 0.5)]
    rule = lambda costs, caps: alloc_greedy(10.0 - costs, caps, 4)
    outcome = transform_allocate_and_pay(
        rule, bids, [1.0, 1.0], MU, 0,
        qualities=[0.5, 0.5], reward_scale=30.0, draws=draws,
    )
    assert outcome.allocation.tolist() == [3, 1]
    assert outcome.payments[0] == pytest.approx(0.2 * 3)
    assert outcome.payments[1] == pytest.approx(0.5 * 1)


def test_transform_premium_applied_when_beta_moves():
    bids = [Bid(0.2, 3)]
    draws = [ResampleDraw(0.6, 0.45)]
    rule = lambda costs, caps: np.array([2])
    outcome = transform_allocate_and_pay(
        rule, bids, [1.0], MU, 0, qualities=[0.5], reward_scale=30.0, draws=draws,
    )
    assert outcome.payments[0] == pytest.approx(0.2 * 2 + 2 * (1.0 - 0.2) / MU)
    # the rule must see the resampled cost, not the raw bid
    seen = {}

    def probe_rule(costs, caps):
        seen["costs"] = costs.copy()
        return np.array([1])

    transform_allocate_and_pay(
        probe_rule, bids, [1.0], MU, 0, qualities=[0.5], reward_scale=30.0, draws=draws,
    )
    assert seen["costs"].tolist() == [0.6]


# -- premium expectation equals the allocation integral ----------------------
#
# Rivals pinned at the upper cost bound resample to themselves, so the
# transformed allocation to the audited agent is a one-dimensional step
# function of its own resampled cost, and the integral of the expected
# transformed allocation has a closed form under the resampler's law
# P(alpha(z) > a) = mu * ((hi - a) / (hi - z)) ** (1 - mu).


def exact_transformed_integral(bid, hi, mu, thresholds, values):
    """Integral over z in [bid, hi] of E[x(alpha(z))] for a step function x
    of alpha with interior jump points ``thresholds`` and plateau ``values``
    (one more value than thresholds)."""
    total = values[-1] * (hi - bid)
    for j, b in enumerate(thresholds):
        drop = values[j] - values[j + 1]
        # integral over z in [bid, b] of P(alpha(z) <= b)
        piece = (b - bid) - (hi - b) ** (1 - mu) * ((hi - bid) ** mu - (hi - b) ** mu)
        total += drop * piece
    return total


def step_of_own_alpha(reward_scale, quality, bid, cap, rival_scores, rival_caps, budget):
    """Jump points and plateau values of the greedy allocation to the agent
    as a function of its resampled cost on [bid, 1], for unit-interval
    uniform costs (score R*q - 2*alpha)."""
    crossings = []
    for g in list(rival_scores) + [0.0]:
        z = (reward_scale * quality - g) / 2.0
        if bid < z < 1.0:
            crossings.append(z)
    thresholds = sorted(set(crossings))
    edges = [bid] + thresholds + [1.0]
    mids = [0.5 * (a + b) for a, b in zip(edges[:-1], edges[1:])]
    own_scores = reward_scale * quality - 2.0 * np.array(mids)
    values = units_vs_own_score(
        own_scores, np.array(rival_scores), np.array(rival_caps), cap, budget
    )
    return thresholds, [int(v) for v in values]


def test_expected_premium_matches_allocation_integral():
    reward_scale, budget = 30.0, 6
    quality, bid, cap = 0.7, 0.2, 5
    rival_scores = [30.0 * 0.73 - 2.0, 30.0 * 0.71 - 2.0]  # rivals bid at 1.0
    rival_caps = [2, 2]

    thresholds, values = step_of_own_alpha(
        reward_scale, quality, bid, cap, rival_scores, rival_caps, budget
    )
    assert thresholds == pytest.approx([0.55, 0.85])
    assert values == [5, 4, 2]
    exact = exact_transformed_integral(bid, 1.0, MU, thresholds, values)

    draws = 200_000
    alpha, beta = resample_batch(bid, 1.0, MU, draws, np.random.default_rng(7))
    own_scores = reward_scale * quality - 2.0 * alpha
    units = units_vs_own_score(
        own_scores, np.array(rival_scores), np.array(rival_caps), cap, budget
    )
    premium = np.where(beta > bid, units * (1.0 - bid) / MU, 0.0)
    stderr = premium.std(ddof=1) / math.sqrt(draws)
    assert abs(premium.mean() - exact) < 3 * stderr

    # the vectorized premium is what the transformation actually pays
    bids = [Bid(bid, cap), Bid(1.0, rival_caps[0]), Bid(1.0, rival_caps[1])]
    qualities = [quality, 0.73, 0.71]
    rule = lambda costs, caps: alloc_greedy(
        reward_scale * np.array(qualities) - 2.0 * costs, caps, budget
    )
    for k in range(300):
        sample = [
            ResampleDraw(float(alpha[k]), float(beta[k])),
            ResampleDraw(1.0, 1.0),
            ResampleDraw(1.0, 1.0),
        ]
        outcome = transform_allocate_and_pay(
            rule, bids, [1.0] * 3, MU, 0,
            qualities=qualities, reward_scale=reward_scale, draws=sample,
        )
        assert outcome.allocation[0] == units[k]
        assert outcome.payments[0] == pytest.approx(bid * units[k] + premium[k])
