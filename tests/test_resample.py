import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from procure2d import (
    ResampleDraw,
    resample_batch,
    self_resample,
    transform_premium,
)
from procure2d.resample import child_states, generator_at, stream_states

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


@pytest.mark.parametrize("bid, hi", [(math.nan, 1.0), (0.3, math.nan), ([0.3, math.nan], 1.0),
                                     (1.2, 1.0)],
                         ids=["nan-bid", "nan-cost-hi", "nan-in-bid-array", "bid-above-cost-hi"])
def test_batch_refuses_a_bid_not_at_most_cost_hi(bid, hi):
    with pytest.raises(ValueError, match="^bid costs must be at most cost_hi"):
        resample_batch(bid, hi, MU, 2, np.random.default_rng(0))


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



def random_seed_int(rng) -> int:
    """A master-seed-like int: 0, one word, two words, or up to 2**64 - 1."""
    kind = int(rng.integers(4))
    if kind == 0:
        return 0
    if kind == 1:
        return int(rng.integers(1, 2**32))
    if kind == 2:
        return 2**32 + int(rng.integers(0, 2**62))
    return 2**64 - 1 - int(rng.integers(0, 2**32))


def stream_cases(count, seed=16):
    """``(entropy, spawn_key)`` rows mixing ints and lists of 0-7 ints, with
    spawn keys ``()``, ``(i,)`` and two entries.  Short entropies with a key
    take the padding path; long ones mix words past the pool."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        if rng.random() < 0.2:
            entropy = random_seed_int(rng)
        else:
            entropy = [random_seed_int(rng) for _ in range(int(rng.integers(0, 8)))]
        key = tuple(int(k) for k in rng.integers(0, 2**33, int(rng.integers(0, 3))))
        cases.append((entropy, key))
    return cases


EDGE_STREAMS = [
    (0, ()), (0, (0,)), (2**64 - 1, ()), (2**64 - 1, (4,)), (2**32, (1,)),
    ([], ()), ([], (0,)), ([0, 0, 0], (0,)), ([0, 0, 0, 0], (0,)), ([7, 0], (0, 0)),
    ([2**63 + 5, 14, 0, 0, 0], (3,)), ([2**63 + 5, 11, 0], ()), ([1, 2, 3, 4, 5, 6, 7, 8], ()),
    (np.array([5, 9], dtype=np.uint32), (2,)), (np.int64(3), (np.uint8(1),)),
]


@pytest.mark.parametrize("cases", [stream_cases(900), EDGE_STREAMS], ids=["random", "edge"])
def test_stream_states_equal_numpy_seeding(cases):
    # One call derives every row; each must equal the PCG64 state numpy
    # seeds from the same SeedSequence, and draw the same first uniform.
    states = stream_states(cases)
    assert len(states) == len(cases)
    rng = generator_at(states[0])
    for (entropy, key), state in zip(cases, states):
        reference = np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=key))
        assert state == reference.state, (entropy, key)
        rng.bit_generator.state = state
        assert rng.random() == np.random.Generator(reference).random()


def test_stream_states_of_no_rows():
    assert stream_states([]) == []


@pytest.mark.parametrize("entropy, error", [(-1, ValueError), ([3, -2], ValueError),
                                            (1.5, TypeError), ("seed", TypeError)])
def test_stream_states_refuse_what_seed_sequence_refuses(entropy, error):
    with pytest.raises(error):
        np.random.SeedSequence(entropy)
    with pytest.raises(error):
        stream_states([(entropy, ())])


@pytest.mark.parametrize("seed", [0, 2**63 + 5, [3, 1, 4], np.random.SeedSequence(9),
                                  np.random.SeedSequence(9, spawn_key=(2,))])
def test_child_states_are_the_spawned_children(seed):
    # Child i draws as the i-th child of spawn(3) on a fresh sequence, and a
    # SeedSequence passed in is not spent.
    if isinstance(seed, np.random.SeedSequence):
        fresh = np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key)
    else:
        fresh = np.random.SeedSequence(seed)
    expected = [np.random.PCG64(child).state for child in fresh.spawn(3)]
    assert child_states(seed, 3) == child_states(seed, 3) == expected
