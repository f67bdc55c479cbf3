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
from procure2d.resample import (
    child_states, generator_at, resample_streams, state_dict, stream_states,
)

from oracles import numpy_resample_batch, scalar_resample, units_vs_own_score

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
    st.floats(-10.0, 10.0),
    st.floats(-10.0, 10.0),
    st.one_of(st.none(), st.integers(0, 3)),
    st.one_of(st.floats(0.0, 0.99, exclude_min=True), st.floats(1e-9, 1e-3),
              st.floats(0.99, 0.997)),
    st.booleans(),
    st.integers(0, 2**64 - 1),
)
def test_batch_of_one_equals_scalar_bit_for_bit(a, b, ulps_below_hi, mu, unbounded, entropy):
    # A single bid's draw, made by the batch law, equals the scalar loop that
    # draws one uniform at a time, on the same seed.  A bid a few ulps below
    # cost_hi makes every step land within an ulp of it; a lower bound of
    # -inf is admitted.  Adding 0.0 clears a -0.0, whose steps numpy's
    # ``uniform`` in the scalar loop refuses.
    bid, hi = min(a, b) + 0.0, max(a, b) + 0.0
    if ulps_below_hi is not None:
        bid = hi
        for _ in range(ulps_below_hi):
            bid = float(np.nextafter(bid, -math.inf))
    bounds = (-math.inf if unbounded else bid, hi)
    seed = np.random.SeedSequence(entropy)
    draw = self_resample(bid, bounds, mu, seed)
    assert draw == scalar_resample(bid, bounds, mu, seed)


# -- the C law against the numpy pass loop ------------------------------------


def law_cases(count, seed=18):
    """``(bid, cost_hi, mu, size, rng)`` cases: one bid or a per-draw array,
    mu from near 0 to near 1, bids at or a few ulps below ``cost_hi`` (so
    every step lands within an ulp of it) among bids spread far below it,
    and generators part way into their streams, some holding a buffered
    32-bit half-word."""
    rng = np.random.default_rng(seed)
    cases = []
    for t in range(count):
        hi = float(rng.choice([-1.0, 1.0], p=[0.1, 0.9]) * math.exp(rng.uniform(-6, 6)))
        size = int(rng.integers(0, 40))
        spread = math.exp(rng.uniform(-30, 8))
        bids = hi - spread * rng.random(size)
        for j in np.flatnonzero(rng.random(size) < 0.3):
            bids[j] = hi
            for _ in range(int(rng.integers(0, 5))):
                bids[j] = np.nextafter(bids[j], -math.inf)
        bid = bids if t % 2 else (float(bids[0]) if size else hi)
        mu = [float(rng.uniform(0.01, 0.99)), float(10 ** rng.uniform(-9, -2)),
              float(1 - 10 ** rng.uniform(-2.5, -1))][t % 3]
        gen = np.random.default_rng(int(rng.integers(2**63)))
        gen.bit_generator.advance(int(rng.integers(0, 1000)))
        if rng.random() < 0.5:
            gen.integers(0, 2**32, dtype=np.uint32)
        cases.append((bid, hi, mu, size, gen))
    return cases


def copy_generator(rng):
    twin = np.random.Generator(np.random.PCG64(0))
    twin.bit_generator.state = rng.bit_generator.state
    return twin


def test_batch_law_equals_the_numpy_pass_loop():
    cases = law_cases(1200)
    buffered = 0
    for bid, hi, mu, size, rng in cases:
        reference = copy_generator(rng)
        buffered += rng.bit_generator.state["has_uint32"]
        alpha, beta = resample_batch(bid, hi, mu, size, rng)
        ref_alpha, ref_beta = numpy_resample_batch(bid, hi, mu, size, reference)
        where = (bid, hi, mu, size)
        assert alpha.tobytes() == ref_alpha.tobytes(), where
        assert beta.tobytes() == ref_beta.tobytes(), where
        assert rng.bit_generator.state == reference.bit_generator.state, where
        # The buffered half-word survives: the next 32-bit draw reads it.
        assert rng.integers(0, 2**32, dtype=np.uint32) == reference.integers(
            0, 2**32, dtype=np.uint32)
        assert rng.random() == reference.random()
    assert 0 < buffered < len(cases)


def test_streams_draw_as_their_generators():
    # One call over many streams, each at its own bid and bound, equals one
    # numpy draw per stream and leaves each stream where numpy leaves it.
    rng = np.random.default_rng(20)
    states = child_states(20, 300)
    highs = np.exp(rng.uniform(-3, 3, 300))
    bids = highs * rng.random(300)
    generators = [generator_at(words) for words in states]
    draws = resample_streams(bids, highs, 0.4, states)
    for bid, hi, draw, words, gen in zip(bids, highs, draws, states, generators):
        alpha, beta = numpy_resample_batch(bid, hi, 0.4, 1, gen)
        assert (draw.alpha, draw.beta) == (alpha[0], beta[0])
        assert state_dict(words) == gen.bit_generator.state


@pytest.mark.parametrize("draw", [
    lambda: self_resample(0.2, BOUNDS, 1 - 2**-40, 0),
    lambda: resample_batch(0.2, 1.0, 1 - 2**-40, 3, np.random.default_rng(0)),
], ids=["one-draw", "batch"])
def test_recursion_stops_at_the_iteration_cap(draw):
    with pytest.raises(RuntimeError, match="iteration cap"):
        draw()


def test_batch_refuses_a_generator_not_on_pcg64():
    with pytest.raises(TypeError, match="^the resampler draws on a PCG64 generator, got MT19937$"):
        resample_batch(0.3, 1.0, MU, 2, np.random.Generator(np.random.MT19937(0)))


@pytest.mark.parametrize("bid, hi", [(math.nan, 1.0), (0.3, math.nan), ([0.3, math.nan], 1.0),
                                     (1.2, 1.0)],
                         ids=["nan-bid", "nan-cost-hi", "nan-in-bid-array", "bid-above-cost-hi"])
def test_batch_refuses_a_bid_not_at_most_cost_hi(bid, hi):
    with pytest.raises(ValueError, match="^bid costs must be at most cost_hi"):
        resample_batch(bid, hi, MU, 2, np.random.default_rng(0))


def test_invalid_mu_rejected():
    for mu in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match="^mu must lie in"):
            self_resample(0.5, BOUNDS, mu, 1)
        with pytest.raises(ValueError, match="^mu must lie in"):
            resample_batch(0.5, 1.0, mu, 2, np.random.default_rng(1))


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
    assert states.shape == (len(cases), 4) and states.dtype == np.uint64
    rng = generator_at(states[0])
    for (entropy, key), words in zip(cases, states):
        reference = np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=key))
        assert state_dict(words) == reference.state, (entropy, key)
        rng.bit_generator.state = state_dict(words)
        assert rng.random() == np.random.Generator(reference).random()


def test_stream_states_of_no_rows():
    assert stream_states([]).shape == (0, 4)


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
    for _ in range(2):
        assert [state_dict(words) for words in child_states(seed, 3)] == expected
