import numpy as np
import pytest

from procure2d import alloc_greedy

from oracles import brute_force_best_value, greedy_units_numpy


def test_worked_example():
    assert alloc_greedy([23.6, 17.0], np.array([6, 10]), 10).tolist() == [6, 4]


def test_all_negative_scores_allocate_nothing():
    assert alloc_greedy([-1.0, -0.5], np.array([4, 4]), 6).tolist() == [0, 0]


def test_zero_budget():
    assert alloc_greedy([5.0, 3.0], np.array([4, 4]), 0).tolist() == [0, 0]


def test_tie_breaks_by_index():
    units = alloc_greedy([5.0, 5.0], np.array([4, 4]), 6)
    assert units.tolist() == [4, 2]
    value = float(np.dot([5.0, 5.0], units))
    assert value == brute_force_best_value([5.0, 5.0], [4, 4], 6)


def test_zero_score_agents_are_eligible():
    units = alloc_greedy([3.0, 0.0], np.array([2, 5]), 6)
    assert units.tolist() == [2, 4]


def test_stops_at_first_negative_score():
    units = alloc_greedy([4.0, -0.1, 1.0], np.array([2, 3, 3]), 8)
    assert units.tolist() == [2, 0, 3]


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        alloc_greedy([1.0], np.array([-1]), 3)


def test_float_capacities_rejected():
    with pytest.raises(TypeError):
        alloc_greedy([1.0], np.array([2.0]), 3)


def test_matches_numpy_reference_with_ties():
    rng = np.random.default_rng(77)
    for _ in range(500):
        n = int(rng.integers(1, 8))
        scores = rng.integers(-2, 3, n) * 0.5  # ties, zeros and negatives
        caps = rng.integers(0, 4, n)
        budget = int(rng.integers(0, 25))
        units = alloc_greedy(scores, caps, budget)
        assert units.dtype == np.int64
        assert units.tolist() == greedy_units_numpy(scores, caps, budget).tolist()


def test_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        scores = rng.uniform(-5, 25, n)
        caps = rng.integers(0, 6, n)
        budget = int(rng.integers(0, 13))
        units = alloc_greedy(scores, caps, budget)
        assert (units >= 0).all() and (units <= caps).all()
        assert units.sum() <= budget
        assert units[scores < 0].sum() == 0
        value = float(np.dot(scores, units))
        assert value == pytest.approx(brute_force_best_value(scores, caps, budget), abs=1e-9)


def test_monotone_in_own_score():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        scores = rng.uniform(-5, 25, n)
        caps = rng.integers(1, 6, n)
        budget = int(rng.integers(1, 13))
        agent = int(rng.integers(n))
        base = alloc_greedy(scores, caps, budget)[agent]
        raised = scores.copy()
        raised[agent] += float(rng.uniform(0.0, 10.0))
        assert alloc_greedy(raised, caps, budget)[agent] >= base


def test_monotone_in_own_capacity():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        scores = rng.uniform(-5, 25, n)
        caps = rng.integers(1, 6, n)
        budget = int(rng.integers(1, 13))
        agent = int(rng.integers(n))
        base = alloc_greedy(scores, caps, budget)[agent]
        bigger = caps.copy()
        bigger[agent] += int(rng.integers(1, 4))
        assert alloc_greedy(scores, bigger, budget)[agent] >= base
