"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Every tolerance is stated inline; the oracles (brute force enumeration,
closed-form laws, rank-count allocation) live in ``oracles.py`` and never
touch the code paths they judge.  Run with ``pytest tests/test_acceptance.py
-v -s`` to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from procure2d import (
    AgentType,
    Bid,
    DeviationGrid,
    ExperimentConfig,
    MarketConfig,
    alloc_greedy,
    audit_resampler,
    audit_stochastic_bic,
    make_opt_probe,
    make_ucb_batch_utility,
    resample_batch,
    run_2d_opt,
    run_2d_ucb,
    run_experiment,
    sample_reward_realization,
    seeded_draws,
    uniform_type_distribution,
)
from procure2d import bandit
from procure2d.cli import main as cli_main

from oracles import (
    brute_force_best_value,
    integral_payment,
    random_small_instance,
    units_vs_own_score,
)

REWARD = 30.0


def criterion(cid, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {cid:>2}] {status}: {detail}")
    assert ok, f"criterion {cid} failed: {detail}"


def truthful(market, types):
    qualities = np.array([t.quality for t in types])
    bids = [t.truthful_bid() for t in types]
    return qualities, bids


def test_criterion_01_allocation_optimality_oracle():
    rng = np.random.default_rng(101)
    start = time.time()
    for _ in range(500):
        market, types = random_small_instance(rng)
        qualities, bids = truthful(market, types)
        dist = market.distributions[0]
        scores = np.array(
            [dist.g_score(t.quality, REWARD, t.cost, t.capacity) for t in types]
        )
        caps = np.array([t.capacity for t in types])
        units = alloc_greedy(scores, caps, market.units)
        achieved = float(np.dot(scores, units))
        best = brute_force_best_value(scores, caps, market.units)
        assert achieved == pytest.approx(best, abs=0.0), (scores, caps, market.units)
    elapsed = time.time() - start
    criterion(1, elapsed < 10.0,
              f"greedy virtual surplus equals brute force on 500 instances "
              f"({elapsed:.1f}s < 10s)")


def _midpoint_quadrature(integrand_vec, lo, hi, panels=10_000):
    """Composite midpoint rule with panel edges aligned to the integrand's
    discontinuities (located by bisection on the integrand itself); a uniform
    grid would let a single panel straddle a jump and eat the whole error
    budget.  ``integrand_vec`` maps an array of points to an array of
    values."""
    coarse = np.linspace(lo, hi, 129)
    values = integrand_vec(coarse)
    edges = [lo]
    for a, b, fa, fb in zip(coarse[:-1], coarse[1:], values[:-1], values[1:]):
        if fa == fb:
            continue
        x0, x1, f0 = float(a), float(b), fa
        while x1 - x0 > 1e-12:
            mid = 0.5 * (x0 + x1)
            if integrand_vec(np.array([mid]))[0] == f0:
                x0 = mid
            else:
                x1 = mid
        edges.append(0.5 * (x0 + x1))
    edges.append(hi)
    total = 0.0
    remaining = panels
    for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        share = remaining if i == len(edges) - 2 else max(
            1, round(panels * (b - a) / (hi - lo))
        )
        share = min(share, remaining)
        mids = a + (np.arange(share) + 0.5) * (b - a) / share
        total += float(integrand_vec(mids).sum()) * (b - a) / share
        remaining -= share
    return total


def test_criterion_02_payment_identity():
    rng = np.random.default_rng(102)
    start = time.time()
    worst_oracle = 0.0
    worst_midpoint = 0.0
    for _ in range(500):
        market, types = random_small_instance(rng)
        qualities, bids = truthful(market, types)
        outcome = run_2d_opt(market, qualities, bids)
        dist = market.distributions[0]
        caps = np.array([b.capacity for b in bids])
        scores = np.array(
            [dist.g_score(qualities[i], REWARD, bids[i].cost, bids[i].capacity)
             for i in range(len(bids))]
        )
        for i in range(market.n_agents):
            oracle = integral_payment(market, qualities, bids, i)
            worst_oracle = max(worst_oracle, abs(outcome.payments[i] - oracle))
            if outcome.allocation[i] == 0:
                continue
            rivals = [k for k in range(len(bids)) if k != i]
            rival_scores = scores[rivals]
            rival_caps = caps[rivals]

            def units_at(z, _i=i, _rs=rival_scores, _rc=rival_caps):
                own = REWARD * qualities[_i] - 2.0 * np.asarray(z)
                return units_vs_own_score(own, _rs, _rc, caps[_i], market.units)

            own_units = int(units_at(np.array([bids[i].cost]))[0])
            mid = bids[i].cost * own_units + _midpoint_quadrature(
                units_at, bids[i].cost, 1.0
            )
            worst_midpoint = max(worst_midpoint, abs(outcome.payments[i] - mid))
    elapsed = time.time() - start
    criterion(2, worst_oracle <= 1e-9 and worst_midpoint <= 1e-4 and elapsed < 60.0,
              f"payments match the integral oracle (worst {worst_oracle:.2e} <= 1e-9) "
              f"and midpoint quadrature (worst {worst_midpoint:.2e} <= 1e-4) "
              f"on 500 instances ({elapsed:.1f}s < 60s)")


def test_criterion_03_dsic_audit():
    rng = np.random.default_rng(103)
    start = time.time()
    worst = 0.0
    deviations = 0
    for _ in range(100):
        market, types = random_small_instance(rng)
        qualities = np.array([t.quality for t in types])
        for agent, agent_type in enumerate(types):
            grid = DeviationGrid.spanning(
                market.distributions[agent], agent_type.capacity, n_costs=21
            )
            for _profile in range(5):
                bids = [
                    t.deviated_bid(
                        cost=float(rng.uniform(0.0, 1.0)),
                        capacity=int(rng.integers(1, t.capacity + 1)),
                    )
                    for t in types
                ]
                bids[agent] = agent_type.truthful_bid()
                probe = make_opt_probe(market, qualities, bids, agent)
                units_t, pay_t = probe(agent_type.cost, agent_type.capacity)
                u_truth = pay_t - agent_type.cost * units_t
                for k in grid.capacities:  # each capacity's costs in one probe
                    units, pay = probe(grid.costs, k)
                    worst = max(worst, float(np.max(pay - agent_type.cost * units)) - u_truth)
                    deviations += len(grid.costs)
    elapsed = time.time() - start
    criterion(3, worst <= 1e-9 and elapsed < 120.0,
              f"no profitable deviation among {deviations} probes "
              f"(worst gain {worst:.2e} <= 1e-9, {elapsed:.0f}s < 2min)")


def test_criterion_04_individual_rationality():
    rng = np.random.default_rng(104)
    worst_opt = 0.0
    for _ in range(300):
        market, types = random_small_instance(rng)
        qualities, bids = truthful(market, types)
        outcome = run_2d_opt(market, qualities, bids)
        surplus = outcome.payments - np.array([t.cost for t in types]) * outcome.allocation
        worst_opt = min(worst_opt, float(surplus.min()))

    worst_ucb = 0.0
    runs = 0
    dist = uniform_type_distribution(0.0, 1.0, 1, 8)
    for _ in range(100):
        n = int(rng.integers(2, 4))
        market = MarketConfig(20, REWARD, (dist,) * n)
        types = [
            AgentType(float(rng.uniform(0, 1)), int(rng.integers(2, 9)),
                      float(rng.uniform(0, 1)))
            for _ in range(n)
        ]
        costs = np.array([t.cost for t in types])
        bids = [t.truthful_bid() for t in types]
        for _ in range(100):
            table = sample_reward_realization(
                [t.quality for t in types], 20, int(rng.integers(1 << 31))
            )
            draws = seeded_draws(market, bids, 0.1, int(rng.integers(1 << 31)))
            outcome, _ = run_2d_ucb(market, bids, table, 0.1, draws, record_trace=False)
            surplus = outcome.payments - costs * outcome.allocation
            worst_ucb = min(worst_ucb, float(surplus.min()))
            runs += 1
    criterion(4, worst_opt >= -1e-9 and worst_ucb >= -1e-12 and runs == 10_000,
              f"truthful surplus never negative: optimal auction worst "
              f"{worst_opt:.2e}, learner worst {worst_ucb:.2e} over {runs} runs")


def test_criterion_05_resampler_distribution():
    report = audit_resampler(0.1, (0.0, 1.0), 100_000, seed=105)
    stay = 1.0 - report.details["move_probability"]
    sigma = math.sqrt(0.1 * 0.9 / 100_000)
    ok = (
        report.passed
        and abs(stay - 0.9) <= 3 * sigma
        and report.details["uniform_ks_pvalue"] > 0.01
        and all(p > 0.01 for p in report.details["memoryless_ks_pvalues"])
    )
    criterion(5, ok,
              f"stay probability {stay:.4f} within 3 sigma of 0.9; uniformity KS "
              f"p={report.details['uniform_ks_pvalue']:.3f} and memorylessness KS "
              f"p>={min(report.details['memoryless_ks_pvalues']):.3f} above the 1% level")


def test_criterion_06_transformation_premium():
    # Three agents; whichever is audited bids at three interior points while
    # the rivals sit at the upper cost bound (their resamples are degenerate,
    # so the exact integral of the expected transformed allocation reduces to
    # the closed form of the resampler's law).
    start = time.time()
    mu, budget = 0.1, 6
    qualities = [0.7, 0.73, 0.71]
    capacities = [5, 2, 2]
    draws = 1_000_000
    checks = 0
    for agent in range(3):
        rivals = [j for j in range(3) if j != agent]
        rival_scores = np.array([REWARD * qualities[j] - 2.0 for j in rivals])
        rival_caps = np.array([capacities[j] for j in rivals])
        for b, bid in enumerate((0.15, 0.4, 0.8)):
            crossings = [
                (REWARD * qualities[agent] - g) / 2.0
                for g in list(rival_scores) + [0.0]
            ]
            thresholds = sorted(z for z in crossings if bid < z < 1.0)
            edges = [bid] + thresholds + [1.0]
            mids = [0.5 * (lo + hi) for lo, hi in zip(edges[:-1], edges[1:])]
            plateau = units_vs_own_score(
                REWARD * qualities[agent] - 2.0 * np.array(mids),
                rival_scores, rival_caps, capacities[agent], budget,
            )
            exact = plateau[-1] * (1.0 - bid)
            for j, threshold in enumerate(thresholds):
                piece = (threshold - bid) - (1.0 - threshold) ** (1 - mu) * (
                    (1.0 - bid) ** mu - (1.0 - threshold) ** mu
                )
                exact += (plateau[j] - plateau[j + 1]) * piece

            rng = np.random.default_rng([106, agent, b])
            alpha, beta = resample_batch(bid, 1.0, mu, draws, rng)
            units = units_vs_own_score(
                REWARD * qualities[agent] - 2.0 * alpha,
                rival_scores, rival_caps, capacities[agent], budget,
            )
            premium = np.where(beta > bid, units * (1.0 - bid) / mu, 0.0)
            stderr = premium.std(ddof=1) / math.sqrt(draws)
            assert abs(premium.mean() - exact) <= 3 * stderr, (agent, bid)
            checks += 1
    elapsed = time.time() - start
    criterion(6, checks == 9 and elapsed < 120.0,
              f"mean premium matches the exact allocation integral within 3 "
              f"standard errors at {draws} draws for 9 bid points ({elapsed:.0f}s < 2min)")


def test_criterion_07_per_realization_cost_monotonicity():
    rng = np.random.default_rng(107)
    violations = 0
    dist = uniform_type_distribution(0.0, 1.0, 1, 8)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        units = int(rng.integers(2 * n, 41))
        market = MarketConfig(units, REWARD, (dist,) * n)
        rival_bids = [
            Bid(float(rng.uniform(0, 1)), int(rng.integers(1, 9)))
            for _ in range(n - 1)
        ]
        table = sample_reward_realization(
            rng.uniform(0.0, 1.0, n), units, int(rng.integers(1 << 31))
        )
        seed = int(rng.integers(1 << 31))
        capacity = int(rng.integers(1, 9))
        previous = math.inf
        for cost in np.linspace(0.0, 1.0, 11):
            bids = [Bid(float(cost), capacity)] + rival_bids
            outcome, _ = run_2d_ucb(
                market, bids, table, 0.1, seeded_draws(market, bids, 0.1, seed), record_trace=False
            )
            if outcome.allocation[0] > previous:
                violations += 1
            previous = outcome.allocation[0]
    criterion(7, violations == 0,
              "total units to the deviating agent non-increasing along an "
              "11-point cost grid on 200 fixed (instance, realization) pairs")


def test_criterion_08_stochastic_bic_audit(monkeypatch):
    start = time.time()
    types = [AgentType(0.35, 5, 0.8), AgentType(0.55, 4, 0.6), AgentType(0.5, 4, 0.7)]
    dist = uniform_type_distribution(0.0, 1.0, 1, 6)
    market = MarketConfig(50, REWARD, (dist,) * 3)
    bids = [t.truthful_bid() for t in types]
    qualities = np.array([t.quality for t in types])
    samples = 100_000

    reports = []
    for agent, agent_type in enumerate(types):
        batch = make_ucb_batch_utility(
            market, bids, agent, agent_type.cost, qualities, 0.1, samples,
            seed=[108, agent],
        )
        grid = DeviationGrid(
            np.linspace(0.0, 1.0, 11), tuple(range(1, agent_type.capacity + 1))
        )
        reports.append(
            audit_stochastic_bic(batch, agent_type.cost, agent_type.capacity, grid)
        )
    honest_ok = all(r.passed and not r.inconclusive for r in reports)

    # The premium-stripped variant pays the bid cost alone.
    monkeypatch.setattr(bandit, "transform_premium", lambda *args: 0.0)
    stripped_batch = make_ucb_batch_utility(
        market, bids, 0, types[0].cost, qualities, 0.1, samples, seed=[108, 0],
    )
    grid0 = DeviationGrid(np.linspace(0.0, 1.0, 11), tuple(range(1, types[0].capacity + 1)))
    stripped = audit_stochastic_bic(stripped_batch, types[0].cost, types[0].capacity, grid0)
    elapsed = time.time() - start
    criterion(8, honest_ok and not stripped.passed and elapsed < 600.0,
              f"truthful mean within 3 paired standard errors of every deviation "
              f"for all 3 agents at {samples} samples; premium-stripped variant "
              f"fails as required ({elapsed:.0f}s < 10min)")


def test_criterion_09_trend_reproduction():
    start = time.time()
    config = ExperimentConfig(
        l_grid=(1000, 3162, 10000), type_samples=50, realizations=20, master_seed=123
    )
    rows = run_experiment(config, threads=2)
    by = {(r.mechanism, r.units): r for r in rows}

    # (a) benchmark flat across budgets.  The benchmark is deterministic per
    # type sample (its realizations repeat one value), and a type sample has
    # the same costs and qualities at every budget, so the test pairs the
    # per-type values across budgets: the paired differences leave out the
    # spread between type samples, which every budget shares.
    per_type = {units: [] for units in config.l_grid}
    for l_index, units in enumerate(config.l_grid):
        for ts in range(config.type_samples):
            rng_types = np.random.default_rng(
                np.random.SeedSequence([config.master_seed, 11, ts])
            )
            costs = rng_types.uniform(0.0, 1.0, config.n)
            quals = rng_types.uniform(0.5, 1.0, config.n)
            cap_lo, cap_hi = config.cap_bounds(units)
            rng_caps = np.random.default_rng(
                np.random.SeedSequence([config.master_seed, 12, ts, l_index])
            )
            caps = rng_caps.integers(cap_lo, cap_hi, config.n, endpoint=True)
            d = uniform_type_distribution(0.0, 1.0, cap_lo, cap_hi)
            market = MarketConfig(units, config.reward_scale, (d,) * config.n)
            bid_list = [Bid(float(costs[i]), int(caps[i])) for i in range(config.n)]
            value = run_2d_opt(market, quals, bid_list).auctioneer_utility / units
            per_type[units].append(value)
    flat = True
    for a in config.l_grid:
        for b in config.l_grid:
            if a >= b:
                continue
            diff = np.array(per_type[a]) - np.array(per_type[b])
            se = diff.std(ddof=1) / math.sqrt(diff.size)
            if abs(diff.mean()) > 2 * se:
                flat = False

    benchmark = {u: by[("opt", u)].mean_utility_per_unit for u in config.l_grid}
    gaps = [abs(by[("ucb", u)].mean_utility_per_unit - benchmark[u]) for u in config.l_grid]
    decreasing = gaps[0] > gaps[1] > gaps[2]

    top = config.l_grid[-1]
    eps_labels = [f"eps-{s}" for s in ("1/6", "1/3", "1/2", "2/3")]
    eps_gaps = {
        label: abs(by[(label, top)].mean_utility_per_unit - benchmark[top])
        for label in eps_labels
    }
    superior = all(gaps[-1] < g for g in eps_gaps.values())
    elapsed = time.time() - start
    criterion(9, flat and decreasing and superior and elapsed < 1800.0,
              f"benchmark flat (paired, 2 SE); learner gaps "
              f"{', '.join(f'{g:.3f}' for g in gaps)} strictly decreasing; at "
              f"L={top} learner gap {gaps[-1]:.3f} beats "
              f"{', '.join(f'{k}={v:.3f}' for k, v in eps_gaps.items())} "
              f"({elapsed:.0f}s < 30min)")


def test_criterion_10_simulation_determinism(tmp_path):
    conf = tmp_path / "tiny.ini"
    conf.write_text(
        "[market]\nn = 3\n\n[experiment]\nl_grid = 30,60\ntype_samples = 3\n"
        "realizations = 2\nmaster_seed = 11\n"
    )
    one = tmp_path / "one"
    eight = tmp_path / "eight"
    assert cli_main(["simulate", "--config", str(conf), "--out", str(one),
                     "--threads", "1"]) == 0
    assert cli_main(["simulate", "--config", str(conf), "--out", str(eight),
                     "--threads", "8"]) == 0
    identical = (one / "results.csv").read_bytes() == (eight / "results.csv").read_bytes()
    criterion(10, identical, "results CSV byte-identical on 1 and 8 worker processes")
