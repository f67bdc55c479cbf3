"""Property auditors for the incentive guarantees.

Each audit probes a mechanism through a narrow functional interface (a probe
mapping one agent's deviating bids at one capacity, one cost or an array of
costs, to that agent's outcomes) so the same machinery exercises the shipped
mechanisms and deliberately broken ones.
Every audit builds its ``AuditReport`` first and hands each checked point's
excess over the tolerance to ``AuditReport.note``, the one verdict rule: the
report keeps the worst excess and the witness of its first occurrence, and a
NaN excess counts as ``+inf``, so a check that computed nothing fails.
Reports also carry the sampling parameters and serialize to a one-line
record.

Statistical audits use paired common random numbers: identical reward tables
(one stack drawn by ``model._draw_tables``) and resampling draws across
every deviation, so measured differences reflect the bid change alone.  The
learner's audit runs ``run_2d_ucb`` on a stack and reads its payments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .bandit import run_2d_ucb
from .model import (
    Bid, MarketConfig, RewardRealization, TypeDistribution, _check_qualities, _draw_tables,
)
from .optimal import run_2d_opt
from .resample import child_states, generator_at, resample_batch

__all__ = [
    "AuditReport",
    "DeviationGrid",
    "audit_monotone_allocation",
    "audit_offered_utility",
    "audit_dsic",
    "audit_stochastic_bic",
    "audit_resampler",
    "audit_iia",
    "make_opt_probe",
    "make_ucb_batch_utility",
]


def _nan_as_inf(value: float) -> float:
    return math.inf if math.isnan(value) else value


@dataclass
class AuditReport:
    """Outcome of one audited property.

    ``note`` keeps the largest excess as ``violation`` (a NaN excess counts
    as ``+inf``) and the witness of its first occurrence.  ``passed`` holds
    exactly when ``violation <= tolerance``; ``inconclusive`` marks audits
    whose sample size cannot support a verdict.
    """

    name: str
    violation: float
    tolerance: float
    witness: dict | None = None
    details: dict = field(default_factory=dict)
    inconclusive: bool = False

    def note(self, excess: float, witness: dict) -> None:
        excess = _nan_as_inf(excess)
        if excess > self.violation:
            self.violation = excess
            self.witness = witness

    @property
    def passed(self) -> bool:
        return self.violation <= self.tolerance

    @property
    def status(self) -> str:
        if self.inconclusive:
            return "inconclusive"
        return "pass" if self.passed else "fail"

    def line(self) -> str:
        extras = " ".join(f"{k}={v}" for k, v in self.details.items())
        witness = f" witness={self.witness}" if self.witness else ""
        return (
            f"{self.name} status={self.status} violation={self.violation:.6g} "
            f"tolerance={self.tolerance:.6g}"
            + (f" {extras}" if extras else "")
            + witness
        )


@dataclass(frozen=True)
class DeviationGrid:
    """Bid deviations to sweep: costs within the prior bounds, capacities
    never above the agent's true capacity (over-reports are not a legal
    deviation, so they are not audited)."""

    costs: np.ndarray
    capacities: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "costs", np.asarray(self.costs, dtype=float))
        object.__setattr__(self, "capacities", tuple(int(k) for k in self.capacities))
        if any(k < 0 for k in self.capacities):
            raise ValueError("capacity deviations must be >= 0")

    def sweep(self, true_capacity: int) -> list[tuple[float, int]]:
        """Every (cost, capacity) deviation, capacity by capacity; refused if
        a capacity exceeds ``true_capacity``."""
        if any(k > true_capacity for k in self.capacities):
            raise ValueError("deviation grid exceeds the true capacity")
        return [(float(c), k) for k in self.capacities for c in self.costs]

    @classmethod
    def spanning(
        cls, dist: TypeDistribution, true_capacity: int, n_costs: int = 21
    ) -> "DeviationGrid":
        lo, hi = dist.cost_bounds
        cap_lo = min(dist.cap_bounds[0], true_capacity)
        return cls(np.linspace(lo, hi, n_costs), tuple(range(cap_lo, true_capacity + 1)))


# -- probes -----------------------------------------------------------------


def make_opt_probe(
    config: MarketConfig, qualities, bids: Sequence[Bid], agent: int
) -> Callable[[float | np.ndarray, int], tuple]:
    """Probe of the optimal auction for one agent, everyone else's bids held
    fixed: (cost, capacity) -> (units, payment), or for a 1-D array of costs
    at one capacity, the arrays (units, payments).  Each distinct bid runs the
    auction once: a call runs the bids no earlier call ran, as the rows of one
    ``run_2d_opt`` call, and every audit sharing the probe reuses the runs."""
    bids = list(bids)
    runs: dict[tuple[float, int], tuple[int, float]] = {}

    def probe(cost, capacity):
        points = np.asarray(cost, dtype=float)
        costs = points.ravel().tolist()
        missing = [c for c in dict.fromkeys(costs) if (c, capacity) not in runs]
        if missing:
            profiles = [bids[:agent] + [Bid(c, capacity)] + bids[agent + 1 :] for c in missing]
            for c, outcome in zip(missing, run_2d_opt(config, qualities, profiles)):
                runs[c, capacity] = int(outcome.allocation[agent]), float(outcome.payments[agent])
        if not points.ndim:
            return runs[costs[0], capacity]
        units, payments = np.array([runs[c, capacity] for c in costs]).reshape(-1, 2).T
        return units.astype(np.int64), payments

    return probe


def run_ucb_batch(config, bids, realizations, mu, draws):
    """``run_2d_ucb``'s allocation and payments on a stack, named for the benchmark's tracer."""
    outcome, _ = run_2d_ucb(config, bids, realizations, mu, draws, record_trace=False)
    return outcome.allocation, outcome.payments


def make_ucb_batch_utility(
    config: MarketConfig,
    bids: Sequence[Bid],
    agent: int,
    true_cost: float,
    true_qualities,
    mu: float,
    samples: int,
    seed,
) -> Callable[[float, int], np.ndarray]:
    """Batched utility estimator for the learning auction.

    Returns a function (cost, capacity) -> per-sample utilities of ``agent``
    with true cost ``true_cost``: the payment ``run_2d_ucb`` makes it on a
    stack of ``samples`` runs, less ``true_cost`` times the units it buys.
    The truthful profile is admitted by ``MarketConfig.check_bids`` up front
    and every deviated one by ``run_2d_ucb``, and ``true_qualities`` must
    pass the quality rule ``run_2d_opt`` applies.  Reward tables (one
    ``RewardRealization`` stack) and rival resampling draws are drawn once
    and shared across calls; the deviating agent's resampler is seeded
    identically for every cost, giving paired, monotone-coupled samples
    across deviations.  Its draw depends on the cost alone, so the function
    keeps one draw per distinct cost it is called with and reuses it for
    every capacity.
    """
    config.check_bids(bids)
    n = config.n_agents
    qualities = _check_qualities(true_qualities, n)
    states = child_states(seed, 3)
    _, rival_state, dev_state = states

    stack = np.empty((samples, n, config.units), dtype=bool)
    _draw_tables(states[:1], qualities, stack)
    realizations = RewardRealization(stack)

    # The draws ``(alpha, beta)``, one row per agent: the rivals' drawn here,
    # in index order on one stream; the deviating agent's row is set per call.
    rival_rng = generator_at(rival_state)
    draws = np.empty((2, n, samples))
    for j in range(n):
        if j != agent:
            draws[:, j] = resample_batch(bids[j].cost, config.distributions[j].cost_bounds[1],
                                         mu, samples, rival_rng)
    cost_hi = config.distributions[agent].cost_bounds[1]

    @functools.cache
    def draw(cost: float) -> tuple[np.ndarray, np.ndarray]:
        return resample_batch(cost, cost_hi, mu, samples, generator_at(dev_state))

    def batch_utility(cost: float, capacity: int) -> np.ndarray:
        trial = list(bids)
        trial[agent] = Bid(cost, capacity)
        draws[0, agent], draws[1, agent] = draw(cost)
        units, payments = run_ucb_batch(config, trial, realizations, mu, draws.transpose(0, 2, 1))
        return payments[:, agent] - true_cost * units[:, agent]

    return batch_utility


# -- audits -------------------------------------------------------------------

# Round-off allowed in the exact audits: the premium's shape conditions and a
# deviation's gain over truthful bidding.
_ROUND_OFF = 1e-9
# Allowed mismatch between the premium and the integral of the allocation.
_INTEGRAL_TOL = 1e-6
# Evenly spaced points ``_scan_capacity`` probes at each capacity, besides the
# grid costs, before bisecting the cells whose ends differ.
_STEP_POINTS = 65
# A stochastic deviation fails when its mean gain exceeds this many paired
# standard errors; below ``_MIN_SAMPLES`` samples the verdict is inconclusive.
_SE_MULT = 3.0
_MIN_SAMPLES = 1000
# Smallest KS p-value the resampler audit accepts.
_SIGNIFICANCE = 0.01


def _swept(values, size: int) -> list:
    """A probe's answer for ``size`` costs as a list, one value standing for
    every cost."""
    return np.broadcast_to(values, (size,)).tolist()


def audit_monotone_allocation(
    probe: Callable[[np.ndarray, int], np.ndarray], grid: DeviationGrid,
    name: str = "allocation-monotone",
) -> AuditReport:
    """Allocation non-increasing in reported cost at every capacity grid
    point, each capacity's costs probed in one call.  Allocations are
    integers, so the tolerance is zero."""
    report = AuditReport(
        name, 0.0, 0.0,
        details={"cost_points": len(grid.costs), "capacity_points": len(grid.capacities)},
    )
    costs = grid.costs.tolist()
    for k in grid.capacities:
        units = _swept(probe(grid.costs, k), len(costs))
        for c0, c1, u0, u1 in zip(costs, costs[1:], units, units[1:]):
            report.note(float(u1 - u0), {"capacity": k, "cost_low": c0, "cost_high": c1,
                                         "units_low": u0, "units_high": u1})
    return report


def _scan_capacity(probe: Callable[[np.ndarray, int], tuple], capacity: int,
                   starts: Sequence[float], hi: float) -> dict[float, tuple[float, float]]:
    """For each point x of one scan of ``probe`` at ``capacity`` (the starts and
    ``_STEP_POINTS`` spanning ``[min(starts), hi]``): the premium ``payment -
    x * units`` and the integral of the allocation from x to ``hi``, a suffix
    sum of exact cell segments.  Cells whose ends differ are bisected down to
    width 1e-12; a monotone allocation is constant across an equal-ended cell.
    The scan points are probed in one call, then each level of the bisection
    in one call.  Each cell sums its segments from right to left.
    """
    xs = sorted({*map(float, np.linspace(min(starts, default=hi), hi, _STEP_POINTS)), *starts})
    units, payments = (_swept(side, len(xs)) for side in probe(np.array(xs), capacity))
    segments = [[] for _ in xs]  # per cell: (left end, exact segment) of each piece
    split = [(j, a, b, f0, f1) for j, (a, b, f0, f1) in
             enumerate(zip(xs, xs[1:], units, units[1:]))]
    while split:
        pieces, split = split, []
        for j, x0, x1, f0, f1 in pieces:
            if f0 == f1 or x1 - x0 < 1e-12:  # equal ends: 0.5 * (f0 + f1) is f0 exactly
                segments[j].append((x0, 0.5 * (f0 + f1) * (x1 - x0)))
            else:
                split.append((j, x0, x1, f0, f1))
        mids = [0.5 * (x0 + x1) for _, x0, x1, _, _ in split]
        if mids:
            at_mid = _swept(probe(np.array(mids), capacity)[0], len(mids))
            split = [piece for (j, x0, x1, f0, f1), mid, fm in zip(split, mids, at_mid)
                     for piece in ((j, x0, mid, f0, fm), (j, mid, x1, fm, f1))]
    above = {xs[-1]: 0.0}  # integral from each scan point to the last
    for j in reversed(range(len(xs) - 1)):
        total = 0.0
        for _, segment in sorted(segments[j], reverse=True):
            total += segment
        above[xs[j]] = above[xs[j + 1]] + total
    return {x: (payment - x * u, above[x] - above[hi])
            for x, u, payment in zip(xs, units, payments)}


def audit_offered_utility(
    probe: Callable[[float, int], tuple[int, float]],
    grid: DeviationGrid,
    cost_hi: float,
    *,
    name: str = "offered-utility",
) -> AuditReport:
    """The premium above bid cost must be non-negative, non-decreasing in the
    reported capacity, and must fall off with the reported cost exactly as
    the integral of the allocation (the payment-identity condition).

    The allocation is learnt only through the probe, by one
    ``_scan_capacity`` per capacity: a step-free probe is called at most
    ``_STEP_POINTS + len(grid.costs)`` times per capacity.

    Violations of the two shape conditions count against ``_ROUND_OFF``;
    the integral identity against ``_INTEGRAL_TOL``.  The report's violation is
    the worst excess over the applicable tolerance; ``details`` keeps each
    check's largest amount, a NaN counting as ``+inf``.
    """
    costs = [float(c) for c in grid.costs]
    report = AuditReport(name, 0.0, 0.0, details=dict.fromkeys(
        ("nonneg_violation", "capacity_monotone_violation", "integral_mismatch"), 0.0))

    def check(kind: str, amount: float, tolerance: float, **where) -> None:
        report.note(amount - tolerance, dict(where, check=kind))
        report.details[kind] = max(report.details[kind], _nan_as_inf(amount))

    by_cost: dict[float, list[tuple[int, float]]] = {}
    for k in grid.capacities:
        scan = _scan_capacity(probe, k, costs, cost_hi)
        rho_top = scan[cost_hi][0]
        check("nonneg_violation", -min(rho_top, 0.0), _ROUND_OFF, cost=cost_hi, capacity=k)
        for c in costs:
            value, integral = scan[c]
            check("nonneg_violation", -min(value, 0.0), _ROUND_OFF, cost=c, capacity=k)
            by_cost.setdefault(c, []).append((k, value))
            check("integral_mismatch", abs(value - rho_top - integral), _INTEGRAL_TOL,
                  cost=c, capacity=k, integral=integral)
    for c, pairs in by_cost.items():
        pairs.sort()
        for (k0, r0), (k1, r1) in zip(pairs[:-1], pairs[1:]):
            check("capacity_monotone_violation", max(r0 - r1, 0.0), _ROUND_OFF,
                  cost=c, capacity_low=k0, capacity_high=k1)
    return report


def audit_dsic(
    probe: Callable[[float | np.ndarray, int], tuple],
    true_cost: float,
    true_capacity: int,
    grid: DeviationGrid,
    *,
    name: str = "dominant-strategy-truthfulness",
) -> AuditReport:
    """No grid deviation may beat truthful bidding by more than
    ``_ROUND_OFF``, with the rival profile held fixed.  The truthful bid is
    probed alone, then each capacity's costs in one call."""
    units_t, pay_t = probe(true_cost, true_capacity)
    u_truth = pay_t - true_cost * units_t
    deviations = grid.sweep(true_capacity)
    report = AuditReport(
        name, 0.0, _ROUND_OFF,
        details={"truthful_utility": u_truth, "deviations": len(deviations)},
    )
    costs = grid.costs.tolist()
    for k in grid.capacities:
        units, pays = (_swept(side, len(costs)) for side in probe(grid.costs, k))
        for c, u, pay in zip(costs, units, pays):
            u_dev = pay - true_cost * u
            report.note(u_dev - u_truth, {"cost": c, "capacity": k, "deviation_utility": u_dev,
                                          "truthful_utility": u_truth})
    return report


def audit_stochastic_bic(
    batch_utility: Callable[[float, int], np.ndarray],
    true_cost: float,
    true_capacity: int,
    grid: DeviationGrid,
    *,
    name: str = "stochastic-truthfulness",
) -> AuditReport:
    """Mean truthful utility must not trail any deviation's mean by more than
    ``_SE_MULT`` paired standard errors.

    ``batch_utility`` must reuse common random numbers across calls; the
    comparison is paired per sample.  Too few samples for the verdict is
    reported as inconclusive rather than as a failure.
    """
    u_truth = np.asarray(batch_utility(true_cost, true_capacity), dtype=float)
    samples = u_truth.size
    report = AuditReport(
        name, 0.0, 0.0,
        details={"samples": samples, "se_mult": _SE_MULT,
                 "truthful_mean": float(u_truth.mean()), "worst_margin": math.inf},
        inconclusive=samples < _MIN_SAMPLES,
    )
    for c, k in grid.sweep(true_capacity):
        diff = np.asarray(batch_utility(c, k), dtype=float) - u_truth
        mean = float(diff.mean())
        se = float(diff.std(ddof=1) / math.sqrt(samples)) if samples > 1 else math.inf
        excess = mean - _SE_MULT * se
        report.details["worst_margin"] = min(report.details["worst_margin"],
                                             -_nan_as_inf(excess))
        report.note(excess, {"cost": c, "capacity": k, "mean_gain": mean, "stderr": se})
    return report


def audit_resampler(
    mu: float,
    bounds: tuple[float, float],
    samples: int,
    seed,
    *,
    name: str = "resampler-law",
) -> AuditReport:
    """The four distributional guarantees of the self-resampler.

    1. alpha and beta are non-decreasing in the bid under a shared seed.
    2. Exactly two branches: (alpha = beta = bid) with probability 1 - mu
       (checked to 3 binomial sigma), otherwise cost_hi >= alpha >= beta > bid
       on every draw.
    3. Memorylessness: conditional on beta landing near c', alpha is
       distributed as a fresh draw's alpha at bid c' (two-sample KS per bin).
    4. Conditional on moving, beta is uniform on [bid, cost_hi] (one-sample
       KS).  With no moved draw this law goes untested, and the report is
       inconclusive unless another check has failed.
    """
    # Imported here: scipy takes longer to import than the rest of the
    # package, and nothing else needs it.
    from scipy import stats

    lo, hi = bounds
    main_state, couple_state, fresh_state = child_states(seed, 3)

    alpha, beta = resample_batch(lo, hi, mu, samples, generator_at(main_state))
    report = AuditReport(name, 0.0, 0.0, details={"samples": samples, "mu": mu})
    details = report.details

    # 2. branch split and output ordering
    moved = beta > lo
    p_hat = float(moved.mean())
    sigma = math.sqrt(mu * (1.0 - mu) / samples)
    details["move_probability"] = p_hat
    report.note(abs(p_hat - mu) - 3.0 * sigma, {"check": "branch-probability", "p_hat": p_hat})
    order_violation = float(
        max(
            (beta - alpha).max(initial=-math.inf),
            (lo - beta).max(initial=-math.inf),
            (alpha - hi).max(initial=-math.inf),
        )
    )
    details["ordering_violation"] = max(_nan_as_inf(order_violation), 0.0)
    report.note(order_violation, {"check": "ordering"})

    # 1. monotone coupling across a bid grid
    couple_n = max(samples // 10, 100)
    grid = np.linspace(lo, hi, 9)
    prev = None
    for c in grid:
        pair = resample_batch(float(c), hi, mu, couple_n, generator_at(couple_state))
        if prev is not None:
            drop = float(max((prev[0] - pair[0]).max(), (prev[1] - pair[1]).max()))
            report.note(drop, {"check": "coupled-monotonicity", "bid": float(c)})
        prev = pair
    details["coupling_draws"] = couple_n

    # 4. conditional uniformity of beta
    cond_beta = beta[moved]
    if cond_beta.size:
        pvalue = float(stats.kstest(cond_beta, "uniform", args=(lo, hi - lo)).pvalue)
        details["uniform_ks_pvalue"] = pvalue
        report.note(_SIGNIFICANCE - pvalue, {"check": "beta-uniformity", "pvalue": pvalue})
    else:
        report.inconclusive = report.passed

    # 3. memorylessness on binned beta.  The conditional law of alpha carries
    # an atom at beta itself, so each conditioned draw is compared against a
    # fresh full-procedure draw at that draw's own beta: within a bin the two
    # samples then mix the atom identically and must agree in law.
    fresh_rng = generator_at(fresh_state)
    width = (hi - lo) / 40.0
    memoryless_p = []
    cond_alpha_all = alpha[moved]
    for quantile in (0.25, 0.5, 0.75):
        center = lo + quantile * (hi - lo)
        in_bin = np.abs(cond_beta - center) <= width
        if in_bin.sum() < 50:
            continue
        cond_alpha = cond_alpha_all[in_bin]
        fresh_alpha, _ = resample_batch(
            cond_beta[in_bin], hi, mu, int(in_bin.sum()), fresh_rng
        )
        pvalue = float(stats.ks_2samp(cond_alpha, fresh_alpha).pvalue)
        memoryless_p.append(pvalue)
        report.note(_SIGNIFICANCE - pvalue, {"check": "memorylessness",
                                             "bin_center": float(center), "pvalue": pvalue})
    details["memoryless_ks_pvalues"] = memoryless_p
    return report


def audit_iia(
    baseline_choices: Sequence[int],
    perturbed_choices: Sequence[int],
    changed_agent: int,
    *,
    name: str = "independence-of-irrelevant-alternatives",
) -> AuditReport:
    """At the first round where two runs differing only in one agent's bid
    choose different winners, that agent must be one of the two winners.

    Vacuous with fewer than three agents; such audits report inconclusive.
    """
    n_agents = max(list(baseline_choices) + list(perturbed_choices), default=-1) + 1
    if n_agents < 3:
        return AuditReport(
            name, 0.0, 0.0,
            details={"note": "vacuous with fewer than three agents; skipped"},
            inconclusive=True,
        )
    for round_idx, (a, b) in enumerate(zip(baseline_choices, perturbed_choices)):
        if a != b:
            ok = changed_agent in (a, b)
            return AuditReport(
                name, 0.0 if ok else 1.0, 0.0,
                witness=None if ok else {"round": round_idx, "from": a, "to": b},
                details={"first_divergence": round_idx},
            )
    return AuditReport(name, 0.0, 0.0, details={"first_divergence": None})
