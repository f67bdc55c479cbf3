"""Property auditors for the incentive guarantees.

Each audit probes a mechanism through a narrow functional interface (a probe
mapping one agent's deviating bid to that agent's outcome) so the same
machinery exercises the shipped mechanisms and deliberately broken ones.
Reports carry the worst observed violation, the witness bid that produced it,
and the sampling parameters, and serialize to a one-line record or a readable
block.

Statistical audits use paired common random numbers: identical reward tables
and resampling draws across every deviation, so measured differences reflect
the bid change alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import stats

from .bandit import run_ucb_batch
from .model import Bid, MarketConfig, TypeDistribution
from .optimal import run_2d_opt
from .resample import child_seeds, resample_batch, transform_premium

__all__ = [
    "AuditReport",
    "DeviationGrid",
    "audit_monotone_allocation",
    "audit_offered_utility",
    "audit_offered_utility_expected",
    "audit_dsic",
    "audit_stochastic_bic",
    "audit_resampler",
    "audit_iia",
    "make_opt_probe",
    "make_ucb_units_probe",
    "make_ucb_batch_utility",
]


@dataclass
class AuditReport:
    """Outcome of one audited property.

    ``passed`` is False exactly when ``violation`` exceeds ``tolerance``;
    ``inconclusive`` marks audits whose sample size cannot support a verdict.
    """

    name: str
    violation: float
    tolerance: float
    passed: bool = field(init=False)
    witness: dict | None = None
    details: dict = field(default_factory=dict)
    inconclusive: bool = False

    def __post_init__(self):
        self.passed = self.violation <= self.tolerance

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

    def text_block(self) -> str:
        lines = [f"audit: {self.name}", f"status: {self.status}",
                 f"worst violation: {self.violation:.6g} (tolerance {self.tolerance:.6g})"]
        for k, v in self.details.items():
            lines.append(f"{k}: {v}")
        if self.witness:
            lines.append(f"witness: {self.witness}")
        return "\n".join(lines)


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
) -> Callable[[float, int], tuple[int, float]]:
    """Probe of the optimal auction: (cost, capacity) -> (units, payment) for
    one agent, everyone else's bids held fixed."""
    bids = list(bids)

    def probe(cost: float, capacity: int) -> tuple[int, float]:
        trial = list(bids)
        trial[agent] = Bid(cost, capacity)
        outcome = run_2d_opt(config, qualities, trial)
        return int(outcome.allocation[agent]), float(outcome.payments[agent])

    return probe


def make_ucb_units_probe(
    config: MarketConfig,
    bids: Sequence[Bid],
    realization,
    agent: int,
    mu: float,
    seed,
) -> Callable[[float, int], int]:
    """Per-realization probe of the learning auction: total units procured
    from one agent with the reward table, rival bids, and resampling seed all
    held fixed (the seed couples the agent's resampled cost monotonically
    across its bid deviations)."""
    from .bandit import run_2d_ucb

    bids = list(bids)

    def probe(cost: float, capacity: int) -> int:
        trial = list(bids)
        trial[agent] = Bid(cost, capacity)
        outcome, _ = run_2d_ucb(
            config, trial, realization, mu, seed, record_trace=False
        )
        return int(outcome.allocation[agent])

    return probe


# Samples per chunk of the reward-table draw in ``make_ucb_batch_utility``.
_DRAW_CHUNK = 1000


def make_ucb_batch_utility(
    config: MarketConfig,
    bids: Sequence[Bid],
    agent: int,
    true_cost: float,
    true_qualities,
    mu: float,
    samples: int,
    seed,
    *,
    premium: bool = True,
) -> Callable[[float, int], np.ndarray]:
    """Batched utility estimator for the learning auction.

    Returns a function (cost, capacity) -> per-sample utilities of ``agent``
    with true cost ``true_cost``.  Reward tables and rival resampling draws
    are drawn once and shared across calls; the deviating agent's resampler
    is re-seeded identically per call, giving paired, monotone-coupled
    samples across deviations.  ``premium=False`` strips the transformation
    premium from the payment (the counterexample mechanism).
    """
    n = config.n_agents
    q = np.asarray(true_qualities, dtype=float)
    realization_seed, rival_seed, dev_seed = child_seeds(seed, 3)

    # The same uniforms as one ``rng.random((samples, n, units))`` draw, taken
    # in chunks of samples so that no float table of the full size is built.
    rng = np.random.default_rng(realization_seed)
    realizations = np.empty((samples, n, config.units), dtype=np.uint8)
    uniforms = np.empty((min(samples, _DRAW_CHUNK), n, config.units))
    for start in range(0, samples, _DRAW_CHUNK):
        block = realizations[start : start + _DRAW_CHUNK]
        chunk = uniforms[: len(block)]
        rng.random(out=chunk)
        np.less(chunk, q[:, None], out=block)

    rival_rng = np.random.default_rng(rival_seed)
    rival_h = np.empty((samples, n))
    for j in range(n):
        if j == agent:
            continue
        dist = config.distributions[j]
        alpha_j, _ = resample_batch(
            bids[j].cost, dist.cost_bounds[1], mu, samples, rival_rng
        )
        rival_h[:, j] = dist.virtual_cost_array(alpha_j, bids[j].capacity)

    dist_a = config.distributions[agent]
    cost_hi = dist_a.cost_bounds[1]
    base_caps = np.array([b.capacity for b in bids], dtype=np.int64)

    def batch_utility(cost: float, capacity: int) -> np.ndarray:
        alpha, beta = resample_batch(
            cost, cost_hi, mu, samples, np.random.default_rng(dev_seed)
        )
        h = rival_h.copy()
        h[:, agent] = dist_a.virtual_cost_array(alpha, capacity)
        caps = base_caps.copy()
        caps[agent] = capacity
        units, _ = run_ucb_batch(config.reward_scale, h, caps, realizations)
        mine = units[:, agent].astype(float)
        utility = (cost - true_cost) * mine
        if premium:
            utility += transform_premium(mine, mu, cost, cost_hi, beta)
        return utility

    return batch_utility


# -- audits -------------------------------------------------------------------


def audit_monotone_allocation(
    probe: Callable[[float, int], int], grid: DeviationGrid, name: str = "allocation-monotone"
) -> AuditReport:
    """Allocation non-increasing in reported cost at every capacity grid
    point.  Allocations are integers, so the tolerance is zero."""
    worst = 0.0
    witness = None
    for k in grid.capacities:
        prev_units = None
        prev_cost = None
        for c in grid.costs:
            units = probe(float(c), k)
            if prev_units is not None and units - prev_units > worst:
                worst = float(units - prev_units)
                witness = {"capacity": k, "cost_low": prev_cost, "cost_high": float(c),
                           "units_low": prev_units, "units_high": units}
            prev_units, prev_cost = units, float(c)
    return AuditReport(
        name, worst, 0.0, witness=witness,
        details={"cost_points": len(grid.costs), "capacity_points": len(grid.capacities)},
    )


def _step_integral(fn: Callable[[float], float], lo: float, hi: float, coarse: int = 65) -> float:
    """Exact integral of a monotone step function via jump bisection.

    Scans a coarse grid and bisects every cell whose endpoints differ down to
    width 1e-12; within a constant-valued cell monotonicity guarantees the
    function is constant throughout.
    """
    xs = np.linspace(lo, hi, coarse)
    vals = [fn(float(x)) for x in xs]
    total = 0.0
    for a, b, fa, fb in zip(xs[:-1], xs[1:], vals[:-1], vals[1:]):
        a, b = float(a), float(b)
        if fa == fb:
            total += fa * (b - a)
            continue
        stack = [(a, b, fa, fb)]
        while stack:
            x0, x1, f0, f1 = stack.pop()
            if f0 == f1:
                total += f0 * (x1 - x0)
            elif x1 - x0 < 1e-12:
                total += 0.5 * (f0 + f1) * (x1 - x0)
            else:
                mid = 0.5 * (x0 + x1)
                fm = fn(mid)
                stack.append((x0, mid, f0, fm))
                stack.append((mid, x1, fm, f1))
    return total


def audit_offered_utility(
    probe: Callable[[float, int], tuple[int, float]],
    grid: DeviationGrid,
    cost_hi: float,
    *,
    shape_tol: float = 1e-9,
    integral_tol: float = 1e-6,
    name: str = "offered-utility",
) -> AuditReport:
    """The premium above bid cost must be non-negative, non-decreasing in the
    reported capacity, and must fall off with the reported cost exactly as
    the integral of the allocation (the payment-identity condition).

    Violations of the two shape conditions count against ``shape_tol``; the
    integral identity against ``integral_tol``.  The report's violation is
    the worst excess over the applicable tolerance.
    """

    def rho(c: float, k: int) -> float:
        units, payment = probe(c, k)
        return payment - c * units

    worst_excess = 0.0
    witness = None
    detail = {"nonneg_violation": 0.0, "capacity_monotone_violation": 0.0,
              "integral_mismatch": 0.0}

    def note(excess: float, raw: float, kind: str, info: dict):
        nonlocal worst_excess, witness
        detail[kind] = max(detail[kind], raw)
        if excess > worst_excess:
            worst_excess = excess
            witness = dict(info, check=kind)

    by_cost: dict[float, list[tuple[int, float]]] = {}
    for k in grid.capacities:
        rho_top = rho(cost_hi, k)
        note(-min(rho_top, 0.0) - shape_tol, -min(rho_top, 0.0), "nonneg_violation",
             {"cost": cost_hi, "capacity": k})
        for c in grid.costs:
            c = float(c)
            value = rho(c, k)
            note(-min(value, 0.0) - shape_tol, -min(value, 0.0), "nonneg_violation",
                 {"cost": c, "capacity": k})
            by_cost.setdefault(c, []).append((k, value))
            integral = _step_integral(lambda z: probe(z, k)[0], c, cost_hi)
            mismatch = abs(value - rho_top - integral)
            note(mismatch - integral_tol, mismatch, "integral_mismatch",
                 {"cost": c, "capacity": k, "integral": integral})
    for c, pairs in by_cost.items():
        pairs.sort()
        for (k0, r0), (k1, r1) in zip(pairs[:-1], pairs[1:]):
            drop = r0 - r1
            note(drop - shape_tol, max(drop, 0.0), "capacity_monotone_violation",
                 {"cost": c, "capacity_low": k0, "capacity_high": k1})

    return AuditReport(name, worst_excess, 0.0, witness=witness, details=detail)


def audit_offered_utility_expected(
    probes: Sequence[Callable[[float, int], tuple[int, float]]],
    grid: DeviationGrid,
    cost_hi: float,
    *,
    se_mult: float = 3.0,
    shape_tol: float = 1e-9,
    name: str = "offered-utility-expected",
) -> AuditReport:
    """Expectation-over-rivals form of the offered-utility audit.

    ``probes`` holds one per-profile probe per sampled rival profile.  The
    shape conditions are checked on the profile means; the payment-identity
    residual is computed exactly per profile and its mean must sit within
    ``se_mult`` standard errors of zero.  Expensive, hence separate from the
    per-profile audit.
    """
    n_profiles = len(probes)
    if n_profiles < 2:
        raise ValueError("need at least two rival profiles for standard errors")
    worst = 0.0
    witness = None

    def note(excess: float, info: dict):
        nonlocal worst, witness
        if excess > worst:
            worst = excess
            witness = info

    mean_rho: dict[tuple[float, int], float] = {}
    for k in grid.capacities:
        rho_top = np.empty(n_profiles)
        for p, probe in enumerate(probes):
            units, payment = probe(cost_hi, k)
            rho_top[p] = payment - cost_hi * units
        for c in grid.costs:
            c = float(c)
            residuals = np.empty(n_profiles)
            rhos = np.empty(n_profiles)
            for p, probe in enumerate(probes):
                units, payment = probe(c, k)
                rhos[p] = payment - c * units
                integral = _step_integral(lambda z: probe(z, k)[0], c, cost_hi)
                residuals[p] = rhos[p] - rho_top[p] - integral
            mean_rho[(c, k)] = float(rhos.mean())
            note(-min(float(rhos.mean()), 0.0) - shape_tol,
                 {"check": "nonneg_violation", "cost": c, "capacity": k})
            se = float(residuals.std(ddof=1) / math.sqrt(n_profiles))
            mismatch = abs(float(residuals.mean()))
            note(mismatch - se_mult * se,
                 {"check": "integral_mismatch", "cost": c, "capacity": k,
                  "mean_residual": float(residuals.mean()), "stderr": se})
    for c in (float(x) for x in grid.costs):
        for k0, k1 in zip(grid.capacities[:-1], grid.capacities[1:]):
            drop = mean_rho[(c, k0)] - mean_rho[(c, k1)]
            note(drop - shape_tol,
                 {"check": "capacity_monotone_violation", "cost": c,
                  "capacity_low": k0, "capacity_high": k1})
    return AuditReport(name, worst, 0.0, witness=witness,
                       details={"profiles": n_profiles, "se_mult": se_mult})


def audit_dsic(
    probe: Callable[[float, int], tuple[int, float]],
    true_cost: float,
    true_capacity: int,
    grid: DeviationGrid,
    *,
    tol: float = 1e-9,
    name: str = "dominant-strategy-truthfulness",
) -> AuditReport:
    """No grid deviation may beat truthful bidding by more than ``tol``,
    with the rival profile held fixed."""
    units_t, pay_t = probe(true_cost, true_capacity)
    u_truth = pay_t - true_cost * units_t
    worst = 0.0
    witness = None
    for k in grid.capacities:
        if k > true_capacity:
            raise ValueError("deviation grid exceeds the true capacity")
        for c in grid.costs:
            units, pay = probe(float(c), k)
            gain = (pay - true_cost * units) - u_truth
            if gain > worst:
                worst = gain
                witness = {"cost": float(c), "capacity": k,
                           "deviation_utility": pay - true_cost * units,
                           "truthful_utility": u_truth}
    return AuditReport(
        name, worst, tol, witness=witness,
        details={"truthful_utility": u_truth, "deviations": len(grid.costs) * len(grid.capacities)},
    )


def audit_stochastic_bic(
    batch_utility: Callable[[float, int], np.ndarray],
    true_cost: float,
    true_capacity: int,
    grid: DeviationGrid,
    *,
    se_mult: float = 3.0,
    min_samples: int = 1000,
    name: str = "stochastic-truthfulness",
) -> AuditReport:
    """Mean truthful utility must not trail any deviation's mean by more than
    ``se_mult`` paired standard errors.

    ``batch_utility`` must reuse common random numbers across calls; the
    comparison is paired per sample.  Too few samples for the verdict is
    reported as inconclusive rather than as a failure.
    """
    u_truth = np.asarray(batch_utility(true_cost, true_capacity), dtype=float)
    samples = u_truth.size
    worst = 0.0
    witness = None
    worst_margin = math.inf
    for k in grid.capacities:
        if k > true_capacity:
            raise ValueError("deviation grid exceeds the true capacity")
        for c in grid.costs:
            diff = np.asarray(batch_utility(float(c), k), dtype=float) - u_truth
            mean = float(diff.mean())
            se = float(diff.std(ddof=1) / math.sqrt(samples)) if samples > 1 else math.inf
            excess = mean - se_mult * se
            worst_margin = min(worst_margin, -excess)
            if excess > worst:
                worst = excess
                witness = {"cost": float(c), "capacity": k, "mean_gain": mean,
                           "stderr": se}
    return AuditReport(
        name, worst, 0.0, witness=witness,
        details={"samples": samples, "se_mult": se_mult,
                 "truthful_mean": float(u_truth.mean()),
                 "worst_margin": worst_margin},
        inconclusive=samples < min_samples,
    )


def audit_resampler(
    mu: float,
    bounds: tuple[float, float],
    samples: int,
    seed,
    *,
    significance: float = 0.01,
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
       KS).
    """
    lo, hi = bounds
    main_seed, couple_seed, fresh_seed = child_seeds(seed, 3)

    alpha, beta = resample_batch(lo, hi, mu, samples, np.random.default_rng(main_seed))
    details: dict = {"samples": samples, "mu": mu}
    worst = 0.0
    witness = None

    def fail(amount: float, info: dict):
        nonlocal worst, witness
        if amount > worst:
            worst = amount
            witness = info

    # 2. branch split and output ordering
    moved = beta > lo
    p_hat = float(moved.mean())
    sigma = math.sqrt(mu * (1.0 - mu) / samples)
    details["move_probability"] = p_hat
    fail(abs(p_hat - mu) - 3.0 * sigma, {"check": "branch-probability", "p_hat": p_hat})
    order_violation = float(
        max(
            (beta - alpha).max(initial=-math.inf),
            (lo - beta).max(initial=-math.inf),
            (alpha - hi).max(initial=-math.inf),
        )
    )
    details["ordering_violation"] = max(order_violation, 0.0)
    fail(order_violation, {"check": "ordering"})

    # 1. monotone coupling across a bid grid
    couple_n = max(samples // 10, 100)
    grid = np.linspace(lo, hi, 9)
    prev = None
    for c in grid:
        pair = resample_batch(float(c), hi, mu, couple_n, np.random.default_rng(couple_seed))
        if prev is not None:
            drop = float(max((prev[0] - pair[0]).max(), (prev[1] - pair[1]).max()))
            fail(drop, {"check": "coupled-monotonicity", "bid": float(c)})
        prev = pair
    details["coupling_draws"] = couple_n

    # 4. conditional uniformity of beta
    cond_beta = beta[moved]
    ks_uniform = stats.kstest(cond_beta, "uniform", args=(lo, hi - lo))
    details["uniform_ks_pvalue"] = float(ks_uniform.pvalue)
    fail(significance - ks_uniform.pvalue, {"check": "beta-uniformity",
                                            "pvalue": float(ks_uniform.pvalue)})

    # 3. memorylessness on binned beta.  The conditional law of alpha carries
    # an atom at beta itself, so each conditioned draw is compared against a
    # fresh full-procedure draw at that draw's own beta: within a bin the two
    # samples then mix the atom identically and must agree in law.
    fresh_rng = np.random.default_rng(fresh_seed)
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
        ks = stats.ks_2samp(cond_alpha, fresh_alpha)
        memoryless_p.append(float(ks.pvalue))
        fail(significance - ks.pvalue, {"check": "memorylessness",
                                        "bin_center": float(center),
                                        "pvalue": float(ks.pvalue)})
    details["memoryless_ks_pvalues"] = memoryless_p

    return AuditReport(name, worst, 0.0, witness=witness, details=details)


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
