"""Self-resampling bid perturbation and the truthfulness-preserving
mechanism transformation.

The resampler maps a reported cost to a pair ``(alpha, beta)`` with
``cost_hi >= alpha >= beta >= bid``: with probability ``1 - mu`` both equal
the bid; otherwise ``beta`` is uniform on ``[bid, cost_hi]`` and ``alpha``
continues resampling upward geometrically.  Mechanisms allocate at ``alpha``
and, whenever ``beta`` strictly exceeded the bid, pay a premium scaled by
``1/mu`` so that the premium's expectation equals the integral of the
expected allocation over all higher cost bids.  That integral is exactly the
surcharge a truthful payment rule owes, which is what makes the transformed
mechanism truthful in expectation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import Bid
from .optimal import MechanismOutcome, auctioneer_utility

__all__ = [
    "ResampleDraw",
    "self_resample",
    "resample_batch",
    "transform_premium",
    "transform_allocate_and_pay",
]

_MAX_RESAMPLE_ITERATIONS = 10**6


@dataclass(frozen=True)
class ResampleDraw:
    """One resampler output; always cost_hi >= alpha >= beta >= bid."""

    alpha: float
    beta: float


def _check_mu(mu: float) -> float:
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must lie in (0, 1), got {mu}")
    return float(mu)


def child_seeds(seed, n: int) -> list[np.random.SeedSequence]:
    """Per-bid child seeds of ``seed`` (anything ``SeedSequence`` accepts, or
    a ``SeedSequence``).

    Child ``i`` equals the ``i``-th child of the first ``spawn(n)`` on a fresh
    sequence, but is derived without spawning: ``spawn`` advances the
    sequence it is called on, so a caller reusing one ``SeedSequence`` would
    get different draws on every call.
    """
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [
        np.random.SeedSequence(seq.entropy, spawn_key=seq.spawn_key + (i,), pool_size=seq.pool_size)
        for i in range(n)
    ]


def self_resample(bid_cost: float, bounds: tuple[float, float], mu: float, seed) -> ResampleDraw:
    """Draw ``(alpha, beta)`` for one bid.  Deterministic given ``seed``.

    The recursion depth is geometric with mean ``1/(1 - mu)``; a hard cap of
    ``10**6`` iterations guards against pathological generators and raises
    ``RuntimeError`` rather than silently truncating.
    """
    mu = _check_mu(mu)
    lo, hi = bounds
    if not lo <= bid_cost <= hi:
        raise ValueError(f"bid cost {bid_cost} outside bounds [{lo}, {hi}]")
    rng = np.random.default_rng(seed)
    # Branch draws use "u < mu means keep resampling" so that a shared seed
    # couples draws monotonically across bid values.
    if rng.random() >= mu:
        return ResampleDraw(bid_cost, bid_cost)
    beta = min(float(rng.uniform(bid_cost, hi)), hi)
    alpha = beta
    for _ in range(_MAX_RESAMPLE_ITERATIONS):
        if rng.random() >= mu:
            return ResampleDraw(alpha, beta)
        alpha = min(float(rng.uniform(alpha, hi)), hi)
    raise RuntimeError("resampling recursion exceeded the iteration cap")


def resample_batch(
    bid_cost, cost_hi: float, mu: float, size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized resampler: ``size`` independent draws at one bid (or at
    per-draw bids when ``bid_cost`` is an array of length ``size``).

    Every pass through the recursion consumes exactly ``2 * size`` uniforms
    regardless of how many draws are still active, so two calls with
    identically seeded generators are coupled draw-by-draw across different
    bid values (the coupling behind the monotonicity property).
    """
    mu = _check_mu(mu)
    bid_cost = np.asarray(bid_cost, dtype=float)
    if np.any(bid_cost > cost_hi):
        raise ValueError(f"bid cost above cost_hi {cost_hi}")
    active = rng.random(size) < mu
    beta = np.where(active, bid_cost + rng.random(size) * (cost_hi - bid_cost), bid_cost)
    np.minimum(beta, cost_hi, out=beta)
    alpha = beta.copy()
    iterations = 0
    while active.any():
        cont = rng.random(size) < mu
        pos = rng.random(size)
        active &= cont
        alpha[active] += pos[active] * (cost_hi - alpha[active])
        iterations += 1
        if iterations > _MAX_RESAMPLE_ITERATIONS:
            raise RuntimeError("resampling recursion exceeded the iteration cap")
    np.minimum(alpha, cost_hi, out=alpha)
    return alpha, beta


def transform_premium(units, mu: float, bid_cost, cost_hi, beta):
    """The ``1/mu``-scaled premium ``units * (cost_hi - bid_cost) / mu`` where
    the resampled ``beta`` moved above the bid, else 0.

    This is the one payment rule of the transformation: every mechanism pays
    ``bid_cost * units`` plus this premium.  Works on scalars (returning a
    float) and on numpy arrays, elementwise.
    """
    mu = _check_mu(mu)
    premium = np.where(
        np.greater(beta, bid_cost), np.multiply(units, np.subtract(cost_hi, bid_cost)) / mu, 0.0
    )
    return premium if premium.ndim else float(premium)


def transform_allocate_and_pay(
    alloc_rule: Callable[[np.ndarray, np.ndarray], np.ndarray],
    bids: Sequence[Bid],
    cost_highs: Sequence[float],
    mu: float,
    seed,
    *,
    qualities,
    reward_scale: float,
    draws: Sequence[ResampleDraw] | None = None,
) -> MechanismOutcome:
    """Transform an allocation rule into a truthful-in-expectation mechanism.

    Resamples every bid, allocates ``alloc_rule(alphas, capacities)``, and
    pays each agent its bid cost per unit plus the premium whenever its beta
    moved.  ``alloc_rule`` must be cost-monotone for the guarantee to hold
    (audits can check this); any context it needs beyond costs and capacities
    is expected to be closed over.  ``draws`` overrides the internal
    resampling, for replay and testing.
    """
    n = len(bids)
    if len(cost_highs) != n:
        raise ValueError("need one cost_hi per bid")
    if draws is None:
        draws = [
            self_resample(bid.cost, (bid.cost, float(hi)), mu, child)
            for bid, hi, child in zip(bids, cost_highs, child_seeds(seed, n))
        ]
    elif len(draws) != n:
        raise ValueError("need one resample draw per bid")

    alphas = np.array([d.alpha for d in draws])
    caps = np.array([bid.capacity for bid in bids], dtype=np.int64)
    units = np.asarray(alloc_rule(alphas, caps))
    costs = np.array([bid.cost for bid in bids])
    betas = np.array([d.beta for d in draws])
    payments = costs * units + transform_premium(units, mu, costs, cost_highs, betas)
    return MechanismOutcome(
        units, payments, auctioneer_utility(units, payments, qualities, reward_scale)
    )
