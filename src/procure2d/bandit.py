"""Sequential procurement with quality learning.

``run_2d_ucb`` buys one unit per round: bids are resampled once up front,
every agent supplies one unit to seed an empirical quality estimate, and each
later round goes to the capacity-feasible agent with the best optimistic
score ``R * (q_hat + width(t) / sqrt(n_i)) - H(alpha)``, where
``width(t) = sqrt(c ln t)`` (``c = 1/2`` by default, ``c = 2`` is UCB1's wide
bonus) and ties go to the lowest index.  The first non-positive best score
ends the whole auction.  Payments follow the resampling transformation: bid
cost per unit, plus the ``1/mu`` premium when the agent's beta moved
(``resample.transform_premium``, the rule every mechanism here pays by).

The narrow ``c = 1/2`` is the default because the reward scale is tens of
times the cost range: under UCB1's wide bonus the scores stay optimistic
long after the estimates separate, and the learner trails even the
explore-then-commit baselines (see ``run_2d_ucb``).

The rule has one implementation, the round loop in ``_ucb.c``: a seeding
pass, then every round a full scan over the agents below capacity.  The loop
advances a block of a few independent auctions (lanes) together, round by
round, so that the CPU overlaps their dependency chains; a lane whose
auction stops drops out and the others go on.  ``run_2d_ucb`` calls it as a
block of one lane (``ucb_run``), once per auction.  ``run_ucb_batch`` calls
``ucb_batch``, which walks stacked reward tables in blocks of lanes, for the
truthfulness audits, which run tens of thousands of 30-50-round auctions per
deviated bid.  The two specializations keep the scan's running best
differently.  A block of one lane takes a new best through a conditional
jump: in a long auction the same leader wins almost every round, so the CPU
predicts it and starts the next round's table load and divide early
(replaying 100 auctions of ``run_experiment``, 5.05M rounds, 0.041 s against
0.140 s for a select).  A block of lanes keeps a branch-free select, since
its short auctions change leader often and its lanes already overlap; there
the jump was slower (0.58 s against 0.35 s on the batches of ``verify``
seeds 0-3).  Both pass in the bonus widths and the ``1 / sqrt(n_i)`` table
built here with ``math.log`` and ``math.sqrt``, and the C file is compiled
with ``-ffp-contract=off``, so every score has the bits of the reference
loop in the test suite.  The library is built on first use with the C
compiler Python was built with, into the package's ``__pycache__``, and
loaded through ``ctypes``; a failed build raises ``UcbBuildError``.

``run_eps_separated`` is the explore-then-commit baseline: a fixed number of
round-robin exploration units, then one shot of the optimal auction run with
the frozen quality estimates on the residual capacities.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import shlex
import subprocess
import sysconfig
import tempfile
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import Bid, MarketConfig, RewardRealization
from .optimal import MechanismOutcome, run_2d_opt
from .resample import ResampleDraw, child_states, self_resample, transform_premium

__all__ = [
    "TraceStep",
    "RunTrace",
    "UcbBuildError",
    "run_2d_ucb",
    "run_ucb_batch",
    "run_eps_separated",
]


@dataclass(frozen=True)
class TraceStep:
    """One procurement (or the terminal stop): round, agent, observed reward,
    and the optimistic score that justified the choice.  ``agent`` is None on
    the stop row; ``g_hat`` is None on initialization rows."""

    round: int
    agent: int | None
    reward: int | None
    g_hat: float | None


@dataclass
class RunTrace:
    steps: list[TraceStep] = field(default_factory=list)

    def agents(self) -> list[int]:
        return [s.agent for s in self.steps if s.agent is not None]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("round,agent,reward,g_hat\n")
            for s in self.steps:
                agent = "" if s.agent is None else s.agent
                reward = "" if s.reward is None else s.reward
                g_hat = "" if s.g_hat is None else repr(s.g_hat)
                fh.write(f"{s.round},{agent},{reward},{g_hat}\n")


def _resolve_draws(bids, distributions, mu, seed=None, draws=None, *, states=None, rng=None):
    """The resample draws of a run: ``draws`` when given, one per bid, else
    one ``self_resample`` per bid on its own stream.  Bid ``i``'s stream is
    child ``(i,)`` of ``seed``, or ``states[i]`` when the caller has derived
    the children's stream states already, drawn on ``rng``."""
    if draws is not None:
        if len(draws) != len(bids):
            raise ValueError("need one resample draw per bid")
        return list(draws)
    if states is None:
        states = child_states(seed, len(bids))
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(0))
    out = []
    for bid, dist, state in zip(bids, distributions, states):
        rng.bit_generator.state = state
        out.append(self_resample(bid.cost, dist.cost_bounds, mu, rng))
    return out


# Bonus widths ``sqrt(c ln t)`` by bonus scale ``c``, shared by every run in
# the process and grown on demand to the largest budget seen.
_WIDTHS: dict[float, np.ndarray] = {}

# ``1 / sqrt(c)`` for every sample count ``c``, entry 0 being 0.0 (an agent
# with no sample), shared by both UCB runners and grown on demand.
_INV_SQRT = np.zeros(1)

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_ucb.c")
# Where the compiled round loop is cached, and the compiler that builds it.
_CACHE = os.path.join(os.path.dirname(_SOURCE), "__pycache__")
_CC = sysconfig.get_config_var("CC") or "cc"
_CFLAGS = ["-O2", "-ffp-contract=off", "-shared", "-fPIC"]
_LIB = None


class UcbBuildError(OSError):
    """The C round loop could not be compiled or loaded."""


def _build(command: list[str], path: str) -> None:
    """Compile ``_ucb.c`` to ``path``.  Each build writes a name of its own
    and renames it into place, so processes that build at once each load a
    whole library."""
    os.makedirs(_CACHE, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=_CACHE)
    os.close(fd)
    try:
        proc = subprocess.run(command + ["-o", tmp, _SOURCE], capture_output=True, text=True)
        if proc.returncode != 0:
            lines = [line for line in proc.stderr.splitlines() if line.strip()]
            raise UcbBuildError(lines[0] if lines else f"exit status {proc.returncode}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _library() -> ctypes.CDLL:
    """The compiled round loop, built on first use into a cache file named
    after the sha256 of the source and the compile command."""
    global _LIB
    if _LIB is None:
        command = shlex.split(_CC) + _CFLAGS
        try:
            with open(_SOURCE, "rb") as fh:
                key = hashlib.sha256(fh.read() + repr(command).encode()).hexdigest()
            path = os.path.join(_CACHE, f"_ucb-{key[:16]}.so")
            if not os.path.exists(path):
                _build(command, path)
            lib = ctypes.CDLL(path)
        except OSError as exc:
            reason = exc.strerror or str(exc)
            raise UcbBuildError(
                f"cannot build the UCB round loop with {shlex.join(command)}: {reason}"
            ) from exc
        f64, i64, u8 = (
            np.ctypeslib.ndpointer(dtype, flags="C_CONTIGUOUS")
            for dtype in (np.float64, np.int64, np.uint8)
        )
        size, real = ctypes.c_int64, ctypes.c_double
        lib.ucb_run.restype = size
        lib.ucb_run.argtypes = [
            size, size, real, f64, i64, u8, f64, f64, i64, i64, size, i64, u8, f64,
            ctypes.POINTER(real),
        ]
        lib.ucb_batch.argtypes = [size, size, size, real, f64, i64, u8, f64, f64, i64, i64]
        _LIB = lib
    return _LIB


def _bonus_widths(bonus_scale: float, n_rounds: int) -> np.ndarray:
    """Widths ``sqrt(bonus_scale * ln t)`` for every round ``t < n_rounds``
    (entry 0 is unused), always built with ``math.log`` and ``math.sqrt`` so
    that every caller sees the same bits whatever its budget."""
    widths = _WIDTHS.get(bonus_scale, np.full(1, math.nan))
    if len(widths) < n_rounds:
        grown = (math.sqrt(bonus_scale * math.log(t)) for t in range(len(widths), n_rounds))
        widths = np.concatenate([widths, np.fromiter(grown, float, n_rounds - len(widths))])
        _WIDTHS[bonus_scale] = widths
    return widths


def _inv_sqrt_counts(n_counts: int) -> np.ndarray:
    """``1.0 / math.sqrt(c)`` for every count ``c < n_counts``, 0.0 at 0."""
    global _INV_SQRT
    table = _INV_SQRT
    if len(table) < n_counts:
        grown = (1.0 / math.sqrt(c) for c in range(len(table), n_counts))
        table = np.concatenate([table, np.fromiter(grown, float, n_counts - len(table))])
        _INV_SQRT = table
    return table


def run_2d_ucb(
    config: MarketConfig,
    bids: Sequence[Bid],
    realization: RewardRealization,
    mu: float,
    seed,
    *,
    resample_draws: Sequence[ResampleDraw] | None = None,
    record_trace: bool = True,
    bonus_scale: float = 0.5,
) -> tuple[MechanismOutcome, RunTrace | None]:
    """One full learning auction over ``config.units`` rounds.

    Requires ``units >= n_agents`` so the seeding pass is feasible.  The
    reported auctioneer utility is realized (reward scale times observed
    successes, minus payments), not the expectation under the true qualities,
    which the mechanism never sees.  ``bonus_scale`` is ``c`` in the
    exploration width ``sqrt(c ln t)``.  The narrow 0.5 is the default: with
    reward scales tens of times the cost range, UCB1's wide bonus (2.0) keeps
    every score optimistic long past the point where the estimates separate,
    and the learner then trails even the explore-then-commit baselines at
    realistic budgets.  The narrow bonus keeps the logarithmic exploration
    schedule and lets the learner approach the omniscient benchmark faster
    than every baseline.

    Optimistic scores are recomputed for every agent at every round: a score
    must be a function of (estimate, samples, round) alone, never of when the
    agent was last procured, or the allocation loses its cost-monotonicity.

    Deviation from the paper: an agent reporting capacity 0 is skipped in
    the seeding pass, but the round loop still starts at round ``n``, so a
    run buys at most ``units`` minus the number of such agents.
    """
    n = config.n_agents
    n_rounds = config.units
    if config.check_run(bids, realization):
        raise ValueError(f"run_2d_ucb takes one {n}x{n_rounds} table, got a stack")
    if not 0.0 <= bonus_scale < math.inf:
        raise ValueError(f"bonus_scale must be finite and >= 0, got {bonus_scale}")

    draws = _resolve_draws(bids, config.distributions, mu, seed, resample_draws)
    reward_scale = config.reward_scale
    h = [
        float(dist.virtual_cost(draw.alpha, bid.capacity))
        for dist, draw, bid in zip(config.distributions, draws, bids)
    ]
    caps = [bid.capacity for bid in bids]
    table = realization.table
    units = np.empty(n, dtype=np.int64)
    succ = np.empty(n, dtype=np.int64)
    # Winner, reward and score of rounds n, n+1, ... when a trace is asked for.
    trace_len = n_rounds - n if record_trace else 0
    picks = np.empty(trace_len, dtype=np.int64)
    rewards = np.empty(trace_len, dtype=np.uint8)
    scores = np.empty(trace_len)
    stop_score = ctypes.c_double()
    stop = _library().ucb_run(
        n, n_rounds, reward_scale, np.array(h), np.array(caps, dtype=np.int64), table,
        _bonus_widths(bonus_scale, n_rounds), _inv_sqrt_counts(n_rounds + 1),
        units, succ, trace_len, picks, rewards, scores, ctypes.byref(stop_score),
    )
    if stop < 0:
        raise MemoryError("out of memory in the UCB round loop")

    trace = None
    if record_trace:
        seeded = [i for i in range(n) if caps[i] >= 1]
        trace = RunTrace([TraceStep(u, i, int(table[i, 0]), None) for u, i in enumerate(seeded)])
        bought = stop - n
        trace.steps += map(
            TraceStep, range(n, stop), picks[:bought].tolist(), rewards[:bought].tolist(),
            scores[:bought].tolist(),
        )
        if stop_score.value > -math.inf:
            trace.steps.append(TraceStep(stop, None, None, stop_score.value))

    costs = np.array([bid.cost for bid in bids])
    cost_highs = [dist.cost_bounds[1] for dist in config.distributions]
    premium = transform_premium(units, mu, costs, cost_highs, [d.beta for d in draws])
    payments = costs * units + premium
    utility = reward_scale * int(succ.sum()) - float(payments.sum())
    outcome = MechanismOutcome(units, payments, utility)
    return outcome, trace


def run_ucb_batch(
    config: MarketConfig,
    bids: Sequence[Bid],
    realizations: RewardRealization,
    virtual_costs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``run_2d_ucb``'s allocation over stacked replications, admitted by the
    same ``MarketConfig.check_run``: reward scale and budget from ``config``,
    capacities from ``bids``.  ``realizations`` holds a (samples, n, units)
    stack and ``virtual_costs`` the (samples, n) H values at each sample's
    resampled costs.  Returns (units, successes), each (samples, n).  Every
    sample runs ``run_2d_ucb``'s round loop with the default (narrow) bonus,
    so the two make the same decisions; the C loop advances the samples in
    blocks of a few at a time.
    """
    table = realizations.table
    if len(config.check_run(bids, realizations)) != 1:
        raise ValueError(f"run_ucb_batch takes a (samples, n, units) stack, got {table.shape}")
    (samples, n, n_rounds), h = table.shape, np.ascontiguousarray(virtual_costs, dtype=float)
    if h.shape != (samples, n):
        raise ValueError(f"virtual costs must be {samples}x{n}, got shape {h.shape!r}")
    if not np.isfinite(h).all():
        raise ValueError("virtual costs must be finite")

    caps = np.array([bid.capacity for bid in bids], dtype=np.int64)
    units = np.empty((samples, n), dtype=np.int64)
    successes = np.empty((samples, n), dtype=np.int64)
    status = _library().ucb_batch(
        samples, n, n_rounds, config.reward_scale, h, caps, table,
        _bonus_widths(0.5, n_rounds), _inv_sqrt_counts(n_rounds + 1), units, successes,
    )
    if status < 0:
        raise MemoryError("out of memory in the UCB round loop")
    return units, successes


def _round_robin_split(caps: list[int], budget: int) -> list[int]:
    """Units per agent when ``budget <= sum(caps)`` units are dealt one at a
    time round-robin over the agents below capacity, in index order.

    In closed form: every agent gets ``min(cap, level)``, ``level`` being the
    largest with ``sum(min(cap, level)) <= budget``, and the rest go one each
    to the lowest-index agents with ``cap > level``.  Walking the capacities
    in ascending order, ``below`` counts the units of the agents that fill
    before the level reaches the next capacity.
    """
    below = 0
    for k, cap in enumerate(sorted(caps)):
        live = len(caps) - k
        if below + live * cap > budget:
            break
        below += cap
    else:
        return list(caps)
    level, extra = divmod(budget - below, live)
    units = [min(cap, level) for cap in caps]
    for i in [i for i, cap in enumerate(caps) if cap > level][:extra]:
        units[i] += 1
    return units


def run_eps_separated(
    config: MarketConfig,
    bids: Sequence[Bid],
    realization: RewardRealization,
    explore_rounds: int,
    mu: float,
    seed,
    *,
    resample_draws: Sequence[ResampleDraw] | None = None,
) -> MechanismOutcome:
    """Explore-then-commit baseline.

    Spreads ``explore_rounds`` units round-robin across agents regardless of
    bids, freezes the empirical qualities, then allocates the remaining
    budget with one optimal-auction run at the resampled costs on the
    residual capacities.  Exploration units are paid bid cost plus the
    resampling premium; exploitation units are paid by the optimal auction's
    threshold rule.
    """
    n = config.n_agents
    n_rounds = config.units
    if config.check_run(bids, realization):
        raise ValueError(f"run_eps_separated takes one {n}x{n_rounds} table, got a stack")
    if not n <= explore_rounds <= n_rounds:
        raise ValueError(
            f"explore_rounds must lie in [{n}, {n_rounds}], got {explore_rounds}"
        )
    caps = [bid.capacity for bid in bids]
    total_cap = sum(caps)
    if explore_rounds > total_cap:
        warnings.warn(
            f"explore_rounds {explore_rounds} exceeds total reported capacity "
            f"{total_cap}; clipping",
            stacklevel=2,
        )
        explore_rounds = total_cap

    draws = _resolve_draws(bids, config.distributions, mu, seed, resample_draws)
    reward_scale = config.reward_scale
    rows = [realization.table[i] for i in range(n)]

    explored = _round_robin_split(caps, explore_rounds)

    explore_succ = [int(np.count_nonzero(rows[i][: explored[i]])) for i in range(n)]
    q_hat = np.array(
        [explore_succ[i] / explored[i] if explored[i] else 0.0 for i in range(n)]
    )

    exploit_budget = n_rounds - explore_rounds
    exploit_bids = [
        Bid(draw.alpha, caps[i] - explored[i]) for i, draw in enumerate(draws)
    ]
    sub_config = MarketConfig(exploit_budget, reward_scale, config.distributions)
    exploit = run_2d_opt(sub_config, q_hat, exploit_bids)

    counts = np.array([explored[i] + int(exploit.allocation[i]) for i in range(n)], dtype=np.int64)
    costs = np.array([bid.cost for bid in bids])
    cost_highs = [dist.cost_bounds[1] for dist in config.distributions]
    premium = transform_premium(explored, mu, costs, cost_highs, [d.beta for d in draws])
    payments = costs * explored + exploit.payments + premium
    total_succ = sum(int(np.count_nonzero(rows[i][: counts[i]])) for i in range(n))
    utility = reward_scale * total_succ - float(payments.sum())
    return MechanismOutcome(counts, payments, utility)
