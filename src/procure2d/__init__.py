"""Capacitated procurement auctions with bidimensional private types.

Agents hold a private per-unit cost and a private integer capacity, and every
delivered unit succeeds with the agent's latent quality.  The package
provides the omniscient optimal auction (``run_2d_opt``), the UCB learning
auction with truthfulness-preserving bid resampling (``run_2d_ucb``), the
explore-then-commit baseline (``run_eps_separated``), property auditors for
the incentive guarantees, and the simulation harness behind the ``procure2d``
command-line tool.
"""

from .audits import (
    AuditReport,
    DeviationGrid,
    audit_dsic,
    audit_iia,
    audit_monotone_allocation,
    audit_offered_utility,
    audit_resampler,
    audit_stochastic_bic,
    make_opt_probe,
    make_ucb_batch_utility,
)
from .bandit import (
    RunTrace,
    TraceStep,
    UcbBuildError,
    run_2d_ucb,
    run_eps_separated,
    run_ucb_batch,
    seeded_draws,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    ResultRow,
    emit_results,
    parse_config,
    read_bids_csv,
    read_results_csv,
    render_results_svg,
    run_experiment,
)
from .model import (
    AgentType,
    Bid,
    MarketConfig,
    RewardRealization,
    TypeDistribution,
    sample_reward_realization,
    uniform_type_distribution,
)
from .optimal import MechanismOutcome, alloc_greedy, auctioneer_utility, run_2d_opt
from .resample import resample_batch, self_resample, transform_premium

__version__ = "0.1.0"

__all__ = [
    "AgentType",
    "AuditReport",
    "Bid",
    "ConfigError",
    "DeviationGrid",
    "ExperimentConfig",
    "MarketConfig",
    "MechanismOutcome",
    "ResultRow",
    "RewardRealization",
    "RunTrace",
    "TraceStep",
    "TypeDistribution",
    "UcbBuildError",
    "alloc_greedy",
    "auctioneer_utility",
    "audit_dsic",
    "audit_iia",
    "audit_monotone_allocation",
    "audit_offered_utility",
    "audit_resampler",
    "audit_stochastic_bic",
    "emit_results",
    "make_opt_probe",
    "make_ucb_batch_utility",
    "parse_config",
    "read_bids_csv",
    "read_results_csv",
    "render_results_svg",
    "resample_batch",
    "run_2d_opt",
    "run_2d_ucb",
    "run_eps_separated",
    "run_experiment",
    "run_ucb_batch",
    "sample_reward_realization",
    "seeded_draws",
    "self_resample",
    "transform_premium",
    "uniform_type_distribution",
]
