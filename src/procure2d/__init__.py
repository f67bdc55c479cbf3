"""Capacitated procurement auctions with bidimensional private types.

Agents hold a private per-unit cost and a private integer capacity, and every
delivered unit succeeds with the agent's latent quality.  The package
provides the omniscient optimal auction (``run_2d_opt``), the UCB learning
auction with truthfulness-preserving bid resampling (``run_2d_ucb``), the
explore-then-commit baseline (``run_eps_separated``), property auditors for
the incentive guarantees, and the simulation harness behind the ``procure2d``
command-line tool.
"""

# Each module's ``__all__`` names its public API; the package exports exactly
# their union (tests/test_exports.py).
from .audits import *  # noqa: F401,F403
from .bandit import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .optimal import *  # noqa: F401,F403
from .resample import *  # noqa: F401,F403

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
    "sample_reward_realization",
    "seeded_draws",
    "self_resample",
    "stream_reward_realization",
    "transform_premium",
    "uniform_type_distribution",
]
