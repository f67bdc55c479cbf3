"""Command-line interface.

Subcommands: ``opt`` (one-shot optimal auction on a bids file), ``ucb`` (one
learning run, trace to CSV), ``simulate`` (full experiment grid), ``verify``
(audit suite; nonzero exit if any audit fails), ``plot`` (results CSV to
SVG).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import audits
from ._native import ResampleCapError
from .bandit import run_2d_ucb, seeded_draws
from .harness import (
    ExperimentConfig,
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
    sample_reward_realization,
    uniform_type_distribution,
)
from .optimal import run_2d_opt


_FLAGS = {
    "--config": dict(metavar="PATH", help="INI config file"),
    "--seed": dict(type=int, default=None, metavar="U64", help="override the master seed"),
    "--out": dict(metavar="DIR", help="output directory"),
    "--threads": dict(type=int, default=1, metavar="N", help="worker processes for replications"),
}


def _add_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    """Give ``parser`` the shared flags it reads, and no others."""
    for name in names:
        parser.add_argument(name, **_FLAGS[name])


def _load_config(args) -> ExperimentConfig:
    config = parse_config(args.config)
    if getattr(args, "seed", None) is not None:
        config = ExperimentConfig(**{**config.__dict__, "master_seed": args.seed})
    return config


def _out_dir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _market_for_bids(config: ExperimentConfig, bids, units: int) -> MarketConfig:
    cap_hi = max(max(b.capacity for b in bids), 1)
    dist = uniform_type_distribution(config.cost_lo, config.cost_hi, 1, max(cap_hi, units))
    return MarketConfig(units, config.reward_scale, (dist,) * len(bids))


def _write_outcome(path, outcome) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("agent,units,payment\n")
        for i, (units, payment) in enumerate(zip(outcome.allocation, outcome.payments)):
            fh.write(f"{i},{int(units)},{payment:.17g}\n")


def _print_outcome(outcome) -> None:
    print("agent  units  payment")
    for i, (units, payment) in enumerate(zip(outcome.allocation, outcome.payments)):
        print(f"{i:>5}  {int(units):>5}  {payment:.6g}")
    print(f"auctioneer utility: {outcome.auctioneer_utility:.6g}")


def _cmd_opt(args) -> int:
    config = _load_config(args)
    bids, qualities = read_bids_csv(args.bids)
    units = args.units if args.units is not None else config.l_grid[0]
    market = _market_for_bids(config, bids, units)
    outcome = run_2d_opt(market, qualities, bids)
    _print_outcome(outcome)
    if args.out:
        _write_outcome(os.path.join(_out_dir(args), "outcome.csv"), outcome)
    return 0


def _cmd_ucb(args) -> int:
    config = _load_config(args)
    bids, qualities = read_bids_csv(args.bids)
    units = args.units if args.units is not None else config.l_grid[0]
    market = _market_for_bids(config, bids, units)
    realization = sample_reward_realization(
        qualities, units, np.random.SeedSequence([config.master_seed, 1])
    )
    draws = seeded_draws(market, bids, config.mu, np.random.SeedSequence([config.master_seed, 2]))
    outcome, trace = run_2d_ucb(market, bids, realization, config.mu, draws)
    _print_outcome(outcome)
    out = _out_dir(args)
    trace.to_csv(os.path.join(out, "trace.csv"))
    _write_outcome(os.path.join(out, "outcome.csv"), outcome)
    print(f"trace written to {os.path.join(out, 'trace.csv')}")
    return 0


def _cmd_simulate(args) -> int:
    config = _load_config(args)
    rows = run_experiment(config, threads=args.threads)
    out = _out_dir(args)
    csv_path = os.path.join(out, "results.csv")
    svg_path = os.path.join(out, "results.svg")
    emit_results(rows, csv_path, svg_path)
    print(f"wrote {csv_path} and {svg_path} ({len(rows)} rows)")
    return 0


def _cmd_plot(args) -> int:
    rows = read_results_csv(args.results)
    out = _out_dir(args)
    svg_path = os.path.join(out, "results.svg")
    with open(svg_path, "w") as fh:
        fh.write(render_results_svg(rows))
    print(f"wrote {svg_path}")
    return 0


def _cmd_verify(args) -> int:
    config = _load_config(args)
    seed = np.random.SeedSequence([config.master_seed, 99])
    resample_seed, instance_seed, bic_seed, iia_seed = seed.spawn(4)
    reports = []

    reports.append(audits.audit_resampler(
        config.mu, (config.cost_lo, config.cost_hi), 30_000, resample_seed
    ))

    rng = np.random.default_rng(instance_seed)
    dist = uniform_type_distribution(config.cost_lo, config.cost_hi, 1, 5)
    for trial in range(8):
        n = int(rng.integers(2, 5))
        types = [
            AgentType(
                float(rng.uniform(config.cost_lo, config.cost_hi)),
                int(rng.integers(1, 6)),
                float(rng.uniform(0.0, 1.0)),
            )
            for _ in range(n)
        ]
        market = MarketConfig(int(rng.integers(1, 13)), config.reward_scale, (dist,) * n)
        qualities = np.array([t.quality for t in types])
        bids = [t.truthful_bid() for t in types]
        agent = int(rng.integers(n))
        grid = audits.DeviationGrid.spanning(dist, types[agent].capacity, n_costs=11)
        probe = audits.make_opt_probe(market, qualities, bids, agent)
        if trial == 0:
            reports.append(audits.audit_monotone_allocation(
                lambda c, k: probe(c, k)[0], grid, name="opt-allocation-monotone"
            ))
            reports.append(audits.audit_offered_utility(
                probe, grid, config.cost_hi, name="opt-offered-utility"
            ))
        report = audits.audit_dsic(
            probe, types[agent].cost, types[agent].capacity, grid,
            name="opt-truthfulness",
        )
        if not report.passed or trial == 7:
            reports.append(report)
            break

    n = 3
    bic_rng = np.random.default_rng(bic_seed)
    types = [
        AgentType(
            float(bic_rng.uniform(config.cost_lo, config.cost_hi)),
            int(bic_rng.integers(3, 8)),
            float(bic_rng.uniform(0.4, 1.0)),
        )
        for _ in range(n)
    ]
    dist_bic = uniform_type_distribution(config.cost_lo, config.cost_hi, 1, 10)
    market = MarketConfig(30, config.reward_scale, (dist_bic,) * n)
    bids = [t.truthful_bid() for t in types]
    batch = audits.make_ucb_batch_utility(
        market, bids, 0, types[0].cost, np.array([t.quality for t in types]),
        config.mu, 20_000, bic_seed,
    )
    grid = audits.DeviationGrid.spanning(dist_bic, types[0].capacity, n_costs=7)
    reports.append(audits.audit_stochastic_bic(
        batch, types[0].cost, types[0].capacity, grid, name="ucb-stochastic-truthfulness"
    ))
    reports.append(_iia_report(config, iia_seed))

    for report in reports:
        print(report.line())
    return 1 if any(report.status == "fail" for report in reports) else 0


def _iia_report(config: ExperimentConfig, seed: np.random.SeedSequence):
    """IIA audit on the winner sequences of two learning runs over one
    realization and one resampling seed that differ only in agent 0's bid.
    Agent 0 gets the highest quality and the moved bid caps it at one unit,
    so that the runs usually part: a cost change alone rarely reorders
    scores worth ``R * q`` within thirty rounds."""
    rng = np.random.default_rng(seed)
    n, units = 3, 30
    costs = rng.uniform(config.cost_lo, config.cost_hi, n)
    capacities = rng.integers(5, 16, n)
    qualities = np.sort(rng.uniform(config.quality_lo, config.quality_hi, n))[::-1]
    dist = uniform_type_distribution(config.cost_lo, config.cost_hi, 1, 15)
    market = MarketConfig(units, config.reward_scale, (dist,) * n)
    realization = sample_reward_realization(qualities, units, rng)
    bids = [Bid(float(c), int(k)) for c, k in zip(costs, capacities)]
    moved = [Bid(float(rng.uniform(config.cost_lo, config.cost_hi)), 1)]
    base, perturbed = (run_2d_ucb(market, profile, realization, config.mu,
                                  seeded_draws(market, profile, config.mu, seed))[1]
                       for profile in (bids, moved + bids[1:]))
    return audits.audit_iia(base.agents(), perturbed.agents(), changed_agent=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="procure2d",
        description="Capacitated procurement auctions with quality learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("opt", help="run the optimal auction on a bids file")
    p_opt.add_argument("bids", help="CSV with header agent,cost,capacity,quality")
    p_opt.add_argument("--units", type=int, default=None, help="units to procure")
    _add_flags(p_opt, "--config", "--out")
    p_opt.set_defaults(fn=_cmd_opt)

    p_ucb = sub.add_parser("ucb", help="run one learning auction, emit its trace")
    p_ucb.add_argument("bids", help="CSV with header agent,cost,capacity,quality")
    p_ucb.add_argument("--units", type=int, default=None, help="units to procure")
    _add_flags(p_ucb, "--config", "--seed", "--out")
    p_ucb.set_defaults(fn=_cmd_ucb)

    p_sim = sub.add_parser("simulate", help="run the full experiment grid")
    _add_flags(p_sim, "--config", "--seed", "--out", "--threads")
    p_sim.set_defaults(fn=_cmd_simulate)

    p_verify = sub.add_parser("verify", help="run the audit suite")
    _add_flags(p_verify, "--config", "--seed")
    p_verify.set_defaults(fn=_cmd_verify)

    p_plot = sub.add_parser("plot", help="render a results CSV as SVG")
    p_plot.add_argument("results", help="results CSV produced by simulate")
    _add_flags(p_plot, "--out")
    p_plot.set_defaults(fn=_cmd_plot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResampleCapError as exc:
        # Every resampled bid of a command is drawn at the configured mu.
        print(f"error: {exc}: ucb.mu is too close to 1", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
