"""Experiment configuration, the simulation driver, and result emission.

The driver measures average auctioneer utility per unit as the budget grows,
for the omniscient optimal benchmark, the UCB learner, and the
explore-then-commit baselines.  Replications fan out over a process pool;
every replication's random stream is a pure function of (master seed, type
sample, budget index, realization index), so the assembled results are
byte-identical regardless of worker count or scheduling.  Each stream is
the numpy stream of a ``SeedSequence`` on the key ``[master seed, tag,
...]``, or of its child ``(i,)`` for bid ``i``'s resampler; a cell runs its
realizations in blocks, and for each derives the PCG64 states of the
block's streams from arrays in one ``resample._block_states`` call, draws
its resampled bids in one ``resample.resample_streams`` call (one row of the
(runs, n) alpha and beta arrays per run), and gets its runs' utilities back
as arrays.  A block's Python work is a fixed number of calls.  Its types
and capacities are drawn on one reused generator, from the two streams of
one ``resample.stream_states`` call per cell; its reward tables are drawn
on their own streams in C, each outcome when a run first reads it.
"""

from __future__ import annotations

import configparser
import csv
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from xml.sax.saxutils import escape

import numpy as np

from .bandit import _cpus, run_2d_ucb, run_eps_separated
from .model import Bid, MarketConfig, stream_reward_realization, uniform_type_distribution
# Only so that the attribute perfbench's tracer wraps exists
# (tests/test_exports.py): a cell's tables are streamed, so its layer reads 0.
from .model import sample_reward_realization  # noqa: F401
from .optimal import run_2d_opt
from .resample import (_block_states, generator_at, resample_streams, state_dict,
                       stream_states)

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "ConfigError",
    "parse_config",
    "run_experiment",
    "emit_results",
    "read_results_csv",
    "render_results_svg",
    "read_bids_csv",
]

_DEFAULT_L_GRID = tuple(int(x) for x in np.linspace(1_000, 100_000, 10))


class ConfigError(ValueError):
    """Configuration file missing, malformed, or out of range."""


@dataclass(frozen=True)
class ExperimentConfig:
    """All experiment constants, defaulting to the standard simulation setup:
    five agents, reward scale 30, costs uniform on [0, 1], qualities uniform
    on [0.5, 1], ten budgets linearly spaced over [1e3, 1e5], 200 type samples
    of 100 reward realizations each, resampling parameter 0.1."""

    n: int = 5
    reward_scale: float = 30.0
    mu: float = 0.1
    cost_lo: float = 0.0
    cost_hi: float = 1.0
    quality_lo: float = 0.5
    quality_hi: float = 1.0
    l_grid: tuple[int, ...] = _DEFAULT_L_GRID
    type_samples: int = 200
    realizations: int = 100
    eps_exponents: tuple[float, ...] = (1 / 6, 1 / 3, 1 / 2, 2 / 3)
    cap_lower_frac: float = 0.5
    master_seed: int = 0

    def __post_init__(self):
        labels = self.mechanism_labels()
        checks = [
            (self.n >= 1, "market.n must be >= 1"),
            (0 < self.reward_scale < math.inf, "market.reward_scale must be finite and > 0"),
            (0.0 < self.mu < 1.0, "ucb.mu must lie in (0, 1)"),
            (math.isfinite(self.cost_lo) and math.isfinite(self.cost_hi),
             "market.cost_lo and market.cost_hi must be finite"),
            (self.cost_lo < self.cost_hi, "market.cost_lo must be < market.cost_hi"),
            (0.0 <= self.quality_lo <= self.quality_hi <= 1.0,
             "market quality interval must satisfy 0 <= lo <= hi <= 1"),
            (len(self.l_grid) >= 1, "experiment.l_grid must be non-empty"),
            (all(b > a for a, b in zip(self.l_grid, self.l_grid[1:])),
             "experiment.l_grid must be strictly ascending"),
            (all(l >= self.n for l in self.l_grid),
             "experiment.l_grid entries must be >= market.n"),
            (self.type_samples >= 1, "experiment.type_samples must be >= 1"),
            (self.realizations >= 1, "experiment.realizations must be >= 1"),
            (len(self.eps_exponents) >= 1, "eps.exponents must be non-empty"),
            (all(0 < e < 1 for e in self.eps_exponents),
             "eps.exponents must lie in (0, 1)"),
            (len(set(labels)) == len(labels), "eps.exponents must give distinct labels"),
            (0.0 < self.cap_lower_frac <= 1.0, "capacity.lower_frac must lie in (0, 1]"),
            (self.master_seed >= 0, "experiment.master_seed must be >= 0"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        # Per-unit utilities lie within R + max|cost| + (cost_hi - cost_lo) / mu of 0
        # (the premium's term added in log space: it may overflow); a run sums the
        # largest budget's worth, the reduction squares their spread over every replication.
        log_spread = math.log(2.0) + np.logaddexp(
            math.log(self.reward_scale + max(abs(self.cost_lo), abs(self.cost_hi))),
            math.log(self.cost_hi - self.cost_lo) - math.log(self.mu))
        count = max(self.l_grid[-1], self.type_samples * self.realizations)
        if 2.0 * log_spread + math.log(count) >= math.log(np.finfo(float).max):
            raise ConfigError("market.reward_scale, cost bounds and ucb.mu make utilities overflow")

    def cap_bounds(self, units: int) -> tuple[int, int]:
        """Capacity prior bounds at budget ``units``: upper bound the budget
        itself, lower bound ``ceil(lower_frac * ceil(units / n))`` (at least
        one unit)."""
        lower = max(1, math.ceil(self.cap_lower_frac * math.ceil(units / self.n)))
        return min(lower, units), units

    def mechanism_labels(self) -> list[str]:
        return ["opt", "ucb"] + [f"eps-{_exponent_label(e)}" for e in self.eps_exponents]


def _exponent_label(exponent: float) -> str:
    named = {1 / 6: "1/6", 1 / 3: "1/3", 1 / 2: "1/2", 2 / 3: "2/3"}
    for value, label in named.items():
        if abs(exponent - value) < 1e-12:
            return label
    return f"{exponent:g}"


@dataclass(frozen=True)
class ResultRow:
    """One (mechanism, budget) cell of the experiment output."""

    mechanism: str
    units: int
    mean_utility_per_unit: float
    stderr: float
    replications: int

    def __post_init__(self):
        if self.units < 1:
            raise ValueError(f"L (units) must be >= 1, got {self.units}")
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if not math.isfinite(self.mean_utility_per_unit):
            raise ValueError(f"mean utility must be finite, got {self.mean_utility_per_unit}")
        if not 0 <= self.stderr < math.inf:
            raise ValueError(f"stderr must be finite and >= 0, got {self.stderr}")


_SECTION_FIELDS = {
    "market": {
        "n": ("n", int),
        "reward_scale": ("reward_scale", float),
        "cost_lo": ("cost_lo", float),
        "cost_hi": ("cost_hi", float),
        "quality_lo": ("quality_lo", float),
        "quality_hi": ("quality_hi", float),
    },
    "experiment": {
        "l_grid": ("l_grid", lambda s: tuple(int(x) for x in s.split(","))),
        "type_samples": ("type_samples", int),
        "realizations": ("realizations", int),
        "master_seed": ("master_seed", int),
    },
    "ucb": {"mu": ("mu", float)},
    "eps": {"exponents": ("eps_exponents", lambda s: tuple(float(x) for x in s.split(",")))},
    "capacity": {"lower_frac": ("cap_lower_frac", float)},
}


def parse_config(path: str | os.PathLike | None) -> ExperimentConfig:
    """Load an INI-style config; omitted keys keep their defaults.

    ``None`` returns the full default configuration.  Unknown sections or
    keys, unparsable values, and out-of-range values raise ``ConfigError``
    naming the offender.
    """
    if path is None:
        return ExperimentConfig()
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    # No interpolation: a value is read as written.  No default section: a
    # [DEFAULT] header names a section like any other, and is refused.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc

    overrides = {}
    for section in parser.sections():
        if section not in _SECTION_FIELDS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SECTION_FIELDS[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
            attr, convert = _SECTION_FIELDS[section][key]
            try:
                overrides[attr] = convert(raw)
            except ValueError as exc:
                raise ConfigError(f"cannot parse {section}.{key} = {raw!r}") from exc
    return ExperimentConfig(**overrides)


def write_config(config: ExperimentConfig, path) -> None:
    """Emit a config file that ``parse_config`` reproduces exactly."""
    parser = configparser.ConfigParser()
    by_attr = {attr: (section, key)
               for section, keys in _SECTION_FIELDS.items()
               for key, (attr, _) in keys.items()}
    for f in fields(config):
        section, key = by_attr[f.name]
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            value = ",".join(repr(v) for v in value)
        parser.setdefault(section, {})
        parser[section][key] = str(value)
    with open(path, "w") as fh:
        parser.write(fh)


# -- simulation ---------------------------------------------------------------

# Stream tags keep the per-purpose random streams disjoint: types, capacities
# and reward tables draw from their roots, the learner's and each
# explore-then-commit run's resamplers from the roots' children (i,).
_TAG_TYPES, _TAG_CAPS, _TAG_REALIZATION, _TAG_UCB, _TAG_EPS = 11, 12, 13, 14, 15

# Bytes of reward tables a cell holds at once, one (realizations, n, L) bool
# stack: the cell runs its realizations in blocks that fill it.  Past a few
# dozen rows the commit auctions' time per row no longer falls, and the
# learner's round loop spends the same time per table in any block, so a
# larger block buys little; 4 MiB keeps a worker's extra memory small, yet
# holds the 100 realizations of a 5-agent cell whole up to L = 8,388.
_BLOCK_BYTES = 1 << 22


def _run_cell(config: ExperimentConfig, l_index: int, type_sample: int) -> dict[str, np.ndarray]:
    """All replications for one (budget, type sample) cell.

    Costs and qualities are drawn once per type sample and shared across
    budgets; capacities are redrawn per budget because their prior scales
    with it.  The realizations run in blocks that fill ``_BLOCK_BYTES`` of
    reward tables, so a cell's memory does not grow with its realization
    count.  A block runs in four stages.  Streams: one ``_block_states``
    call derives the block's streams from arrays, the same few numpy calls
    and one C call for any block size, and one ``resample_streams`` call
    draws the block's resampled bids.  Tables: one ``stream_reward_realization`` call jumps
    each table row's stream to its first outcome and draws nothing; the
    block's stack is filled as the runs read it, never past the agents'
    capacities (the most any run buys from them).  Learner: one
    ``run_2d_ucb`` call runs every table of the block, drawing as it picks.
    Baselines: one ``run_eps_separated`` call runs the explore-then-commit
    baselines of every table and exploration budget of the block, drawing
    what they count and counting it in C.  Each returns one outcome of
    arrays, whose utilities are divided by the budget as they stand.  The
    types' and capacities' streams come from one ``stream_states`` call
    before the first block.
    """
    units = config.l_grid[l_index]
    n = config.n
    seed = config.master_seed
    reps = config.realizations
    labels = config.mechanism_labels()
    out = {label: np.empty(reps) for label in labels}
    block = max(1, min(reps, _BLOCK_BYTES // (n * units)))
    # One draw per bid of every run: each realization's learner, then its eps runs.
    runs = 1 + len(config.eps_exponents)
    heads = [[seed, tag, type_sample, l_index] for tag in (_TAG_REALIZATION, _TAG_UCB, _TAG_EPS)]

    types, caps = stream_states([([seed, _TAG_TYPES, type_sample], ()),
                                 ([seed, _TAG_CAPS, type_sample, l_index], ())])
    rng = generator_at(types)
    costs = rng.uniform(config.cost_lo, config.cost_hi, n)
    qualities = rng.uniform(config.quality_lo, config.quality_hi, n)

    cap_lo, cap_hi = config.cap_bounds(units)
    rng.bit_generator.state = state_dict(caps)
    capacities = rng.integers(cap_lo, cap_hi, n, endpoint=True)
    if capacities.sum() < units:
        warnings.warn(
            f"type sample {type_sample} at {units} units: total capacity "
            f"{capacities.sum()} cannot cover the budget",
            stacklevel=2,
        )

    dist = uniform_type_distribution(config.cost_lo, config.cost_hi, cap_lo, cap_hi)
    market = MarketConfig(units, config.reward_scale, (dist,) * n)
    bids = [Bid(float(costs[i]), int(capacities[i])) for i in range(n)]

    benchmark = run_2d_opt(market, qualities, bids)
    out["opt"][:] = benchmark.auctioneer_utility / units

    explore_grid = [max(n, int(round(units ** exponent))) for exponent in config.eps_exponents]
    # Zeroed, so that every entry, drawn or not, is 0 or 1: each table of the
    # stack stays a valid outcome table.
    stack = np.zeros((block, n, units), dtype=bool)
    for start in range(0, reps, block):
        size = min(block, reps - start)
        states = _block_states(heads, start, start + size, n, len(config.eps_exponents))
        alpha, beta = (side.reshape(size, runs, n) for side in resample_streams(
            np.tile(costs, size * runs), config.cost_hi, config.mu, states[size:]))
        tables = stream_reward_realization(qualities, capacities, states[:size], stack[:size])
        learner, _ = run_2d_ucb(market, bids, tables, config.mu, (alpha[:, 0], beta[:, 0]),
                                record_trace=False)
        out["ucb"][start : start + size] = learner.auctioneer_utility / units
        baselines = run_eps_separated(market, bids, tables, explore_grid, config.mu,
                                      (alpha[:, 1:], beta[:, 1:]))
        for label, column in zip(labels[2:], baselines.auctioneer_utility.T):
            out[label][start : start + size] = column / units
    return out


def run_experiment(config: ExperimentConfig, threads: int = 1) -> list[ResultRow]:
    """Run the full grid and reduce to one row per (mechanism, budget).

    Deterministic for a fixed config regardless of ``threads``: cells are
    computed independently and reduced in a fixed order.  ``threads`` must be
    at least 1; more workers than cells, or than CPUs this process may run
    on, are never started.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    cells = [(l_index, ts) for l_index in range(len(config.l_grid))
             for ts in range(config.type_samples)]
    workers = min(threads, len(cells), _cpus())
    args = ([config] * len(cells), *zip(*cells))
    if workers <= 1:
        outputs = list(map(_run_cell, *args))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outputs = list(pool.map(_run_cell, *args))
    results = dict(zip(cells, outputs))

    rows = []
    for label in config.mechanism_labels():
        for l_index, units in enumerate(config.l_grid):
            per_type = [results[(l_index, ts)][label] for ts in range(config.type_samples)]
            values = np.concatenate(per_type)
            # Realizations share their type sample, so the error is that of the
            # per-type-sample means; one type sample gives the realizations'
            # error, conditional on that type draw.
            spread = np.array([v.mean() for v in per_type]) if len(per_type) > 1 else values
            stderr = float(spread.std(ddof=1) / math.sqrt(spread.size)) if spread.size > 1 else 0.0
            rows.append(ResultRow(label, units, float(values.mean()), stderr, values.size))
    return rows


# -- emission -----------------------------------------------------------------

_CSV_HEADER = ["mechanism", "L", "mean_utility_per_unit", "stderr", "replications"]


def emit_results(rows: list[ResultRow], csv_path, svg_path) -> None:
    """Write the results CSV (17 significant digits) and the SVG chart."""
    if not rows:
        raise ValueError("no result rows to emit")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for row in rows:
            writer.writerow([
                row.mechanism,
                row.units,
                f"{row.mean_utility_per_unit:.17g}",
                f"{row.stderr:.17g}",
                row.replications,
            ])
    with open(svg_path, "w") as fh:
        fh.write(render_results_svg(rows))


def _whole_rows(reader, header: list[str], path):
    """The rows of the ``csv.reader`` past its header line as dicts keyed by
    ``header``, skipping blank lines and refusing a row with more or fewer
    fields than the header."""
    for row in reader:
        if not row:
            continue
        if len(row) != len(header):
            raise ValueError(
                f"{path}, line {reader.line_num}: {len(row)} fields, expected {len(header)}"
                f" ({','.join(header)})"
            )
        yield dict(zip(header, row))


def read_results_csv(path) -> list[ResultRow]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _CSV_HEADER:
            raise ValueError(f"unexpected results header: {header}")
        rows: dict[tuple[str, int], ResultRow] = {}
        for rec in _whole_rows(reader, header, path):
            row = ResultRow(
                rec["mechanism"],
                int(rec["L"]),
                float(rec["mean_utility_per_unit"]),
                float(rec["stderr"]),
                int(rec["replications"]),
            )
            if (row.mechanism, row.units) in rows:
                raise ValueError(
                    f"{path}, line {reader.line_num}: repeats mechanism {row.mechanism}"
                    f" at L = {row.units}"
                )
            rows[(row.mechanism, row.units)] = row
        return list(rows.values())


_PALETTE = ["#1b6ca8", "#d1495b", "#66a182", "#edae49", "#8d5a97", "#30638e",
            "#c05746", "#4f6d7a"]


def render_results_svg(rows: list[ResultRow]) -> str:
    """Line chart of mean utility per unit against the budget (log x axis),
    one polyline per mechanism, vertical stderr bars.  Plain SVG 1.1."""
    if not rows:
        raise ValueError("no result rows to plot")
    width, height = 760, 480
    left, right, top, bottom = 70, 180, 30, 50
    plot_w = width - left - right
    plot_h = height - top - bottom

    series: dict[str, list[ResultRow]] = {}
    for row in rows:
        series.setdefault(row.mechanism, []).append(row)
    for label in series:
        series[label] = sorted(series[label], key=lambda r: r.units)

    log_l = [math.log10(r.units) for r in rows]
    x_min, x_max = min(log_l), max(log_l)
    if x_max == x_min:
        x_min, x_max = x_min - 0.5, x_max + 0.5
    y_vals = [r.mean_utility_per_unit + s * r.stderr for r in rows for s in (-1.0, 1.0)]
    y_min, y_max = min(y_vals), max(y_vals)
    pad = 0.05 * (y_max - y_min) or 1.0
    y_min, y_max = y_min - pad, y_max + pad

    def x_pos(units: int) -> float:
        return left + (math.log10(units) - x_min) / (x_max - x_min) * plot_w

    def y_pos(value: float) -> float:
        return top + (y_max - value) / (y_max - y_min) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
    ]
    for units in sorted({r.units for r in rows}):
        x = x_pos(units)
        parts.append(
            f'<line x1="{x:.2f}" y1="{top + plot_h}" x2="{x:.2f}" '
            f'y2="{top + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{top + plot_h + 20}" font-size="11" '
            f'text-anchor="middle">{units}</text>'
        )
    for tick in np.linspace(y_min, y_max, 6):
        y = y_pos(float(tick))
        parts.append(
            f'<line x1="{left - 5}" y1="{y:.2f}" x2="{left}" y2="{y:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{left - 9}" y="{y + 4:.2f}" font-size="11" '
            f'text-anchor="end">{tick:.3g}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.2f}" y="{height - 12}" font-size="12" '
        f'text-anchor="middle">units procured (log scale)</text>'
    )
    parts.append(
        f'<text x="18" y="{top + plot_h / 2:.2f}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 18 {top + plot_h / 2:.2f})">mean utility per unit</text>'
    )

    for idx, (label, points) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(
            f"{x_pos(p.units):.2f},{y_pos(p.mean_utility_per_unit):.2f}" for p in points
        )
        for p in points:
            x = x_pos(p.units)
            y_lo = y_pos(p.mean_utility_per_unit - p.stderr)
            y_hi = y_pos(p.mean_utility_per_unit + p.stderr)
            parts.append(
                f'<line x1="{x:.2f}" y1="{y_lo:.2f}" x2="{x:.2f}" y2="{y_hi:.2f}" '
                f'stroke="{color}" stroke-width="1"/>'
            )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>'
        )
        legend_y = top + 14 + 18 * idx
        parts.append(
            f'<line x1="{left + plot_w + 14}" y1="{legend_y - 4}" '
            f'x2="{left + plot_w + 38}" y2="{legend_y - 4}" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{left + plot_w + 44}" y="{legend_y}" '
            f'font-size="12">{escape(label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def read_bids_csv(path) -> tuple[list[Bid], np.ndarray]:
    """Read an ``agent,cost,capacity,quality`` bids file.

    Agent ids must be 0..n-1 (any order).  Returns the bids in agent order
    and the quality vector.
    """
    records = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        expected = ["agent", "cost", "capacity", "quality"]
        if header != expected:
            raise ValueError(f"bids file must have header {','.join(expected)}")
        for rec in _whole_rows(reader, header, path):
            agent = int(rec["agent"])
            if agent in records:
                raise ValueError(f"duplicate agent id {agent} in bids file")
            records[agent] = (
                Bid(float(rec["cost"]), int(rec["capacity"])),
                float(rec["quality"]),
            )
    n = len(records)
    if n == 0:
        raise ValueError("bids file contains no agents")
    if sorted(records) != list(range(n)):
        raise ValueError("agent ids must be consecutive integers starting at 0")
    bids = [records[i][0] for i in range(n)]
    qualities = np.array([records[i][1] for i in range(n)])
    return bids, qualities
