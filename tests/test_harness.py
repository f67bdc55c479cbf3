import math
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from procure2d import (
    ConfigError,
    ExperimentConfig,
    ResultRow,
    emit_results,
    parse_config,
    read_results_csv,
    render_results_svg,
    run_experiment,
)
from procure2d import harness
from procure2d.harness import _run_cell, write_config

from oracles import seed_sequence_cell

TINY = ExperimentConfig(
    n=2,
    l_grid=(8, 16),
    type_samples=2,
    realizations=2,
    master_seed=7,
)


class TestConfig:
    def test_defaults_match_reference_setup(self):
        config = parse_config(None)
        assert config.n == 5
        assert config.reward_scale == 30.0
        assert config.mu == 0.1
        assert (config.quality_lo, config.quality_hi) == (0.5, 1.0)
        assert (config.cost_lo, config.cost_hi) == (0.0, 1.0)
        assert config.l_grid == tuple(int(x) for x in np.linspace(1000, 100000, 10))
        assert len(config.l_grid) == 10
        assert config.type_samples == 200
        assert config.realizations == 100
        assert config.eps_exponents == (1 / 6, 1 / 3, 1 / 2, 2 / 3)

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("")
        assert parse_config(path) == ExperimentConfig()

    def test_partial_override_keeps_other_defaults(self, tmp_path):
        path = tmp_path / "partial.ini"
        path.write_text("[market]\nn = 3\n")
        config = parse_config(path)
        assert config.n == 3
        assert config.reward_scale == 30.0
        assert config.type_samples == 200

    def test_mu_out_of_range_names_the_key(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[ucb]\nmu = 1.5\n")
        with pytest.raises(ConfigError, match="ucb.mu"):
            parse_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "unknown.ini"
        path.write_text("[market]\nbudget = 3\n")
        with pytest.raises(ConfigError, match="market.budget"):
            parse_config(path)

    # A value is read as written, and a [DEFAULT] section is refused, alone or
    # beside another section: it would otherwise be ignored, set keys of every
    # section, or turn up as an unknown key of another section.
    @pytest.mark.parametrize("text, message", [
        ("[market]\nn = 5%\n", "cannot parse market.n = '5%'"),
        ("[DEFAULT]\nn = 3\n", "unknown config section [DEFAULT]"),
        ("[DEFAULT]\nn = 3\n\n[market]\nreward_scale = 20\n",
         "unknown config section [DEFAULT]"),
        ("[DEFAULT]\nmu = 0.2\n\n[market]\nn = 3\n", "unknown config section [DEFAULT]"),
    ], ids=["percent-sign", "default-alone", "default-beside-market", "default-key-of-ucb"])
    def test_values_read_as_written_and_default_section_refused(self, tmp_path, text, message):
        path = tmp_path / "conf.ini"
        path.write_text(text)
        with pytest.raises(ConfigError) as refused:
            parse_config(path)
        assert str(refused.value) == message

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.ini")

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "broken.ini"
        path.write_text("n = 3\n")  # key before any section header
        with pytest.raises(ConfigError, match="malformed"):
            parse_config(path)

    def test_unparsable_value_rejected(self, tmp_path):
        path = tmp_path / "bad_value.ini"
        path.write_text("[experiment]\ntype_samples = many\n")
        with pytest.raises(ConfigError, match="experiment.type_samples"):
            parse_config(path)

    @pytest.mark.parametrize("bounds", [(0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0)])
    def test_non_finite_cost_bounds_rejected(self, bounds):
        with pytest.raises(ConfigError, match="market.cost_lo and market.cost_hi must be finite"):
            ExperimentConfig(cost_lo=bounds[0], cost_hi=bounds[1])

    def test_descending_grid_rejected(self):
        with pytest.raises(ConfigError, match="ascending"):
            ExperimentConfig(l_grid=(100, 50))

    @pytest.mark.parametrize("exponents", [(0.3333331, 0.3333332), (0.5, 0.5)])
    def test_eps_exponents_sharing_a_label_rejected(self, exponents):
        with pytest.raises(ConfigError, match="eps.exponents must give distinct labels"):
            ExperimentConfig(eps_exponents=exponents)

    def test_write_then_parse_round_trips(self, tmp_path):
        config = ExperimentConfig(n=3, mu=0.2, l_grid=(50, 100), eps_exponents=(0.25, 0.5))
        path = tmp_path / "conf.ini"
        write_config(config, path)
        assert parse_config(path) == config

    def test_capacity_bounds_rule(self):
        config = ExperimentConfig()
        lo, hi = config.cap_bounds(1000)
        assert hi == 1000
        assert lo == math.ceil(0.5 * math.ceil(1000 / 5))
        tight = ExperimentConfig(cap_lower_frac=1.0, n=1, l_grid=(10,))
        assert tight.cap_bounds(10) == (10, 10)

    def test_mechanism_labels(self):
        assert ExperimentConfig().mechanism_labels() == [
            "opt", "ucb", "eps-1/6", "eps-1/3", "eps-1/2", "eps-2/3",
        ]


class TestRunExperiment:
    def test_rows_in_mechanism_then_budget_order(self):
        rows = run_experiment(TINY)
        labels = TINY.mechanism_labels()
        expected = [(label, units) for label in labels for units in TINY.l_grid]
        assert [(r.mechanism, r.units) for r in rows] == expected
        assert all(r.replications == 4 for r in rows)

    def test_stderr_is_over_per_type_sample_means(self):
        # Realizations share their type sample, so the error bar is that of
        # the type-sample means; the mean itself stays over all replications.
        config = ExperimentConfig(n=3, l_grid=(30, 60), type_samples=3, realizations=4,
                                  master_seed=2)
        rows = run_experiment(config)
        for row in rows:
            l_index = config.l_grid.index(row.units)
            per_type = [_run_cell(config, l_index, ts)[row.mechanism] for ts in range(3)]
            means = np.array([v.mean() for v in per_type])
            assert row.stderr == float(means.std(ddof=1) / math.sqrt(3))
            assert row.mean_utility_per_unit == float(np.concatenate(per_type).mean())
            assert row.replications == 12

    def test_deterministic_across_thread_counts(self, tmp_path):
        rows_serial = run_experiment(TINY, threads=1)
        rows_parallel = run_experiment(TINY, threads=2)
        assert rows_serial == rows_parallel
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_results(rows_serial, a, tmp_path / "a.svg")
        emit_results(rows_parallel, b, tmp_path / "b.svg")
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "threads, cpus, workers", [(64, 8, 4), (3, 8, 3), (64, 2, 2), (2, 1, None)]
    )
    def test_worker_count_clamped_to_cells_and_cpus(self, monkeypatch, threads, cpus, workers):
        started = []

        class InlinePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        rows = run_experiment(TINY, threads=threads)  # TINY has 4 cells
        assert started == ([] if workers is None else [workers])
        assert rows == run_experiment(TINY, threads=1)

    def test_one_allowed_cpu_starts_no_pool(self, monkeypatch):
        # The pool is capped by the CPUs the process may run on, as
        # run_ucb_batch's threads are, not by the CPUs the host has.
        expected = run_experiment(TINY, threads=1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert run_experiment(TINY, threads=2) == expected

    def test_thread_count_below_one_rejected(self):
        with pytest.raises(ValueError, match="threads"):
            run_experiment(TINY, threads=0)

    def test_single_agent_degenerate_instance_by_hand(self):
        # Perfect quality, capacity pinned to the budget: the benchmark pays
        # the price cap (here the upper cost bound) per unit, so the per-unit
        # utility is exactly R - cost_hi.
        config = ExperimentConfig(
            n=1,
            cost_lo=0.0,
            cost_hi=0.5,
            quality_lo=1.0,
            quality_hi=1.0,
            l_grid=(6, 12),
            type_samples=2,
            realizations=1,
            cap_lower_frac=1.0,
            master_seed=3,
        )
        rows = run_experiment(config)
        for row in rows:
            if row.mechanism == "opt":
                assert row.mean_utility_per_unit == pytest.approx(30.0 - 0.5, abs=1e-12)
                assert row.stderr == 0.0

    @pytest.mark.parametrize("master_seed", [0, 2**63 + 5, 2**64 - 1])
    def test_cell_streams_equal_seed_sequences(self, master_seed):
        # A multi-word master seed included: every type, capacity, reward and
        # resample stream of a cell is the SeedSequence stream it names.
        config = ExperimentConfig(n=3, l_grid=(40, 160), type_samples=2, realizations=3,
                                  master_seed=master_seed)
        for l_index, type_sample in [(0, 0), (1, 1)]:
            got = _run_cell(config, l_index, type_sample)
            expected = seed_sequence_cell(config, l_index, type_sample)
            assert list(got) == list(expected)
            for label in expected:
                assert got[label].tolist() == expected[label].tolist(), label

    @pytest.mark.filterwarnings("ignore:.*(cannot cover the budget|clipping)")
    def test_blocks_leave_results_unchanged(self, monkeypatch, tmp_path):
        # At 360 bytes a block holds 3 realizations at L = 40 and 1 at L = 160,
        # so the 7 realizations of a cell span 3 and 7 blocks.  results.csv
        # is the one-block run's byte for byte, and every cell equals its
        # streams built by numpy.  Capacities as low as 0.3 of a fair share
        # leave some budgets uncovered and clip some exploration budgets.
        config = ExperimentConfig(n=3, l_grid=(40, 160), type_samples=2, realizations=7,
                                  cap_lower_frac=0.3, master_seed=3)
        paths = {}
        for name, budget in [("one-block", harness._BLOCK_BYTES), ("blocks", 360)]:
            monkeypatch.setattr(harness, "_BLOCK_BYTES", budget)
            paths[name] = tmp_path / f"{name}.csv"
            emit_results(run_experiment(config), paths[name], tmp_path / f"{name}.svg")
        assert paths["blocks"].read_bytes() == paths["one-block"].read_bytes()
        for l_index, type_sample in [(0, 1), (1, 0)]:
            got = _run_cell(config, l_index, type_sample)
            expected = seed_sequence_cell(config, l_index, type_sample)
            for label in expected:
                assert got[label].tolist() == expected[label].tolist(), label

    def test_baselines_run_in_one_call_per_block(self, monkeypatch):
        # Each block's learner runs go through one run_2d_ucb call that
        # carries the block's stack of tables and one row of draws per table,
        # and its explore-then-commit runs through one run_eps_separated call
        # that carries the same stack, every exploration budget and one row
        # of draws per table and budget.  At 960 bytes, a block holds the 3
        # realizations of a cell at L = 40 and 2 of them at L = 160.
        learner_calls, run_learner = [], harness.run_2d_ucb
        calls, run = [], harness.run_eps_separated

        def record_learner(market, bids, realization, mu, draws, **kwargs):
            learner_calls.append((market.units, realization.table.shape,
                                  [np.shape(side) for side in draws]))
            return run_learner(market, bids, realization, mu, draws, **kwargs)

        def record(market, bids, realization, explore_rounds, mu, draws):
            calls.append((market.units, realization.table.shape, list(explore_rounds),
                          [np.shape(side) for side in draws]))
            return run(market, bids, realization, explore_rounds, mu, draws)

        monkeypatch.setattr(harness, "run_2d_ucb", record_learner)
        monkeypatch.setattr(harness, "run_eps_separated", record)
        monkeypatch.setattr(harness, "_BLOCK_BYTES", 960)
        config = ExperimentConfig(n=3, l_grid=(40, 160), type_samples=2, realizations=3,
                                  eps_exponents=(1 / 3, 1 / 2, 2 / 3), cap_lower_frac=1.0,
                                  master_seed=4)
        rows = run_experiment(config)
        assert [(units, shape[0]) for units, shape, _, _ in calls] == [
            (40, 3), (40, 3), (160, 2), (160, 1), (160, 2), (160, 1)]
        for units, shape, budgets, draw_shapes in calls:
            assert shape == (shape[0], 3, units)
            assert budgets == [max(3, round(units ** e)) for e in config.eps_exponents]
            assert draw_shapes == [(shape[0], 3, 3)] * 2
        assert learner_calls == [(units, shape, [shape[:2]] * 2) for units, shape, _, _ in calls]
        assert {row.mechanism for row in rows} == set(config.mechanism_labels())

    def test_infeasible_capacity_warns(self):
        config = ExperimentConfig(
            n=1, l_grid=(40,), type_samples=1, realizations=1,
            cap_lower_frac=0.01, master_seed=11,
        )
        for seed in range(60):
            trial = ExperimentConfig(**{**config.__dict__, "master_seed": seed})
            lo, hi = trial.cap_bounds(40)
            rng = np.random.default_rng(np.random.SeedSequence([seed, 12, 0, 0]))
            if rng.integers(lo, hi, 1, endpoint=True).sum() < 40:
                with pytest.warns(UserWarning, match="capacity"):
                    _run_cell(trial, 0, 0)
                return
        pytest.fail("no seed produced an infeasible capacity draw")


class TestEmission:
    def rows(self):
        return [
            ResultRow("opt", 1000, 28.123456789012345, 0.25, 400),
            ResultRow("opt", 10000, 28.0, 0.2, 400),
            ResultRow("ucb", 1000, 25.5, 0.3, 400),
            ResultRow("ucb", 10000, 27.25, 0.21, 400),
        ]

    def test_csv_schema_and_single_row(self, tmp_path):
        row = [ResultRow("opt", 1000, 28.0, 0.1, 10)]
        csv_path = tmp_path / "r.csv"
        emit_results(row, csv_path, tmp_path / "r.svg")
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "mechanism,L,mean_utility_per_unit,stderr,replications"
        assert len(lines) == 2
        assert lines[1].split(",")[0] == "opt"

    def test_round_trip_is_exact(self, tmp_path):
        rows = self.rows()
        csv_path = tmp_path / "r.csv"
        emit_results(rows, csv_path, tmp_path / "r.svg")
        assert read_results_csv(csv_path) == rows

    def test_svg_structure(self, tmp_path):
        rows = self.rows()
        svg_path = tmp_path / "r.svg"
        emit_results(rows, tmp_path / "r.csv", svg_path)
        root = ET.fromstring(svg_path.read_text())
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 2  # one per mechanism
        texts = [el.text for el in root.iter() if el.tag.endswith("text")]
        assert "opt" in texts and "ucb" in texts

    def test_stderr_must_be_non_negative(self):
        with pytest.raises(ValueError):
            ResultRow("opt", 10, 1.0, -0.1, 4)

    @pytest.mark.parametrize("units, replications, field", [(0, 4, "L"), (10, -3, "replications")])
    def test_budget_and_replications_must_be_positive(self, units, replications, field):
        with pytest.raises(ValueError, match=field):
            ResultRow("opt", units, 1.0, 0.1, replications)

    def test_non_finite_values_rejected(self):
        for mean, stderr in [(np.nan, 0.1), (np.inf, 0.1), (1.0, np.nan), (1.0, np.inf)]:
            with pytest.raises(ValueError):
                ResultRow("opt", 10, mean, stderr, 4)

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_results([], tmp_path / "r.csv", tmp_path / "r.svg")
        with pytest.raises(ValueError):
            render_results_svg([])
