import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from procure2d import _native, cli, harness
from procure2d.cli import main

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parents[1] / "src"

BIDS = """agent,cost,capacity,quality
0,0.2,3,0.8
1,0.5,5,0.6
2,0.35,4,0.9
"""

TINY_CONF = """[market]
n = 2

[experiment]
l_grid = 8,16
type_samples = 2
realizations = 2
master_seed = 7
"""

# Two type samples over three budgets: the grid whose reference columns are
# pinned in ``golden/simulate-reference.csv``.
GOLDEN_CONF = """[market]
n = 3

[experiment]
l_grid = 40,160,640
type_samples = 2
realizations = 3
master_seed = 5
"""


@pytest.fixture
def bids_file(tmp_path):
    path = tmp_path / "bids.csv"
    path.write_text(BIDS)
    return path


@pytest.fixture
def conf_file(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_CONF)
    return path


def test_opt_subcommand(bids_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["opt", str(bids_file), "--units", "6", "--out", str(out_dir)]) == 0
    printed = capsys.readouterr().out
    assert "auctioneer utility" in printed
    outcome = (out_dir / "outcome.csv").read_text().strip().splitlines()
    assert outcome[0] == "agent,units,payment"
    assert len(outcome) == 4
    units = [int(line.split(",")[1]) for line in outcome[1:]]
    assert sum(units) == 6


def test_ucb_subcommand_writes_trace(bids_file, tmp_path):
    out_dir = tmp_path / "out"
    assert main(
        ["ucb", str(bids_file), "--units", "10", "--seed", "3", "--out", str(out_dir)]
    ) == 0
    trace = (out_dir / "trace.csv").read_text().strip().splitlines()
    assert trace[0] == "round,agent,reward,g_hat"
    assert 4 <= len(trace) <= 11  # seeding rows plus at most budget rows
    assert (out_dir / "outcome.csv").exists()


def test_ucb_deterministic_given_seed(bids_file, tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    main(["ucb", str(bids_file), "--units", "10", "--seed", "3", "--out", str(first)])
    main(["ucb", str(bids_file), "--units", "10", "--seed", "3", "--out", str(second)])
    assert (first / "trace.csv").read_bytes() == (second / "trace.csv").read_bytes()


def test_simulate_and_plot(conf_file, tmp_path, capsys):
    out_dir = tmp_path / "results"
    assert main(["simulate", "--config", str(conf_file), "--out", str(out_dir)]) == 0
    results = out_dir / "results.csv"
    assert results.exists() and (out_dir / "results.svg").exists()
    header = results.read_text().splitlines()[0]
    assert header == "mechanism,L,mean_utility_per_unit,stderr,replications"

    plot_dir = tmp_path / "plotted"
    assert main(["plot", str(results), "--out", str(plot_dir)]) == 0
    assert (plot_dir / "results.svg").read_bytes() == (out_dir / "results.svg").read_bytes()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_simulate_reference_columns_are_pinned(tmp_path, threads):
    # mechanism, L, mean and replications byte for byte, at any worker count:
    # a change to a mechanism, a draw or the reduction shows here.  stderr is
    # left out, as in perfbench's references.
    conf = tmp_path / "golden.ini"
    conf.write_text(GOLDEN_CONF)
    out_dir = tmp_path / "out"
    argv = ["simulate", "--config", str(conf), "--out", str(out_dir), "--threads", threads]
    assert main(argv) == 0
    fields = [line.split(",") for line in (out_dir / "results.csv").read_text().splitlines()]
    kept = "".join(",".join(f[:3] + f[4:]) + "\n" for f in fields)
    assert kept == (GOLDEN / "simulate-reference.csv").read_text()


@pytest.mark.parametrize("command, flag", [
    ("opt", "--seed"), ("opt", "--threads"), ("ucb", "--threads"), ("verify", "--out"),
    ("verify", "--threads"), ("plot", "--config"), ("plot", "--seed"), ("plot", "--threads"),
])
def test_subcommand_refuses_a_flag_it_does_not_read(bids_file, tmp_path, capsys, command, flag):
    positional = {"opt": [str(bids_file)], "ucb": [str(bids_file)],
                  "plot": [str(tmp_path / "results.csv")]}.get(command, [])
    value = str(tmp_path / "x") if flag in ("--out", "--config") else "1"
    with pytest.raises(SystemExit) as exc:
        main([command, *positional, flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_simulate_seed_override(conf_file, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    c = tmp_path / "c"
    main(["simulate", "--config", str(conf_file), "--out", str(a)])
    main(["simulate", "--config", str(conf_file), "--out", str(b), "--seed", "7"])
    with pytest.warns(UserWarning, match="cannot cover the budget"):
        main(["simulate", "--config", str(conf_file), "--out", str(c), "--seed", "8"])
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
    assert (a / "results.csv").read_bytes() != (c / "results.csv").read_bytes()


def test_missing_config_is_a_clean_error(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.ini")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_simulate_rejects_thread_count_below_one(conf_file, tmp_path, capsys, threads):
    out_dir = tmp_path / "out"
    assert main(
        ["simulate", "--config", str(conf_file), "--out", str(out_dir), "--threads", threads]
    ) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "threads" in err and err.count("\n") == 1
    assert not (out_dir / "results.csv").exists()


def test_failed_build_is_a_clean_error(bids_file, conf_file, tmp_path, capsys, monkeypatch):
    # No compiler and nothing cached: no run can start.  The first call into
    # the compiled code is the resampler's draw in ``ucb`` and ``verify`` and
    # the stream seeding in ``simulate``.
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setattr(_native, "_CC", str(tmp_path / "no-such-cc"))
    monkeypatch.setattr(_native, "_CACHE", str(cache))
    monkeypatch.setattr(_native, "_LIB", None)
    out_dir = tmp_path / "out"
    for argv in (["ucb", str(bids_file), "--units", "10", "--out", str(out_dir)],
                 ["verify", "--seed", "0"],
                 ["simulate", "--config", str(conf_file), "--out", str(out_dir)]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: cannot build the UCB round loop") and err.count("\n") == 1
        assert "no-such-cc" in err
        assert not out_dir.exists() or not list(out_dir.iterdir())
        assert not list(cache.iterdir())  # no half-written build left behind


def _exhausted(*args, **kwargs):
    raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (1, 10000000000)")


def test_out_of_memory_in_ucb_is_a_clean_error(bids_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "sample_reward_realization", _exhausted)
    assert main(["ucb", str(bids_file), "--units", "10", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate") and err.count("\n") == 1


def test_out_of_memory_in_simulate_is_a_clean_error(conf_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "sample_reward_realization", _exhausted)
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", str(conf_file), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1
    assert not (out_dir / "results.csv").exists()


def test_import_leaves_scipy_unloaded():
    # Only the resampler audit needs scipy, which takes longer to import
    # than the rest of the package; a fresh interpreter shows the cost.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys, procure2d; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("argv, status, output", [
    (["--help"], 0, "usage: procure2d"),
    (["verify", "--seed", "x"], 2, "invalid int value: 'x'"),
], ids=["help", "bad-argument"])
def test_runs_as_a_module(argv, status, output):
    # ``python -m procure2d`` from a checkout, where no console script exists.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "procure2d", *argv], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == status
    assert output in proc.stdout + proc.stderr


@pytest.mark.parametrize("command", ["ucb", "opt"])
def test_nan_quality_is_a_clean_error(tmp_path, capsys, command):
    bids = tmp_path / "bids.csv"
    bids.write_text(BIDS.replace("0.2,3,0.8", "0.2,3,nan"))
    assert main([command, str(bids), "--units", "6", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "qualities" in err and err.count("\n") == 1


def test_infinite_reward_scale_is_a_clean_error(bids_file, tmp_path, capsys):
    conf = tmp_path / "inf.ini"
    conf.write_text("[market]\nreward_scale = inf\n")
    out_dir = tmp_path / "out"
    assert main(["ucb", str(bids_file), "--config", str(conf), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "market.reward_scale" in err and err.count("\n") == 1
    assert not (out_dir / "trace.csv").exists()


@pytest.mark.parametrize("command,bound", [
    ("simulate", "cost_hi = inf"),
    ("ucb", "cost_hi = inf"),
    ("verify", "cost_lo = -inf"),
])
def test_non_finite_cost_bound_is_a_clean_error(bids_file, tmp_path, capsys, command, bound):
    conf = tmp_path / "bounds.ini"
    conf.write_text(TINY_CONF.replace("n = 2", f"n = 2\n{bound}"))
    bids = [str(bids_file)] if command == "ucb" else []
    out_dir = tmp_path / "out"
    out = [] if command == "verify" else ["--out", str(out_dir)]  # verify writes no file
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, *bids, "--config", str(conf), *out]) == 2
    assert capsys.readouterr().err == "error: market.cost_lo and market.cost_hi must be finite\n"
    assert caught == []
    assert not out_dir.exists()


@pytest.mark.parametrize("threads", [1, 2])
def test_overflowing_reward_scale_is_one_error_line(tmp_path, capsys, threads):
    # Utilities near 1e308 per unit overflow a float; the config check refuses
    # them before any auction runs, so no numpy warning text reaches stderr.
    conf = tmp_path / "huge.ini"
    conf.write_text("[market]\nreward_scale = 1e308\n\n[experiment]\n"
                    "l_grid = 1000\ntype_samples = 1\nrealizations = 2\n")
    out_dir = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", str(conf), "--out", str(out_dir),
                     "--threads", str(threads)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "market.reward_scale" in err and err.count("\n") == 1
    assert caught == []
    assert not out_dir.exists()


TINY_MU_CONF = """[ucb]
mu = 1e-310

[experiment]
l_grid = 20
type_samples = 1
realizations = 1
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_overflowing_premium_is_one_error_line(tmp_path, capsys, threads):
    # The premium (cost_hi - cost_lo) / mu of 1e310 per unit overflows a float;
    # the config check refuses it before any auction runs.
    conf = tmp_path / "mu.ini"
    conf.write_text(TINY_MU_CONF)
    out_dir = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", str(conf), "--out", str(out_dir),
                     "--threads", str(threads)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "ucb.mu" in err and err.count("\n") == 1
    assert caught == []
    assert not out_dir.exists()


def test_overflowing_premium_in_ucb_is_one_error_line(bids_file, tmp_path, capsys):
    conf = tmp_path / "mu.ini"
    conf.write_text(TINY_MU_CONF)
    out_dir = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["ucb", str(bids_file), "--units", "20", "--config", str(conf),
                     "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "ucb.mu" in err and err.count("\n") == 1
    assert caught == []
    assert not out_dir.exists()


def test_capacity_beyond_int64_runs_as_the_budget(tmp_path):
    # No run buys more than the budget from one agent, so a capacity of 10**20
    # gives the run of a capacity equal to the budget.
    runs = []
    for capacity in (10**20, 20):
        bids = tmp_path / f"bids-{capacity}.csv"
        bids.write_text(BIDS.replace("0,0.2,3,0.8", f"0,0.2,{capacity},0.8"))
        out_dir = tmp_path / f"out-{capacity}"
        assert main(["ucb", str(bids), "--units", "20", "--out", str(out_dir)]) == 0
        runs.append([(out_dir / name).read_bytes() for name in ("outcome.csv", "trace.csv")])
    assert runs[0] == runs[1]


NEAR_ONE_MU_CONF = """[ucb]
mu = 0.99999999999

[experiment]
l_grid = 20
type_samples = {type_samples}
realizations = 1
"""


@pytest.mark.parametrize("threads, type_samples", [(1, 1), (2, 1), (2, 2)])
def test_mu_near_one_is_one_error_line(tmp_path, capsys, threads, type_samples):
    # The config check admits any mu below 1, but this close to 1 a resampled
    # bid still moves after the resampler's cap of passes.  Two type samples
    # at two threads draw their bids in worker processes.
    conf = tmp_path / "mu.ini"
    conf.write_text(NEAR_ONE_MU_CONF.format(type_samples=type_samples))
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", str(conf), "--out", str(out_dir),
                 "--threads", str(threads)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "ucb.mu" in err and err.count("\n") == 1
    assert not out_dir.exists()


def test_mu_near_one_in_ucb_is_one_error_line(bids_file, tmp_path, capsys):
    conf = tmp_path / "mu.ini"
    conf.write_text(NEAR_ONE_MU_CONF.format(type_samples=1))
    out_dir = tmp_path / "out"
    assert main(["ucb", str(bids_file), "--units", "20", "--config", str(conf),
                 "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "ucb.mu" in err and err.count("\n") == 1
    assert not out_dir.exists()


def test_plot_refuses_nan_results(tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_text(
        "mechanism,L,mean_utility_per_unit,stderr,replications\n"
        "opt,1000,nan,nan,4\nucb,1000,1.5,0.1,4\n"
    )
    out_dir = tmp_path / "out"
    assert main(["plot", str(results), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (out_dir / "results.svg").exists()


@pytest.mark.parametrize("row, field", [("ucb,0,1.5,0.1,4", "L"),
                                        ("ucb,1000,1.5,0.1,-3", "replications")],
                         ids=["no-budget", "negative-replications"])
def test_plot_refuses_rows_below_one(tmp_path, capsys, row, field):
    results = tmp_path / "results.csv"
    results.write_text(
        f"mechanism,L,mean_utility_per_unit,stderr,replications\nopt,1000,2.0,0.1,4\n{row}\n"
    )
    out_dir = tmp_path / "out"
    assert main(["plot", str(results), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}") and err.count("\n") == 1
    assert not (out_dir / "results.svg").exists()


def test_plot_refuses_a_repeated_row(tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_text(
        "mechanism,L,mean_utility_per_unit,stderr,replications\n"
        "opt,1000,2.0,0.1,4\nucb,1000,1.5,0.1,4\nopt,1000,3.0,0.1,4\n"
    )
    out_dir = tmp_path / "out"
    assert main(["plot", str(results), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == (
        f"error: {results}, line 4: repeats mechanism opt at L = 1000\n"
    )
    assert not (out_dir / "results.svg").exists()


@pytest.mark.parametrize("exponents", ["0.3333331,0.3333332", "0.5,0.5"])
def test_simulate_refuses_eps_exponents_sharing_a_label(tmp_path, capsys, exponents):
    conf = tmp_path / "eps.ini"
    conf.write_text(TINY_CONF + f"\n[eps]\nexponents = {exponents}\n")
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", str(conf), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == "error: eps.exponents must give distinct labels\n"
    assert not out_dir.exists()


def test_malformed_bids_is_a_clean_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("agent,cost\n0,0.2\n")
    assert main(["opt", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["opt", "ucb"])
@pytest.mark.parametrize("row, fields", [("1,0.5,5", 3), ("1,0.5,5,0.6,9", 5)],
                         ids=["missing-field", "extra-field"])
def test_bids_row_of_the_wrong_width_is_a_clean_error(tmp_path, capsys, command, row, fields):
    bids = tmp_path / "bids.csv"
    bids.write_text(BIDS.replace("1,0.5,5,0.6", row))
    out_dir = tmp_path / "out"
    assert main([command, str(bids), "--units", "6", "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == (
        f"error: {bids}, line 3: {fields} fields, expected 4 (agent,cost,capacity,quality)\n"
    )
    assert not out_dir.exists()


@pytest.mark.parametrize("row, fields", [("ucb,1000,1.5,0.1", 4), ("ucb,1000,1.5,0.1,4,4", 6)],
                         ids=["missing-field", "extra-field"])
def test_results_row_of_the_wrong_width_is_a_clean_error(tmp_path, capsys, row, fields):
    results = tmp_path / "results.csv"
    results.write_text(
        f"mechanism,L,mean_utility_per_unit,stderr,replications\nopt,1000,2.0,0.1,4\n{row}\n"
    )
    out_dir = tmp_path / "out"
    assert main(["plot", str(results), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == (
        f"error: {results}, line 3: {fields} fields, expected 5"
        " (mechanism,L,mean_utility_per_unit,stderr,replications)\n"
    )
    assert not out_dir.exists()


def test_verify_output_is_pinned(capsys):
    # Every audit number of one verify run, byte for byte: a change to an
    # audit, the batch UCB kernel or the reward-table draw shows here.
    assert main(["verify", "--seed", "0"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "verify-seed-0.txt").read_text()


def test_verify_subcommand_passes_and_prints_reports(capsys):
    assert main(["verify", "--seed", "5"]) == 0
    lines = [l for l in capsys.readouterr().out.strip().splitlines() if "status=" in l]
    assert len(lines) >= 5
    assert all("status=pass" in l or "status=inconclusive" in l for l in lines)
    names = " ".join(lines)
    assert "resampler-law" in names
    assert "opt-truthfulness" in names
    assert "ucb-stochastic-truthfulness" in names


@pytest.mark.parametrize("price", [
    lambda cost, units: cost * units,
    lambda cost, units: float("nan"),
], ids=["pay-your-bid", "nan-payment"])
def test_verify_exits_1_when_an_audit_fails(capsys, monkeypatch, price):
    # A pay-your-bid optimal auction is not truthful, and one whose payments
    # are NaN cannot be shown truthful: verify must say so in both cases.
    from procure2d import MechanismOutcome, audits

    run_2d_opt = audits.run_2d_opt

    def faulty(config, qualities, bids):
        outcome = run_2d_opt(config, qualities, bids)
        payments = np.array([price(b.cost, k) for b, k in zip(bids, outcome.allocation)])
        return MechanismOutcome(outcome.allocation, payments, outcome.auctioneer_utility)

    monkeypatch.setattr(audits, "run_2d_opt", faulty)
    assert main(["verify", "--seed", "0"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(" status=fail " in line for line in lines)
