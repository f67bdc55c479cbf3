from pathlib import Path

import pytest

from procure2d.cli import main

GOLDEN = Path(__file__).parent / "golden"

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


def test_malformed_bids_is_a_clean_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("agent,cost\n0,0.2\n")
    assert main(["opt", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


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
