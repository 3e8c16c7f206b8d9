"""Tests of the benchmark's own parts: the exact oracle, the input generator,
the output checks and the refusal to run without the program.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from longshort import analytics, montecarlo, returns  # noqa: E402
from workloads import ASSETS, TOY, TRAIN_ROWS, TEST_ROWS, WORKLOADS  # noqa: E402

TOY_SIGMA2 = TOY["sigma"] * TOY["sigma"]


def rel(got, exact):
    return abs(got - exact) / abs(exact)


# --- oracle ---


@pytest.mark.parametrize("stage", [10, 90, 250])
@pytest.mark.parametrize("k_gain", [0.05, 0.3, 0.9])
def test_oracle_agrees_with_closed_form_at_moderate_gain(k_gain, stage):
    m = oracle.moments_from_mu_sigma(TOY["mu"], TOY["sigma"])
    got = analytics.std_gain(0.5, k_gain, stage, TOY["mu"], TOY_SIGMA2, 1.0)
    assert rel(got, oracle.exact_std(m, k_gain, stage)) <= 1e-9


@pytest.mark.parametrize("alpha", [0.5, 0.3])
@pytest.mark.parametrize("k_gain", [0.4, 1.0])
def test_oracle_agrees_with_enumeration_on_two_point_model(alpha, k_gain):
    model = returns.ReturnModel.two_point(-0.04, 0.06, 0.55)
    m = oracle.moments_from_pmf(model.pmf.values, model.pmf.weights)
    enum = montecarlo.estimate_exact_small(model, alpha, k_gain, 2.0, 8)
    assert rel(enum.variance, float(oracle.exact_variance(m, k_gain, 8, 2.0, alpha))) <= 1e-9
    assert rel(enum.mean, float(oracle.exact_mean(m, k_gain, 8, 2.0, alpha))) <= 1e-9


def test_oracle_on_a_generated_price_file(tmp_path):
    path = tmp_path / workloads.write_train_file(str(tmp_path), ASSETS[0], seed=3)
    rets = returns.returns_from_prices(returns.load_prices_csv(path))
    mine = oracle.simple_returns(workloads.read_prices(str(path)))
    assert mine == rets.tolist()  # the oracle sees the library's returns bit for bit
    m = oracle.moments_from_returns(mine)
    pmf = returns.pmf_from_returns(rets)
    enum = montecarlo.estimate_exact_small(pmf, 0.5, 0.6, 1.0, 3)  # 125^3 sequences
    assert rel(enum.variance, float(oracle.exact_variance(m, 0.6, 3))) <= 1e-9
    closed = analytics.std_gain(0.5, 0.6, TRAIN_ROWS - 1, pmf.mean(), pmf.variance())
    assert rel(closed, oracle.exact_std(m, 0.6, TRAIN_ROWS - 1)) <= 1e-9


# --- input generator ---


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_writes_identical_inputs(tmp_path, workload):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    ops = [workloads.build_ops(workload, str(d), seed) for d, seed in zip(dirs, (7, 7, 8))]
    assert ops[0] == ops[1]
    files = sorted(os.listdir(dirs[0]))
    assert files == sorted(os.listdir(dirs[1]))
    for f in files:
        assert (dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes()
    if files:
        assert any((dirs[0] / f).read_bytes() != (dirs[2] / f).read_bytes() for f in files)
    else:
        assert ops[0] != ops[2]  # closed-form-scan: the seed orders the commands


@pytest.mark.parametrize("workload", ["empirical-fit", "walk-forward-replay"])
def test_every_price_file_loads(tmp_path, workload):
    workloads.build_ops(workload, str(tmp_path), 1)
    for path in tmp_path.glob("*.csv"):
        series = returns.load_prices_csv(path)
        assert len(series) == (TRAIN_ROWS if path.name.endswith("_train.csv") else TEST_ROWS)


@pytest.mark.parametrize("asset", ASSETS, ids=lambda a: a.name)
def test_fit_budgets_are_feasible(asset):
    # The CLI estimates s_max by Monte-Carlo; keep a margin below the exact one.
    rets = workloads.train_returns(asset)
    s_max = oracle.exact_std(oracle.moments_from_returns(rets), min(1.0, 1.0 / max(rets)), TRAIN_ROWS - 1)
    assert asset.budget < s_max / 1.25


def test_scan_budgets_are_feasible():
    m = oracle.moments_from_mu_sigma(TOY["mu"], TOY["sigma"])
    for stage in workloads.SCAN_STAGES:
        assert max(workloads.SCAN_BUDGETS) < oracle.exact_std(m, workloads.TOY_K_MAX, stage)


# --- checks and statistics ---


def _write_curve(path, stds):
    k = [i / (len(stds) - 1) for i in range(len(stds))]
    rows = ["k_gain,std,mean"] + [f"{a!r},{s!r},0.0" for a, s in zip(k, stds)]
    path.write_text("\n".join(rows) + "\n")


def test_curve_check_rejects_a_decreasing_std(tmp_path):
    _write_curve(tmp_path / "good.csv", [0.0, 1e-9, 2e-9, 0.5])
    workloads._curve(str(tmp_path / "good.csv"), 4, 1.0)
    _write_curve(tmp_path / "bad.csv", [0.0, 1e-9, 0.0, 0.5])
    with pytest.raises(workloads.CheckFailed, match="std decreases"):
        workloads._curve(str(tmp_path / "bad.csv"), 4, 1.0)
    with pytest.raises(workloads.CheckFailed, match="curve rows"):
        workloads._curve(str(tmp_path / "good.csv"), 5, 1.0)
    with pytest.raises(workloads.MissingOutput):
        workloads._curve(str(tmp_path / "absent.csv"), 4, 1.0)


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(v) for v in range(1, 26)]) == (15.0, 60.0)
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 0.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "empirical-fit", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
