"""End-to-end tests of the command-line interface."""

import argparse
import csv
import errno
import json
import math
import os
import pathlib
import stat
import warnings

import numpy as np
import pytest

from longshort import cli, commands, optimizer
from test_acceptance import TOY_REFERENCE

TOY_FLAGS = ["--mu", "-0.1", "--sigma", "0.15", "--v0", "1"]


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _write_prices(path, prices, column="adj_close"):
    with open(path, "w") as fh:
        fh.write(f"date,{column}\n")
        for i, p in enumerate(prices):
            fh.write(f"2019-{1 + i // 28:02d}-{1 + i % 28:02d},{p}\n")


def _geometric_prices(seed, n, drift=-0.001, vol=0.02, start=100.0):
    rng = np.random.default_rng(seed)
    steps = 1 + drift + vol * rng.standard_normal(n - 1)
    return start * np.concatenate([[1.0], np.cumprod(steps)])


class TestCurveCommand:
    def test_closed_form_toy_curve(self, tmp_path):
        out = tmp_path / "curve.csv"
        rc = cli.main(
            ["curve", *TOY_FLAGS, "--stage", "90", "--grid", "200", "--out", str(out)]
        )
        assert rc == 0
        rows = _read_csv(out)
        assert len(rows) == 200
        stds = np.array([float(r["std"]) for r in rows])
        means = np.array([float(r["mean"]) for r in rows])
        # read the curve at std = 0.3, as the paper's graphical approach does
        assert np.all(np.diff(stds) > 0.0)
        gain_ref = TOY_REFERENCE[90][1]
        assert abs(np.interp(0.3, stds, means) - gain_ref) <= 0.01
        manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
        assert manifest["command"] == "curve"
        assert manifest["outputs"] == [str(out)]

    def test_small_gain_std_column_strictly_increases(self, tmp_path):
        out = tmp_path / "curve.csv"
        rc = cli.main(
            ["curve", *TOY_FLAGS, "--stage", "90", "--k-max", "1e-4", "--grid", "1001",
             "--out", str(out)]
        )
        assert rc == 0
        stds = np.array([float(r["std"]) for r in _read_csv(out)])
        assert stds[0] == 0.0
        assert np.all(np.diff(stds) > 0.0)

    def test_degenerate_moments_flat_curve(self, tmp_path):
        out = tmp_path / "flat.csv"
        rc = cli.main(
            ["curve", "--mu", "0", "--sigma", "0", "--stage", "5", "--grid", "7", "--out", str(out)]
        )
        assert rc == 0
        rows = _read_csv(out)
        assert all(float(r["std"]) == 0.0 and float(r["mean"]) == 0.0 for r in rows)

    def test_stage_too_small_is_domain_error(self, tmp_path, capsys):
        rc = cli.main(
            ["curve", *TOY_FLAGS, "--stage", "1", "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 3
        assert "stage" in capsys.readouterr().err

    def test_empirical_mode(self, tmp_path):
        prices = tmp_path / "prices.csv"
        _write_prices(prices, _geometric_prices(0, 80))
        out = tmp_path / "emp_curve.csv"
        rc = cli.main(
            [
                "curve", "--prices", str(prices), "--stage", "20", "--grid", "9",
                "--n-paths", "4000", "--seed", "5", "--out", str(out),
            ]
        )
        assert rc == 0
        rows = _read_csv(out)
        assert len(rows) == 9
        manifest = json.loads((tmp_path / "emp_curve.csv.manifest.json").read_text())
        assert manifest["seed"] == 5


class TestOptimizeCommand:
    @pytest.mark.parametrize(
        "stage,k_paper", [("30", 0.327), ("60", 0.188)]
    )
    def test_toy_solutions(self, tmp_path, stage, k_paper):
        out = tmp_path / "res.json"
        rc = cli.main(
            ["optimize", *TOY_FLAGS, "--stage", stage, "--target-std", "0.3", "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert abs(payload["k_star"] - k_paper) <= 0.01
        assert payload["alpha"] == 0.5
        assert payload["expected_gain"] > 0.0

    @pytest.mark.parametrize("stage", ["10", "90"])
    def test_tiny_budget_fits_below_it(self, tmp_path, stage):
        out = tmp_path / "res.json"
        rc = cli.main(
            ["optimize", *TOY_FLAGS, "--stage", stage, "--target-std", "1e-7", "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert 1e-7 - 1e-9 <= payload["achieved_std"] <= 1e-7

    @pytest.mark.parametrize("target", ["1e-200", "1e-300"])
    def test_budget_whose_variance_underflows_is_refused(self, tmp_path, capsys, target):
        argv = ["optimize", *TOY_FLAGS, "--stage", "10", "--target-std", target]
        assert cli.main([*argv, "--out", str(tmp_path / "r.json")]) == 3
        assert capsys.readouterr().err == (
            f"error: target_std / v0 = {float(target)} is below {optimizer._MIN_RELATIVE_STD}, "
            "where the fit's variance underflows double precision\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_nonpositive_target_rejected(self, tmp_path, capsys):
        rc = cli.main(
            ["optimize", *TOY_FLAGS, "--stage", "30", "--target-std", "0",
             "--out", str(tmp_path / "r.json")]
        )
        assert rc == 3
        assert "target_std" in capsys.readouterr().err

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["optimize", "--stage", "30"])  # missing --target-std
        assert exc_info.value.code == 2

    def test_empirical_mode_defaults_stage_to_train_length(self, tmp_path):
        prices = tmp_path / "prices.csv"
        _write_prices(prices, _geometric_prices(1, 60))
        out = tmp_path / "res.json"
        rc = cli.main(
            ["optimize", "--prices", str(prices), "--target-std", "0.01",
             "--n-paths", "4000", "--seed", "2", "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["stage"] == 59

    @pytest.mark.parametrize("command", ["optimize", "curve"])
    def test_k_max_refused_with_prices(self, tmp_path, capsys, command):
        prices = tmp_path / "prices.csv"
        _write_prices(prices, _geometric_prices(1, 60))
        out = tmp_path / "out"
        flags = ["--target-std", "0.01"] if command == "optimize" else ["--stage", "20"]
        rc = cli.main(
            [command, "--prices", str(prices), *flags, "--k-max", "0.3",
             "--n-paths", "200", "--out", str(out)]
        )
        assert rc == 3
        assert "--k-max" in capsys.readouterr().err
        assert not out.exists()


class TestSimulateCommand:
    def test_no_trade_zero_stats(self, tmp_path):
        out = tmp_path / "est.json"
        rc = cli.main(
            ["simulate", *TOY_FLAGS, "--k-gain", "0", "--stage", "10",
             "--n-paths", "2000", "--seed", "1", "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["mean"] == 0.0
        assert payload["variance"] == 0.0

    def test_mc_mean_matches_closed_form_within_5_se(self, tmp_path):
        from longshort import expected_gain

        out = tmp_path / "est.json"
        rc = cli.main(
            ["simulate", *TOY_FLAGS, "--k-gain", "0.137", "--stage", "90",
             "--n-paths", "50000", "--seed", "7", "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        want = expected_gain(0.5, 0.137, 90, -0.1)
        assert abs(payload["mean"] - want) <= 5 * payload["std_error_of_mean"]

    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", *TOY_FLAGS, "--k-gain", "0.3", "--stage", "12",
                "--n-paths", "3000", "--seed", "9"]
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert cli.main([*args, "--out", str(out1)]) == 0
        assert cli.main([*args, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_optional_sample_trajectory(self, tmp_path):
        out = tmp_path / "est.json"
        traj = tmp_path / "one_path.csv"
        rc = cli.main(
            ["simulate", *TOY_FLAGS, "--k-gain", "0.3", "--stage", "12",
             "--n-paths", "2000", "--seed", "9", "--out", str(out),
             "--trajectory-out", str(traj)]
        )
        assert rc == 0
        rows = _read_csv(traj)
        assert len(rows) == 13
        assert float(rows[0]["v_total"]) == 1.0
        manifest = json.loads((tmp_path / "est.json.manifest.json").read_text())
        assert str(traj) in manifest["outputs"]

    def test_variance_past_double_range_is_refused(self, tmp_path, capsys):
        # v0 = 1e300 puts the gains near 1e300, whose squared spread overflows.
        argv = [
            "simulate", "--mu", "4.697142325910983e-06", "--sigma", "6.711119629768038e-06",
            "--stage", "660", "--v0", "1e+300", "--k-gain", "7.070976877571752e-10",
            "--alpha", "0.32581032260071263", "--n-paths", "94",
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main([*argv, "--out", str(tmp_path / "est.json")])
        assert rc == 3
        assert capsys.readouterr().err == (
            "error: the sample variance of the gain-loss leaves double range at stage 660\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_account_overflow_is_refused_without_warnings(self, tmp_path, capsys):
        # Past double range a short account meets inf - inf, which numpy would
        # warn about before the typed refusal.
        argv = [
            "simulate", "--mu", "0.02", "--sigma", "0.13", "--stage", "80000",
            "--k-gain", "0.8", "--n-paths", "10",
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main([*argv, "--out", str(tmp_path / "est.json")])
        assert rc == 3
        assert capsys.readouterr().err == "error: account value overflowed double precision\n"
        assert list(tmp_path.iterdir()) == []

    def test_prices_payload_equals_the_bank_estimate(self, tmp_path):
        from longshort import (
            McGainEstimator, ReturnModel, load_prices_csv, pmf_from_returns, returns_from_prices,
        )

        prices, out = tmp_path / "prices.csv", tmp_path / "est.json"
        _write_prices(prices, _heavy_tailed_prices(12))
        rc = cli.main(
            ["simulate", "--prices", str(prices), "--alpha", "0.25", "--k-gain", "0.5",
             "--stage", "125", "--v0", "2", "--n-paths", "20000", "--seed", "6",
             "--out", str(out)]
        )
        assert rc == 0
        pmf = pmf_from_returns(returns_from_prices(load_prices_csv(prices)))
        est = McGainEstimator(ReturnModel.from_pmf(pmf), 125, 20000, 6).estimate(0.25, 0.5, 2.0)
        assert json.loads(out.read_text()) == {
            "mean": est.mean,
            "variance": est.variance,
            "std": est.std,
            "std_error_of_mean": est.std_error_of_mean,
            "n_paths": 20000,
            "seed": 6,
            "stage": 125,
            "alpha": 0.25,
            "k_gain": 0.5,
            "v0": 2.0,
        }


class TestBacktestCommand:
    def test_fit_and_replay(self, tmp_path):
        train = tmp_path / "train.csv"
        test = tmp_path / "test.csv"
        _write_prices(train, _geometric_prices(3, 120, drift=-0.002))
        _write_prices(test, _geometric_prices(4, 120, drift=0.002))
        prefix = str(tmp_path / "bt")
        rc = cli.main(
            ["backtest", "--train-prices", str(train), "--test-prices", str(test),
             "--target-std", "0.05", "--v0", "1", "--n-paths", "5000",
             "--seed", "0", "--out-prefix", prefix]
        )
        assert rc == 0
        summary = json.loads((tmp_path / "bt_summary.json").read_text())
        assert summary["cash_financed"]
        assert 0.0 < summary["fit"]["k_star"] <= 1.0
        rows = _read_csv(tmp_path / "bt_trajectory.csv")
        assert len(rows) == 120  # test stages + 1
        assert summary["terminal_gain"] == pytest.approx(float(rows[-1]["gain_loss"]))
        manifest = json.loads((tmp_path / "bt.manifest.json").read_text())
        assert set(manifest["outputs"]) == {
            str(tmp_path / "bt_trajectory.csv"),
            str(tmp_path / "bt_summary.json"),
        }

    def test_flat_test_segment_gains_nothing(self, tmp_path):
        train = tmp_path / "train.csv"
        test = tmp_path / "flat.csv"
        _write_prices(train, _geometric_prices(5, 100))
        _write_prices(test, np.full(50, 250.0))
        prefix = str(tmp_path / "bt")
        rc = cli.main(
            ["backtest", "--train-prices", str(train), "--test-prices", str(test),
             "--target-std", "0.05", "--n-paths", "4000", "--seed", "0",
             "--out-prefix", prefix]
        )
        assert rc == 0
        summary = json.loads((tmp_path / "bt_summary.json").read_text())
        assert summary["terminal_gain"] == 0.0

    def test_portfolio_config_mode(self, tmp_path):
        files = {}
        for i, drift in enumerate((-0.002, 0.001, 0.0005)):
            train = tmp_path / f"train{i}.csv"
            test = tmp_path / f"test{i}.csv"
            _write_prices(train, _geometric_prices(10 + i, 90, drift=drift))
            _write_prices(test, _geometric_prices(20 + i, 90, drift=-drift))
            files[i] = (train, test)
        config = {
            "v0": 100.0,
            "assets": [
                {"name": f"a{i}", "train_prices": str(files[i][0]),
                 "test_prices": str(files[i][1]), "target_std": s}
                for i, s in enumerate((2.0, 0.5, 1.0))
            ],
        }
        config_path = tmp_path / "portfolio.json"
        config_path.write_text(json.dumps(config))
        prefix = str(tmp_path / "multi")
        rc = cli.main(
            ["backtest", "--portfolio-config", str(config_path),
             "--n-paths", "3000", "--seed", "1", "--out-prefix", prefix]
        )
        assert rc == 0
        summary = json.loads((tmp_path / "multi_summary.json").read_text())
        assert len(summary["assets"]) == 3
        assert summary["v0"] == 100.0
        rows = _read_csv(tmp_path / "multi_trajectory.csv")
        per_asset = [float(rows[-1][f"gain_a{i}"]) for i in range(3)]
        assert sum(per_asset) == pytest.approx(summary["terminal_gain"], abs=1e-12)
        assert summary["max_leverage_ratio"] <= 1.0 + 1e-12

    def test_price_column_flag_reaches_portfolio_assets(self, tmp_path):
        # An asset that names no column reads --price-column's, as a single-asset
        # backtest does; one that names its column keeps it.
        for name, seed in (("train", 60), ("test", 61)):
            adj_close = _geometric_prices(seed, 90, drift=-0.001, vol=0.02)
            close = _geometric_prices(seed + 10, 90, drift=0.002, vol=0.03)
            with open(tmp_path / f"{name}.csv", "w") as fh:
                fh.write("date,adj_close,close\n")
                for i, (a, c) in enumerate(zip(adj_close, close)):
                    fh.write(f"2019-{1 + i // 28:02d}-{1 + i % 28:02d},{a},{c}\n")
        files = {"train_prices": str(tmp_path / "train.csv"),
                 "test_prices": str(tmp_path / "test.csv"), "target_std": 0.02}
        unnamed, named = tmp_path / "unnamed.json", tmp_path / "named.json"
        unnamed.write_text(json.dumps({"assets": [files]}))
        named.write_text(json.dumps({"assets": [{**files, "price_column": "adj_close"}]}))
        fits = {}
        for column in ("close", "adj_close"):
            assert cli.main(
                ["backtest", "--train-prices", files["train_prices"], "--test-prices",
                 files["test_prices"], "--target-std", "0.02", "--price-column", column,
                 "--out-prefix", str(tmp_path / column)]
            ) == 0
            fits[column] = json.loads((tmp_path / f"{column}_summary.json").read_text())["fit"]
        assert fits["close"]["k_star"] != fits["adj_close"]["k_star"]
        for column in ("close", "adj_close"):
            for config in (unnamed, named):
                prefix = tmp_path / f"{config.stem}_{column}"
                assert cli.main(
                    ["backtest", "--portfolio-config", str(config), "--price-column", column,
                     "--out-prefix", str(prefix)]
                ) == 0
                summary = json.loads((tmp_path / f"{prefix.name}_summary.json").read_text())
                read = column if config is unnamed else "adj_close"
                assert summary["assets"][0]["fit"] == fits[read]
                manifest = json.loads((tmp_path / f"{prefix.name}.manifest.json").read_text())
                assert manifest["parameters"]["price_column"] == column

    def test_portfolio_train_lengths_must_agree(self, tmp_path, capsys):
        assets = []
        for i, n_prices in enumerate((90, 61)):
            train = tmp_path / f"train{i}.csv"
            test = tmp_path / f"test{i}.csv"
            _write_prices(train, _geometric_prices(30 + i, n_prices))
            _write_prices(test, _geometric_prices(40 + i, 50))
            assets.append(
                {"train_prices": str(train), "test_prices": str(test), "target_std": 1.0}
            )
        config_path = tmp_path / "portfolio.json"
        config_path.write_text(json.dumps({"v0": 100.0, "assets": assets}))
        prefix = tmp_path / "uneven"
        rc = cli.main(
            ["backtest", "--portfolio-config", str(config_path),
             "--n-paths", "200", "--out-prefix", str(prefix)]
        )
        assert rc == 3
        assert "[60, 89]" in capsys.readouterr().err
        assert not (tmp_path / "uneven_summary.json").exists()


class TestReproCommand:
    def test_toy_preset(self, tmp_path):
        rc = cli.main(["repro", "toy", "--out-dir", str(tmp_path / "toy")])
        assert rc == 0
        results = json.loads((tmp_path / "toy" / "toy_results.json").read_text())
        solved = {s["stage"]: s for s in results["solutions"]}
        for stage, k_paper in [(10, 0.786), (30, 0.327), (60, 0.188), (90, 0.137)]:
            assert abs(solved[stage]["k_star"] - k_paper) <= 0.01
        for stage in (10, 30, 60, 90):
            assert (tmp_path / "toy" / f"toy_curve_k{stage}.csv").exists()
        assert (tmp_path / "toy" / "manifest.json").exists()

    def test_tsla_preset_with_synthetic_files(self, tmp_path):
        train = tmp_path / "train.csv"
        test = tmp_path / "test.csv"
        _write_prices(train, _geometric_prices(30, 126, drift=-0.003, vol=0.03))
        _write_prices(test, _geometric_prices(31, 126, drift=0.003, vol=0.03))
        rc = cli.main(
            ["repro", "tsla", "--train-prices", str(train), "--test-prices", str(test),
             "--seed", "0", "--out-dir", str(tmp_path / "out")]
        )
        assert rc == 0
        summary = json.loads((tmp_path / "out" / "tsla_summary.json").read_text())
        assert summary["fit"]["target_std"] == 0.08
        assert summary["v0"] == 1.0

    def test_repro_tsla_requires_files(self, capsys):
        rc = cli.main(["repro", "tsla", "--out-dir", "unused_dir"])
        assert rc == 3

    def test_three_stock_manifest_lists_the_config_it_writes(self, tmp_path):
        files = []
        for i in range(3):
            train, test = tmp_path / f"train{i}.csv", tmp_path / f"test{i}.csv"
            _write_prices(train, _geometric_prices(40 + i, 126, drift=-0.003, vol=0.03))
            _write_prices(test, _geometric_prices(50 + i, 60, drift=0.003, vol=0.03))
            files += ["--train-prices", str(train), "--test-prices", str(test)]
        out_dir = tmp_path / "out"
        assert cli.main(["repro", "three-stock", *files, "--out-dir", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "repro three-stock"
        assert manifest["parameters"]["train_prices"] == files[1::4]
        assert manifest["parameters"]["test_prices"] == files[3::4]
        config = str(out_dir / "three_stock_config.json")
        assert manifest["outputs"] == [
            config,
            str(out_dir / "three_stock_trajectory.csv"),
            str(out_dir / "three_stock_summary.json"),
        ]
        written = json.loads((out_dir / "three_stock_config.json").read_text())
        assert written["v0"] == 100.0
        assert [a["target_std"] for a in written["assets"]] == [0.08, 0.01, 0.02]
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(
            ["manifest.json", *(os.path.basename(p) for p in manifest["outputs"])]
        )


class TestExitCodes:
    def test_internal_consistency_maps_to_4(self, monkeypatch, capsys):
        from longshort import InternalConsistencyError

        def boom(args):
            raise InternalConsistencyError("proved invariant failed")

        monkeypatch.setattr(commands, "curve", boom)
        rc = cli.main(["curve", "--mu", "0.1", "--sigma", "0.1", "--stage", "5"])
        assert rc == 4
        assert "internal consistency" in capsys.readouterr().err


class TestInputFiles:
    """Unreadable or malformed input files are typed refusals (exit 3), not tracebacks."""

    def _portfolio(self, tmp_path, capsys, config, text=None):
        path = tmp_path / "portfolio.json"
        path.write_text(json.dumps(config) if text is None else text)
        rc = cli.main(
            ["backtest", "--portfolio-config", str(path), "--out-prefix", str(tmp_path / "p")]
        )
        return rc, capsys.readouterr().err

    def _asset(self, tmp_path):
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        _write_prices(train, _geometric_prices(1, 40))
        _write_prices(test, _geometric_prices(2, 40))
        return {"train_prices": str(train), "test_prices": str(test), "target_std": 0.5}

    @pytest.mark.parametrize(
        "command, prices, err",
        [
            (["curve", "--stage", "6", "--grid", "3"], ["101.1605", "2e-308", "99.9"],
             "returns must be strictly above -1"),
            (["optimize", "--target-std", "0.01"], ["1e-300", "100.5287", "100.6172", "104.7601"],
             "bounds must satisfy -1 < x_min < 0 < x_max < inf, got "
             "x_min=0.0008803456127453777, x_max=1.005287e+302"),
            (["backtest", "--target-std", "0.01"], ["1e-300", "100.5287", "100.6172", "104.7601"],
             "bounds must satisfy -1 < x_min < 0 < x_max < inf, got "
             "x_min=0.0008803456127453777, x_max=1.005287e+302"),
        ],
        ids=["curve-return-overflows", "optimize-variance-overflows", "backtest-variance-overflows"],
    )
    def test_price_file_past_double_range_warns_nothing(self, tmp_path, capsys, command, prices, err):
        path = tmp_path / "p.csv"
        _write_prices(path, prices)
        if command[0] == "backtest":
            files = ["--train-prices", str(path), "--test-prices", str(path),
                     "--out-prefix", str(tmp_path / "bt")]
        else:
            files = ["--prices", str(path), "--out", str(tmp_path / "out")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([*command, *files]) == 3
        assert capsys.readouterr().err == f"error: {err}\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_an_infinite_test_return_is_refused_by_name(self, tmp_path, capsys):
        # 1e300 / 1e-300 - 1 is inf: the replay refuses it as a return, not as a gain
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        _write_prices(train, _geometric_prices(1, 40))
        _write_prices(test, ["1e-300", "1e300", "1e300"])
        argv = ["backtest", "--train-prices", str(train), "--test-prices", str(test),
                "--target-std", "0.001", "--out-prefix", str(tmp_path / "bt")]
        assert cli.main(argv) == 3
        assert capsys.readouterr().err == "error: returns must be finite\n"
        assert sorted(tmp_path.iterdir()) == [test, train]

    def test_missing_price_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        rc = cli.main(
            ["optimize", "--prices", str(missing), "--target-std", "0.1",
             "--out", str(tmp_path / "o.json")]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{missing}: cannot read price file" in err

    def test_missing_train_file_in_backtest(self, tmp_path, capsys):
        test = tmp_path / "test.csv"
        _write_prices(test, _geometric_prices(2, 40))
        rc = cli.main(
            ["backtest", "--train-prices", str(tmp_path / "gone.csv"), "--test-prices",
             str(test), "--target-std", "0.1", "--out-prefix", str(tmp_path / "b")]
        )
        assert rc == 3
        assert "gone.csv: cannot read price file" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        rc = cli.main(["backtest", "--portfolio-config", str(missing)])
        assert rc == 3
        assert f"error: {missing}: cannot read portfolio config" in capsys.readouterr().err

    def test_malformed_config_file(self, tmp_path, capsys):
        rc, err = self._portfolio(tmp_path, capsys, None, text='{"assets": [')
        assert rc == 3
        assert "malformed portfolio config" in err

    def test_config_without_assets(self, tmp_path, capsys):
        rc, err = self._portfolio(tmp_path, capsys, {"v0": 10.0})
        assert rc == 3
        assert "portfolio.json: missing key 'assets'" in err

    def test_asset_without_test_prices(self, tmp_path, capsys):
        asset = self._asset(tmp_path)
        del asset["test_prices"]
        rc, err = self._portfolio(tmp_path, capsys, {"assets": [asset]})
        assert rc == 3
        assert "portfolio.json: asset 0: missing key 'test_prices'" in err

    @pytest.mark.parametrize(
        "key, value", [("target_std", "0.5"), ("target_std", True), ("train_prices", 5)]
    )
    def test_wrongly_typed_asset_key(self, tmp_path, capsys, key, value):
        asset = self._asset(tmp_path)
        rc, err = self._portfolio(tmp_path, capsys, {"assets": [asset, {**asset, key: value}]})
        assert rc == 3
        assert f"asset 1: key {key!r} must be" in err

    def test_integer_beyond_double_range(self, tmp_path, capsys):
        big = 10**400
        rc, err = self._portfolio(tmp_path, capsys, {"v0": big, "assets": []})
        assert rc == 3
        path = tmp_path / "portfolio.json"
        assert err == f"error: {path}: key 'v0' must be a number within double range\n"
        asset = {**self._asset(tmp_path), "target_std": big}
        rc, err = self._portfolio(tmp_path, capsys, {"assets": [asset]})
        assert rc == 3
        assert err == (
            f"error: {path}: asset 0: key 'target_std' must be a number within double range\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "portfolio.json", "test.csv", "train.csv"
        ]

    def test_integer_too_long_to_read(self, tmp_path, capsys):
        rc, err = self._portfolio(tmp_path, capsys, None, text='{"v0": ' + "1" * 5000 + "}")
        assert rc == 3
        assert "malformed portfolio config (Exceeds the limit (4300 digits)" in err

    def test_config_not_an_object(self, tmp_path, capsys):
        rc, err = self._portfolio(tmp_path, capsys, [1, 2])
        assert rc == 3
        assert "expected a JSON object" in err

    def test_asset_not_an_object(self, tmp_path, capsys):
        rc, err = self._portfolio(tmp_path, capsys, {"assets": [self._asset(tmp_path), "tsla"]})
        assert rc == 3
        assert err == (
            f"error: {tmp_path / 'portfolio.json'}: asset 1: expected a JSON object, got 'tsla'\n"
        )

    def test_a_byte_order_mark_is_skipped(self, tmp_path, capsys):
        # A mark that joined the first column's name would hide `date` from the date
        # check and `adj_close` from the fit, and make the JSON config malformed.
        bom = "\ufeff"
        dates = bom + "date,adj_close\n2019-01-03,100\n2019-01-02,101\n2019-01-01,99\n"
        (tmp_path / "dates.csv").write_text(dates + "2019-01-04,102\n", encoding="utf-8")
        argv = ["optimize", "--target-std", "0.001", "--out", str(tmp_path / "r.json")]
        assert cli.main([*argv, "--prices", str(tmp_path / "dates.csv")]) == 3
        assert capsys.readouterr().err == "error: dates: dates must be strictly increasing\n"
        prices = _geometric_prices(1, 40)
        marked, plain = tmp_path / "marked.csv", tmp_path / "plain.csv"
        rows = "".join(f"{p!r}\n" for p in prices.tolist())
        plain.write_text("adj_close\n" + rows, encoding="utf-8")
        marked.write_text(bom + plain.read_text(encoding="utf-8"), encoding="utf-8")
        assert cli.main([*argv, "--prices", str(marked)]) == 0
        fit = (tmp_path / "r.json").read_text()
        assert cli.main([*argv, "--prices", str(plain)]) == 0
        assert (tmp_path / "r.json").read_text() == fit
        config = json.dumps({"assets": [{**self._asset(tmp_path), "target_std": 1e-4}]})
        rc, err = self._portfolio(tmp_path, capsys, None, text=bom + config)
        assert (rc, err) == (0, "")
        summary = (tmp_path / "p_summary.json").read_text()
        assert self._portfolio(tmp_path, capsys, None, text=config) == (0, "")
        assert (tmp_path / "p_summary.json").read_text() == summary

    @pytest.mark.parametrize("names", [(None, None), ("x", "x"), (None, "train")])
    def test_asset_labels_must_be_distinct(self, tmp_path, capsys, names):
        # A repeated label heads two trajectory columns, and a CSV reader keeps the last.
        asset = {**self._asset(tmp_path), "target_std": 1e-4}
        assets = [asset if name is None else {**asset, "name": name} for name in names]
        rc, err = self._portfolio(tmp_path, capsys, {"assets": [{**asset, "name": "a"}, *assets]})
        assert rc == 3
        label = names[0] or "train"
        assert err == (
            f"error: {tmp_path / 'portfolio.json'}: assets 1 and 2 share the label {label!r}\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "portfolio.json", "test.csv", "train.csv"
        ]

    def test_three_stock_labels_must_be_distinct(self, tmp_path, capsys):
        asset = self._asset(tmp_path)
        files = ["--train-prices", asset["train_prices"], "--test-prices", asset["test_prices"]]
        out_dir = tmp_path / "out"
        assert cli.main(["repro", "three-stock", *files * 3, "--out-dir", str(out_dir)]) == 3
        assert capsys.readouterr().err == (
            f"error: {out_dir / 'three_stock_config.json'}: assets 0 and 1 share the label 'train'\n"
        )
        assert not out_dir.exists()

    def test_config_with_no_assets(self, tmp_path, capsys):
        rc, err = self._portfolio(tmp_path, capsys, {"assets": []})
        assert rc == 3
        assert err == f"error: {tmp_path / 'portfolio.json'}: no assets listed\n"
        assert [p.name for p in tmp_path.iterdir()] == ["portfolio.json"]


class TestSeedEnvOverride:
    def test_env_var_supplies_default_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "123")
        out = tmp_path / "est.json"
        rc = cli.main(
            ["simulate", *TOY_FLAGS, "--k-gain", "0.2", "--stage", "5",
             "--n-paths", "2000", "--out", str(out)]
        )
        assert rc == 0
        assert json.loads(out.read_text())["seed"] == 123

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "123")
        out = tmp_path / "est.json"
        rc = cli.main(
            ["simulate", *TOY_FLAGS, "--k-gain", "0.2", "--stage", "5",
             "--n-paths", "2000", "--seed", "7", "--out", str(out)]
        )
        assert rc == 0
        assert json.loads(out.read_text())["seed"] == 7

    def test_env_var_that_is_not_an_integer(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "abc")
        out = tmp_path / "est.json"
        rc = cli.main(
            ["simulate", *TOY_FLAGS, "--k-gain", "0.2", "--stage", "5", "--out", str(out)]
        )
        assert rc == 3
        assert capsys.readouterr().err == "error: LONGSHORT_SEED='abc' is not an integer\n"
        assert list(tmp_path.iterdir()) == []


def _heavy_tailed_prices(seed, n_returns=125, vol=0.035, drift=-0.0008, clip=0.45):
    """Prices whose returns are clipped Student-t (3 dof) draws, as daily stock returns."""
    rng = np.random.default_rng(seed)
    x = rng.standard_t(3, n_returns) / np.sqrt(3.0)
    steps = 1.0 + np.clip(drift + vol * x, -clip, clip)
    return 100.0 * np.concatenate([[1.0], np.cumprod(steps)])


def _exact_std(path, k_gain, stage, v0=1.0):
    """std(G) at alpha = 1/2 in Fraction arithmetic, for i.i.d. draws from the file's PMF.

    With E[x] = mu and E[x^2] = m2 per period, the long and short factors
    P = prod(1 + K x) and Q = prod(1 - K x) have E[P^2] = (1 + 2Kmu + K^2 m2)^k,
    E[Q^2] = (1 - 2Kmu + K^2 m2)^k and E[PQ] = (1 - K^2 m2)^k; only the final
    square root rounds.
    """
    from fractions import Fraction

    from longshort import load_prices_csv, returns_from_prices

    rets = [Fraction(x) for x in returns_from_prices(load_prices_csv(path)).tolist()]
    mu = sum(rets) / len(rets)
    m2 = sum(x * x for x in rets) / len(rets)
    k, v, half = Fraction(k_gain), Fraction(v0), Fraction(1, 2)
    km, kk = k * mu, k * k * m2
    mean = half * (1 + km) ** stage + half * (1 - km) ** stage
    second = (
        half * half * ((1 + 2 * km + kk) ** stage + (1 - 2 * km + kk) ** stage)
        + 2 * half * half * (1 - kk) ** stage
    )
    return float(v * v * (second - mean * mean)) ** 0.5


def _pmf_moments(path):
    from longshort import ReturnModel, load_prices_csv, pmf_from_returns, returns_from_prices

    return ReturnModel.from_pmf(pmf_from_returns(returns_from_prices(load_prices_csv(path))))


class TestExactFits:
    """--prices fits and curves use the closed form at the PMF's exact moments."""

    def test_optimize_prices_honours_budget_exactly(self, tmp_path):
        prices = tmp_path / "heavy.csv"
        _write_prices(prices, _heavy_tailed_prices(2019))
        for target in (0.08, 0.02, 0.01):
            out = tmp_path / f"fit_{target}.json"
            rc = cli.main(
                ["optimize", "--prices", str(prices), "--target-std", repr(target),
                 "--seed", "4", "--out", str(out)]
            )
            assert rc == 0
            fit = json.loads(out.read_text())
            assert fit["stage"] == 125
            exact = _exact_std(prices, fit["k_star"], 125)
            assert target - 1e-9 <= exact <= target + 1e-9
            assert abs(fit["achieved_std"] - exact) <= 1e-9 * exact
            manifest = json.loads((tmp_path / f"fit_{target}.json.manifest.json").read_text())
            assert manifest["seed"] == 4
            assert manifest["parameters"]["n_paths"] is None

    def test_backtest_fit_equals_optimize_prices(self, tmp_path):
        from longshort import solve_optimal_gain

        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        _write_prices(train, _heavy_tailed_prices(7))
        _write_prices(test, _heavy_tailed_prices(8, n_returns=60))
        prefix = str(tmp_path / "bt")
        assert cli.main(
            ["backtest", "--train-prices", str(train), "--test-prices", str(test),
             "--target-std", "0.02", "--n-paths", "1000", "--out-prefix", prefix]
        ) == 0
        out = tmp_path / "opt.json"
        assert cli.main(
            ["optimize", "--prices", str(train), "--target-std", "0.02", "--out", str(out)]
        ) == 0
        fit = json.loads((tmp_path / "bt_summary.json").read_text())["fit"]
        assert fit == json.loads(out.read_text())
        model = _pmf_moments(train)
        res = solve_optimal_gain(model.mu, model.sigma2, 1.0, 125, model.k_max, 0.02)
        assert (fit["k_star"], fit["achieved_std"]) == (res.k_star, res.achieved_std)
        manifest = json.loads((tmp_path / "bt.manifest.json").read_text())
        assert manifest["parameters"]["n_paths"] is None

    def test_portfolio_fit_equals_optimize_prices_at_split_capital(self, tmp_path):
        targets = (0.1, 0.2, 0.4)
        assets = []
        for i, target in enumerate(targets):
            train, test = tmp_path / f"train{i}.csv", tmp_path / f"test{i}.csv"
            _write_prices(train, _heavy_tailed_prices(30 + i, vol=0.015 + 0.01 * i))
            _write_prices(test, _heavy_tailed_prices(40 + i, n_returns=80))
            assets.append(
                {"name": f"a{i}", "train_prices": str(train), "test_prices": str(test),
                 "target_std": target}
            )
        config = tmp_path / "portfolio.json"
        config.write_text(json.dumps({"v0": 30.0, "assets": assets}))
        assert cli.main(
            ["backtest", "--portfolio-config", str(config), "--out-prefix", str(tmp_path / "pf")]
        ) == 0
        summary = json.loads((tmp_path / "pf_summary.json").read_text())
        for i, asset in enumerate(assets):
            out = tmp_path / f"opt{i}.json"
            assert cli.main(
                ["optimize", "--prices", asset["train_prices"], "--target-std",
                 repr(asset["target_std"]), "--v0", repr(30.0 / 3), "--out", str(out)]
            ) == 0
            assert summary["assets"][i]["fit"] == json.loads(out.read_text())

    def test_curve_prices_bytes_equal_closed_form_curve(self, tmp_path):
        from longshort import build_curve

        prices = tmp_path / "heavy.csv"
        _write_prices(prices, _heavy_tailed_prices(11))
        out = tmp_path / "curve.csv"
        assert cli.main(
            ["curve", "--prices", str(prices), "--stage", "125", "--grid", "33",
             "--seed", "3", "--out", str(out)]
        ) == 0
        model = _pmf_moments(prices)
        want = tmp_path / "want.csv"
        build_curve(model.mu, model.sigma2, 1.0, 125, model.k_max, 33).write_csv(want)
        assert out.read_bytes() == want.read_bytes()
        manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
        assert manifest["seed"] == 3 and manifest["parameters"]["n_paths"] is None


class TestOutputDirectories:
    """An output that cannot be written (its directory is missing, its path is
    empty, or it is a directory) is a typed refusal that writes nothing."""

    def test_out_in_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "x.json"
        rc = cli.main(
            ["optimize", *TOY_FLAGS, "--stage", "10", "--target-std", "0.1", "--out", str(out)]
        )
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: {out}: cannot write output (No such file or directory)\n"
        )
        assert list(tmp_path.iterdir()) == []
        out.parent.write_text("a file, not a directory")
        rc = cli.main(
            ["optimize", *TOY_FLAGS, "--stage", "10", "--target-std", "0.1", "--out", str(out)]
        )
        assert rc == 3
        assert capsys.readouterr().err == f"error: {out}: cannot write output (Not a directory)\n"
        assert list(tmp_path.iterdir()) == [out.parent]

    def test_out_prefix_in_missing_directory(self, tmp_path, capsys):
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        _write_prices(train, _geometric_prices(3, 60))
        _write_prices(test, _geometric_prices(4, 60))
        prefix = tmp_path / "nodir" / "bt"
        rc = cli.main(
            ["backtest", "--train-prices", str(train), "--test-prices", str(test),
             "--target-std", "0.01", "--out-prefix", str(prefix)]
        )
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: {prefix}_trajectory.csv: cannot write output (No such file or directory)\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["test.csv", "train.csv"]

    def test_trajectory_out_in_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "est.json"
        traj = tmp_path / "nodir" / "one_path.csv"
        rc = cli.main(
            ["simulate", *TOY_FLAGS, "--k-gain", "0.3", "--stage", "12",
             "--n-paths", "2000", "--out", str(out), "--trajectory-out", str(traj)]
        )
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: {traj}: cannot write output (No such file or directory)\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_out_naming_a_directory(self, tmp_path, capsys):
        args = ["optimize", *TOY_FLAGS, "--stage", "10", "--target-std", "0.1"]
        out = tmp_path / "somedir"
        out.mkdir()
        assert cli.main([*args, "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {out}: output file is an existing directory\n"
        manifest = tmp_path / "x.json.manifest.json"
        manifest.mkdir()
        assert cli.main([*args, "--out", str(tmp_path / "x.json")]) == 3
        assert f"error: {manifest}: output file" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == [out.name, manifest.name]

    def test_out_prefix_file_naming_a_directory(self, tmp_path, capsys):
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        _write_prices(train, _geometric_prices(3, 60))
        _write_prices(test, _geometric_prices(4, 60))
        prefix = tmp_path / "bt"
        (tmp_path / "bt_summary.json").mkdir()
        rc = cli.main(
            ["backtest", "--train-prices", str(train), "--test-prices", str(test),
             "--target-std", "0.01", "--out-prefix", str(prefix)]
        )
        assert rc == 3
        assert f"error: {prefix}_summary.json: output file" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == [
            "bt_summary.json", "test.csv", "train.csv"
        ]

    def test_trajectory_out_naming_a_directory(self, tmp_path, capsys):
        out = tmp_path / "est.json"
        traj = tmp_path / "one_path.csv"
        traj.mkdir()
        rc = cli.main(
            ["simulate", *TOY_FLAGS, "--k-gain", "0.3", "--stage", "12",
             "--n-paths", "2000", "--out", str(out), "--trajectory-out", str(traj)]
        )
        assert rc == 3
        assert f"error: {traj}: output file" in capsys.readouterr().err
        assert list(tmp_path.rglob("*")) == [traj]

    def test_trajectory_out_with_a_trailing_separator(self, tmp_path, capsys):
        traj = f"{tmp_path / 'one_path.csv'}{os.sep}"
        rc = cli.main(
            ["simulate", *TOY_FLAGS, "--k-gain", "0.3", "--stage", "12", "--n-paths", "2000",
             "--out", str(tmp_path / "est.json"), "--trajectory-out", traj]
        )
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: {traj}: cannot write output (No such file or directory)\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", ["r.json", "./r.json", "r.json.manifest.json"])
    def test_two_outputs_naming_one_file(self, tmp_path, capsys, name):
        # The trajectory would overwrite the estimate, or the manifest the
        # trajectory; the run is refused before anything is written.
        traj = f"{tmp_path}{os.sep}{name}"
        rc = cli.main(
            ["simulate", *TOY_FLAGS, "--k-gain", "0.3", "--stage", "5", "--n-paths", "100",
             "--out", str(tmp_path / "r.json"), "--trajectory-out", traj]
        )
        assert rc == 3
        assert capsys.readouterr().err == f"error: {traj}: two outputs of the run name this file\n"
        assert list(tmp_path.iterdir()) == []

    def test_empty_out(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = cli.main(["optimize", *TOY_FLAGS, "--stage", "10", "--target-std", "0.1", "--out", ""])
        assert rc == 3
        assert capsys.readouterr().err == "error: output file path is empty\n"
        assert list(tmp_path.iterdir()) == []

    def test_empty_trajectory_out(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = cli.main(
            ["simulate", *TOY_FLAGS, "--k-gain", "0.3", "--stage", "12",
             "--n-paths", "2000", "--out", "est.json", "--trajectory-out", ""]
        )
        assert rc == 3
        assert capsys.readouterr().err == "error: output file path is empty\n"
        assert list(tmp_path.iterdir()) == []

    def test_empty_out_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["repro", "toy", "--out-dir", ""]) == 3
        assert capsys.readouterr().err == "error: output directory path is empty\n"
        assert list(tmp_path.iterdir()) == []

    def test_out_dir_that_is_not_a_directory(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("a file, not a directory")
        for out_dir, why in ((afile, "File exists"), (afile / "sub", "Not a directory")):
            assert cli.main(["repro", "toy", "--out-dir", str(out_dir)]) == 3
            assert capsys.readouterr().err == f"error: {out_dir}: cannot write output ({why})\n"
        out_dir = tmp_path / "out"
        (out_dir / "toy_results.json").mkdir(parents=True)
        assert cli.main(["repro", "toy", "--out-dir", str(out_dir)]) == 3
        assert f"error: {out_dir / 'toy_results.json'}: output file" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["afile", "out", "toy_results.json"]
        assert afile.read_text() == "a file, not a directory"


class TestOutputsTheOsRefuses:
    """A write that the OS refuses exits 3 with one error line and leaves no output."""

    OPTIMIZE = ["optimize", *TOY_FLAGS, "--stage", "10", "--target-std", "0.1"]

    @pytest.mark.parametrize(
        "stem, refused",
        [("a" * 300, ".json"), ("b" * 245, ".json.manifest.json")],
        ids=["output-name-too-long", "manifest-name-too-long"],
    )
    def test_name_too_long(self, tmp_path, capsys, stem, refused):
        # The second result file is 250 characters and is staged; its
        # 264-character manifest is refused, so nothing is renamed.
        out = tmp_path / f"{stem}.json"
        assert cli.main([*self.OPTIMIZE, "--out", str(out)]) == 3
        refused_path = tmp_path / (stem + refused)
        assert capsys.readouterr().err == (
            f"error: {refused_path}: cannot write output (File name too long)\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_a_refused_name_keeps_an_earlier_file(self, tmp_path, capsys):
        # Each output is staged under a name as long as its own, so the
        # manifest's name is refused before the earlier result is replaced.
        out = tmp_path / ("b" * 245 + ".json")
        out.write_text("earlier")
        assert cli.main([*self.OPTIMIZE, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: {out}.manifest.json: cannot write output (File name too long)\n"
        )
        assert list(tmp_path.iterdir()) == [out]
        assert out.read_text() == "earlier"

    def test_out_dir_name_too_long(self, tmp_path, capsys):
        out_dir = tmp_path / ("c" * 300)
        assert cli.main(["repro", "toy", "--out-dir", str(out_dir)]) == 3
        assert capsys.readouterr().err == (
            f"error: {out_dir}: cannot write output (File name too long)\n"
        )
        assert list(tmp_path.iterdir()) == []

    CURVE = ["curve", *TOY_FLAGS, "--stage", "10", "--grid", "5"]

    @staticmethod
    def _files(directory):
        return {p.name: p.read_bytes() for p in directory.rglob("*") if p.is_file()}

    @pytest.mark.parametrize("earlier_run", [False, True])
    def test_full_disk_removes_what_the_run_wrote(
        self, tmp_path, capsys, monkeypatch, earlier_run
    ):
        # The manifest write fails partway. Every file the run staged goes, and
        # an earlier run's curve and manifest stay as they were, byte for byte.
        out = tmp_path / "curve.csv"
        manifest = tmp_path / "curve.csv.manifest.json"
        if earlier_run:
            assert cli.main(["curve", *TOY_FLAGS, "--stage", "12", "--grid", "7",
                             "--out", str(out)]) == 0
            capsys.readouterr()
        before = self._files(tmp_path)
        assert sorted(before) == (["curve.csv", manifest.name] if earlier_run else [])

        def disk_fills(path, payload):
            with open(path, "w") as fh:
                fh.write("{")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

        monkeypatch.setattr(commands, "_write_json", disk_fills)
        assert cli.main([*self.CURVE, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: {manifest}: cannot write output (No space left on device)\n"
        )
        assert self._files(tmp_path) == before
        assert sorted(tmp_path.iterdir()) == sorted(tmp_path / name for name in before)

    def test_a_writer_that_fails_otherwise_leaves_no_staged_file(self, tmp_path, monkeypatch):
        # A bug in a writer propagates as itself, after the staged files go.
        out = tmp_path / "curve.csv"
        assert cli.main([*self.CURVE, "--out", str(out)]) == 0
        before = self._files(tmp_path)

        def writer_bug(path, payload):
            with open(path, "w") as fh:
                fh.write("{")
            raise RuntimeError("a bug in a writer")

        monkeypatch.setattr(commands, "_write_json", writer_bug)
        with pytest.raises(RuntimeError, match="a bug in a writer"):
            cli.main(["curve", *TOY_FLAGS, "--stage", "12", "--grid", "7", "--out", str(out)])
        assert self._files(tmp_path) == before
        assert len(list(tmp_path.iterdir())) == 2

    def test_repro_refused_at_its_fourth_file_keeps_the_earlier_run(
        self, tmp_path, capsys, monkeypatch
    ):
        out_dir = tmp_path / "toy"
        assert cli.main(["repro", "toy", "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        before = self._files(tmp_path)
        write_csv, written = optimizer.MeanStdCurve.write_csv, []

        def fourth_write_fails(curve, path):
            written.append(path)
            if len(written) == 4:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
            write_csv(curve, path)

        monkeypatch.setattr(optimizer.MeanStdCurve, "write_csv", fourth_write_fails)
        # A different preset v0 makes every file the refused run writes differ.
        monkeypatch.setitem(commands.TOY_PRESET, "v0", 2.0)
        assert cli.main(["repro", "toy", "--out-dir", str(out_dir)]) == 3
        assert capsys.readouterr().err == (
            f"error: {out_dir / 'toy_curve_k90.csv'}: cannot write output "
            "(No space left on device)\n"
        )
        assert self._files(tmp_path) == before
        assert len(list(out_dir.iterdir())) == 6

    @pytest.mark.parametrize("parent_existed", [False, True])
    def test_refused_repro_removes_the_directories_it_created(
        self, tmp_path, capsys, monkeypatch, parent_existed
    ):
        if parent_existed:
            (tmp_path / "new").mkdir()
        out_dir = tmp_path / "new" / "deeper"

        def disk_fills(curve, path):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

        monkeypatch.setattr(optimizer.MeanStdCurve, "write_csv", disk_fills)
        assert cli.main(["repro", "toy", "--out-dir", str(out_dir)]) == 3
        assert capsys.readouterr().err == (
            f"error: {out_dir / 'toy_curve_k10.csv'}: cannot write output "
            "(No space left on device)\n"
        )
        assert [p.relative_to(tmp_path) for p in tmp_path.rglob("*")] == (
            [pathlib.Path("new")] if parent_existed else []
        )

    def test_symlinked_out_is_written_through(self, tmp_path):
        target = tmp_path / "data" / "curve.csv"
        target.parent.mkdir()
        target.write_text("an earlier curve")
        link = tmp_path / "curve.csv"
        link.symlink_to(target)
        assert cli.main([*self.CURVE, "--out", str(link)]) == 0
        assert cli.main([*self.CURVE, "--out", str(tmp_path / "plain.csv")]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == (tmp_path / "plain.csv").read_bytes()
        assert [p.name for p in target.parent.iterdir()] == ["curve.csv"]

    def test_outputs_take_the_mode_of_a_new_file(self, tmp_path):
        # Staged files are created as open(path, "w") creates one, under the
        # umask; an output that is replaced takes that mode too.
        out = tmp_path / "curve.csv"
        out.write_text("an earlier curve")
        out.chmod(0o600)
        umask = os.umask(0o027)
        try:
            assert cli.main([*self.CURVE, "--out", str(out)]) == 0
        finally:
            os.umask(umask)
        for path in (out, tmp_path / "curve.csv.manifest.json"):
            assert stat.S_IMODE(path.stat().st_mode) == 0o640


class TestRequestsTooLargeForMemory:
    """A request too large to allocate exits 3 with one error line, not a traceback.

    Every size here is 10**15 or more, beyond the address space, so numpy
    refuses it before touching any memory.
    """

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--mu", "0.01", "--sigma", "0.02", "--stage", "10", "--k-gain", "0.5",
             "--n-paths", "1000000000000000"],
            ["simulate", "--mu", "0.01", "--sigma", "0.02", "--stage", "1000000000000000",
             "--k-gain", "0.5", "--n-paths", "2"],
            ["curve", "--mu", "0.01", "--sigma", "0.02", "--stage", "10",
             "--grid", "1000000000000000"],
        ],
        ids=["simulate-paths", "simulate-stage", "curve-grid"],
    )
    def test_exits_3(self, tmp_path, capsys, argv):
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: not enough memory for this request (Unable to allocate")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestCountsPastAnyArray:
    """A count no double or array can hold is refused where it enters, and exits 3.

    numpy raises ValueError, not MemoryError, once an array's byte count
    passes sys.maxsize, and a stage past double range overflows the closed
    form's k * theta; the checks refuse both first, with a one-line error.
    """

    @pytest.mark.parametrize(
        "argv, refusal",
        [
            (["optimize", "--target-std", "0.01", "--stage", str(10**400)], "stage must be <="),
            (["curve", "--stage", str(10**400)], "stage must be <="),
            (["curve", "--stage", "10", "--grid", str(2**60)], "grid_size must be <="),
            (["simulate", "--stage", "10", "--k-gain", "0.5", "--n-paths", str(2**60)],
             "n_paths must be <="),
            (["simulate", "--stage", str(2**59), "--k-gain", "0.5", "--n-paths", "2"],
             "stage must be <="),
            (["simulate", "--stage", str(2**63 - 1), "--k-gain", "0.5", "--n-paths", "2"],
             "stage must be <="),
            (["optimize", "--target-std", "0.01", "--stage", str(10**308)], "stage must be <="),
            (["curve", "--stage", str(2**59)], "stage must be <="),
        ],
        ids=["optimize-stage", "curve-stage", "curve-grid", "simulate-paths",
             "simulate-stage", "simulate-stage-past-int64", "optimize-stage-in-double-range",
             "curve-stage-at-ceiling"],
    )
    def test_exits_3(self, tmp_path, capsys, argv, refusal):
        moments = ["--mu", "0.01", "--sigma", "0.02"]
        assert cli.main([*argv, *moments, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {refusal}")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_a_fit_at_the_ceiling_writes_strict_json(self, tmp_path):
        argv = ["optimize", "--mu", "0.01", "--sigma", "0.02", "--target-std", "0.01",
                "--stage", str(2**59 - 1), "--out", str(tmp_path / "fit.json")]
        assert cli.main(argv) == 0

        def refuse(constant):
            raise ValueError(f"non-finite JSON constant {constant}")

        fit = json.loads((tmp_path / "fit.json").read_text(), parse_constant=refuse)
        assert fit["stage"] == 2**59 - 1
        assert fit["target_std"] - 1e-9 <= fit["achieved_std"] <= fit["target_std"]

    def test_the_second_moment_rule_refuses_before_any_point(self, tmp_path, capsys):
        # K^2 (sigma2 + mu^2) at k_max = 1 is 25.01: refused at the ceiling, not at a grid point
        argv = ["curve", "--mu", "0.1", "--sigma", "5", "--k-max", "1", "--stage", "10",
                "--grid", "5", "--out", str(tmp_path / "curve.csv")]
        assert cli.main(argv) == 3
        assert capsys.readouterr().err == "error: k_gain^2 * (sigma2 + mu^2) = 25.01 exceeds 1\n"
        assert list(tmp_path.iterdir()) == []

    def test_a_seed_has_no_ceiling(self, tmp_path):
        argv = ["simulate", "--mu", "0.01", "--sigma", "0.02", "--stage", "10", "--k-gain", "0.5",
                "--n-paths", "100", "--seed", str(10**400), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 0


# The CLI surface as it stood before the parser was built from a flag table:
# per (subcommand, help), every action's class, option strings, default,
# type, required flag, choices and help, in order.
CLI_SURFACE = {
    ('curve', 'trace the (std, mean) curve over the gain grid'): [
        ('_HelpAction', ['-h', '--help'], '==SUPPRESS==', None, False, None,
         'show this help message and exit'),
        ('_StoreAction', ['--mu'], None, float, False, None,
         'mean per-period return'),
        ('_StoreAction', ['--sigma'], None, float, False, None,
         'std of per-period returns'),
        ('_StoreAction', ['--prices'], None, None, False, None,
         'price CSV; builds an empirical PMF instead of moments'),
        ('_StoreAction', ['--price-column'], 'adj_close', None, False, None,
         "price column name (default 'adj_close')"),
        ('_StoreAction', ['--v0'], 1.0, float, False, None,
         'initial account value'),
        ('_StoreAction', ['--seed'], None, int, False, None,
         'RNG seed (default 0 or $LONGSHORT_SEED)'),
        ('_StoreAction', ['--stage'], None, int, True, None,
         'target stage k'),
        ('_StoreAction', ['--grid'], 200, int, False, None,
         'number of gain grid points'),
        ('_StoreAction', ['--k-max'], None, float, False, None,
         'override the gain ceiling (moment flags only; refused with --prices)'),
        ('_StoreAction', ['--n-paths'], None, int, False, None,
         'ignored: fits are exact from the return moments; paths apply to simulate only'),
        ('_StoreAction', ['--out'], 'curve.csv', None, False, None,
         'output CSV path'),
    ],
    ('optimize', 'solve for the gain under a std budget'): [
        ('_HelpAction', ['-h', '--help'], '==SUPPRESS==', None, False, None,
         'show this help message and exit'),
        ('_StoreAction', ['--mu'], None, float, False, None,
         'mean per-period return'),
        ('_StoreAction', ['--sigma'], None, float, False, None,
         'std of per-period returns'),
        ('_StoreAction', ['--prices'], None, None, False, None,
         'price CSV; builds an empirical PMF instead of moments'),
        ('_StoreAction', ['--price-column'], 'adj_close', None, False, None,
         "price column name (default 'adj_close')"),
        ('_StoreAction', ['--v0'], 1.0, float, False, None,
         'initial account value'),
        ('_StoreAction', ['--seed'], None, int, False, None,
         'RNG seed (default 0 or $LONGSHORT_SEED)'),
        ('_StoreAction', ['--target-std'], None, float, True, None,
         None),
        ('_StoreAction', ['--stage'], None, int, False, None,
         'target stage k (default: train length)'),
        ('_StoreAction', ['--k-max'], None, float, False, None,
         'override the gain ceiling (moment flags only; refused with --prices)'),
        ('_StoreAction', ['--tol'], 1e-09, float, False, None,
         None),
        ('_StoreAction', ['--n-paths'], None, int, False, None,
         'ignored: fits are exact from the return moments; paths apply to simulate only'),
        ('_StoreAction', ['--out'], 'optimal_gain.json', None, False, None,
         None),
    ],
    ('simulate', 'Monte-Carlo estimate of gain statistics'): [
        ('_HelpAction', ['-h', '--help'], '==SUPPRESS==', None, False, None,
         'show this help message and exit'),
        ('_StoreAction', ['--mu'], None, float, False, None,
         'mean per-period return'),
        ('_StoreAction', ['--sigma'], None, float, False, None,
         'std of per-period returns'),
        ('_StoreAction', ['--prices'], None, None, False, None,
         'price CSV; builds an empirical PMF instead of moments'),
        ('_StoreAction', ['--price-column'], 'adj_close', None, False, None,
         "price column name (default 'adj_close')"),
        ('_StoreAction', ['--v0'], 1.0, float, False, None,
         'initial account value'),
        ('_StoreAction', ['--seed'], None, int, False, None,
         'RNG seed (default 0 or $LONGSHORT_SEED)'),
        ('_StoreAction', ['--alpha'], 0.5, float, False, None,
         None),
        ('_StoreAction', ['--k-gain'], None, float, True, None,
         None),
        ('_StoreAction', ['--stage'], None, int, True, None,
         None),
        ('_StoreAction', ['--n-paths'], 50000, int, False, None,
         'Monte-Carlo paths (default 50000)'),
        ('_StoreAction', ['--out'], 'mc_estimate.json', None, False, None,
         None),
        ('_StoreAction', ['--trajectory-out'], None, None, False, None,
         "also write one seeded sample path's account trajectory CSV"),
    ],
    ('backtest', 'fit on one price segment, replay another'): [
        ('_HelpAction', ['-h', '--help'], '==SUPPRESS==', None, False, None,
         'show this help message and exit'),
        ('_StoreAction', ['--train-prices'], None, None, False, None,
         'training price CSV (single asset)'),
        ('_StoreAction', ['--test-prices'], None, None, False, None,
         'out-of-sample price CSV (single asset)'),
        ('_StoreAction', ['--portfolio-config'], None, None, False, None,
         'JSON portfolio description (multi-asset)'),
        ('_StoreAction', ['--target-std'], None, float, False, None,
         None),
        ('_StoreAction', ['--price-column'], 'adj_close', None, False, None,
         "price column name (default 'adj_close')"),
        ('_StoreAction', ['--v0'], 1.0, float, False, None,
         None),
        ('_StoreAction', ['--tol'], 1e-09, float, False, None,
         None),
        ('_StoreAction', ['--n-paths'], None, int, False, None,
         'ignored: fits are exact from the return moments; paths apply to simulate only'),
        ('_StoreAction', ['--seed'], None, int, False, None,
         None),
        ('_StoreAction', ['--out-prefix'], 'backtest', None, False, None,
         None),
    ],
    ('repro', 'run a named worked-example preset'): [
        ('_HelpAction', ['-h', '--help'], '==SUPPRESS==', None, False, None,
         'show this help message and exit'),
        ('_StoreAction', [], None, None, True, ['toy', 'tsla', 'three-stock'],
         None),
        ('_AppendAction', ['--train-prices'], None, None, False, None,
         'price CSV (repeatable)'),
        ('_AppendAction', ['--test-prices'], None, None, False, None,
         'price CSV (repeatable)'),
        ('_StoreAction', ['--price-column'], 'adj_close', None, False, None,
         "price column name (default 'adj_close')"),
        ('_StoreAction', ['--seed'], None, int, False, None,
         None),
        ('_StoreAction', ['--out-dir'], 'repro_out', None, False, None,
         None),
    ],
}


def _cli_surface():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    helps = {choice.dest: choice.help for choice in sub._choices_actions}
    return {
        (name, helps[name]): [
            (type(a).__name__, a.option_strings, a.default, a.type, a.required, a.choices, a.help)
            for a in subparser._actions
        ]
        for name, subparser in sub.choices.items()
    }


def test_cli_surface_unchanged():
    surface = _cli_surface()
    assert list(surface) == list(CLI_SURFACE)
    for command, actions in CLI_SURFACE.items():
        assert surface[command] == actions, command


class TestRefusedInputs:
    """Bad numbers and conflicting flags exit 3 with an error line and write nothing."""

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["optimize", "--mu", "nan", "--sigma", "0.15", "--target-std", "0.1"], "mu"),
            (["optimize", "--mu", "inf", "--sigma", "0.15", "--target-std", "0.1"], "mu"),
            (["optimize", *TOY_FLAGS, "--v0", "nan", "--target-std", "0.1"], "v0"),
            (["optimize", *TOY_FLAGS, "--v0", "inf", "--target-std", "0.1"], "v0"),
            (["optimize", *TOY_FLAGS, "--target-std", "nan"], "target_std"),
            (["curve", "--mu", "-0.1", "--sigma", "nan"], "sigma"),
            (["curve", "--mu", "-0.1", "--sigma", "inf"], "sigma2"),
        ],
    )
    def test_non_finite_numbers(self, tmp_path, capsys, argv, named):
        out = tmp_path / "out"
        assert cli.main([*argv, "--stage", "10", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert list(tmp_path.iterdir()) == []

    def test_moment_flags_need_mu_and_sigma(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert cli.main(["curve", "--mu", "0.1", "--stage", "10", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: supply either --prices or both --mu and --sigma\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "mu, sigma, refusal",
        [("0.3", "0.1", "bounds must satisfy -1 < x_min < 0 < x_max < inf, got "
                        "x_min=0.19999999999999998, x_max=0.4"),
         ("0.5", "1.6", "PMF support must lie strictly above -1")],
        ids=["no-loss", "below-minus-one"],
    )
    @pytest.mark.parametrize("command", ["optimize", "curve", "simulate"])
    def test_only_simulate_reads_a_law_from_moment_flags(
        self, tmp_path, capsys, command, mu, sigma, refusal
    ):
        # The fits read (mu, sigma2) and k_max alone; simulate samples {mu - sigma, mu + sigma},
        # here {0.2, 0.4}, which never loses, or {-1.1, 2.1}, which loses more than everything.
        rest = {
            "optimize": ["--target-std", "0.01"],
            "curve": ["--grid", "5"],
            "simulate": ["--k-gain", "0.1", "--n-paths", "100"],
        }[command]
        argv = [command, "--mu", mu, "--sigma", sigma, "--stage", "10", *rest]
        rc = cli.main([*argv, "--out", str(tmp_path / "out")])
        want = (3, f"error: {refusal}\n") if command == "simulate" else (0, "")
        assert (rc, capsys.readouterr().err) == want

    def test_single_asset_backtest_needs_all_three_flags(self, tmp_path, capsys):
        train = tmp_path / "train.csv"
        _write_prices(train, _geometric_prices(1, 40))
        rc = cli.main(
            ["backtest", "--train-prices", str(train), "--out-prefix", str(tmp_path / "b")]
        )
        assert rc == 3
        assert capsys.readouterr().err == (
            "error: single-asset backtest needs --train-prices, --test-prices and --target-std\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["train.csv"]

    def test_non_finite_portfolio_target(self, tmp_path, capsys):
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        _write_prices(train, _geometric_prices(1, 40))
        _write_prices(test, _geometric_prices(2, 40))
        config = tmp_path / "portfolio.json"
        asset = {"train_prices": str(train), "test_prices": str(test), "target_std": float("nan")}
        config.write_text(json.dumps({"assets": [asset]}))
        prefix = tmp_path / "p"
        rc = cli.main(["backtest", "--portfolio-config", str(config), "--out-prefix", str(prefix)])
        assert rc == 3
        assert "error: asset 0: target_std must be positive, got nan" in capsys.readouterr().err
        assert not (tmp_path / "p_summary.json").exists()

    @pytest.mark.parametrize(
        "command, rest", [("curve", []), ("optimize", ["--target-std", "0.1"])]
    )
    def test_negative_sigma(self, tmp_path, capsys, command, rest):
        out = tmp_path / "out"
        rc = cli.main(
            [command, "--mu", "-0.1", "--sigma", "-0.15", "--stage", "10", *rest,
             "--out", str(out)]
        )
        assert rc == 3
        assert "--sigma must be nonnegative, got -0.15" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["optimize", "curve", "simulate"])
    @pytest.mark.parametrize("flag", ["--mu", "--sigma"])
    def test_moment_flag_with_prices(self, tmp_path, capsys, command, flag):
        rest = {
            "optimize": ["--target-std", "0.01"],
            "curve": ["--stage", "20"],
            "simulate": ["--stage", "20", "--k-gain", "0.1"],
        }[command]
        # the price file does not exist: the conflict is refused before any file is read
        missing = tmp_path / "missing.csv"
        rc = cli.main(
            [command, "--prices", str(missing), flag, "0.1", *rest, "--out", str(tmp_path / "o")]
        )
        assert rc == 3
        assert capsys.readouterr().err.startswith(f"error: {flag} conflicts with --prices")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n_train, n_test", [(2, 2), (2, 1), (1, 2)])
    def test_repro_tsla_takes_each_file_once(self, tmp_path, capsys, n_train, n_test):
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        _write_prices(train, _geometric_prices(30, 126, drift=-0.003, vol=0.03))
        _write_prices(test, _geometric_prices(31, 126, drift=0.003, vol=0.03))
        out_dir = tmp_path / "out"
        rc = cli.main(
            ["repro", "tsla", *["--train-prices", str(train)] * n_train,
             *["--test-prices", str(test)] * n_test, "--out-dir", str(out_dir)]
        )
        assert rc == 3
        assert "repro tsla needs --train-prices and --test-prices once each" in (
            capsys.readouterr().err
        )
        assert not out_dir.exists()

    def test_repro_toy_takes_no_price_files(self, tmp_path, capsys):
        # the files need not exist: the flags are refused before anything is read
        out_dir = tmp_path / "rt"
        rc = cli.main(
            ["repro", "toy", "--train-prices", str(tmp_path / "nope.csv"),
             "--test-prices", str(tmp_path / "nope2.csv"), "--out-dir", str(out_dir)]
        )
        assert rc == 3
        assert capsys.readouterr().err.startswith(
            "error: repro toy takes no price files"
        )
        assert list(tmp_path.iterdir()) == []


    # Each command's price files are missing: a seed is refused before any file is read.
    SEED_ARGV = {
        "curve": ["curve", "--prices", "missing.csv", "--stage", "10", "--out", "o.csv"],
        "optimize": ["optimize", "--prices", "missing.csv", "--target-std", "0.1", "--out", "o"],
        "simulate": [
            "simulate", "--prices", "missing.csv", "--k-gain", "0.1", "--stage", "5",
            "--trajectory-out", "t.csv", "--out", "o.json",
        ],
        "backtest": [
            "backtest", "--train-prices", "missing.csv", "--test-prices", "missing.csv",
            "--target-std", "0.1", "--out-prefix", "bt",
        ],
        "portfolio": ["backtest", "--portfolio-config", "missing.json", "--out-prefix", "p"],
        "repro": [
            "repro", "tsla", "--train-prices", "missing.csv", "--test-prices", "missing.csv",
            "--out-dir", "out",
        ],
    }

    @pytest.mark.parametrize("command", list(SEED_ARGV))
    def test_negative_seed_flag(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        assert cli.main([*self.SEED_ARGV[command], "--seed", "-1"]) == 3
        assert capsys.readouterr().err == "error: --seed must be nonnegative, got -1\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", list(SEED_ARGV))
    def test_negative_seed_variable(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(cli.SEED_ENV_VAR, "-3")
        assert cli.main(self.SEED_ARGV[command]) == 3
        assert capsys.readouterr().err == f"error: {cli.SEED_ENV_VAR} must be nonnegative, got -3\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("tol", ["-1", "-1e-300", "inf", "-inf", "nan"])
    @pytest.mark.parametrize("command", ["optimize", "optimize --prices", "backtest"])
    def test_tol_must_be_nonnegative_and_finite(self, tmp_path, capsys, command, tol):
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        _write_prices(train, _geometric_prices(1, 40))
        _write_prices(test, _geometric_prices(2, 40))
        out = tmp_path / "out"
        argv = {
            "optimize": ["optimize", *TOY_FLAGS, "--stage", "10", "--target-std", "0.1"],
            "optimize --prices": ["optimize", "--prices", str(train), "--target-std", "0.01"],
            "backtest": [
                "backtest", "--train-prices", str(train), "--test-prices", str(test),
                "--target-std", "0.01", "--out-prefix", str(out),
            ],
        }[command]
        assert cli.main([*argv, f"--tol={tol}", *(["--out", str(out)] * (command != "backtest"))]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "tol must be nonnegative and finite" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["test.csv", "train.csv"]

    def test_zero_tol_accepted(self, tmp_path):
        out = tmp_path / "out.json"
        argv = ["optimize", *TOY_FLAGS, "--stage", "10", "--target-std", "0.1", "--tol", "0"]
        assert cli.main([*argv, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["achieved_std"] == pytest.approx(0.1, rel=1e-14)

    @pytest.mark.parametrize(
        "flag, value",
        [("--train-prices", "train.csv"), ("--test-prices", "test.csv"), ("--target-std", "0.1")],
    )
    def test_portfolio_config_refuses_single_asset_flags(self, tmp_path, monkeypatch, capsys,
                                                         flag, value):
        # the config does not exist: the conflict is refused before anything is read
        monkeypatch.chdir(tmp_path)
        rc = cli.main(
            ["backtest", "--portfolio-config", "missing.json", flag, value, "--out-prefix", "p"]
        )
        assert rc == 3
        assert capsys.readouterr().err.startswith(
            f"error: {flag} conflicts with --portfolio-config"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "prices",
        [
            [100.0] * 40,  # constant prices: every return is 0
            [2.0**i for i in range(40)],  # constant growth: every return is exactly 1
            [100.0, 101.0],  # two rows: one return
            [100.0 + i for i in range(40)],  # every return positive
        ],
        ids=["constant-prices", "constant-growth", "two-rows", "all-returns-positive"],
    )
    def test_degenerate_price_file_is_refused_for_its_support(self, tmp_path, capsys, prices):
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        _write_prices(train, prices)
        _write_prices(test, _geometric_prices(2, 40))
        config = tmp_path / "portfolio.json"
        asset = {"train_prices": str(train), "test_prices": str(test), "target_std": 0.05}
        config.write_text(json.dumps({"assets": [asset]}))
        out = ["--out", str(tmp_path / "out")]
        single = ["--train-prices", str(train), "--test-prices", str(test), "--target-std", "0.05"]
        portfolio = ["--portfolio-config", str(config)]
        runs = {
            "curve": ["curve", "--prices", str(train), "--stage", "10", *out],
            "optimize": ["optimize", "--prices", str(train), "--target-std", "0.05", *out],
            "simulate": ["simulate", "--prices", str(train), "--stage", "10", "--k-gain", "0.5",
                         *out],
            "backtest": ["backtest", *single, "--out-prefix", str(tmp_path / "b")],
            "portfolio": ["backtest", *portfolio, "--out-prefix", str(tmp_path / "p")],
        }
        errors = {}
        for name, argv in runs.items():
            assert cli.main(argv) == 3, name
            errors[name] = capsys.readouterr().err
        line = errors["curve"]
        assert line.startswith("error: bounds must satisfy -1 < x_min < 0 < x_max < inf, got ")
        portfolio_line = line.replace("error: ", "error: asset 0: ", 1)
        assert errors == {**dict.fromkeys(runs, line), "portfolio": portfolio_line}
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == ["portfolio.json", "test.csv", "train.csv"]


class TestLongHorizons:
    """A curve whose closed form leaves double range is a typed refusal (exit 3), not a
    traceback. A fit is not: an s_max past double range lies above every finite target,
    and std(K*) is far from overflow."""

    @pytest.mark.parametrize("stage", [3_500, 10**4, 10**5])
    @pytest.mark.parametrize("command", ["curve"])
    def test_overflow_exits_3(self, tmp_path, capsys, command, stage):
        out = tmp_path / "out"
        rc = cli.main([command, *TOY_FLAGS, "--stage", str(stage), "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: the variance of the gain-loss leaves double range")
        assert f"at stage {stage} with k_gain=" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("stage", [3_500, 10**4, 10**5])
    def test_fit_stays_within_budget(self, tmp_path, stage):
        out = tmp_path / "out.json"
        argv = ["optimize", *TOY_FLAGS, "--stage", str(stage), "--target-std", "1"]
        assert cli.main([*argv, "--out", str(out)]) == 0
        fit = json.loads(out.read_text())
        assert 1.0 - 1e-9 <= fit["achieved_std"] <= 1.0
        assert 0.0 < fit["k_star"] < 0.01 and math.isfinite(fit["expected_gain"])


class TestLargeInitialValue:
    """The moments scale with v0 (mean and std linearly), so a v0 near the top of
    double range rescales a finite fit or curve instead of overflowing it."""

    BIG = ["--mu", "-0.1", "--sigma", "0.15", "--v0", "1e200", "--stage", "10"]

    def test_curve_is_the_unit_curve_rescaled(self, tmp_path):
        unit, big = tmp_path / "unit.csv", tmp_path / "big.csv"
        assert cli.main(["curve", *TOY_FLAGS, "--stage", "10", "--grid", "3", "--out", str(unit)]) == 0
        assert cli.main(["curve", *self.BIG, "--grid", "3", "--out", str(big)]) == 0
        for u, b in zip(_read_csv(unit), _read_csv(big), strict=True):
            assert float(b["k_gain"]) == float(u["k_gain"])
            assert float(b["std"]) == 1e200 * float(u["std"])
            assert float(b["mean"]) == 1e200 * float(u["mean"])

    def test_fit_matches_the_unit_fit(self, tmp_path):
        # The tolerance is relative to v0, so both fits stop at the same probe.
        unit, big = tmp_path / "unit.json", tmp_path / "big.json"
        rc = cli.main(
            ["optimize", *TOY_FLAGS, "--stage", "10", "--target-std", "0.1", "--out", str(unit)]
        )
        assert rc == 0
        assert cli.main(["optimize", *self.BIG, "--target-std", "1e199", "--out", str(big)]) == 0
        u, b = json.loads(unit.read_text()), json.loads(big.read_text())
        assert abs(b["k_star"] - u["k_star"]) <= 1e-12
        assert b["achieved_std"] == pytest.approx(1e200 * u["achieved_std"], rel=1e-12)
        assert b["expected_gain"] == pytest.approx(1e200 * u["expected_gain"], rel=1e-12)


def _float_flags():
    """(subcommand, flag, dest) of every option that parses a float."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (name, action.option_strings[0], action.dest)
        for name, parser in sub.choices.items()
        for action in parser._actions
        if action.type is float
    ]


class TestNegativeExponentNumbers:
    """A negative number in exponent form, as repr() writes a small drift, is a value."""

    VALID = {
        "curve": ["--mu", "-0.1", "--sigma", "0.15", "--stage", "10", "--grid", "3"],
        "optimize": ["--mu", "-0.1", "--sigma", "0.15", "--stage", "10", "--target-std", "0.1"],
        "simulate": [
            "--mu", "-0.1", "--sigma", "0.15", "--stage", "10", "--k-gain", "0.3",
            "--n-paths", "50",
        ],
    }

    def test_every_float_flag_is_covered(self):
        flags = {(name, flag) for name, flag, _ in _float_flags()}
        assert {name for name, _ in flags} == {"curve", "optimize", "simulate", "backtest"}
        assert ("optimize", "--mu") in flags and ("backtest", "--tol") in flags

    @pytest.mark.parametrize("value", ["-3e-05", "-1E+3", "-.5e-7"])
    def test_every_float_flag_accepts_it(self, tmp_path, capsys, value):
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        _write_prices(train, _heavy_tailed_prices(70))
        _write_prices(test, _heavy_tailed_prices(71))
        valid = {
            **self.VALID,
            "backtest": [
                "--train-prices", str(train), "--test-prices", str(test), "--target-std", "0.08",
            ],
        }
        for name, flag, dest in _float_flags():
            out = ["--out-prefix" if name == "backtest" else "--out", str(tmp_path / "out")]
            argv = [name, *valid[name], flag, value, *out]  # the last occurrence wins
            assert getattr(cli.build_parser().parse_args(argv), dest) == float(value), argv
            assert cli.main(argv) in (0, 3), argv
            assert "expected one argument" not in capsys.readouterr().err

    def test_spaced_value_writes_what_the_joined_form_writes(self, tmp_path, monkeypatch):
        base = ["--sigma", "0.02", "--stage", "90", "--target-std", "0.01", "--out", "fit.json"]
        written = []
        for name, mu in (("spaced", ["--mu", "-3e-05"]), ("joined", ["--mu=-3e-05"])):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            assert cli.main(["optimize", *mu, *base]) == 0
            files = ("fit.json", "fit.json.manifest.json")
            written.append([(tmp_path / name / f).read_bytes() for f in files])
        assert written[0] == written[1]
        assert json.loads(written[0][1])["parameters"]["mu"] == -3e-05


class TestPresetsAreTheirBacktests:
    """Each repro preset writes what the commands it bundles write."""

    def test_toy_is_curve_and_optimize(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["repro", "toy", "--out-dir", str(out)]) == 0
        solutions = json.loads((out / "toy_results.json").read_text())["solutions"]
        for stage, solution in zip(commands.TOY_PRESET["stages"], solutions, strict=True):
            moments = [*TOY_FLAGS, "--stage", str(stage)]
            curve, fit = tmp_path / f"curve{stage}.csv", tmp_path / f"fit{stage}.json"
            assert cli.main(["curve", *moments, "--grid", "200", "--out", str(curve)]) == 0
            assert cli.main(["optimize", *moments, "--target-std", "0.3", "--out", str(fit)]) == 0
            assert (out / f"toy_curve_k{stage}.csv").read_bytes() == curve.read_bytes()
            assert solution == {**json.loads(fit.read_text()), "stage": stage}

    def test_tsla_is_the_single_asset_backtest(self, tmp_path):
        train, test = tmp_path / "a.csv", tmp_path / "b.csv"
        _write_prices(train, _heavy_tailed_prices(80))
        _write_prices(test, _heavy_tailed_prices(81, n_returns=300, drift=0.001))
        files = ["--train-prices", str(train), "--test-prices", str(test), "--seed", "5"]
        out, prefix = tmp_path / "out", tmp_path / "bt"
        assert cli.main(["repro", "tsla", *files, "--out-dir", str(out)]) == 0
        rc = cli.main(
            ["backtest", *files, "--target-std", "0.08", "--v0", "1", "--out-prefix", str(prefix)]
        )
        assert rc == 0
        for suffix in ("_trajectory.csv", "_summary.json"):
            assert (out / f"tsla{suffix}").read_bytes() == (tmp_path / f"bt{suffix}").read_bytes()

    def test_three_stock_is_the_portfolio_backtest(self, tmp_path):
        files = []
        for i, (vol, drift) in enumerate([(0.035, -0.0008), (0.015, 0.0012), (0.019, 0.0009)]):
            train, test = tmp_path / f"train{i}.csv", tmp_path / f"test{i}.csv"
            _write_prices(train, _heavy_tailed_prices(90 + i, vol=vol, drift=drift))
            _write_prices(test, _heavy_tailed_prices(95 + i, n_returns=200, vol=vol, drift=drift))
            files += ["--train-prices", str(train), "--test-prices", str(test)]
        out, prefix = tmp_path / "out", tmp_path / "bt"
        assert cli.main(["repro", "three-stock", *files, "--out-dir", str(out)]) == 0
        config = out / "three_stock_config.json"
        rc = cli.main(
            ["backtest", "--portfolio-config", str(config), "--out-prefix", str(prefix)]
        )
        assert rc == 0
        for suffix in ("_trajectory.csv", "_summary.json"):
            written = (out / f"three_stock{suffix}").read_bytes()
            assert written == (tmp_path / f"bt{suffix}").read_bytes()


def _subcommand_flags(command):
    """``command``'s flags by destination: (option string, whether it appends)."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        a.dest: (a.option_strings[0], isinstance(a, argparse._AppendAction))
        for a in sub.choices[command]._actions
        if a.option_strings
    }


def _argv_from_manifest(manifest):
    """The command, each recorded parameter that is one of its flags, and the seed."""
    argv = manifest["command"].split()
    flags = _subcommand_flags(argv[0])
    for name, value in manifest["parameters"].items():
        if name in flags and value is not None:
            flag, appends = flags[name]
            for item in value if appends and isinstance(value, list) else [value]:
                argv += [flag, str(item)]
    if manifest["seed"] is not None:
        argv += ["--seed", str(manifest["seed"])]
    return argv


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # a usage error
        return exc.code


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


THREE_FILES = [
    flag
    for i in range(3)
    for flag in ("--train-prices", f"train{i}.csv", "--test-prices", f"test{i}.csv")
]


class TestManifestRegeneratesItsRun:
    """A run's manifest alone, with its inputs and output flags, rebuilds the run byte for byte."""

    @staticmethod
    def _write_inputs(root):
        for i, (vol, drift) in enumerate([(0.035, -0.0008), (0.015, 0.0012), (0.019, 0.0009)]):
            train = _heavy_tailed_prices(70 + i, vol=vol, drift=drift)
            test = _heavy_tailed_prices(75 + i, n_returns=80, vol=vol, drift=drift)
            _write_prices(root / f"train{i}.csv", train)
            _write_prices(root / f"test{i}.csv", test)
        assets = [
            {"train_prices": f"train{i}.csv", "test_prices": f"test{i}.csv", "target_std": target}
            for i, target in enumerate((0.08, 0.01, 0.02))
        ]
        (root / "portfolio.json").write_text(json.dumps({"v0": 3.0, "assets": assets}))

    @pytest.mark.parametrize(
        "argv, outputs, manifest",
        [
            (["curve", *TOY_FLAGS, "--stage", "30", "--grid", "20"], ["--out", "c.csv"],
             "c.csv.manifest.json"),
            (["curve", "--prices", "train0.csv", "--stage", "30", "--grid", "20", "--seed", "3"],
             ["--out", "c.csv"], "c.csv.manifest.json"),
            (["optimize", "--prices", "train0.csv", "--target-std", "0.05", "--seed", "3"],
             ["--out", "fit.json"], "fit.json.manifest.json"),
            (["simulate", "--prices", "train0.csv", "--k-gain", "0.5", "--stage", "20",
              "--n-paths", "500", "--seed", "3"],
             ["--out", "sim.json", "--trajectory-out", "traj.csv"], "sim.json.manifest.json"),
            (["backtest", "--train-prices", "train0.csv", "--test-prices", "test0.csv",
              "--target-std", "0.08", "--v0", "2"], ["--out-prefix", "bt"], "bt.manifest.json"),
            (["backtest", "--portfolio-config", "portfolio.json", "--seed", "3"],
             ["--out-prefix", "bt"], "bt.manifest.json"),
            (["repro", "toy"], ["--out-dir", "out"], "out/manifest.json"),
            (["repro", "tsla", *THREE_FILES[:4], "--seed", "3"], ["--out-dir", "out"],
             "out/manifest.json"),
            (["repro", "three-stock", *THREE_FILES, "--seed", "3"], ["--out-dir", "out"],
             "out/manifest.json"),
        ],
        ids=["curve-moments", "curve-prices", "optimize-prices", "simulate-trajectory",
             "backtest", "backtest-portfolio", "repro-toy", "repro-tsla", "repro-three-stock"],
    )
    def test_rerun_from_manifest_is_identical(
        self, tmp_path, monkeypatch, argv, outputs, manifest
    ):
        first, second = tmp_path / "a", tmp_path / "b"
        for root in (first, second):
            root.mkdir()
            self._write_inputs(root)
        monkeypatch.chdir(first)
        assert cli.main([*argv, *outputs]) == 0
        rebuilt = _argv_from_manifest(json.loads((first / manifest).read_text()))
        monkeypatch.chdir(second)
        assert _exit_code([*rebuilt, *outputs]) == 0, rebuilt
        assert _tree(second) == _tree(first)
