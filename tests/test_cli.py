"""End-to-end tests of the command-line interface."""

import csv
import json

import numpy as np
import pytest

from longshort import cli
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


class TestExitCodes:
    def test_internal_consistency_maps_to_4(self, monkeypatch, capsys):
        from longshort import InternalConsistencyError

        def boom(args):
            raise InternalConsistencyError("proved invariant failed")

        monkeypatch.setattr(cli, "_cmd_curve", boom)
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

    def test_config_not_an_object(self, tmp_path, capsys):
        rc, err = self._portfolio(tmp_path, capsys, [1, 2])
        assert rc == 3
        assert "expected a JSON object" in err


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
    """An output that cannot be written (its directory is missing, or it is a
    directory) is a typed refusal that writes nothing."""

    def test_out_in_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "x.json"
        rc = cli.main(
            ["optimize", *TOY_FLAGS, "--stage", "10", "--target-std", "0.1", "--out", str(out)]
        )
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: {out}: output directory {out.parent} does not exist\n"
        )
        assert list(tmp_path.iterdir()) == []
        out.parent.write_text("a file, not a directory")
        rc = cli.main(
            ["optimize", *TOY_FLAGS, "--stage", "10", "--target-std", "0.1", "--out", str(out)]
        )
        assert rc == 3
        assert "is not a directory" in capsys.readouterr().err
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
        assert f"error: {prefix}: output directory" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["test.csv", "train.csv"]

    def test_trajectory_out_in_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "est.json"
        traj = tmp_path / "nodir" / "one_path.csv"
        rc = cli.main(
            ["simulate", *TOY_FLAGS, "--k-gain", "0.3", "--stage", "12",
             "--n-paths", "2000", "--out", str(out), "--trajectory-out", str(traj)]
        )
        assert rc == 3
        assert f"error: {traj}: output directory" in capsys.readouterr().err
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

    def test_out_dir_that_is_not_a_directory(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("a file, not a directory")
        for out_dir in (afile, afile / "sub"):
            assert cli.main(["repro", "toy", "--out-dir", str(out_dir)]) == 3
            assert capsys.readouterr().err == (
                f"error: {out_dir}: output directory {afile} is not a directory\n"
            )
        out_dir = tmp_path / "out"
        (out_dir / "toy_results.json").mkdir(parents=True)
        assert cli.main(["repro", "toy", "--out-dir", str(out_dir)]) == 3
        assert f"error: {out_dir / 'toy_results.json'}: output file" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["afile", "out", "toy_results.json"]
        assert afile.read_text() == "a file, not a directory"
