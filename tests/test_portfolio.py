"""Tests for the multi-asset portfolio layer."""

import csv
import dataclasses
import tracemalloc

import numpy as np
import pytest

from longshort import (
    ControllerConfig,
    InvalidParameterError,
    PortfolioAssetError,
    PortfolioConfig,
    PortfolioTrajectory,
    ReturnModel,
    optimize_portfolio,
    run_portfolio,
    simulate,
)
from test_dynamics import BLOCK_EDGES, awkward_columns

MODEL_A = ReturnModel.two_point(-0.1, 0.12, 0.5)
MODEL_B = ReturnModel.two_point(-0.2, 0.25, 0.4)
MODEL_C = ReturnModel.two_point(-0.05, 0.3, 0.6)


def _same_bits(a, b):
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def _paths(seed, m, n):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-0.05, 0.1, size=n) for _ in range(m)]


class TestPortfolioConfig:
    def test_even_split(self):
        cfg = PortfolioConfig(assets=((MODEL_A, 0.5), (MODEL_B, 0.2)), v0=10.0)
        assert cfg.n_assets == 2
        assert cfg.per_asset_v0 == 5.0
        # balanced by construction: the split is not a field
        assert "alpha" not in {f.name for f in dataclasses.fields(cfg)}

    def test_unbalanced_alpha_rejected(self):
        with pytest.raises(TypeError, match="alpha"):
            PortfolioConfig(assets=((MODEL_A, 0.5),), v0=1.0, alpha=0.7)

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            PortfolioConfig(assets=(), v0=1.0)

    def test_per_asset_admissibility_tagged(self):
        bounded = ReturnModel.two_point(-0.5, 2.0, 0.5)  # k_max = 0.5
        with pytest.raises(PortfolioAssetError) as exc_info:
            PortfolioConfig(assets=((MODEL_A, 0.5), (bounded, 0.9)), v0=1.0)
        assert exc_info.value.asset_index == 1


class TestRunPortfolio:
    def test_single_asset_reduces_to_simulate(self):
        path = _paths(0, 1, 30)[0]
        cfg = PortfolioConfig(assets=((MODEL_A, 0.7),), v0=2.0)
        traj = run_portfolio(cfg, [path])
        single = simulate(
            ControllerConfig.for_model(MODEL_A, alpha=0.5, k_gain=0.7, v0=2.0), path
        )
        assert np.array_equal(traj.total_gain_loss, single.gain_loss)
        assert np.array_equal(traj.asset_gain_loss[0], single.gain_loss)
        ratio = np.zeros_like(single.v_total)
        np.divide(np.abs(single.u_net), single.v_total, out=ratio, where=single.v_total > 0.0)
        assert np.array_equal(traj.leverage, ratio)

    def test_no_trading_anywhere(self):
        cfg = PortfolioConfig(assets=((MODEL_A, 0.0), (MODEL_B, 0.0)), v0=4.0)
        traj = run_portfolio(cfg, _paths(1, 2, 20))
        assert np.all(traj.total_gain_loss == 0.0)
        assert np.all(traj.leverage == 0.0)

    def test_total_is_exact_sum_of_assets(self):
        cfg = PortfolioConfig(
            assets=((MODEL_A, 0.3), (MODEL_B, 0.8), (MODEL_C, 0.55)), v0=9.0
        )
        traj = run_portfolio(cfg, _paths(2, 3, 40))
        summed = np.sum(traj.asset_gain_loss, axis=0)
        assert np.array_equal(traj.total_gain_loss, summed)

    @pytest.mark.parametrize("m", [1, 2, 4, 9, 33])
    def test_matches_stacked_sums_bitwise(self, m):
        # The reference keeps every trajectory and sums the stacked columns.
        models = [MODEL_A, MODEL_B, MODEL_C]
        rng = np.random.default_rng(m)
        assets = tuple((models[i % 3], float(rng.uniform(0.0, 0.9))) for i in range(m))
        cfg = PortfolioConfig(assets=assets, v0=7.0)
        paths = _paths(m, m, 300)
        trajs = [
            simulate(
                ControllerConfig.for_model(model, alpha=0.5, k_gain=k, v0=cfg.per_asset_v0), path
            )
            for (model, k), path in zip(assets, paths)
        ]
        total_value = np.sum([t.v_total for t in trajs], axis=0)
        committed = np.sum([np.abs(t.u_net) for t in trajs], axis=0)
        leverage = np.zeros_like(total_value)
        np.divide(committed, total_value, out=leverage, where=total_value > 0.0)
        traj = run_portfolio(cfg, paths)
        assert _same_bits(traj.total_gain_loss, np.sum([t.gain_loss for t in trajs], axis=0))
        assert _same_bits(traj.leverage, leverage)
        assert len(traj.asset_gain_loss) == m
        for column, t in zip(traj.asset_gain_loss, trajs):
            assert _same_bits(column, t.gain_loss)
            assert not column.flags.writeable

    def test_holds_one_trajectory_at_a_time(self):
        # Keeping all four trajectories and stacking their columns peaks at 14.9 MiB.
        n = 50_000
        cfg = PortfolioConfig(
            assets=((MODEL_A, 0.3), (MODEL_B, 0.8), (MODEL_C, 0.55), (MODEL_A, 0.6)), v0=4.0
        )
        rng = np.random.default_rng(7)
        paths = [rng.uniform(-0.02, 0.02, size=n) for _ in range(4)]
        tracemalloc.start()
        try:
            traj = run_portfolio(cfg, paths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.n_stages == n
        assert peak < 7 * 2**20

    def test_leverage_bounded_by_largest_gain(self):
        gains = (0.3, 0.8, 0.55)
        cfg = PortfolioConfig(
            assets=tuple(zip((MODEL_A, MODEL_B, MODEL_C), gains)), v0=9.0
        )
        traj = run_portfolio(cfg, _paths(3, 3, 40))
        assert np.all(traj.leverage <= max(gains) + 1e-12)

    def test_length_mismatch(self):
        cfg = PortfolioConfig(assets=((MODEL_A, 0.3), (MODEL_B, 0.4)), v0=1.0)
        paths = [_paths(4, 1, 10)[0], _paths(5, 1, 11)[0]]
        with pytest.raises(InvalidParameterError, match=r"^paths have differing lengths \[10, 11\]$"):
            run_portfolio(cfg, paths)
        with pytest.raises(InvalidParameterError, match="^got 1 paths for 2 assets$"):
            run_portfolio(cfg, paths[:1])

    def test_asset_error_tagging(self):
        cfg = PortfolioConfig(assets=((MODEL_A, 0.3), (MODEL_B, 1.0)), v0=1.0)
        bad = [np.full(5, 0.01), np.concatenate([np.full(4, 0.01), [-2.0]])]
        with pytest.raises(PortfolioAssetError) as exc_info:
            run_portfolio(cfg, bad)
        assert exc_info.value.asset_index == 1

    def test_csv_export(self, tmp_path):
        cfg = PortfolioConfig(assets=((MODEL_A, 0.3), (MODEL_B, 0.4)), v0=1.0)
        traj = run_portfolio(cfg, _paths(6, 2, 5))
        out = tmp_path / "portfolio.csv"
        traj.write_csv(out, labels=["aaa", "bbb"])
        lines = out.read_text().splitlines()
        assert lines[0] == "k,gain_aaa,gain_bbb,total_gain_loss,leverage_ratio"
        assert len(lines) == 7

    def test_csv_needs_one_label_per_asset(self, tmp_path):
        cfg = PortfolioConfig(assets=((MODEL_A, 0.3), (MODEL_B, 0.4)), v0=1.0)
        traj = run_portfolio(cfg, _paths(6, 2, 5))
        out = tmp_path / "portfolio.csv"
        for labels in (["aaa"], ["aaa", "bbb", "ccc"]):
            with pytest.raises(InvalidParameterError, match="one label per asset"):
                traj.write_csv(out, labels=labels)
        assert not out.exists()

    @pytest.mark.parametrize("n", [1, *BLOCK_EDGES, 10_000])
    def test_bytes_match_csv_writer_rows(self, tmp_path, n):
        *gains, leverage = awkward_columns(n, 3, seed=n)
        traj = PortfolioTrajectory(tuple(gains), leverage)
        labels = ["a,b", 'q"x']  # a comma and a quote: the header must quote both
        out = tmp_path / "portfolio.csv"
        traj.write_csv(out, labels=labels)
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                ["k"]
                + [f"gain_{label}" for label in labels]
                + ["total_gain_loss", "leverage_ratio"]
            )
            for k in range(traj.total_gain_loss.size):
                row = [k]
                row += [repr(float(gain_loss[k])) for gain_loss in traj.asset_gain_loss]
                row += [
                    repr(float(traj.total_gain_loss[k])),
                    repr(float(traj.leverage[k])),
                ]
                writer.writerow(row)
        assert out.read_bytes() == ref.read_bytes()
        assert out.read_text().startswith('k,"gain_a,b","gain_q""x",total_gain_loss')


class TestOptimizePortfolio:
    def test_single_asset_matches_direct_solve(self):
        from longshort import solve_optimal_gain_empirical

        pmf = MODEL_A.pmf
        direct = solve_optimal_gain_empirical(pmf, 3.0, 15, 0.05, n_paths=4000, seed=8)
        via_portfolio = optimize_portfolio([(pmf, 0.05)], 3.0, 15, n_paths=4000, seed=8)
        assert via_portfolio[0] == direct

    def test_no_assets_rejected(self):
        with pytest.raises(InvalidParameterError, match="at least one"):
            optimize_portfolio([], 1.0, 10, n_paths=2000)

    def test_identical_assets_identical_gains(self):
        pmf = MODEL_B.pmf
        results = optimize_portfolio(
            [(pmf, 0.04), (pmf, 0.04)], 10.0, 12, n_paths=4000, seed=9
        )
        assert results[0].k_star == results[1].k_star

    def test_per_asset_errors_tagged(self):
        degenerate = MODEL_A.pmf
        from longshort import pmf_from_returns

        point_mass = pmf_from_returns([0.02, 0.02])
        with pytest.raises(PortfolioAssetError) as exc_info:
            optimize_portfolio(
                [(degenerate, 0.05), (point_mass, 0.05)], 2.0, 10, n_paths=2000, seed=1
            )
        assert exc_info.value.asset_index == 1

    def test_capital_split_affects_scale(self):
        # Same pmf and target: with half the capital the std curve halves,
        # so the same target std admits a larger gain.
        pmf = MODEL_B.pmf
        one = optimize_portfolio([(pmf, 0.04)], 10.0, 12, n_paths=4000, seed=9)[0]
        two = optimize_portfolio([(pmf, 0.04), (pmf, 0.04)], 10.0, 12, n_paths=4000, seed=9)[0]
        assert two.k_star > one.k_star or one.k_star == pytest.approx(two.k_star)
