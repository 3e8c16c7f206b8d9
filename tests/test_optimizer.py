"""Tests for the (std, mean) curve and the gain-selection solvers.

Closed-form solutions are checked against the defining property (the std
constraint binds on a strictly increasing curve) rather than against the
solver's own output; the worked-example reference values live in the
acceptance suite.
"""

import csv

import numpy as np
import pytest

from longshort import (
    InternalConsistencyError,
    InvalidParameterError,
    MeanStdCurve,
    NonMonotoneEstimateError,
    ReturnModel,
    StageTooSmallError,
    TargetNonpositiveError,
    TargetTooLargeError,
    ZeroDriftError,
    ZeroVolatilityError,
    build_curve,
    build_curve_empirical,
    expected_gain,
    pmf_from_returns,
    solve_optimal_gain,
    solve_optimal_gain_empirical,
    std_gain,
)
from longshort.optimizer import _bisect_std
from test_dynamics import AWKWARD_FLOATS, awkward_columns

TOY = dict(mu=-0.1, sigma2=0.0225, v0=1.0, k_max=1.0)


class TestBuildCurve:
    def test_flat_at_degenerate_moments(self):
        curve = build_curve(0.0, 0.0, 1.0, 10, 1.0, grid_size=6)
        assert np.all(curve.stds == 0.0)
        assert np.all(curve.means == 0.0)

    def test_starts_at_origin_and_spans_grid(self):
        curve = build_curve(**TOY, stage=30, grid_size=50)
        assert curve.points[0] == (0.0, 0.0, 0.0)
        assert curve.k_grid[0] == 0.0
        assert curve.k_grid[-1] == 1.0
        assert curve.k_grid.size == 50

    def test_strictly_increasing_when_moments_nondegenerate(self):
        curve = build_curve(**TOY, stage=30, grid_size=80)
        assert np.all(np.diff(curve.stds) > 0.0)
        assert np.all(np.diff(curve.means) > 0.0)

    def test_mean_lookup_is_well_defined(self):
        # strictly increasing means allow inverting mean -> gain
        curve = build_curve(**TOY, stage=10, grid_size=40)
        target_mean = 0.2
        idx = int(np.searchsorted(curve.means, target_mean))
        assert curve.means[idx - 1] < target_mean <= curve.means[idx]

    def test_stage_and_grid_validated(self):
        with pytest.raises(StageTooSmallError):
            build_curve(**TOY, stage=1, grid_size=10)
        with pytest.raises(InvalidParameterError):
            build_curve(**TOY, stage=10, grid_size=1)

    def test_csv_export(self, tmp_path):
        curve = build_curve(**TOY, stage=10, grid_size=5)
        out = tmp_path / "curve.csv"
        curve.write_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "k_gain,std,mean"
        assert len(lines) == 6
        k, s, m = lines[1].split(",")
        assert (float(k), float(s), float(m)) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("stage", [10, 90, 1000])
    def test_values_match_numpy_scalar_evaluation(self, stage):
        curve = build_curve(**TOY, stage=stage, grid_size=2001)
        grid = np.linspace(0.0, TOY["k_max"], 2001)
        mu, sigma2, v0 = TOY["mu"], TOY["sigma2"], TOY["v0"]
        stds = np.array([std_gain(0.5, k, stage, mu, sigma2, v0) for k in grid])
        means = np.array([expected_gain(0.5, k, stage, mu, v0) for k in grid])
        assert isinstance(grid[1], np.float64)
        assert np.array_equal(curve.stds, stds)
        assert np.array_equal(curve.means, means)

    @pytest.mark.parametrize("n", [2, 4095, 4096, 4097, 10_000])
    def test_csv_bytes_match_csv_writer_rows(self, tmp_path, n):
        stds, means = awkward_columns(n, 2, seed=n)
        # the gain grid must rise from 0; the positive awkward values lead it
        rising = np.sort(AWKWARD_FLOATS[AWKWARD_FLOATS > 0.0])
        k_grid = np.concatenate([[0.0], rising, 1e17 + 64.0 * np.arange(n)])[:n]
        curve = MeanStdCurve(k_grid, stds, means, stage=10, mu=0.01, sigma2=0.02, v0=1.0)
        out = tmp_path / "curve.csv"
        curve.write_csv(out)
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["k_gain", "std", "mean"])
            for k_gain, std, mean in curve.points:
                writer.writerow([repr(k_gain), repr(std), repr(mean)])
        assert out.read_bytes() == ref.read_bytes()


class TestSolveOptimalGain:
    def test_constraint_binds(self):
        res = solve_optimal_gain(**TOY, stage=30, target_std=0.3)
        assert abs(res.achieved_std - 0.3) <= 1e-9
        assert std_gain(0.5, res.k_star, 30, TOY["mu"], TOY["sigma2"]) == pytest.approx(
            0.3, abs=1e-8
        )

    def test_solution_is_positive_gain(self):
        for stage in (2, 10, 60):
            s_max = std_gain(0.5, 1.0, stage, TOY["mu"], TOY["sigma2"])
            res = solve_optimal_gain(**TOY, stage=stage, target_std=0.5 * s_max)
            assert 0.0 < res.k_star <= 1.0
            assert res.expected_gain > 0.0

    def test_expected_gain_matches_formula(self):
        res = solve_optimal_gain(**TOY, stage=30, target_std=0.3)
        assert res.expected_gain == expected_gain(0.5, res.k_star, 30, TOY["mu"])

    def test_unique_under_perturbed_bracket(self):
        # Shrinking the bracket (while it still contains the crossing) must
        # land on the same gain: the std curve has a single crossing.
        full = solve_optimal_gain(**TOY, stage=30, target_std=0.3, tol=1e-12)
        narrowed = solve_optimal_gain(
            mu=TOY["mu"], sigma2=TOY["sigma2"], v0=1.0, k_max=0.6, stage=30,
            target_std=0.3, tol=1e-12,
        )
        assert abs(full.k_star - narrowed.k_star) <= 1e-8

    def test_target_near_ceiling_pushes_gain_to_k_max(self):
        s_max = std_gain(0.5, 1.0, 10, TOY["mu"], TOY["sigma2"])
        res = solve_optimal_gain(**TOY, stage=10, target_std=s_max * (1 - 1e-12))
        assert res.k_star == pytest.approx(1.0, abs=1e-3)

    def test_error_taxonomy(self):
        with pytest.raises(StageTooSmallError):
            solve_optimal_gain(**TOY, stage=1, target_std=0.1)
        with pytest.raises(ZeroDriftError):
            solve_optimal_gain(mu=0.0, sigma2=0.04, v0=1.0, k_max=1.0, stage=10, target_std=0.1)
        with pytest.raises(ZeroVolatilityError):
            solve_optimal_gain(mu=0.1, sigma2=0.0, v0=1.0, k_max=1.0, stage=10, target_std=0.1)
        with pytest.raises(TargetNonpositiveError):
            solve_optimal_gain(**TOY, stage=10, target_std=0.0)

    def test_target_too_large_reports_ceiling(self):
        s_max = std_gain(0.5, 1.0, 10, TOY["mu"], TOY["sigma2"])
        with pytest.raises(TargetTooLargeError) as exc_info:
            solve_optimal_gain(**TOY, stage=10, target_std=s_max + 1.0)
        assert exc_info.value.s_max == pytest.approx(s_max)


class TestBisectionHelper:
    def test_non_monotone_function_detected(self):
        bump = lambda k: 1.0 - (k - 0.5) ** 2  # noqa: E731 -- rises then falls
        with pytest.raises(NonMonotoneEstimateError):
            _bisect_std(bump, 1.0, bump(1.0), 0.9, 1e-12, NonMonotoneEstimateError)

    def test_exception_class_is_injected(self):
        bump = lambda k: 1.0 - (k - 0.5) ** 2  # noqa: E731
        with pytest.raises(InternalConsistencyError):
            _bisect_std(bump, 1.0, bump(1.0), 0.9, 1e-12, InternalConsistencyError)

    def test_converges_on_monotone_function(self):
        k, val, iters = _bisect_std(lambda x: x**3, 2.0, 8.0, 1.0, 1e-12, AssertionError)
        assert k == pytest.approx(1.0, abs=1e-10)
        assert val == pytest.approx(1.0, abs=1e-12)
        assert iters < 60


class TestSolveEmpirical:
    def test_two_point_agrees_with_closed_form(self):
        model = ReturnModel.from_moments(-0.1, 0.15)
        closed = solve_optimal_gain(**TOY, stage=30, target_std=0.3)
        res = solve_optimal_gain_empirical(
            model.pmf, 1.0, 30, 0.3, n_paths=50_000, seed=3
        )
        assert abs(res.k_star - closed.k_star) <= 0.02
        assert res.expected_gain == pytest.approx(
            expected_gain(0.5, res.k_star, 30, model.mu), rel=1e-12
        )

    def test_deterministic_given_seed(self):
        pmf = ReturnModel.from_moments(-0.05, 0.1).pmf
        a = solve_optimal_gain_empirical(pmf, 1.0, 12, 0.05, n_paths=5000, seed=4)
        b = solve_optimal_gain_empirical(pmf, 1.0, 12, 0.05, n_paths=5000, seed=4)
        assert a == b

    def test_degenerate_pmf_raises_zero_volatility(self):
        point_mass = pmf_from_returns([0.05, 0.05, 0.05])
        with pytest.raises(ZeroVolatilityError):
            solve_optimal_gain_empirical(point_mass, 1.0, 10, 0.05, n_paths=2000, seed=0)

    def test_zero_drift_pmf(self):
        pmf = pmf_from_returns([-0.1, 0.1])
        with pytest.raises(ZeroDriftError):
            solve_optimal_gain_empirical(pmf, 1.0, 10, 0.05, n_paths=2000, seed=0)

    def test_min_paths_enforced(self):
        pmf = ReturnModel.from_moments(-0.05, 0.1).pmf
        with pytest.raises(InvalidParameterError):
            solve_optimal_gain_empirical(pmf, 1.0, 10, 0.05, n_paths=100, seed=0)

    def test_target_above_estimated_ceiling(self):
        pmf = ReturnModel.from_moments(-0.05, 0.1).pmf
        with pytest.raises(TargetTooLargeError):
            solve_optimal_gain_empirical(pmf, 1.0, 5, 50.0, n_paths=2000, seed=0)


class TestEmpiricalCurve:
    def test_matches_closed_form_roughly(self):
        model = ReturnModel.from_moments(-0.1, 0.15)
        exact = build_curve(**TOY, stage=10, grid_size=9)
        sampled = build_curve_empirical(model, 1.0, 10, grid_size=9, n_paths=40_000, seed=6)
        np.testing.assert_allclose(sampled.means, exact.means, atol=0.02)
        np.testing.assert_allclose(sampled.stds, exact.stds, rtol=0.05, atol=1e-4)

    def test_shares_paths_across_grid(self):
        model = ReturnModel.from_moments(-0.1, 0.15)
        sampled = build_curve_empirical(model, 1.0, 10, grid_size=20, n_paths=5_000, seed=6)
        # shared paths keep the estimated curve monotone like the true one
        assert np.all(np.diff(sampled.stds) > 0.0)
        assert np.all(np.diff(sampled.means) > 0.0)
