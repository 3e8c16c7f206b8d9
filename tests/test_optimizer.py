"""Tests for the (std, mean) curve and the gain-selection solvers.

Closed-form solutions are checked against the defining property (the std
constraint binds on a strictly increasing curve) rather than against the
solver's own output; the worked-example reference values live in the
acceptance suite.
"""

import csv
import math
import re
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from longshort import (
    DomainError,
    InternalConsistencyError,
    InvalidParameterError,
    McGainEstimator,
    MeanStdCurve,
    MomentOverflowError,
    ReturnModel,
    TargetTooLargeError,
    build_curve,
    build_curve_empirical,
    expected_gain,
    pmf_from_returns,
    solve_optimal_gain,
    solve_optimal_gain_empirical,
    std_gain,
)
from longshort import analytics, cli
from longshort.optimizer import _bisect_std
from longshort.returns import _CSV_BLOCK_ROWS
from test_dynamics import AWKWARD_FLOATS, BLOCK_EDGES, awkward_columns

TOY = dict(mu=-0.1, sigma2=0.0225, v0=1.0, k_max=1.0)
ZERO_DRIFT = (
    r"^mu = 0: the balanced expected gain is identically zero, so no gain is better than any other$"
)
ZERO_VOLATILITY = r"^sigma2 = 0: std\(G\) is identically zero$"


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

    def test_grid_must_start_at_zero(self):
        k = np.array([0.1, 0.5, 1.0])
        with pytest.raises(InvalidParameterError, match="start at 0"):
            MeanStdCurve(k, np.zeros(3), np.zeros(3))

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
        with pytest.raises(InvalidParameterError, match="^stage must be >= 2, got 1$"):
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
        grid = np.linspace(0.0, TOY["k_max"], 2001)
        mu, sigma2 = TOY["mu"], TOY["sigma2"]
        assert isinstance(grid[1], np.float64)
        for v0 in (TOY["v0"], 1e-12, 33.3, 1e200):
            curve = build_curve(mu, sigma2, v0, stage, TOY["k_max"], grid_size=2001)
            stds = np.array([std_gain(0.5, k, stage, mu, sigma2, v0) for k in grid])
            means = np.array([expected_gain(0.5, k, stage, mu, v0) for k in grid])
            assert np.array_equal(curve.stds, stds), v0
            assert np.array_equal(curve.means, means), v0

    def test_overflow_names_the_first_gain_past_range(self):
        # Each point is scaled by v0 as it is evaluated, so the refusal names
        # the first grid gain whose scaled std leaves double range.
        with pytest.raises(MomentOverflowError) as exc_info:
            build_curve(-0.1, 0.0225, 1e200, 3000, 1.0, 2001)
        assert str(exc_info.value) == (
            "the variance of the gain-loss leaves double range at stage 3000 with k_gain=0.8025"
        )

    @pytest.mark.parametrize("n", [2, *BLOCK_EDGES, 10_000])
    def test_csv_bytes_match_csv_writer_rows(self, tmp_path, n):
        stds, means = awkward_columns(n, 2, seed=n)
        # the gain grid must rise from 0; the positive awkward values lead it
        rising = np.sort(AWKWARD_FLOATS[AWKWARD_FLOATS > 0.0])
        k_grid = np.concatenate([[0.0], rising, 1e17 + 64.0 * np.arange(n)])[:n]
        curve = MeanStdCurve(k_grid, stds, means)
        out = tmp_path / "curve.csv"
        curve.write_csv(out)
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["k_gain", "std", "mean"])
            for k_gain, std, mean in curve.points:
                writer.writerow([repr(k_gain), repr(std), repr(mean)])
        assert out.read_bytes() == ref.read_bytes()


class TestCurveMemory:
    """A 1e5-point curve holds its three columns, and writing it one block of rows."""

    GRID = 100_000

    @staticmethod
    def _peak(call):
        tracemalloc.start()
        try:
            result = call()
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    def test_build_holds_only_its_columns(self):
        peak, curve = self._peak(lambda: build_curve(**TOY, stage=250, grid_size=self.GRID))
        columns = curve.k_grid.nbytes + curve.stds.nbytes + curve.means.nbytes
        assert peak < columns + 2**20

    def test_write_holds_one_block_of_rows(self, tmp_path):
        curve = build_curve(**TOY, stage=250, grid_size=self.GRID)
        peak, _ = self._peak(lambda: curve.write_csv(tmp_path / "curve.csv"))
        assert peak < 512 * _CSV_BLOCK_ROWS  # 0.23 MiB at 1,024 rows


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
        with pytest.raises(InvalidParameterError, match="^stage must be >= 2, got 1$"):
            solve_optimal_gain(**TOY, stage=1, target_std=0.1)
        with pytest.raises(InvalidParameterError, match=ZERO_DRIFT):
            solve_optimal_gain(mu=0.0, sigma2=0.04, v0=1.0, k_max=1.0, stage=10, target_std=0.1)
        with pytest.raises(InvalidParameterError, match=ZERO_VOLATILITY):
            solve_optimal_gain(mu=0.1, sigma2=0.0, v0=1.0, k_max=1.0, stage=10, target_std=0.1)
        with pytest.raises(InvalidParameterError, match="^target_std must be positive, got 0.0$"):
            solve_optimal_gain(**TOY, stage=10, target_std=0.0)

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, float("inf"), float("-inf"), float("nan")])
    def test_tol_must_be_nonnegative_and_finite(self, tol):
        with pytest.raises(InvalidParameterError, match="tol must be nonnegative and finite"):
            solve_optimal_gain(**TOY, stage=10, target_std=0.1, tol=tol)

    def test_zero_tol_runs_until_the_bracket_closes(self):
        res = solve_optimal_gain(**TOY, stage=10, target_std=0.1, tol=0.0)
        assert res.achieved_std == pytest.approx(0.1, rel=1e-14)

    def test_zero_tol_stops_at_the_last_double_under_the_budget(self):
        res = solve_optimal_gain(**TOY, stage=90, target_std=0.3, tol=0.0)
        above = std_gain(0.5, math.nextafter(res.k_star, 1.0), 90, TOY["mu"], TOY["sigma2"])
        assert res.achieved_std <= 0.3 < above
        assert res.iterations <= 1_100

    @pytest.mark.parametrize("v0", [1e-12, 1e-9, 1e3, 1e200])
    def test_tol_is_relative_to_v0(self, v0):
        # The stop |std - s| <= tol * v0 makes a fit scale-free: at a tiny v0 an
        # absolute tol of 1e-9 would accept the first probe, 16 % over the budget.
        unit = solve_optimal_gain(**TOY, stage=10, target_std=0.1)
        scaled = solve_optimal_gain(
            TOY["mu"], TOY["sigma2"], v0, 10, TOY["k_max"], 0.1 * v0
        )
        assert abs(scaled.k_star - unit.k_star) <= 1e-9
        assert scaled.achieved_std == pytest.approx(0.1 * v0, rel=2e-8)

    # The std grows as K^2 near 0, so a tiny budget still trades: at 1e-100, K* = 1.07e-50.
    @pytest.mark.parametrize("stage, target", [(90, 0.3), (90, 1e-6), (10, 1e-100), (10, 1e-150)])
    def test_fit_stays_within_budget(self, stage, target):
        res = solve_optimal_gain(**TOY, stage=stage, target_std=target)
        assert res.k_star > 0.0 and res.iterations <= 1_100
        assert target - 1e-9 <= res.achieved_std <= target
        assert res.achieved_std == std_gain(0.5, res.k_star, stage, TOY["mu"], TOY["sigma2"])

    # Below sqrt(float_info.min) the variance underflows, and a fit would read std 0.
    # Both solvers share the refusal, relative to v0.
    @pytest.mark.parametrize("target, v0", [(1e-200, 1.0), (1e-300, 1.0), (1e-100, 1e60)])
    def test_budget_whose_variance_underflows_is_refused(self, target, v0):
        bound = re.escape(f"is below {math.sqrt(sys.float_info.min)}, where the fit's variance")
        pmf = ReturnModel.from_moments(TOY["mu"], 0.15).pmf
        with pytest.raises(InvalidParameterError, match=f"^target_std / v0 = .* {bound}"):
            solve_optimal_gain(TOY["mu"], TOY["sigma2"], v0, 10, TOY["k_max"], target)
        with pytest.raises(InvalidParameterError, match=f"^target_std / v0 = .* {bound}"):
            solve_optimal_gain_empirical(pmf, v0, 10, target, n_paths=1_000)

    def test_the_smallest_budget_fits(self):
        target = math.sqrt(sys.float_info.min)
        res = solve_optimal_gain(**TOY, stage=10, target_std=target)
        assert 0.0 < res.achieved_std <= target and res.k_star > 0.0

    def test_target_too_large_reports_ceiling(self):
        s_max = std_gain(0.5, 1.0, 10, TOY["mu"], TOY["sigma2"])
        with pytest.raises(TargetTooLargeError) as exc_info:
            solve_optimal_gain(**TOY, stage=10, target_std=s_max + 1.0)
        assert exc_info.value.s_max == pytest.approx(s_max)


class TestLongHorizons:
    """Past stage 3,395 the toy std at k_max leaves double range, so s_max is +inf
    and every finite target is feasible; K* itself sits far from overflow."""

    @staticmethod
    def _exact_std(k_gain, stage):
        # The balanced G = (P + Q)/2 - 1, P and Q the products of 1 + Kx and 1 - Kx,
        # at 60 digits: its variance is (E[P^2] + E[Q^2] + 2 E[PQ] - (E[P] + E[Q])^2) / 4.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            k, mu = mpmath.mpf(k_gain), mpmath.mpf(TOY["mu"])
            m2 = mpmath.mpf(TOY["sigma2"]) + mu * mu
            p, q = (1 + k * mu) ** stage, (1 - k * mu) ** stage
            pp = (1 + 2 * k * mu + k * k * m2) ** stage
            qq = (1 - 2 * k * mu + k * k * m2) ** stage
            pq = (1 - k * k * m2) ** stage
            return float(mpmath.sqrt((pp + qq + 2 * pq - (p + q) ** 2) / 4))

    @pytest.mark.parametrize("stage", [3_500, 10**4])
    def test_fit_against_sixty_digits(self, stage):
        res = solve_optimal_gain(**TOY, stage=stage, target_std=1.0)
        exact = self._exact_std(res.k_star, stage)
        assert 1.0 - 1e-9 <= exact <= 1.0
        assert abs(res.achieved_std - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("stage", [10**9, 10**12, 10**14, 10**15, 2**59 - 1])
    def test_long_horizons_reach_the_band(self, stage):
        # At mu = 0.01, sigma = 0.02, K* falls to 2.3e-15 at the top stage; the bisection
        # halves on until the std lands within tol * v0 = 1e-9 of the budget.
        res = solve_optimal_gain(0.01, 0.0004, 1.0, stage, 1.0, 0.01)
        assert res.k_star > 0.0 and res.iterations <= 1_100
        assert 0.01 - 1e-9 <= res.achieved_std <= 0.01
        assert res.achieved_std == std_gain(0.5, res.k_star, stage, 0.01, 0.0004, 1.0)

    def test_the_fits_own_mean_must_stay_in_range(self):
        # The unit fit's mean is 11.3 times its std, so at v0 = 1.5e308 the std
        # of 1.5e308 is finite and the mean is not.
        with pytest.raises(MomentOverflowError, match="expected gain"):
            solve_optimal_gain(TOY["mu"], TOY["sigma2"], 1.5e308, 3_500, 1.0, 1.5e308)
        with pytest.raises(MomentOverflowError):
            build_curve(**TOY, stage=3_500, grid_size=3)


class TestBisectionHelper:
    def test_non_monotone_function_detected(self):
        bump = lambda k: 1.0 - (k - 0.5) ** 2  # noqa: E731 -- rises then falls
        with pytest.raises(DomainError, match=(
            r"^std at K=0\.5 is 1\.0, outside bracket \[0\.0, 0\.75\]$"
        )):
            _bisect_std(bump, 1.0, bump(1.0), 0.9, 1e-12, DomainError)

    def test_exception_class_is_injected(self):
        bump = lambda k: 1.0 - (k - 0.5) ** 2  # noqa: E731
        with pytest.raises(InternalConsistencyError):
            _bisect_std(bump, 1.0, bump(1.0), 0.9, 1e-12, InternalConsistencyError)

    def test_closed_bracket_returns_its_feasible_end(self):
        # no probe of a step can land in [0.5 - tol, 0.5]; the bracket closes on the step
        step = lambda k: 0.0 if k < 0.3 else 1.0  # noqa: E731
        k, val, _ = _bisect_std(step, 1.0, 1.0, 0.5, 1e-3, AssertionError)
        assert val == 0.0
        assert 0.3 - 1e-14 <= k < 0.3

    def test_infinite_ceiling_keeps_the_monotone_check(self):
        # With s_max = +inf the slack scales with the target, not with s_max.
        bump = lambda k: min(k, 1.0 - k) if k < 0.9 else math.inf  # noqa: E731
        with pytest.raises(DomainError, match=(
            r"^std at K=0\.75 is 0\.25, outside bracket \[0\.5, inf\]$"
        )):
            _bisect_std(bump, 1.0, math.inf, 0.9, 1e-12, DomainError)

    def test_converges_on_monotone_function(self):
        k, val, iters = _bisect_std(lambda x: x**3, 2.0, 8.0, 1.0, 1e-12, AssertionError)
        assert k == pytest.approx(1.0, abs=1e-10)
        assert val == pytest.approx(1.0, abs=1e-12)
        assert iters < 60


class TestNonMonotoneStd:
    """A std that leaves the bisection bracket is a bug in the exact solve, whose std is
    proved increasing (exit 4), and sampling noise in the Monte-Carlo one (exit 3)."""

    # std 1 at K = k_max = 1 and 2 below it: the first midpoint leaves [0, 1]
    REFUSAL = "std at K=0.5 is 2.0, outside bracket [0.0, 1.0]"

    @pytest.fixture
    def bumped(self, monkeypatch):
        def moments(alpha, k_gain, k, mu, sigma2):
            return 0.0, 1.0 if k_gain == 1.0 else 4.0

        monkeypatch.setattr(analytics, "_moments", moments)

    def test_exact_solve_is_an_internal_consistency_violation(self, bumped):
        with pytest.raises(InternalConsistencyError) as refusal:
            solve_optimal_gain(**TOY, stage=10, target_std=0.5)
        assert str(refusal.value) == self.REFUSAL

    def test_the_cli_exits_4(self, bumped, tmp_path, capsys):
        out = tmp_path / "fit.json"
        moments = ["--mu", "-0.1", "--sigma", "0.15", "--k-max", "1.0", "--stage", "10"]
        assert cli.main(["optimize", *moments, "--target-std", "0.5", "--out", str(out)]) == 4
        assert capsys.readouterr().err == f"internal consistency violation: {self.REFUSAL}\n"
        assert not out.exists()

    def test_monte_carlo_solve_is_a_domain_error(self, monkeypatch):
        def estimate(estimator, alpha, k_gain, v0):
            return SimpleNamespace(std=1.0 if k_gain == estimator.model.k_max else 2.0)

        monkeypatch.setattr(McGainEstimator, "estimate", estimate)
        pmf = ReturnModel.from_moments(-0.05, 0.1).pmf  # k_max = 1
        with pytest.raises(DomainError) as refusal:
            solve_optimal_gain_empirical(pmf, 1.0, 10, 0.5, n_paths=1_000, seed=0)
        assert type(refusal.value) is DomainError
        assert str(refusal.value) == self.REFUSAL


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

    @pytest.mark.parametrize("target", [0.01, 0.15])
    def test_fit_stays_within_budget(self, target):
        pmf = ReturnModel.from_moments(-0.05, 0.1).pmf
        res = solve_optimal_gain_empirical(pmf, 1.0, 10, target, n_paths=2000, seed=1)
        assert target - 1e-3 <= res.achieved_std <= target

    def test_deterministic_given_seed(self):
        pmf = ReturnModel.from_moments(-0.05, 0.1).pmf
        a = solve_optimal_gain_empirical(pmf, 1.0, 12, 0.05, n_paths=5000, seed=4)
        b = solve_optimal_gain_empirical(pmf, 1.0, 12, 0.05, n_paths=5000, seed=4)
        assert a == b

    def test_degenerate_pmf_raises_zero_volatility(self):
        point_mass = pmf_from_returns([0.05, 0.05, 0.05])
        with pytest.raises(InvalidParameterError, match=ZERO_VOLATILITY):
            solve_optimal_gain_empirical(point_mass, 1.0, 10, 0.05, n_paths=2000, seed=0)

    def test_zero_drift_pmf(self):
        pmf = pmf_from_returns([-0.1, 0.1])
        with pytest.raises(InvalidParameterError, match=ZERO_DRIFT):
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
