"""Tests for the closed-form gain-loss statistics and the balance predicates.

The independent oracle for the mean/variance expressions is exhaustive
enumeration over small discrete models (see test_montecarlo.py for the
enumeration itself); here the frozen expected values were computed by hand
from the product definition or by that oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longshort import (
    InadmissibleGainError,
    InvalidParameterError,
    StageTooSmallError,
    check_robust_growth,
    check_rpe,
    expected_gain,
    find_rpe_counterexample,
    gain_stats,
    std_gain,
    variance_gain,
)


class TestExpectedGain:
    def test_balanced_zero_drift_is_zero(self):
        for k in (0, 1, 2, 10, 97):
            assert expected_gain(0.5, 0.8, k, 0.0) == 0.0

    def test_uneven_alpha_loses(self):
        # theta = k_gain * mu = 1/4 at alpha = 1/4, two stages
        assert expected_gain(0.25, 0.5, 2, 0.5) == pytest.approx(-0.1875, abs=1e-15)
        assert expected_gain(0.25, 1.0, 2, 0.25) == pytest.approx(-0.1875, abs=1e-15)

    def test_balanced_three_stages(self):
        # 0.5 * (1.05**3 + 0.95**3) - 1; brute-force enumeration agrees
        assert expected_gain(0.5, 0.5, 3, 0.1) == pytest.approx(0.0075, abs=1e-15)

    def test_v0_scales_linearly(self):
        base = expected_gain(0.5, 0.5, 4, 0.1, v0=1.0)
        assert expected_gain(0.5, 0.5, 4, 0.1, v0=7.0) == pytest.approx(7 * base, rel=1e-15)

    def test_no_trade(self):
        assert expected_gain(0.7, 0.0, 9, 0.3) == 0.0

    def test_domain_violations(self):
        with pytest.raises(InvalidParameterError):
            expected_gain(-0.1, 0.5, 2, 0.1)
        with pytest.raises(InvalidParameterError):
            expected_gain(0.5, 0.5, 2, -1.0)
        with pytest.raises(InvalidParameterError):
            expected_gain(0.5, 0.5, 2.5, 0.1)
        with pytest.raises(InvalidParameterError):
            expected_gain(0.5, 0.5, -1, 0.1)
        with pytest.raises(InvalidParameterError):
            expected_gain(0.5, 0.5, 2, 0.1, v0=0.0)
        with pytest.raises(InadmissibleGainError):
            expected_gain(0.5, 1.1, 2, 0.1)
        with pytest.raises(InadmissibleGainError):
            expected_gain(0.5, 1.0, 2, 1.2)  # k_gain * mu > 1


class TestVarianceGain:
    def test_no_uncertainty(self):
        assert variance_gain(0.3, 0.8, 5, 0.07, 0.0) == 0.0

    def test_no_trade(self):
        assert variance_gain(0.3, 0.0, 5, 0.07, 0.04) == 0.0

    def test_balanced_zero_drift_two_stages(self):
        # mu = 0 reduction: 0.5*(1 + K^2 s2)^k + 0.5*(1 - K^2 s2)^k - 1
        assert variance_gain(0.5, 0.5, 2, 0.0, 0.04) == pytest.approx(1e-4, rel=1e-10)

    def test_one_stage_closed_form(self):
        # At k=1, G = v0*K*X*(2a-1), so var = v0^2 K^2 (2a-1)^2 sigma2.
        for alpha in (0.0, 0.25, 0.5, 0.9):
            got = variance_gain(alpha, 0.6, 1, 0.05, 0.09, v0=2.0)
            want = 4.0 * 0.36 * (2 * alpha - 1) ** 2 * 0.09
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_sigma2_must_be_nonnegative(self):
        with pytest.raises(InvalidParameterError):
            variance_gain(0.5, 0.5, 2, 0.0, -0.01)

    def test_second_moment_admissibility(self):
        with pytest.raises(InadmissibleGainError):
            variance_gain(0.5, 1.0, 2, 0.9, 0.5)  # K^2 (s2 + mu^2) > 1

    @given(
        alpha=st.floats(min_value=0.0, max_value=1.0),
        k_gain=st.floats(min_value=0.0, max_value=1.0),
        mu=st.floats(min_value=-0.5, max_value=0.9),
        sigma=st.floats(min_value=0.0, max_value=0.4),
        stage=st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=200)
    def test_never_negative(self, alpha, k_gain, mu, sigma, stage):
        var = variance_gain(alpha, k_gain, stage, mu, sigma * sigma)
        assert var >= 0.0


class TestStdGain:
    def test_zero_cases(self):
        assert std_gain(0.5, 0.0, 3, 0.1, 0.04) == 0.0
        assert std_gain(0.5, 0.5, 3, 0.1, 0.0) == 0.0

    def test_square_root_of_variance(self):
        assert std_gain(0.5, 0.5, 2, 0.0, 0.04) == pytest.approx(0.01, rel=1e-10)

    def test_monotone_in_gain(self):
        lo = std_gain(0.5, 0.2, 8, 0.05, 0.04)
        hi = std_gain(0.5, 0.4, 8, 0.05, 0.04)
        assert lo < hi

    def test_gain_stats_bundle(self):
        stats = gain_stats(0.5, 0.5, 2, 0.0, 0.04)
        assert stats.mean == 0.0
        assert stats.std == math.sqrt(stats.variance)
        assert stats.stage == 2


class TestCheckRpe:
    def test_two_stage_value(self):
        res = check_rpe(0.5, 2, 0.5)
        assert res.value == pytest.approx(0.0625, abs=1e-15)
        assert res.positive

    def test_negative_drift_still_positive(self):
        res = check_rpe(0.3, 5, -0.2)
        assert res.positive
        assert res.value > 0.0

    def test_zero_gain_not_positive(self):
        res = check_rpe(0.0, 10, 0.1)
        assert res.value == 0.0
        assert not res.positive

    def test_stage_too_small(self):
        with pytest.raises(StageTooSmallError):
            check_rpe(0.5, 1, 0.1)


class TestCounterexampleSearch:
    def test_balanced_has_none(self):
        assert find_rpe_counterexample(0.5, 0.7, 2) is None
        assert find_rpe_counterexample(0.5, 1.0, 50) is None

    def test_quarter_alpha(self):
        witness = find_rpe_counterexample(0.25, 1.0, 2)
        assert witness is not None
        assert witness.gain_value < 0.0
        assert 0.0 < witness.theta <= 1.0
        # the specific drift theta = 1/4 also loses
        assert expected_gain(0.25, 1.0, 2, 0.25) == pytest.approx(-0.1875, abs=1e-15)

    def test_all_short_loses_on_any_rise(self):
        witness = find_rpe_counterexample(0.0, 0.9, 2)
        assert witness is not None
        assert witness.theta > 0.0
        # alpha = 0: gain is (1 - theta)^k - 1 < 0 for any positive theta
        assert witness.gain_value == pytest.approx((1 - witness.theta) ** 2 - 1, abs=1e-15)

    def test_all_long_loses_on_a_fall(self):
        witness = find_rpe_counterexample(1.0, 0.9, 3)
        assert witness is not None
        assert -1.0 < witness.theta < 0.0

    def test_search_direction_follows_alpha(self):
        assert find_rpe_counterexample(0.35, 0.5, 7).theta > 0.0
        assert find_rpe_counterexample(0.65, 0.5, 7).theta < 0.0

    def test_preconditions(self):
        with pytest.raises(StageTooSmallError):
            find_rpe_counterexample(0.25, 0.5, 1)
        with pytest.raises(InadmissibleGainError):
            find_rpe_counterexample(0.25, 0.0, 2)


class TestRobustGrowth:
    def test_no_trade_equality(self):
        assert check_robust_growth(0.0, 5, 0.2)

    def test_explicit_step(self):
        # stage 1 -> 2 with theta = 0.1: 0 -> 0.01
        assert expected_gain(0.5, 0.5, 1, 0.2) == pytest.approx(0.0, abs=1e-15)
        assert expected_gain(0.5, 0.5, 2, 0.2) == pytest.approx(0.01, abs=1e-15)
        assert check_robust_growth(0.5, 1, 0.2)

    def test_negative_drift(self):
        assert check_robust_growth(0.8, 3, -0.4)

    def test_stage_minimum(self):
        with pytest.raises(InvalidParameterError):
            check_robust_growth(0.5, 0, 0.1)


class TestAgainstIndependentMonteCarlo:
    """Closed forms vs a from-scratch Monte-Carlo using the binomial sufficient
    statistic of a two-point model (up-move count), 10^6 paths per tuple."""

    N_TUPLES = 50
    N_PATHS = 1_000_000

    def test_mean_and_variance_within_five_se(self):
        rng = np.random.default_rng(2024)
        for _ in range(self.N_TUPLES):
            x_down = rng.uniform(-0.5, -0.01)
            x_up = rng.uniform(0.01, 0.5)
            p_up = rng.uniform(0.1, 0.9)
            alpha = rng.uniform(0.0, 1.0)
            k_gain = rng.uniform(0.0, 1.0)
            stage = int(rng.integers(1, 21))
            mu = p_up * x_up + (1 - p_up) * x_down
            sigma2 = p_up * x_up**2 + (1 - p_up) * x_down**2 - mu**2

            ups = rng.binomial(stage, p_up, size=self.N_PATHS)
            up_factor = 1 + k_gain * x_up
            down_factor = 1 + k_gain * x_down
            pos = up_factor**ups * down_factor ** (stage - ups)
            neg = (1 - k_gain * x_up) ** ups * (1 - k_gain * x_down) ** (stage - ups)
            gains = alpha * pos + (1 - alpha) * neg - 1

            mc_mean = gains.mean()
            mc_var = gains.var(ddof=1)
            se_mean = gains.std(ddof=1) / math.sqrt(self.N_PATHS)
            centered = gains - mc_mean
            fourth = np.mean(centered**4)
            se_var = math.sqrt(
                max(fourth - mc_var**2 * (self.N_PATHS - 3) / (self.N_PATHS - 1), 0.0)
                / self.N_PATHS
            )

            cf_mean = expected_gain(alpha, k_gain, stage, mu)
            cf_var = variance_gain(alpha, k_gain, stage, mu, sigma2)
            assert abs(mc_mean - cf_mean) <= 5 * se_mean + 1e-12
            assert abs(mc_var - cf_var) <= 5 * se_var + 1e-12


class TestOneDomainCheck:
    """Every entry point refuses the same out-of-domain inputs with the same types,
    NaN and infinities included, through ``analytics.check_domain``."""

    @staticmethod
    def _entry_points(alpha=0.5, k_gain=0.5, v0=1.0):
        from longshort import (
            ControllerConfig, McGainEstimator, ReturnModel, estimate_exact_small,
            estimate_gain_stats, terminal_gains,
        )

        model = ReturnModel.two_point(-0.1, 0.1)
        return [
            lambda: expected_gain(alpha, k_gain, 4, 0.05, v0),
            lambda: variance_gain(alpha, k_gain, 4, 0.05, 0.01, v0),
            lambda: ControllerConfig(alpha=alpha, k_gain=k_gain, v0=v0, k_max=1.0),
            lambda: terminal_gains(alpha, k_gain, v0, [[0.1, -0.1]]),
            lambda: McGainEstimator(model, 4, 10, 0).estimate(alpha, k_gain, v0),
            lambda: estimate_gain_stats(model, alpha, k_gain, v0, 4, 10, 0),
            lambda: estimate_exact_small(model, alpha, k_gain, v0, 2),
        ]

    @pytest.mark.parametrize(
        "bad, error",
        [
            ({"alpha": math.nan}, InvalidParameterError),
            ({"alpha": 1.5}, InvalidParameterError),
            ({"v0": math.nan}, InvalidParameterError),
            ({"v0": math.inf}, InvalidParameterError),
            ({"v0": 0.0}, InvalidParameterError),
            ({"k_gain": math.nan}, InadmissibleGainError),
            ({"k_gain": 1.5}, InadmissibleGainError),
        ],
    )
    def test_every_entry_point_refuses(self, bad, error):
        for call in self._entry_points(**bad):
            with pytest.raises(error):
                call()

    def test_order_is_alpha_then_v0_then_gain(self):
        for call in self._entry_points(alpha=2.0, k_gain=2.0, v0=0.0):
            with pytest.raises(InvalidParameterError, match="alpha"):
                call()
        for call in self._entry_points(k_gain=2.0, v0=0.0):
            with pytest.raises(InvalidParameterError, match="v0"):
                call()

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf, -1.0])
    def test_drift_must_be_finite_and_above_minus_one(self, mu):
        with pytest.raises(InvalidParameterError, match="mu"):
            expected_gain(0.5, 0.1, 4, mu)
        with pytest.raises(InvalidParameterError, match="mu"):
            std_gain(0.5, 0.1, 4, mu, 0.01)

    @pytest.mark.parametrize("sigma2", [math.nan, math.inf, -0.01])
    def test_variance_must_be_finite_and_nonnegative(self, sigma2):
        with pytest.raises(InvalidParameterError, match="sigma2"):
            variance_gain(0.5, 0.1, 4, 0.05, sigma2)
