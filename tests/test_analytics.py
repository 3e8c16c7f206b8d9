"""Tests for the closed-form gain-loss statistics and the balance predicates.

The independent oracle for the mean/variance expressions is exhaustive
enumeration over small discrete models (see test_montecarlo.py for the
enumeration itself); here the frozen expected values were computed by hand
from the product definition, by that oracle, or by the exact rational oracle
bench/oracle.py (tests/data/kernel_oracle.json, written by
tests/data/make_kernel_oracle.py).
"""

import importlib.util
import itertools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longshort import (
    DomainError,
    GainLossStats,
    InvalidParameterError,
    MomentOverflowError,
    RpeCheck,
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
        with pytest.raises(InvalidParameterError, match=(
            r"^k_gain=1\.1 outside admissible \[0, 1\.0\]$"
        )):
            expected_gain(0.5, 1.1, 2, 0.1)
        with pytest.raises(InvalidParameterError, match=(
            r"^k_gain\*mu = 1\.2 exceeds 1; gain inadmissible for this drift$"
        )):
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
        with pytest.raises(InvalidParameterError, match=(
            r"^k_gain\^2 \* \(sigma2 \+ mu\^2\) = 1\.31 exceeds 1$"
        )):
            variance_gain(0.5, 1.0, 2, 0.9, 0.5)  # K^2 (s2 + mu^2) > 1

    def test_large_v0_scales_or_overflows(self):
        # the unit-v0 variance is finite; only v0**2 times it leaves double range
        with pytest.raises(MomentOverflowError, match="variance"):
            variance_gain(0.5, 0.5, 10, -0.1, 0.0225, v0=1e200)
        with pytest.raises(MomentOverflowError, match="variance"):
            gain_stats(0.5, 0.5, 10, -0.1, 0.0225, v0=1e200)
        unit = std_gain(0.5, 0.5, 10, -0.1, 0.0225)
        assert std_gain(0.5, 0.5, 10, -0.1, 0.0225, v0=1e200) == 1e200 * unit

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
        with pytest.raises(InvalidParameterError, match="^stage must be >= 2, got 1$"):
            check_rpe(0.5, 1, 0.1)

    def test_small_gain_long_horizon_stays_positive(self):
        # a cancelling evaluation of the powers made this value negative;
        # 3.997775602700381e-06 is the exact mean rounded once (bench/oracle.py)
        res = check_rpe(4.37692602360789e-09, 718, 0.0012, 562994178294.941)
        assert res.positive
        assert res.value == pytest.approx(3.997775602700381e-06, rel=1e-12)


class TestCounterexampleSearch:
    def test_balanced_has_none(self):
        assert find_rpe_counterexample(0.5, 2) is None
        assert find_rpe_counterexample(0.5, 50) is None

    def test_quarter_alpha(self):
        witness = find_rpe_counterexample(0.25, 2)
        assert witness is not None
        assert witness.gain_value < 0.0
        assert 0.0 < witness.theta <= 1.0
        # the specific drift theta = 1/4 also loses
        assert expected_gain(0.25, 1.0, 2, 0.25) == pytest.approx(-0.1875, abs=1e-15)

    def test_all_short_loses_on_any_rise(self):
        witness = find_rpe_counterexample(0.0, 2)
        assert witness is not None
        assert witness.theta > 0.0
        # alpha = 0: gain is (1 - theta)^k - 1 < 0 for any positive theta
        assert witness.gain_value == pytest.approx((1 - witness.theta) ** 2 - 1, abs=1e-15)

    def test_all_long_loses_on_a_fall(self):
        witness = find_rpe_counterexample(1.0, 3)
        assert witness is not None
        assert -1.0 < witness.theta < 0.0

    def test_search_direction_follows_alpha(self):
        assert find_rpe_counterexample(0.35, 7).theta > 0.0
        assert find_rpe_counterexample(0.65, 7).theta < 0.0

    @pytest.mark.parametrize("stage", [3_500, 10**5])
    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_long_horizons_skip_gains_beyond_double_range(self, alpha, stage):
        # the first probes' powers overflow; those gains count as positive
        witness = find_rpe_counterexample(alpha, stage)
        assert witness is not None
        assert witness.gain_value < 0.0
        assert (witness.theta > 0.0) == (alpha < 0.5)
        assert expected_gain(alpha, 1.0, stage, witness.theta) == witness.gain_value

    def test_preconditions(self):
        with pytest.raises(InvalidParameterError, match="^stage must be >= 2, got 1$"):
            find_rpe_counterexample(0.25, 1)


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

    def test_small_gain_long_horizon(self):
        assert check_robust_growth(4.37692602360789e-09, 718, 0.0012, 562994178294.941)

    def test_monotone_in_stage_with_no_slack(self):
        rng = np.random.default_rng(1515)
        n = 20_000
        gains = 10.0 ** rng.uniform(-8.0, 0.0, n)
        drifts = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-4.0, -0.5, n)
        stages = rng.integers(1, 1201, n)
        v0s = 10.0 ** rng.uniform(-12.0, 12.0, n)
        shrinking = [
            case for case in zip(gains.tolist(), stages.tolist(), drifts.tolist(), v0s.tolist())
            if not check_robust_growth(*case)
        ]
        assert shrinking == []


class TestAgainstExactBinomialSum:
    """Closed forms vs the exact rational moments of a two-point model: the gain
    depends on a path only through its up-move count, so the mean and variance
    are sums over stage + 1 binomial terms, evaluated in ``Fraction``."""

    N_TUPLES = 50
    REL_TOL = Fraction(1, 10**9)

    @staticmethod
    def _exact_moments(x_down, x_up, p_up, alpha, k_gain, stage):
        xd, xu, p, a, k = map(Fraction, (x_down, x_up, p_up, alpha, k_gain))
        first = second = Fraction(0)
        for ups in range(stage + 1):
            downs = stage - ups
            weight = math.comb(stage, ups) * p**ups * (1 - p) ** downs
            gain = (
                a * (1 + k * xu) ** ups * (1 + k * xd) ** downs
                + (1 - a) * (1 - k * xu) ** ups * (1 - k * xd) ** downs
                - 1
            )
            first += weight * gain
            second += weight * gain * gain
        return first, second - first * first

    def test_mean_and_variance_match_exact_sum(self):
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

            mean, var = self._exact_moments(x_down, x_up, p_up, alpha, k_gain, stage)
            cf_mean = Fraction(expected_gain(alpha, k_gain, stage, mu))
            cf_var = Fraction(variance_gain(alpha, k_gain, stage, mu, sigma2))
            assert abs(cf_mean - mean) <= self.REL_TOL * abs(mean)
            assert abs(cf_var - var) <= self.REL_TOL * abs(var)


def _bench_oracle():
    path = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


class TestAgainstRationalOracle:
    """Closed forms vs bench/oracle.py's exact rational moments at 520 seeded cases:
    K log-uniform in [1e-8, 1], stages 1-1000, alpha = 1/2 or uniform, for the
    worked example and three daily-volatility models. The oracle needs about
    half a second per case at stage 1000, so its values are read from a table;
    the table's cheap rows are recomputed here to show it is the oracle's."""

    ROWS = json.loads((Path(__file__).parent / "data" / "kernel_oracle.json").read_text())
    REL_TOL = 1e-12

    def test_table_is_the_oracles(self):
        oracle = _bench_oracle()
        cheap = [row for row in self.ROWS if row["stage"] <= 60]
        assert len(cheap) >= 20
        for row in cheap:
            m = oracle.moments_from_mu_sigma(row["mu"], row["sigma"])
            args = (m, row["k_gain"], row["stage"], 1, Fraction(row["alpha"]))
            assert float(oracle.exact_mean(*args)) == row["mean"]
            assert float(oracle.exact_variance(*args)) == row["variance"]

    def test_table_covers_the_domain(self):
        assert len(self.ROWS) >= 500
        halves = sum(row["alpha"] == 0.5 for row in self.ROWS)
        assert min(halves, len(self.ROWS) - halves) >= 200
        stages = [row["stage"] for row in self.ROWS]
        assert min(stages) <= 5 and max(stages) >= 990
        gains = [row["k_gain"] for row in self.ROWS]
        assert min(gains) < 1e-7 and max(gains) > 0.1

    def test_variance_and_std(self):
        for row in self.ROWS:
            args = (row["alpha"], row["k_gain"], row["stage"], row["mu"], row["sigma"] ** 2)
            exact = row["variance"]
            assert abs(variance_gain(*args) - exact) <= self.REL_TOL * exact, row
            assert abs(std_gain(*args) - math.sqrt(exact)) <= self.REL_TOL * math.sqrt(exact), row

    def test_mean(self):
        # Off balance the mean crosses zero, so its error is measured against
        # alpha*(1+K*mu)**k + (1-alpha)*(1-K*mu)**k, the mean's size plus 1.
        for row in self.ROWS:
            got = expected_gain(row["alpha"], row["k_gain"], row["stage"], row["mu"])
            scale = abs(row["mean"]) if row["alpha"] == 0.5 else row["scale"]
            assert abs(got - row["mean"]) <= self.REL_TOL * scale, row

    def test_admissible_boundary(self):
        # K*mu = 1: the short leg ends at 0, the long leg at 2**5
        assert expected_gain(0.5, 1.0, 5, 1.0) == pytest.approx(15.0, rel=1e-15)
        assert expected_gain(0.5, 1.0, 5, -0.5) == pytest.approx(0.5 * (0.5**5 + 1.5**5) - 1.0)


class TestOneDomainCheck:
    """Every entry point refuses the same out-of-domain inputs with the same types,
    NaN and infinities included, through ``analytics.check_domain``."""

    @staticmethod
    def _entry_points(alpha=0.5, k_gain=0.5, v0=1.0):
        from longshort import (
            ControllerConfig, McGainEstimator, ReturnModel, estimate_exact_small,
            estimate_gain_stats,
        )

        model = ReturnModel.two_point(-0.1, 0.1)
        return [
            lambda: expected_gain(alpha, k_gain, 4, 0.05, v0),
            lambda: variance_gain(alpha, k_gain, 4, 0.05, 0.01, v0),
            lambda: ControllerConfig(alpha=alpha, k_gain=k_gain, v0=v0, k_max=1.0),
            lambda: McGainEstimator(model, 4, 10, 0).estimate(alpha, k_gain, v0),
            lambda: estimate_gain_stats(model, alpha, k_gain, v0, 4, 10, 0),
            lambda: estimate_exact_small(model, alpha, k_gain, v0, 2),
        ]

    @pytest.mark.parametrize(
        "bad, refusal",
        [
            ({"alpha": math.nan}, r"^alpha must be in \[0, 1\], got nan$"),
            ({"alpha": 1.5}, r"^alpha must be in \[0, 1\], got 1\.5$"),
            ({"v0": math.nan}, "^v0 must be positive and finite, got nan$"),
            ({"v0": math.inf}, "^v0 must be positive and finite, got inf$"),
            ({"v0": 0.0}, r"^v0 must be positive and finite, got 0\.0$"),
            ({"k_gain": math.nan}, r"^k_gain=nan outside admissible \[0, 1\.0\]$"),
            ({"k_gain": 1.5}, r"^k_gain=1\.5 outside admissible \[0, 1\.0\]$"),
        ],
    )
    def test_every_entry_point_refuses(self, bad, refusal):
        for call in self._entry_points(**bad):
            with pytest.raises(InvalidParameterError, match=refusal):
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


class TestZeroWeightLegs:
    """An all-long (alpha = 1) or all-short (alpha = 0) split holds one leg; the other
    has weight 0 and is skipped, so its powers cannot leave double range. The one leg's
    product of (1 + theta x) gives E[G] = L**k - 1 and var(G) = (L**2 + s)**k - L**(2k),
    with L = 1 + theta (long) or 1 - theta (short); checked at 60 digits."""

    SIGMA2 = 0.25

    @pytest.mark.parametrize("alpha, mu", [(1.0, -0.1), (0.0, 0.1)])
    @pytest.mark.parametrize("stage", [1800, 8000])
    def test_against_sixty_digits(self, alpha, mu, stage):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            leg = 1 + mpmath.mpf(mu) if alpha else 1 - mpmath.mpf(mu)
            mean = leg**stage - 1
            var = (leg**2 + mpmath.mpf(self.SIGMA2)) ** stage - leg ** (2 * stage)
            got_mean = expected_gain(alpha, 1.0, stage, mu)
            got_var = variance_gain(alpha, 1.0, stage, mu, self.SIGMA2)
            assert abs(got_mean - mean) <= 1e-12 * abs(mean)
            assert abs(got_var - var) <= 1e-12 * var
        if stage == 8000:  # the held leg's variance is finite, far above 1e200
            assert got_mean == -1.0 and 1e202 < got_var < 1e203


class TestStageType:
    """A stage is any integral number but a bool, numpy's integers included."""

    @pytest.mark.parametrize("stage", [4, np.int64(4), np.int32(4), np.uint8(4)])
    def test_integers_pass(self, stage):
        assert expected_gain(0.5, 0.5, stage, 0.05) == expected_gain(0.5, 0.5, 4, 0.05)

    @pytest.mark.parametrize("stage", [True, np.bool_(True), 4.0, np.float64(4.0), "4"])
    def test_others_are_refused(self, stage):
        with pytest.raises(InvalidParameterError, match="stage must be an integer"):
            expected_gain(0.5, 0.5, stage, 0.05)


class TestWholeDomain:
    """Every public closed-form call over a fixed grid of the admissible domain, stages
    up to the count ceiling 2**59 - 1, returns finite numbers or raises a DomainError;
    a stage past the ceiling is refused by every one of them."""

    GAINS = (0.0, 5e-324, 1e-300, 1e-16, 1e-8, 1e-3, 0.1, 0.5, 1.0)
    SPLITS = (0.0, 0.3, 0.5, 1.0)
    V0S = (1e-300, 1.0, 1e300)
    MOMENTS = ((-0.1, 0.0225), (0.01, 0.0004), (-3e-5, 1e-4), (0.5, 0.25), (1.0, 0.0))

    @classmethod
    def _calls(cls, stage):
        for k_gain, (mu, sigma2), v0 in itertools.product(cls.GAINS, cls.MOMENTS, cls.V0S):
            for alpha in cls.SPLITS:
                yield expected_gain, (alpha, k_gain, stage, mu, v0)
                yield variance_gain, (alpha, k_gain, stage, mu, sigma2, v0)
                yield std_gain, (alpha, k_gain, stage, mu, sigma2, v0)
                yield gain_stats, (alpha, k_gain, stage, mu, sigma2, v0)
            yield check_rpe, (k_gain, stage, mu, v0)
            yield check_robust_growth, (k_gain, stage, mu, v0)

    @pytest.mark.parametrize("stage", [0, 1, 2, 10, 1000, 10**5, 2**53, 2**59 - 2, 2**59 - 1])
    def test_finite_or_refused(self, stage):
        calls = list(self._calls(stage))
        assert len(calls) == 2430
        for function, args in calls:
            try:
                result = function(*args)
            except DomainError as exc:
                # A refusal of the stage names the stage the caller passed.
                if str(exc).startswith("stage must be"):
                    assert str(exc).endswith(f"got {stage}"), (function.__name__, args, exc)
                continue
            if isinstance(result, GainLossStats):
                numbers = (result.mean, result.variance, result.std)
            else:  # a bare moment, an RpeCheck's value, or check_robust_growth's bool
                numbers = (result.value if isinstance(result, RpeCheck) else result,)
            assert all(math.isfinite(x) for x in numbers), (function.__name__, args, result)

    @pytest.mark.parametrize("stage", [2**59, 10**200], ids=["2**59", "10**200"])
    def test_past_the_ceiling_refused(self, stage):
        for function, args in self._calls(stage):
            with pytest.raises(InvalidParameterError, match="stage must be <="):
                function(*args)
