"""Tests for price ingestion, return computation, PMFs, and sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longshort import (
    EmpiricalPMF,
    EmptyReturnsError,
    InputFileError,
    InvalidBoundsError,
    InvalidParameterError,
    InvalidPmfError,
    MissingColumnError,
    NonPositivePriceError,
    PriceParseError,
    PriceSeries,
    ReturnBelowNegOneError,
    ReturnBounds,
    ReturnModel,
    TooShortError,
    load_prices_csv,
    pmf_from_returns,
    returns_from_prices,
    sample_path,
)


class TestReturnsFromPrices:
    def test_single_step(self):
        series = PriceSeries("t", np.array([100.0, 110.0]))
        assert returns_from_prices(series).tolist() == [0.10]

    def test_constant_prices(self):
        series = PriceSeries("t", np.array([50.0, 50.0, 50.0]))
        assert returns_from_prices(series).tolist() == [0.0, 0.0]

    def test_length_and_positivity(self):
        prices = np.array([10.0, 12.0, 6.0, 9.0, 0.5])
        out = returns_from_prices(PriceSeries("t", prices))
        assert out.size == prices.size - 1
        assert np.all(out > -1.0)
        expected = (prices[1:] - prices[:-1]) / prices[:-1]
        assert np.allclose(out, expected, rtol=0, atol=0)

    def test_nonpositive_price_rejected(self):
        with pytest.raises(NonPositivePriceError):
            PriceSeries("t", np.array([100.0, 0.0, 50.0]))
        with pytest.raises(NonPositivePriceError):
            PriceSeries("t", np.array([100.0, -3.0]))

    def test_too_short_rejected(self):
        with pytest.raises(TooShortError):
            PriceSeries("t", np.array([100.0]))

    def test_dates_validated(self):
        PriceSeries("t", np.array([1.0, 2.0]), dates=("2019-01-02", "2019-01-03"))
        with pytest.raises(InvalidParameterError):
            PriceSeries("t", np.array([1.0, 2.0]), dates=("2019-01-03", "2019-01-02"))
        with pytest.raises(InvalidParameterError):
            PriceSeries("t", np.array([1.0, 2.0]), dates=("2019-01-02",))


class TestPmfFromReturns:
    def test_symmetric_two_value(self):
        pmf = pmf_from_returns([0.1, 0.1, -0.1, -0.1])
        assert pmf.atoms == ((-0.1, 0.5), (0.1, 0.5))
        assert pmf.mean() == pytest.approx(0.0, abs=1e-15)
        assert pmf.variance() == pytest.approx(0.01, abs=1e-15)

    def test_degenerate(self):
        pmf = pmf_from_returns([0.05])
        assert pmf.atoms == ((0.05, 1.0),)
        assert pmf.variance() == 0.0

    def test_equal_weights_when_all_distinct(self):
        rng = np.random.default_rng(1)
        rets = rng.uniform(-0.2, 0.2, size=125)
        pmf = pmf_from_returns(rets)
        assert pmf.n_atoms == 125
        assert np.allclose(pmf.weights, 1.0 / 125)

    def test_empty_rejected(self):
        with pytest.raises(EmptyReturnsError):
            pmf_from_returns([])

    def test_total_loss_rejected(self):
        with pytest.raises(ReturnBelowNegOneError):
            pmf_from_returns([0.1, -1.0])
        with pytest.raises(ReturnBelowNegOneError):
            pmf_from_returns([-1.5])

    def test_duplicates_merged_and_sorted(self):
        pmf = EmpiricalPMF.from_atoms([(0.2, 0.25), (-0.1, 0.5), (0.2, 0.25)])
        assert pmf.atoms == ((-0.1, 0.5), (0.2, 0.5))

    def test_canonical_equality(self):
        a = EmpiricalPMF.from_atoms([(0.1, 0.5), (-0.1, 0.5)])
        b = pmf_from_returns([-0.1, 0.1])
        assert a == b

    @given(
        st.lists(
            st.floats(min_value=-0.9, max_value=2.0, allow_nan=False),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=80)
    def test_moments_match_sample_moments(self, rets):
        pmf = pmf_from_returns(rets)
        arr = np.asarray(rets, dtype=float)
        assert pmf.mean() == pytest.approx(float(arr.mean()), abs=1e-12)
        assert pmf.variance() == pytest.approx(float(arr.var()), abs=1e-12)
        assert float(pmf.weights.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_pmf_shapes(self):
        with pytest.raises(InvalidPmfError):
            EmpiricalPMF(np.array([0.1, 0.1]), np.array([0.5, 0.5]))  # duplicate values
        with pytest.raises(InvalidPmfError):
            EmpiricalPMF(np.array([-0.1, 0.1]), np.array([0.5, 0.4]))  # sum != 1
        with pytest.raises(InvalidPmfError):
            EmpiricalPMF(np.array([-0.1, 0.1]), np.array([1.1, -0.1]))  # negative weight


class TestReturnModel:
    def test_bounds_are_support_endpoints(self):
        pmf = pmf_from_returns([-0.1361, 0.02, 0.1767])
        model = ReturnModel.from_pmf(pmf)
        assert model.bounds.x_min == -0.1361
        assert model.bounds.x_max == 0.1767
        assert model.k_max == 1.0

    def test_k_max_caps_at_inverse_upper_bound(self):
        model = ReturnModel.two_point(-0.5, 2.0, 0.5)
        assert model.k_max == 0.5

    def test_one_sided_support_rejected(self):
        with pytest.raises(InvalidBoundsError):
            ReturnModel.from_pmf(pmf_from_returns([0.01, 0.02]))
        with pytest.raises(InvalidBoundsError):
            ReturnModel.from_pmf(pmf_from_returns([-0.02, -0.01]))

    def test_from_moments(self):
        model = ReturnModel.from_moments(-0.1, 0.15)
        assert model.mu == pytest.approx(-0.1)
        assert model.sigma2 == pytest.approx(0.0225)
        assert model.bounds.x_min == pytest.approx(-0.25)
        assert model.bounds.x_max == pytest.approx(0.05)

    def test_uniform_grid(self):
        model = ReturnModel.uniform_grid(-0.2, 0.3, 6)
        assert model.pmf.n_atoms == 6
        assert np.allclose(model.pmf.weights, 1.0 / 6)
        assert model.bounds.x_min == -0.2
        assert model.bounds.x_max == 0.3

    def test_bounds_invariant(self):
        with pytest.raises(InvalidBoundsError):
            ReturnBounds(0.1, 0.2)
        with pytest.raises(InvalidBoundsError):
            ReturnBounds(-1.0, 0.2)
        with pytest.raises(InvalidBoundsError):
            ReturnBounds(-0.1, 0.0)


class TestSamplePath:
    def test_point_mass(self):
        point_mass = EmpiricalPMF(np.array([0.02]), np.array([1.0]))
        out = sample_path(point_mass, 3, seed=0)
        assert out.tolist() == [0.02, 0.02, 0.02]
        model = ReturnModel.two_point(-0.1, 0.02, 0.5)
        assert sample_path(model, 5, seed=9).size == 5

    def test_deterministic_given_seed(self):
        model = ReturnModel.uniform_grid(-0.2, 0.3, 7)
        a = sample_path(model, 1000, seed=42)
        b = sample_path(model, 1000, seed=42)
        assert np.array_equal(a, b)
        c = sample_path(model, 1000, seed=43)
        assert not np.array_equal(a, c)

    def test_sample_mean_near_pmf_mean(self):
        # CLT-style check with a fixed seed: 3 standard errors of the mean.
        model = ReturnModel.two_point(-0.1, 0.1, 0.5)
        n = 100_000
        draws = sample_path(model, n, seed=7)
        assert abs(draws.mean()) <= 3 * 0.1 / np.sqrt(n)

    def test_draws_stay_in_bounds(self):
        model = ReturnModel.uniform_grid(-0.3, 0.4, 9)
        draws = sample_path(model, 10_000, seed=3)
        assert draws.min() >= model.bounds.x_min
        assert draws.max() <= model.bounds.x_max

    def test_n_validated(self):
        model = ReturnModel.two_point(-0.1, 0.1)
        with pytest.raises(InvalidParameterError):
            sample_path(model, 0, seed=0)


class TestLoadPricesCsv:
    def test_basic_read(self, tmp_path):
        f = tmp_path / "abc.csv"
        f.write_text("date,close\n2019-01-02,100\n2019-01-03,101\n2019-01-04,99\n")
        series = load_prices_csv(f, column="close")
        assert series.prices.tolist() == [100.0, 101.0, 99.0]
        assert series.dates == ("2019-01-02", "2019-01-03", "2019-01-04")
        assert series.ticker == "abc"

    def test_zero_price(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("date,close\n2019-01-02,100\n2019-01-03,0\n")
        with pytest.raises(NonPositivePriceError):
            load_prices_csv(f, column="close")

    def test_missing_column(self, tmp_path):
        f = tmp_path / "cols.csv"
        f.write_text("date,adj_close\n2019-01-02,100\n2019-01-03,101\n")
        with pytest.raises(MissingColumnError):
            load_prices_csv(f, column="close")

    def test_parse_error_reports_row_and_column(self, tmp_path):
        f = tmp_path / "garbled.csv"
        f.write_text("date,close\n2019-01-02,100\n2019-01-03,oops\n")
        with pytest.raises(PriceParseError, match=r"row 3.*'close'"):
            load_prices_csv(f, column="close")

    def test_default_column(self, tmp_path):
        f = tmp_path / "tsla.csv"
        f.write_text("date,adj_close\n2019-01-02,310.12\n2019-01-03,300.36\n")
        series = load_prices_csv(f)
        assert series.prices.tolist() == [310.12, 300.36]

    def test_blank_line_skipped_and_not_counted(self, tmp_path):
        f = tmp_path / "gap.csv"
        f.write_text("date,close\n2019-01-02,100\n\n2019-01-03,101\n2019-01-04,x\n")
        # file line 5, but the blank line is not a row: row 4 as counted over rows
        with pytest.raises(PriceParseError, match=r"row 4, column 'close'"):
            load_prices_csv(f, column="close")
        f.write_text("date,close\n2019-01-02,100\n\n2019-01-03,101\n")
        series = load_prices_csv(f, column="close")
        assert series.prices.tolist() == [100.0, 101.0]
        assert series.dates == ("2019-01-02", "2019-01-03")

    def test_short_row_is_parse_error(self, tmp_path):
        f = tmp_path / "short.csv"
        f.write_text("date,close\n2019-01-02,100\n2019-01-03\n")
        with pytest.raises(PriceParseError, match=r"row 3, column 'close': cannot parse None"):
            load_prices_csv(f, column="close")

    def test_row_short_of_date_is_parse_error(self, tmp_path):
        f = tmp_path / "short_date.csv"
        f.write_text("close,date\n100,2019-01-02\n101\n")
        with pytest.raises(PriceParseError, match=r"row 3, column 'date'"):
            load_prices_csv(f, column="close")

    def test_unreadable_file_is_input_file_error(self, tmp_path):
        with pytest.raises(InputFileError, match=r"nope\.csv: cannot read price file"):
            load_prices_csv(tmp_path / "nope.csv")
        f = tmp_path / "binary.csv"
        f.write_bytes(b"adj_close\n\xff\xfe\n")
        with pytest.raises(InputFileError, match=r"binary\.csv: malformed price file"):
            load_prices_csv(f)

    def test_first_offending_row_reported(self, tmp_path):
        f = tmp_path / "two_faults.csv"
        f.write_text("close\n100\n-1\n102\nnope\n")
        with pytest.raises(NonPositivePriceError, match=r"row 3: price -1.0 is not positive"):
            load_prices_csv(f, column="close")

    def test_duplicated_column_last_wins(self, tmp_path):
        f = tmp_path / "dup.csv"
        f.write_text("close,date,close\n1,2019-01-02,100\n2,2019-01-03,101\n")
        series = load_prices_csv(f, column="close")
        assert series.prices.tolist() == [100.0, 101.0]

    def test_date_header_matched_case_insensitively(self, tmp_path):
        f = tmp_path / "cased.csv"
        f.write_text("Date,close\n2019-01-02,100\n2019-01-03,101\n")
        series = load_prices_csv(f, column="close")
        assert series.dates == ("2019-01-02", "2019-01-03")


@pytest.mark.parametrize("seed", [11, 12])
def test_million_draw_mean_within_four_se(seed):
    model = ReturnModel.from_pmf(pmf_from_returns([-0.12, -0.03, 0.01, 0.04, 0.09, 0.2]))
    n = 1_000_000
    draws = sample_path(model, n, seed=seed)
    se = math.sqrt(model.sigma2 / n)
    assert abs(draws.mean() - model.mu) <= 4 * se


def test_prices_to_pmf_round_trip_moments():
    rng = np.random.default_rng(5)
    prices = 100.0 * np.cumprod(1 + rng.uniform(-0.05, 0.06, size=200))
    series = PriceSeries("t", np.concatenate([[100.0], prices]))
    rets = returns_from_prices(series)
    pmf = pmf_from_returns(rets)
    assert pmf.mean() == pytest.approx(float(rets.mean()), abs=1e-12)
    assert pmf.variance() == pytest.approx(float(rets.var()), abs=1e-12)
