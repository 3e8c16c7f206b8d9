"""Tests for price ingestion, return computation, PMFs, and sampling."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longshort import (
    EmpiricalPMF,
    InputFileError,
    InvalidParameterError,
    PriceSeries,
    ReturnModel,
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
        refusal = "^t: all prices must be finite and positive$"
        with pytest.raises(InvalidParameterError, match=refusal):
            PriceSeries("t", np.array([100.0, 0.0, 50.0]))
        with pytest.raises(InvalidParameterError, match=refusal):
            PriceSeries("t", np.array([100.0, -3.0]))

    def test_too_short_rejected(self):
        with pytest.raises(InvalidParameterError, match="^t: need at least 2 prices, got 1$"):
            PriceSeries("t", np.array([100.0]))

    def test_dates_validated(self, tmp_path):
        # A series carries no dates; the loader checks a file's date column.
        f = tmp_path / "t.csv"
        f.write_text("date,close\n2019-01-02,1\n2019-01-03,2\n")
        assert load_prices_csv(f, column="close").prices.tolist() == [1.0, 2.0]
        f.write_text("date,close\n2019-01-03,1\n2019-01-02,2\n")
        with pytest.raises(InvalidParameterError):
            load_prices_csv(f, column="close")
        f.write_text("date,close\n2019-01-02,1\n,2\n")  # a price without its date
        with pytest.raises(InvalidParameterError):
            load_prices_csv(f, column="close")
        f.write_text("close,date\n1,2019-01-02\n2\n")  # a row short of the date column
        with pytest.raises(InputFileError, match=r"t\.csv: row 3, column 'date': no date$"):
            load_prices_csv(f, column="close")


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
        with pytest.raises(InvalidParameterError, match="^cannot build a PMF from zero returns$"):
            pmf_from_returns([])
        with pytest.raises(InvalidParameterError, match="^a PMF needs at least one atom$"):
            EmpiricalPMF(np.array([]), np.array([]))

    def test_total_loss_rejected(self):
        refusal = "^returns must be strictly above -1$"
        with pytest.raises(InvalidParameterError, match=refusal):
            pmf_from_returns([0.1, -1.0])
        with pytest.raises(InvalidParameterError, match=refusal):
            pmf_from_returns([-1.5])

    def test_canonical_equality(self):
        a = EmpiricalPMF(np.array([-0.1, 0.1]), np.array([0.5, 0.5]))
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
        with pytest.raises(InvalidParameterError, match=(
            r"^values must be sorted strictly ascending \(merge duplicates\)$"
        )):
            EmpiricalPMF(np.array([0.1, 0.1]), np.array([0.5, 0.5]))  # duplicate values
        with pytest.raises(InvalidParameterError, match=(
            r"^weights sum to 0\.9, expected 1 within 1e-12$"
        )):
            EmpiricalPMF(np.array([-0.1, 0.1]), np.array([0.5, 0.4]))  # sum != 1
        with pytest.raises(InvalidParameterError, match="^every weight must be positive$"):
            EmpiricalPMF(np.array([-0.1, 0.1]), np.array([1.1, -0.1]))  # negative weight
        shapes = "^values and weights must be 1-d arrays of equal length$"
        with pytest.raises(InvalidParameterError, match=shapes):
            EmpiricalPMF(np.array([[-0.1, 0.1]]), np.array([[0.5, 0.5]]))  # 2-d
        with pytest.raises(InvalidParameterError, match=shapes):
            EmpiricalPMF(np.array([-0.1, 0.1]), np.array([0.5, 0.25, 0.25]))  # unequal lengths

    @pytest.mark.parametrize(
        "values, weights",
        [
            ([-0.1, math.nan, 0.1], [0.25, 0.5, 0.25]),
            ([-0.1, math.inf], [0.5, 0.5]),
            ([-0.1, 0.1], [math.nan, 1.0]),
        ],
        ids=["nan-atom", "inf-atom", "nan-weight"],
    )
    def test_non_finite_pmf_refused(self, values, weights):
        # NaN fails every comparison, so only an explicit check refuses it.
        with pytest.raises(InvalidParameterError, match="^every value and weight must be finite$"):
            EmpiricalPMF(np.array(values), np.array(weights))

    def test_non_finite_return_refused(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(InvalidParameterError, match="^returns must be finite$"):
                pmf_from_returns([0.1, -0.2, bad])


class TestReturnModel:
    def test_bounds_are_support_endpoints(self):
        pmf = pmf_from_returns([-0.1361, 0.02, 0.1767])
        model = ReturnModel.from_pmf(pmf)
        assert model.x_min == -0.1361
        assert model.x_max == 0.1767
        assert model.k_max == 1.0

    def test_k_max_caps_at_inverse_upper_bound(self):
        model = ReturnModel.two_point(-0.5, 2.0, 0.5)
        assert model.k_max == 0.5

    def test_one_sided_support_rejected(self):
        bounds = r"^bounds must satisfy -1 < x_min < 0 < x_max < inf, got x_min="
        with pytest.raises(InvalidParameterError, match=bounds + "0.01, x_max=0.02$"):
            ReturnModel.from_pmf(pmf_from_returns([0.01, 0.02]))
        with pytest.raises(InvalidParameterError, match=bounds + "-0.02, x_max=-0.01$"):
            ReturnModel.from_pmf(pmf_from_returns([-0.02, -0.01]))

    @pytest.mark.parametrize("sigma2", [math.nan, math.inf])
    def test_variance_must_be_finite_and_nonnegative(self, sigma2):
        # A PMF's variance is a sum of weighted squares, never negative. An atom
        # near the top of double range overflows it; a NaN atom, which would
        # make it NaN, is refused with the PMF, so it never reaches a model.
        if math.isnan(sigma2):
            with pytest.raises(InvalidParameterError, match=(
                "^every value and weight must be finite$"
            )):
                EmpiricalPMF(np.array([-0.5, math.nan, 0.5]), np.full(3, 1.0 / 3))
            return
        pmf = EmpiricalPMF(np.array([-0.5, 1e200]), np.full(2, 0.5))
        with np.errstate(over="ignore"):
            assert pmf.variance() == sigma2
            with pytest.raises(InvalidParameterError, match="sigma2"):
                ReturnModel(pmf)

    def test_mean_outside_support_by_rounding_rejected(self):
        # The weights sum to 1 + 6e-13, within WEIGHT_SUM_TOL, and the mean
        # rounds to 1.00000000000045, above the largest atom.
        pmf = EmpiricalPMF(np.array([-0.5, 1.0]), np.array([1e-13, 1 + 5e-13]))
        assert pmf.mean() > pmf.values[-1]
        with pytest.raises(InvalidParameterError, match="within the support bounds"):
            ReturnModel(pmf)

    @pytest.mark.parametrize("p_up", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_two_point_probability_must_be_inside_unit_interval(self, p_up):
        with pytest.raises(InvalidParameterError, match=r"p_up must be in \(0, 1\)"):
            ReturnModel.two_point(-0.1, 0.1, p_up)

    def test_the_pmf_is_the_only_field(self):
        pmf = pmf_from_returns([-0.12, -0.03, 0.01, 0.04, 0.2])
        model = ReturnModel(pmf)
        assert (model.x_min, model.x_max) == (-0.12, 0.2)
        assert (model.mu, model.sigma2) == (pmf.mean(), pmf.variance())
        assert model == ReturnModel.from_pmf(pmf_from_returns([0.2, -0.12, -0.03, 0.01, 0.04]))
        assert hash(model) == hash(ReturnModel.from_pmf(pmf))
        assert model != ReturnModel.two_point(-0.12, 0.2)
        with pytest.raises(TypeError):
            ReturnModel(pmf, model.x_min, model.x_max, model.mu, model.sigma2)

    def test_from_moments(self):
        model = ReturnModel.from_moments(-0.1, 0.15)
        assert model.mu == pytest.approx(-0.1)
        assert model.sigma2 == pytest.approx(0.0225)
        assert model.x_min == pytest.approx(-0.25)
        assert model.x_max == pytest.approx(0.05)

    def test_bounds_invariant(self):
        for x_down, x_up in ((0.1, 0.2), (-0.1, 0.0)):
            with pytest.raises(InvalidParameterError, match=(
                r"^bounds must satisfy -1 < x_min < 0 < x_max < inf, "
                rf"got x_min={x_down}, x_max={x_up}$"
            )):
                ReturnModel.two_point(x_down, x_up)
        # the PMF refuses x_min = -1 first
        with pytest.raises(InvalidParameterError, match="^PMF support must lie strictly above -1$"):
            ReturnModel.two_point(-1.0, 0.2)


class TestSamplePath:
    def test_point_mass(self):
        point_mass = EmpiricalPMF(np.array([0.02]), np.array([1.0]))
        out = sample_path(point_mass, 3, seed=0)
        assert out.tolist() == [0.02, 0.02, 0.02]
        model = ReturnModel.two_point(-0.1, 0.02, 0.5)
        assert sample_path(model, 5, seed=9).size == 5

    def test_deterministic_given_seed(self):
        model = ReturnModel(EmpiricalPMF(np.linspace(-0.2, 0.3, 7), np.full(7, 1.0 / 7)))
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
        model = ReturnModel(EmpiricalPMF(np.linspace(-0.3, 0.4, 9), np.full(9, 1.0 / 9)))
        draws = sample_path(model, 10_000, seed=3)
        assert draws.min() >= model.x_min
        assert draws.max() <= model.x_max

    @pytest.mark.parametrize(
        "n_atoms, n, seed", [(1, 5, 0), (2, 1, 3), (7, 3_000, 42), (125, 777, 2**40)]
    )
    def test_equals_generator_choice(self, n_atoms, n, seed):
        # The draws that ``Generator.choice`` makes from the same seed, entry for entry.
        rng = np.random.default_rng(n_atoms)
        weights = rng.random(n_atoms) ** 4 + 1e-9
        pmf = EmpiricalPMF(np.linspace(-0.5, 0.5, n_atoms), weights / weights.sum())
        want = pmf.values[np.random.default_rng(seed).choice(n_atoms, size=n, p=pmf.weights)]
        assert np.array_equal(sample_path(pmf, n, seed), want)

    def test_n_validated(self):
        model = ReturnModel.two_point(-0.1, 0.1)
        with pytest.raises(InvalidParameterError):
            sample_path(model, 0, seed=0)

    @pytest.mark.parametrize("seed", [-1, np.int64(-2)])
    def test_negative_seed_refused(self, seed):
        model = ReturnModel.two_point(-0.1, 0.1)
        with pytest.raises(InvalidParameterError, match="seed must be >= 0, got "):
            sample_path(model, 5, seed=seed)


class TestLoadPricesCsv:
    def test_basic_read(self, tmp_path):
        f = tmp_path / "abc.csv"
        f.write_text("date,close\n2019-01-02,100\n2019-01-03,101\n2019-01-04,99\n")
        series = load_prices_csv(f, column="close")
        assert series.prices.tolist() == [100.0, 101.0, 99.0]
        assert series.ticker == "abc"
        assert not hasattr(series, "dates")
        # The date column is read, in file order: swapping two dates is refused.
        f.write_text("date,close\n2019-01-02,100\n2019-01-04,101\n2019-01-03,99\n")
        with pytest.raises(InvalidParameterError, match=r"^abc: dates must be strictly increasing$"):
            load_prices_csv(f, column="close")

    def test_zero_price(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("date,close\n2019-01-02,100\n2019-01-03,0\n")
        with pytest.raises(InvalidParameterError, match=(
            r"bad\.csv: row 3: price 0\.0 is not finite and positive$"
        )):
            load_prices_csv(f, column="close")

    @pytest.mark.parametrize("raw", ["nan", "inf"])
    def test_non_finite_price_refused_at_its_row(self, tmp_path, raw):
        f = tmp_path / f"{raw}.csv"
        f.write_text(f"date,close\n2019-01-02,100\n2019-01-03,{raw}\n2019-01-04,101\n")
        with pytest.raises(InvalidParameterError, match=(
            rf"{raw}\.csv: row 3: price {raw} is not finite and positive$"
        )):
            load_prices_csv(f, column="close")

    def test_missing_column(self, tmp_path):
        f = tmp_path / "cols.csv"
        f.write_text("date,adj_close\n2019-01-02,100\n2019-01-03,101\n")
        with pytest.raises(InputFileError, match=(
            r"cols\.csv: no column 'close' \(have: date, adj_close\)$"
        )):
            load_prices_csv(f, column="close")

    def test_parse_error_reports_row_and_column(self, tmp_path):
        f = tmp_path / "garbled.csv"
        f.write_text("date,close\n2019-01-02,100\n2019-01-03,oops\n")
        with pytest.raises(InputFileError, match=(
            r"garbled\.csv: row 3, column 'close': cannot parse 'oops'$"
        )):
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
        with pytest.raises(InputFileError, match=(
            r"gap\.csv: row 4, column 'close': cannot parse 'x'$"
        )):
            load_prices_csv(f, column="close")
        f.write_text("date,close\n2019-01-02,100\n\n2019-01-03,101\n")
        series = load_prices_csv(f, column="close")
        assert series.prices.tolist() == [100.0, 101.0]
        # Nor does it count as a date: an empty date after 2019-01-02 would be refused.
        f.write_text("date,close\n2019-01-02,100\n,101\n")
        with pytest.raises(InvalidParameterError):
            load_prices_csv(f, column="close")

    def test_short_row_is_parse_error(self, tmp_path):
        f = tmp_path / "short.csv"
        f.write_text("date,close\n2019-01-02,100\n2019-01-03\n")
        with pytest.raises(InputFileError, match=(
            r"short\.csv: row 3, column 'close': cannot parse None$"
        )):
            load_prices_csv(f, column="close")

    def test_row_short_of_date_is_parse_error(self, tmp_path):
        f = tmp_path / "short_date.csv"
        f.write_text("close,date\n100,2019-01-02\n101\n")
        with pytest.raises(InputFileError, match=(
            r"short_date\.csv: row 3, column 'date': no date$"
        )):
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
        with pytest.raises(InvalidParameterError, match=(
            r"two_faults\.csv: row 3: price -1\.0 is not finite and positive$"
        )):
            load_prices_csv(f, column="close")

    def test_duplicated_column_last_wins(self, tmp_path):
        f = tmp_path / "dup.csv"
        f.write_text("close,date,close\n1,2019-01-02,100\n2,2019-01-03,101\n")
        series = load_prices_csv(f, column="close")
        assert series.prices.tolist() == [100.0, 101.0]

    def test_date_header_matched_case_insensitively(self, tmp_path):
        f = tmp_path / "cased.csv"
        f.write_text("Date,close\n2019-01-02,100\n2019-01-03,101\n")
        assert load_prices_csv(f, column="close").prices.tolist() == [100.0, 101.0]
        f.write_text("Date,close\n2019-01-03,100\n2019-01-02,101\n")
        with pytest.raises(InvalidParameterError, match="dates must be strictly increasing"):
            load_prices_csv(f, column="close")

    def test_out_of_order_dates_refused_after_row_and_series_checks(self, tmp_path):
        f = tmp_path / "order.csv"
        for dates in (("2019-01-03", "2019-01-02"), ("2019-01-02", "2019-01-02")):
            f.write_text("date,close\n" + "".join(f"{d},100\n" for d in dates))
            with pytest.raises(InvalidParameterError) as exc_info:
                load_prices_csv(f, column="close")
            assert str(exc_info.value) == "order: dates must be strictly increasing"
        # A later row's fault is refused first.
        f.write_text("date,close\n2019-01-03,100\n2019-01-02,101\n2019-01-04,x\n")
        with pytest.raises(InputFileError, match=(
            r"order\.csv: row 4, column 'close': cannot parse 'x'$"
        )):
            load_prices_csv(f, column="close")
        f.write_text("date,close\n2019-01-03,100\n2019-01-02,nan\n")
        with pytest.raises(InvalidParameterError, match=(
            r"order\.csv: row 3: price nan is not finite and positive$"
        )):
            load_prices_csv(f, column="close")

    def test_load_holds_little_beyond_the_prices(self, tmp_path):
        # Kept, the 50k date strings alone would take 3.6 MiB.
        n = 50_000
        f = tmp_path / "long.csv"
        day = np.datetime64("1900-01-01")
        f.write_text(
            "date,close\n" + "".join(f"{day + k},{100.0 + k % 7}\n" for k in range(n))
        )
        tracemalloc.start()
        try:
            series = load_prices_csv(f, column="close")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(series) == n
        assert peak < 2**20


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
