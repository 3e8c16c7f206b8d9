"""Tests for the account recursion, admissibility, and the cash-financing audit."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longshort import (
    AccountTrajectory,
    ControllerConfig,
    DomainError,
    InvalidParameterError,
    ReturnModel,
    audit_cash_financing,
    simulate,
)
from longshort.dynamics import _terminal_gains
from longshort.returns import _CSV_BLOCK_ROWS, _write_csv, gain_ceiling


OVERFLOW = "^account value overflowed double precision on a path of length 1200$"


def _config(alpha=0.5, k_gain=0.5, v0=1.0, k_max=1.0):
    return ControllerConfig(alpha=alpha, k_gain=k_gain, v0=v0, k_max=k_max)


# Values whose repr is easy to get wrong: a signed zero, the smallest
# subnormal, a tiny and a huge normal, and a non-terminating binary fraction.
AWKWARD_FLOATS = np.array([-0.0, 5e-324, 1e-300, 1e16, 0.1])

# Row counts at the edges of the first CSV block and of a later one.
BLOCK_EDGES = [
    n for edge in (_CSV_BLOCK_ROWS, 4 * _CSV_BLOCK_ROWS) for n in (edge - 1, edge, edge + 1)
]


def awkward_columns(n, m, seed):
    """``m`` columns of length ``n`` mixing wide magnitudes and AWKWARD_FLOATS.

    Column j starts with AWKWARD_FLOATS rolled by j, so that even one row
    holds a different awkward value in every column.
    """
    rng = np.random.default_rng(seed)
    cols = []
    for j in range(m):
        col = rng.standard_normal(n) * 10.0 ** rng.integers(-310, 300, n)
        head = np.roll(AWKWARD_FLOATS, -j)[:n]
        col[: head.size] = head
        cols.append(col)
    return cols


class TestControllerConfig:
    def test_k_max_from_bounds(self):
        cfg = ControllerConfig.for_model(
            ReturnModel.two_point(-0.2, 0.5), alpha=0.5, k_gain=0.3, v0=1.0
        )
        assert cfg.k_max == 1.0
        cfg = ControllerConfig.for_model(
            ReturnModel.two_point(-0.2, 2.0), alpha=0.5, k_gain=0.3, v0=1.0
        )
        assert cfg.k_max == 0.5

    def test_for_model(self):
        model = ReturnModel.two_point(-0.1, 0.25, 0.5)
        cfg = ControllerConfig.for_model(model, alpha=0.25, k_gain=1.0, v0=2.0)
        assert cfg.k_max == 1.0
        assert cfg.alpha == 0.25

    def test_inadmissible_gain(self):
        with pytest.raises(InvalidParameterError, match=(
            r"^k_gain=1\.2 outside admissible \[0, 1\.0\]$"
        )):
            _config(k_gain=1.2)
        with pytest.raises(InvalidParameterError, match=(
            r"^k_gain=-0\.1 outside admissible \[0, 1\.0\]$"
        )):
            _config(k_gain=-0.1)
        with pytest.raises(InvalidParameterError, match=(
            r"^k_gain=0\.6 outside admissible \[0, 0\.5\]$"
        )):
            ControllerConfig(alpha=0.5, k_gain=0.6, v0=1.0, k_max=0.5)

    def test_parameter_domains(self):
        with pytest.raises(InvalidParameterError):
            _config(alpha=1.5)
        with pytest.raises(InvalidParameterError):
            _config(v0=0.0)
        with pytest.raises(InvalidParameterError):
            ControllerConfig(alpha=0.5, k_gain=0.0, v0=1.0, k_max=0.0)


class TestSimulate:
    def test_no_trade_is_flat(self):
        traj = simulate(_config(k_gain=0.0), [0.03, -0.05, 0.1, 0.0, -0.2])
        assert np.all(traj.v_total == 1.0)
        assert np.all(traj.gain_loss == 0.0)
        assert np.all(traj.u_net == 0.0)

    def test_path_must_be_one_dimensional(self):
        with pytest.raises(InvalidParameterError, match="1-d"):
            simulate(_config(), [[0.1, -0.1], [0.05, 0.0]])

    def test_one_step_balanced_full_gain(self):
        traj = simulate(_config(k_gain=1.0), [0.1])
        # 0.5 * 1.1 + 0.5 * 0.9
        assert traj.v_total[1] == pytest.approx(1.0, abs=1e-15)
        assert traj.gain_loss[1] == pytest.approx(0.0, abs=1e-15)

    def test_two_step_balanced_full_gain(self):
        traj = simulate(_config(k_gain=1.0), [0.1, 0.1])
        # 0.5 * 1.21 + 0.5 * 0.81
        assert traj.v_total[2] == pytest.approx(1.01, abs=1e-15)
        assert traj.gain_loss[2] == pytest.approx(0.01, abs=1e-15)

    def test_initial_split(self):
        traj = simulate(_config(alpha=0.25, v0=4.0), [0.1])
        assert traj.v_long[0] == 1.0
        assert traj.v_short[0] == 3.0
        assert traj.v_total[0] == 4.0

    def test_totals_are_exact_sums(self):
        rng = np.random.default_rng(0)
        traj = simulate(_config(alpha=0.3, k_gain=0.8), rng.uniform(-0.2, 0.3, 50))
        assert np.array_equal(traj.v_total, traj.v_long + traj.v_short)
        assert np.array_equal(traj.gain_loss, traj.v_total - 1.0)

    def test_controls_match_accounts(self):
        rng = np.random.default_rng(1)
        k = 0.6
        traj = simulate(_config(k_gain=k), rng.uniform(-0.2, 0.3, 20))
        assert np.array_equal(traj.u_long, k * traj.v_long)
        assert np.array_equal(traj.u_short, -k * traj.v_short)
        assert np.array_equal(traj.u_net, traj.u_long + traj.u_short)

    @given(
        alpha=st.floats(min_value=0.0, max_value=1.0),
        k_gain=st.floats(min_value=0.0, max_value=1.0),
        n=st.integers(min_value=1, max_value=200),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_recursion_matches_product_form(self, alpha, k_gain, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-0.3, 0.4, size=n)
        traj = simulate(_config(alpha=alpha, k_gain=k_gain, v0=2.0), x)
        long_products = 2.0 * alpha * np.cumprod(np.concatenate([[1.0], 1 + k_gain * x]))
        short_products = 2.0 * (1 - alpha) * np.cumprod(np.concatenate([[1.0], 1 - k_gain * x]))
        np.testing.assert_allclose(traj.v_long, long_products, rtol=1e-10, atol=1e-300)
        np.testing.assert_allclose(traj.v_short, short_products, rtol=1e-10, atol=1e-300)

    def test_product_form_long_path(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-0.05, 0.06, size=1000)
        traj = simulate(_config(k_gain=0.9), x)
        closed = 0.5 * np.prod(1 + 0.9 * x) + 0.5 * np.prod(1 - 0.9 * x)
        assert traj.v_total[-1] == pytest.approx(closed, rel=1e-10)

    def test_survivability_on_extreme_admissible_path(self):
        # Returns at the very edge of the support keep both accounts at >= 0.
        traj = simulate(_config(k_gain=1.0), [0.99, -0.99, 0.99])
        assert np.all(traj.v_long >= 0.0)
        assert np.all(traj.v_short >= 0.0)

    def test_return_out_of_bounds(self):
        with pytest.raises(InvalidParameterError, match=(
            r"^\|k_gain \* x\| reaches 1\.25, breaking account nonnegativity$"
        )):
            simulate(_config(k_gain=0.5, k_max=0.5), [0.1, 2.5])  # 1 - 0.5*2.5 < 0
        with pytest.raises(InvalidParameterError, match="^returns must be strictly above -1$"):
            simulate(_config(k_gain=0.5), [-1.0])

    @pytest.mark.parametrize(
        "k_gain, path",
        [(0.5, [0.1, np.nan, 0.1]), (0.0, [0.1, np.inf]), (0.5, [0.1, np.inf])],
        ids=["nan", "inf-at-zero-gain", "inf"],
    )
    def test_a_non_finite_return_is_refused_by_name(self, k_gain, path):
        # NaN fails every bound test, and at K = 0 so does 0 * inf = NaN: neither
        # may reach the recursion, where it would read as an account overflow.
        with pytest.raises(InvalidParameterError, match="^returns must be finite$"):
            simulate(_config(k_gain=k_gain), path)

    def test_overflow_raises(self):
        with pytest.raises(DomainError, match=OVERFLOW):
            simulate(_config(alpha=1.0, k_gain=1.0), np.full(1200, 0.9))

    def test_short_account_can_hit_zero_and_stay(self):
        # A return exactly at 1/k_gain zeroes the short account for good.
        traj = simulate(_config(k_gain=0.5, k_max=0.5), [2.0, 0.1])
        assert traj.v_short[1] == 0.0
        assert traj.v_short[2] == 0.0
        assert traj.v_long[2] > 0.0


def _reference_simulate(config, x):
    """The recursion as a loop over numpy float64 scalars, stage by stage."""
    n = x.size
    k_gain = config.k_gain
    v_long = np.empty(n + 1)
    v_short = np.empty(n + 1)
    u_long = np.empty(n + 1)
    u_short = np.empty(n + 1)
    v_long[0] = config.alpha * config.v0
    v_short[0] = (1.0 - config.alpha) * config.v0
    for k in range(n):
        u_long[k] = k_gain * v_long[k]
        u_short[k] = -k_gain * v_short[k]
        v_long[k + 1] = v_long[k] + x[k] * u_long[k]
        v_short[k + 1] = v_short[k] + x[k] * u_short[k]
    u_long[n] = k_gain * v_long[n]
    u_short[n] = -k_gain * v_short[n]
    v_total = v_long + v_short
    return {
        "v_long": v_long,
        "v_short": v_short,
        "u_long": u_long,
        "u_short": u_short,
        "v_total": v_total,
        "gain_loss": v_total - config.v0,
    }


class TestReplayBitwise:
    @pytest.mark.parametrize("n", [1, 125, 50_000])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_matches_numpy_scalar_loop(self, n, alpha):
        rng = np.random.default_rng(n)
        x = rng.uniform(-0.04, 0.05, size=n)
        x[n // 2] = 1.6  # puts k_max at 1/1.6
        if n > 1:
            x[n // 3] = -0.6
        k_max = gain_ceiling(float(x.max()))
        for k_gain in (0.0, k_max):
            config = ControllerConfig(alpha=alpha, k_gain=k_gain, v0=2.5, k_max=k_max)
            traj = simulate(config, x)
            expected = _reference_simulate(config, x)
            for name, want in expected.items():
                assert np.array_equal(getattr(traj, name), want), name

    @pytest.mark.parametrize("alpha, x", [(1.0, 0.9), (0.0, -0.9), (0.5, 0.9)])
    def test_overflow_still_raises(self, alpha, x):
        with pytest.raises(DomainError, match=OVERFLOW):
            simulate(_config(alpha=alpha, k_gain=1.0), np.full(1200, x))


class TestTerminalGains:
    def test_matches_simulate_bitwise(self):
        rng = np.random.default_rng(3)
        paths = rng.uniform(-0.3, 0.4, size=(40, 17))
        config = _config(alpha=0.3, k_gain=0.7, v0=2.5)
        gains = _terminal_gains(config, paths)
        for row, expected in zip(paths, gains):
            traj = simulate(config, row)
            assert traj.gain_loss[-1] == expected


class TestAudit:
    def test_no_trade_ratio_zero(self):
        traj = simulate(_config(k_gain=0.0), [0.1, -0.1])
        audit = audit_cash_financing(traj, 0.0)
        assert audit.max_control_ratio == 0.0
        assert audit.cash_financed

    def test_pure_long_fully_invested(self):
        traj = simulate(_config(alpha=1.0, k_gain=1.0), [0.2, -0.1, 0.3])
        audit = audit_cash_financing(traj, 1.0)
        assert audit.max_control_ratio == pytest.approx(1.0, abs=1e-12)
        assert audit.cash_financed

    def test_bounded_by_gain_on_random_paths(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            alpha = rng.uniform(0, 1)
            x = rng.uniform(-0.4, 0.6, size=30)
            traj = simulate(_config(alpha=alpha, k_gain=0.75), x)
            audit = audit_cash_financing(traj, 0.75)
            assert audit.cash_financed
            assert audit.max_control_ratio <= 0.75 + 1e-12


class TestTrajectoryExport:
    def test_csv_columns_and_length(self, tmp_path):
        traj = simulate(_config(), [0.1, -0.05])
        out = tmp_path / "traj.csv"
        traj.write_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "k,v_long,v_short,v_total,gain_loss,u_long,u_short"
        assert len(lines) == 4  # header + 3 stages
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == 0.5

    @pytest.mark.parametrize("n", [1, *BLOCK_EDGES, 10_000])
    def test_bytes_match_csv_writer_rows(self, tmp_path, n):
        cols = awkward_columns(n, 6, seed=n)
        header = ["k", "a,b", 'q"x', "v_total", "gain_loss", "u_long", "u_short"]
        out = tmp_path / "traj.csv"
        _write_csv(out, header, cols, index=True)
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for k in range(n):
                writer.writerow([k, *(repr(float(col[k])) for col in cols)])
        assert out.read_bytes() == ref.read_bytes()
        assert out.read_text().startswith('k,"a,b","q""x",v_total')

    def test_record_writes_its_columns(self, tmp_path):
        v_long, v_short = awkward_columns(_CSV_BLOCK_ROWS + 1, 2, seed=5)
        traj = AccountTrajectory(v_long, v_short, 0.75, 2.5)
        out = tmp_path / "traj.csv"
        traj.write_csv(out)
        names = ["v_long", "v_short", "v_total", "gain_loss", "u_long", "u_short"]
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["k", *names])
            cols = [getattr(traj, name) for name in names]
            for k in range(traj.n_stages + 1):
                writer.writerow([k, *(repr(float(col[k])) for col in cols)])
        assert out.read_bytes() == ref.read_bytes()

    def test_arrays_are_immutable(self):
        traj = simulate(_config(), [0.1])
        with pytest.raises(ValueError):
            traj.v_total[0] = 99.0
