"""The library's arguments: one integer rule, and every public signature pinned.

Every count and seed (a stage, ``sample_path``'s ``n``, ``n_paths``,
``grid_size``, a seed) passes ``analytics._check_integer`` where it enters:
an integer, numpy's included, never a bool, at or above its floor. The
signature table makes a parameter added to or dropped from any public
callable show as a one-line diff, as ``test_cli_surface_unchanged`` does for
the parser.
"""

import inspect

import numpy as np
import pytest

import longshort
from longshort import (
    InvalidParameterError,
    McGainEstimator,
    ReturnModel,
    build_curve,
    build_curve_empirical,
    estimate_exact_small,
    estimate_gain_stats,
    optimize_portfolio,
    sample_path,
    solve_optimal_gain_empirical,
)
from longshort.analytics import check_domain

MODEL = ReturnModel.two_point(-0.1, 0.12, 0.5)
PMF = MODEL.pmf


def _call(entry: str, value):
    """Run ``entry``'s entry point with its argument set to ``value``, the rest valid."""
    name, argument = entry.split(":")
    fits = name in ("solve_optimal_gain_empirical", "optimize_portfolio")
    at = {"stage": 3, "n": 5, "n_paths": 1_000 if fits else 200, "grid_size": 3, "seed": 7}
    at[argument] = value
    stage, n_paths, seed = at["stage"], at["n_paths"], at["seed"]
    calls = {
        "check_domain": lambda: check_domain(stage, 0),
        "sample_path": lambda: sample_path(MODEL, at["n"], seed),
        "McGainEstimator": lambda: McGainEstimator(MODEL, stage, n_paths, seed).paths,
        "estimate_gain_stats": lambda: estimate_gain_stats(
            MODEL, 0.5, 0.5, 1.0, stage, n_paths, seed
        ),
        "build_curve": lambda: build_curve(0.01, 0.01, 1.0, stage, 1.0, at["grid_size"]).points,
        "build_curve_empirical": lambda: build_curve_empirical(
            MODEL, 1.0, stage, at["grid_size"], n_paths, seed
        ).points,
        "solve_optimal_gain_empirical": lambda: solve_optimal_gain_empirical(
            PMF, 1.0, stage, 0.02, n_paths, seed
        ),
        "optimize_portfolio": lambda: optimize_portfolio([(PMF, 0.02)], 1.0, stage, n_paths, seed),
    }
    return calls[name]()


# Each entry point's counts and seeds, as "function:argument", with the floor.
FLOORS = {
    "check_domain:stage": 0,
    "sample_path:n": 1,
    "sample_path:seed": 0,
    "McGainEstimator:stage": 1,
    "McGainEstimator:n_paths": 2,
    "McGainEstimator:seed": 0,
    "estimate_gain_stats:stage": 1,
    "estimate_gain_stats:n_paths": 2,
    "estimate_gain_stats:seed": 0,
    "build_curve:stage": 2,
    "build_curve:grid_size": 2,
    "build_curve_empirical:stage": 2,
    "build_curve_empirical:grid_size": 2,
    "build_curve_empirical:n_paths": 2,
    "build_curve_empirical:seed": 0,
    "solve_optimal_gain_empirical:stage": 2,
    "solve_optimal_gain_empirical:n_paths": 1_000,
    "solve_optimal_gain_empirical:seed": 0,
    "optimize_portfolio:stage": 2,
    "optimize_portfolio:n_paths": 1_000,
    "optimize_portfolio:seed": 0,
}


class TestOneIntegerRule:
    @pytest.mark.parametrize("value", [2.5, True, np.float64(3.0), None], ids=repr)
    @pytest.mark.parametrize("entry", list(FLOORS))
    def test_a_non_integer_is_refused_by_name(self, entry, value):
        argument = entry.split(":")[1]
        with pytest.raises(InvalidParameterError, match=f"^{argument} must be an integer, got "):
            _call(entry, value)

    @pytest.mark.parametrize("entry", list(FLOORS))
    def test_below_the_floor_is_refused_by_name(self, entry):
        floor = FLOORS[entry]
        argument = entry.split(":")[1]
        refusal = f"^{argument} must be >= {floor}, got {floor - 1}$"
        with pytest.raises(InvalidParameterError, match=refusal):
            _call(entry, floor - 1)

    @pytest.mark.parametrize("entry", list(FLOORS))
    def test_a_numpy_integer_gives_the_int_results(self, entry):
        value = max(FLOORS[entry], 3)
        want, got = _call(entry, value), _call(entry, np.int64(value))
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want)
        else:
            assert got == want

    def test_a_numpy_stage_cannot_wrap_past_the_enumeration_cap(self):
        # 2**np.int64(64) wraps to 0; the stage is read as an int before the cap.
        with pytest.raises(InvalidParameterError, match=(
            r"^2\^64 sequences exceed the cap of 10000000$"
        )):
            estimate_exact_small(MODEL, 0.5, 0.5, 1.0, np.int64(64))


# inspect.signature of each public callable, annotations left out. The error
# types that keep the built-in exception's constructor are left out too.
SIGNATURES = {
    "AccountTrajectory": "(v_long, v_short, k_gain, v0)",
    "CashFinancingAudit": "(max_control_ratio, cash_financed)",
    "ControllerConfig": "(alpha, k_gain, v0, k_max)",
    "EmpiricalPMF": "(values, weights)",
    "GainLossStats": "(mean, variance, stage)",
    "McEstimate": "(mean, variance, std, std_error_of_mean, n_paths, seed, stage)",
    "McGainEstimator": "(model, stage, n_paths, seed)",
    "MeanStdCurve": "(k_grid, stds, means)",
    "OptimalGainResult": "(k_star, achieved_std, expected_gain, target_std, stage, iterations)",
    "PortfolioAssetError": "(asset_index, message)",
    "PortfolioConfig": "(assets, v0)",
    "PortfolioTrajectory": "(asset_gain_loss, leverage)",
    "PriceSeries": "(ticker, prices)",
    "ReturnModel": "(pmf)",
    "RpeCheck": "(value, positive)",
    "RpeCounterexample": "(alpha, theta, stage, gain_value)",
    "TargetTooLargeError": "(message, s_max)",
    "audit_cash_financing": "(traj, k_gain)",
    "build_curve": "(mu, sigma2, v0, stage, k_max, grid_size=200)",
    "build_curve_empirical": "(model, v0, stage, grid_size=50, n_paths=50000, seed=0)",
    "check_robust_growth": "(k_gain, stage, mu, v0=1.0)",
    "check_rpe": "(k_gain, stage, mu, v0=1.0)",
    "estimate_exact_small": "(model, alpha, k_gain, v0, stage)",
    "estimate_gain_stats": "(model, alpha, k_gain, v0, stage, n_paths=50000, seed=0)",
    "expected_gain": "(alpha, k_gain, stage, mu, v0=1.0)",
    "find_rpe_counterexample": "(alpha, stage)",
    "gain_stats": "(alpha, k_gain, stage, mu, sigma2, v0=1.0)",
    "load_prices_csv": "(path, column='adj_close')",
    "optimize_portfolio": "(assets, v0, stage, n_paths=50000, seed=0)",
    "pmf_from_returns": "(returns)",
    "returns_from_prices": "(series)",
    "run_portfolio": "(config, paths)",
    "sample_path": "(model, n, seed)",
    "simulate": "(config, path)",
    "solve_optimal_gain": "(mu, sigma2, v0, stage, k_max, target_std, tol=1e-09)",
    "solve_optimal_gain_empirical": "(pmf, v0, stage, target_std, n_paths=50000, seed=0)",
    "std_gain": "(alpha, k_gain, stage, mu, sigma2, v0=1.0)",
    "variance_gain": "(alpha, k_gain, stage, mu, sigma2, v0=1.0)",
}


def _signature(obj) -> str:
    signature = inspect.signature(obj)
    return str(signature.replace(
        parameters=[p.replace(annotation=p.empty) for p in signature.parameters.values()],
        return_annotation=signature.empty,
    ))


# Each error type, with its parent.
ERRORS = {
    "DomainError": "LongShortError",
    "InputFileError": "DomainError",
    "InternalConsistencyError": "LongShortError",
    "InvalidParameterError": "DomainError",
    "LongShortError": "Exception",
    "MomentOverflowError": "DomainError",
    "OutputFileError": "DomainError",
    "PortfolioAssetError": "DomainError",
    "TargetTooLargeError": "DomainError",
}

# Former error types, each with the type now raised in its place and the same message.
DROPPED = {
    "ConfigKeyError": "InputFileError",
    "EmptyReturnsError": "InvalidParameterError",
    "EnumerationTooLargeError": "InvalidParameterError",
    "InadmissibleGainError": "InvalidParameterError",
    "InvalidBoundsError": "InvalidParameterError",
    "InvalidPmfError": "InvalidParameterError",
    "LengthMismatchError": "InvalidParameterError",
    "MissingColumnError": "InputFileError",
    "NonMonotoneEstimateError": "DomainError",
    "NonPositivePriceError": "InvalidParameterError",
    "PriceParseError": "InputFileError",
    "ReturnBelowNegOneError": "InvalidParameterError",
    "ReturnOutOfBoundsError": "InvalidParameterError",
    "SimulationOverflowError": "DomainError",
    "StageTooSmallError": "InvalidParameterError",
    "TargetNonpositiveError": "InvalidParameterError",
    "TooShortError": "InvalidParameterError",
    "ZeroDriftError": "InvalidParameterError",
    "ZeroVolatilityError": "InvalidParameterError",
}


def test_library_surface_unchanged():
    surface, errors = {}, {}
    for name in longshort.__all__:
        obj = getattr(longshort, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            errors[name] = obj.__base__.__name__
            if "__init__" not in vars(obj):
                continue
        if callable(obj):
            surface[name] = _signature(obj)
    assert list(surface) == list(SIGNATURES)
    for name, signature in SIGNATURES.items():
        assert surface[name] == signature, name
    assert errors == ERRORS
    for name, replacement in DROPPED.items():
        assert not hasattr(longshort, name), name
        assert replacement in ERRORS
