"""Balanced double-linear long-short feedback trading.

A small numpy library for the simultaneous long-short trading scheme with two
linear feedback laws on separately tracked long and short sub-accounts:
closed-form gain-loss statistics, robust positive-expectation checks, optimal
gain selection under a standard-deviation budget, Monte-Carlo estimation from
empirical return distributions, and single/multi-asset backtesting.

The public names below are resolved on first access (PEP 562), each from the
submodule that defines it, so ``import longshort`` loads only ``errors``,
which imports nothing, and no numpy; ``from longshort import *`` loads them
all.
"""

import importlib

from . import errors

__version__ = "0.1.0"

# Each public name, under the submodule that defines it; the error types are
# every public name of ``errors``.
_EXPORTS = {
    "errors": tuple(name for name in vars(errors) if not name.startswith("_")),
    "defaults": ("DEFAULT_N_PATHS",),
    "returns": (
        "EmpiricalPMF",
        "PriceSeries",
        "ReturnModel",
        "load_prices_csv",
        "pmf_from_returns",
        "returns_from_prices",
    ),
    "dynamics": (
        "AccountTrajectory",
        "CashFinancingAudit",
        "ControllerConfig",
        "audit_cash_financing",
        "simulate",
    ),
    "analytics": (
        "GainLossStats",
        "RpeCheck",
        "RpeCounterexample",
        "check_robust_growth",
        "check_rpe",
        "expected_gain",
        "find_rpe_counterexample",
        "gain_stats",
        "std_gain",
        "variance_gain",
    ),
    "montecarlo": (
        "McEstimate",
        "McGainEstimator",
        "estimate_exact_small",
        "estimate_gain_stats",
        "sample_path",
    ),
    "optimizer": (
        "MeanStdCurve",
        "OptimalGainResult",
        "build_curve",
        "build_curve_empirical",
        "solve_optimal_gain",
        "solve_optimal_gain_empirical",
    ),
    "portfolio": (
        "PortfolioConfig",
        "PortfolioTrajectory",
        "optimize_portfolio",
        "run_portfolio",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import a public name's submodule, or a submodule, on first access."""
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
