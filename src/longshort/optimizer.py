"""Optimal gain selection under a standard-deviation budget.

With the split fixed at alpha = 1/2 (the unique choice whose expected gain is
positive for every nonzero drift), both the expected gain and the std of the
gain-loss are strictly increasing in the feedback gain whenever mu != 0 and
sigma > 0. The best gain under std(G) <= s therefore sits exactly where the
std curve crosses s, and bisection on the proved-monotone map K -> std(G)
finds it robustly; Newton would need the derivative of an unwieldy
expression for no practical benefit.

The same map traced over a K grid gives the (std, mean) plane curve used by
the graphical approach; its strict monotonicity makes mean -> K lookups well
defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import analytics
from .errors import (
    InternalConsistencyError,
    InvalidParameterError,
    NonMonotoneEstimateError,
    StageTooSmallError,
    TargetNonpositiveError,
    TargetTooLargeError,
    ZeroDriftError,
    ZeroVolatilityError,
)
from .montecarlo import DEFAULT_N_PATHS, McGainEstimator
from .returns import EmpiricalPMF, ReturnModel, _frozen_array, _write_csv

DEFAULT_TOL = 1e-9
DEFAULT_MC_TOL = 1e-3
MIN_MC_PATHS = 1_000
_MAX_BISECTIONS = 200


@dataclass(frozen=True, eq=False)
class MeanStdCurve:
    """The (std, mean) plane curve of the balanced controller, indexed by gain."""

    k_grid: np.ndarray
    stds: np.ndarray
    means: np.ndarray
    stage: int
    mu: float
    sigma2: float
    v0: float
    alpha: float = 0.5

    def __post_init__(self):
        k = np.asarray(self.k_grid, dtype=float)
        if k.size < 2 or np.any(np.diff(k) <= 0.0):
            raise InvalidParameterError("gain grid must be strictly increasing with >= 2 points")
        if k[0] != 0.0:
            raise InvalidParameterError("gain grid must start at 0")
        object.__setattr__(self, "k_grid", _frozen_array(k))
        object.__setattr__(self, "stds", _frozen_array(self.stds))
        object.__setattr__(self, "means", _frozen_array(self.means))

    @property
    def points(self) -> tuple[tuple[float, float, float], ...]:
        """(k_gain, std, mean) triples along the grid."""
        return tuple(
            zip(self.k_grid.tolist(), self.stds.tolist(), self.means.tolist())
        )

    def write_csv(self, path) -> None:
        """Columns: k_gain, std, mean."""
        _write_csv(path, ["k_gain", "std", "mean"], [self.k_grid, self.stds, self.means])


@dataclass(frozen=True)
class OptimalGainResult:
    """Solution of the gain-selection problem at one stage."""

    k_star: float
    achieved_std: float
    expected_gain: float
    target_std: float
    stage: int
    iterations: int


def build_curve(
    mu: float, sigma2: float, v0: float, stage: int, k_max: float, grid_size: int = 200
) -> MeanStdCurve:
    """Evaluate the closed-form (std, mean) curve on an even gain grid.

    The grid spans [0, k_max] inclusive; the first point is always the
    origin (not trading costs nothing and earns nothing).
    """
    if stage <= 1:
        raise StageTooSmallError(f"stage must be > 1, got {stage}")
    if grid_size < 2:
        raise InvalidParameterError(f"grid_size must be >= 2, got {grid_size}")
    grid = np.linspace(0.0, k_max, grid_size)
    ks = grid.tolist()  # Python floats: the same doubles, evaluated faster
    stds = np.array([analytics.std_gain(0.5, k, stage, mu, sigma2, v0) for k in ks])
    means = np.array([analytics.expected_gain(0.5, k, stage, mu, v0) for k in ks])
    return MeanStdCurve(
        k_grid=grid, stds=stds, means=means, stage=int(stage), mu=mu, sigma2=sigma2, v0=v0
    )


def build_curve_empirical(
    model: ReturnModel,
    v0: float,
    stage: int,
    grid_size: int = 50,
    n_paths: int = DEFAULT_N_PATHS,
    seed: int = 0,
) -> MeanStdCurve:
    """Monte-Carlo analogue of :func:`build_curve` for an arbitrary model.

    All grid points share one bank of sampled paths, so the estimated curve
    inherits the monotone shape of the exact one instead of jittering.
    """
    if stage <= 1:
        raise StageTooSmallError(f"stage must be > 1, got {stage}")
    if grid_size < 2:
        raise InvalidParameterError(f"grid_size must be >= 2, got {grid_size}")
    estimator = McGainEstimator(model, stage, n_paths, seed)
    grid = np.linspace(0.0, model.k_max, grid_size)
    stds = np.empty(grid_size)
    means = np.empty(grid_size)
    for i, k in enumerate(grid):
        est = estimator.estimate(0.5, float(k), v0)
        stds[i] = est.std
        means[i] = est.mean
    return MeanStdCurve(
        k_grid=grid,
        stds=stds,
        means=means,
        stage=int(stage),
        mu=model.mu,
        sigma2=model.sigma2,
        v0=v0,
    )


def _bisect_std(
    std_at: Callable[[float], float],
    k_max: float,
    s_max: float,
    target_std: float,
    tol: float,
    non_monotone_error: type[Exception],
) -> tuple[float, float, int]:
    """Bisect the increasing map K -> std(G) for the target crossing.

    Bracket endpoints carry their std values; a midpoint falling outside
    [std(lo), std(hi)] means the map is not monotone on the bracket, which
    triggers ``non_monotone_error``.
    """
    lo, hi = 0.0, k_max
    s_lo, s_hi = 0.0, s_max
    slack = 1e-12 * max(1.0, s_max)
    mid, s_mid, iterations = 0.0, 0.0, 0
    while iterations < _MAX_BISECTIONS:
        mid = 0.5 * (lo + hi)
        s_mid = std_at(mid)
        iterations += 1
        if s_mid < s_lo - slack or s_mid > s_hi + slack:
            raise non_monotone_error(
                f"std at K={mid} is {s_mid}, outside bracket [{s_lo}, {s_hi}]"
            )
        if abs(s_mid - target_std) <= tol or (hi - lo) <= 1e-15 * k_max:
            return mid, s_mid, iterations
        if s_mid < target_std:
            lo, s_lo = mid, s_mid
        else:
            hi, s_hi = mid, s_mid
    return mid, s_mid, iterations


def _check_solve_domain(mu: float, sigma2: float, stage: int, target_std: float) -> None:
    if stage <= 1:
        raise StageTooSmallError(f"stage must be > 1, got {stage}")
    if mu == 0.0:
        raise ZeroDriftError(
            "mu = 0: the balanced expected gain is identically zero, so no gain "
            "is better than any other"
        )
    if sigma2 <= 0.0:
        raise ZeroVolatilityError("sigma2 = 0: std(G) is identically zero")
    if target_std <= 0.0:
        raise TargetNonpositiveError(f"target_std must be positive, got {target_std}")


def solve_optimal_gain(
    mu: float,
    sigma2: float,
    v0: float,
    stage: int,
    k_max: float,
    target_std: float,
    tol: float = DEFAULT_TOL,
) -> OptimalGainResult:
    """Largest-gain solution of max E[G] s.t. std(G) <= target, closed form.

    Feasible targets lie strictly between 0 and s_max = std at k_max; at the
    solution the std constraint binds, and the expected gain is positive
    because mu != 0.
    """
    _check_solve_domain(mu, sigma2, stage, target_std)
    s_max = analytics.std_gain(0.5, k_max, stage, mu, sigma2, v0)
    if target_std >= s_max:
        raise TargetTooLargeError(
            f"target_std={target_std} >= s_max={s_max}; cap at k_max explicitly "
            "if running at the ceiling is intended",
            s_max=s_max,
        )
    k_star, achieved, iterations = _bisect_std(
        lambda k: analytics.std_gain(0.5, k, stage, mu, sigma2, v0),
        k_max,
        s_max,
        target_std,
        tol,
        InternalConsistencyError,
    )
    return OptimalGainResult(
        k_star=k_star,
        achieved_std=achieved,
        expected_gain=analytics.expected_gain(0.5, k_star, stage, mu, v0),
        target_std=target_std,
        stage=int(stage),
        iterations=iterations,
    )


def solve_optimal_gain_empirical(
    pmf: EmpiricalPMF,
    v0: float,
    stage: int,
    target_std: float,
    tol: float = DEFAULT_MC_TOL,
    n_paths: int = DEFAULT_N_PATHS,
    seed: int = 0,
) -> OptimalGainResult:
    """Gain selection with the std evaluated by Monte-Carlo from a PMF.

    One bank of paths (fixed by the seed) is shared across every probed gain,
    so the estimated std is a deterministic increasing function and bisection
    behaves as in the closed-form case. The reported expected gain uses the
    closed form with the PMF's mean, which is exact for independent draws.
    """
    if n_paths < MIN_MC_PATHS:
        raise InvalidParameterError(f"n_paths must be >= {MIN_MC_PATHS}, got {n_paths}")
    mu = pmf.mean()
    sigma2 = pmf.variance()
    _check_solve_domain(mu, sigma2, stage, target_std)
    model = ReturnModel.from_pmf(pmf)
    estimator = McGainEstimator(model, stage, n_paths, seed)
    std_at = lambda k: estimator.estimate(0.5, k, v0).std  # noqa: E731
    s_max = std_at(model.k_max)
    if target_std >= s_max:
        raise TargetTooLargeError(
            f"target_std={target_std} >= estimated s_max={s_max}", s_max=s_max
        )
    k_star, achieved, iterations = _bisect_std(
        std_at, model.k_max, s_max, target_std, tol, NonMonotoneEstimateError
    )
    return OptimalGainResult(
        k_star=k_star,
        achieved_std=achieved,
        expected_gain=analytics.expected_gain(0.5, k_star, stage, mu, v0),
        target_std=target_std,
        stage=int(stage),
        iterations=iterations,
    )
