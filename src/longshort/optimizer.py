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

import math
import sys
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable

import numpy as np

from . import analytics
from .defaults import DEFAULT_TOL
from .errors import (
    DomainError,
    InternalConsistencyError,
    InvalidParameterError,
    MomentOverflowError,
    TargetTooLargeError,
)
from .montecarlo import DEFAULT_N_PATHS, McGainEstimator, _check_draw
from .returns import EmpiricalPMF, ReturnModel, _frozen_array, _write_csv

DEFAULT_MC_TOL = 1e-3
MIN_MC_PATHS = 1_000
_MIN_RELATIVE_STD = math.sqrt(sys.float_info.min)  # the smallest target_std / v0 a fit takes


@dataclass(frozen=True, eq=False)
class MeanStdCurve:
    """The (std, mean) plane curve of the balanced controller, indexed by gain."""

    k_grid: np.ndarray
    stds: np.ndarray
    means: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.k_grid, dtype=float)
        if k.size < 2 or np.any(k[1:] <= k[:-1]):
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


def _trace_curve(at: Callable, k_max: float, grid_size: int) -> MeanStdCurve:
    """``at``'s (mean, std) on an even gain grid of a checked ``grid_size`` over [0, k_max]."""
    grid = np.linspace(0.0, k_max, grid_size)
    means, stds = np.empty(grid_size), np.empty(grid_size)
    # Iterating a memoryview yields the grid's doubles one at a time as Python
    # floats, which evaluate faster than numpy scalars; only the columns are held.
    mean_out, std_out = memoryview(means), memoryview(stds)
    for i, k_gain in enumerate(memoryview(grid)):
        mean_out[i], std_out[i] = at(k_gain)
    return MeanStdCurve(k_grid=grid, stds=stds, means=means)


def build_curve(
    mu: float, sigma2: float, v0: float, stage: int, k_max: float, grid_size: int = 200
) -> MeanStdCurve:
    """Evaluate the closed-form (std, mean) curve on an even gain grid.

    The grid spans [0, k_max] inclusive; the first point is always the
    origin (not trading costs nothing and earns nothing).
    """
    # Every domain check is monotone in the gain, so passing k_max passes [0, k_max].
    analytics.check_domain(stage, 2, 0.5, v0, k_max, 1.0, mu, sigma2)
    analytics._check_integer("grid_size", grid_size, 2)
    k = int(stage)

    def at(k_gain: float) -> tuple[float, float]:
        mean, var = analytics._moments(0.5, k_gain, k, mu, sigma2)
        mean = analytics._scaled(mean, v0, "expected gain", k, k_gain)
        return mean, analytics._scaled(math.sqrt(var), v0, "variance", k, k_gain)

    return _trace_curve(at, k_max, grid_size)


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
    analytics.check_domain(stage, 2)
    analytics._check_integer("grid_size", grid_size, 2)
    estimator = McGainEstimator(model, stage, n_paths, seed)
    mean_std = attrgetter("mean", "std")
    return _trace_curve(
        lambda k: mean_std(estimator.estimate(0.5, k, v0)), model.k_max, grid_size
    )


def _bisect_std(
    std_at: Callable[[float], float],
    k_max: float,
    s_max: float,
    target_std: float,
    tol: float,
    non_monotone_error: type[Exception],
) -> tuple[float, float, int]:
    """Bisect the increasing map K -> std(G) for a std in [target_std - tol, target_std].

    The loop ends at the band, or when no double lies strictly between the
    bracket's ends; then its feasible end ``lo`` is the answer. Halving from
    lo = 0 steps the exponent down once per probe, so no bisection outlasts
    about 1,100 probes. A midpoint outside [std(lo), std(hi)] means the map
    is not monotone on the bracket, which triggers ``non_monotone_error``.
    """
    lo, hi = 0.0, k_max
    s_lo, s_hi = 0.0, s_max
    # An s_max past double range is +inf; the slack then scales with the target.
    slack = 1e-12 * max(1.0, s_max if s_max < math.inf else target_std)
    iterations = 0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        s_mid = std_at(mid)
        iterations += 1
        if s_mid < s_lo - slack or s_mid > s_hi + slack:
            raise non_monotone_error(
                f"std at K={mid} is {s_mid}, outside bracket [{s_lo}, {s_hi}]"
            )
        if target_std - tol <= s_mid <= target_std:
            return mid, s_mid, iterations
        if s_mid < target_std:
            lo, s_lo = mid, s_mid
        else:
            hi, s_hi = mid, s_mid
    return lo, s_lo, iterations


def _solve(std_at, mu, v0, k_max, target_std, tol, stage, error) -> OptimalGainResult:
    """Refuse a target at or above s_max = ``std_at(k_max)``, else bisect ``std_at`` for it.

    The fit's expected gain is the closed form at drift ``mu``, exact for independent draws.
    """
    s_max = std_at(k_max)
    if target_std >= s_max:
        raise TargetTooLargeError(f"target_std={target_std} >= s_max={s_max}", s_max=s_max)
    k_star, achieved, iterations = _bisect_std(std_at, k_max, s_max, target_std, tol * v0, error)
    mean = analytics.expected_gain(0.5, k_star, stage, mu, v0)
    return OptimalGainResult(k_star, achieved, mean, target_std, int(stage), iterations)


def _check_solve_domain(
    mu: float, sigma2: float, stage: int, v0: float, target_std: float, tol: float
) -> None:
    analytics.check_domain(stage, 2)
    if mu == 0.0:
        raise InvalidParameterError(
            "mu = 0: the balanced expected gain is identically zero, so no gain "
            "is better than any other"
        )
    if sigma2 <= 0.0:
        raise InvalidParameterError("sigma2 = 0: std(G) is identically zero")
    if not target_std > 0.0:
        raise InvalidParameterError(f"target_std must be positive, got {target_std}")
    if not 0.0 <= tol < math.inf:
        raise InvalidParameterError(f"tol must be nonnegative and finite, got {tol}")
    analytics.check_domain(v0=v0)
    # The variance grows as K^4 near 0: below this budget it underflows, and a fit reads std 0.
    if target_std / v0 < _MIN_RELATIVE_STD:
        raise InvalidParameterError(
            f"target_std / v0 = {target_std / v0} is below {_MIN_RELATIVE_STD}, "
            "where the fit's variance underflows double precision"
        )


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

    Feasible targets lie strictly between 0 and s_max = std at k_max, and the
    expected gain is positive because mu != 0. The fit's std is at or below
    target_std, and within ``tol * v0`` of it unless two adjacent doubles
    straddle that band (as they may at ``tol = 0``). ``tol`` is relative to the
    account size, so scaling v0 and the target together scales the fit and
    leaves K* where it was. A probe whose std leaves double range lies above
    every finite target, so long horizons fit wherever the std at K* is finite;
    only the fit's own expected gain must stay in range.
    """
    _check_solve_domain(mu, sigma2, stage, v0, target_std, tol)
    # Every domain check is monotone in the gain, so passing k_max passes [0, k_max].
    analytics.check_domain(stage, 2, 0.5, v0, k_max, 1.0, mu, sigma2)
    k = int(stage)

    def std_at(k_gain: float) -> float:
        try:
            variance = analytics._moments(0.5, k_gain, k, mu, sigma2)[1]
        except MomentOverflowError:
            return math.inf
        return v0 * math.sqrt(variance)

    return _solve(std_at, mu, v0, k_max, target_std, tol, stage, InternalConsistencyError)


def solve_optimal_gain_empirical(
    pmf: EmpiricalPMF,
    v0: float,
    stage: int,
    target_std: float,
    n_paths: int = DEFAULT_N_PATHS,
    seed: int = 0,
) -> OptimalGainResult:
    """Gain selection with the std evaluated by Monte-Carlo from a PMF.

    One bank of paths (fixed by the seed) is shared across every probed gain,
    so the estimated std is a deterministic increasing function and bisection
    behaves as in the closed-form case: the estimated std at the fit lies in
    [target_std - DEFAULT_MC_TOL * v0, target_std], with n_paths >= MIN_MC_PATHS.
    The reported expected gain uses the closed form with the PMF's mean,
    which is exact for independent draws.
    """
    _check_draw(stage, n_paths, seed, 2, MIN_MC_PATHS)
    mu = pmf.mean()
    sigma2 = pmf.variance()
    _check_solve_domain(mu, sigma2, stage, v0, target_std, DEFAULT_MC_TOL)
    model = ReturnModel.from_pmf(pmf)
    estimator = McGainEstimator(model, stage, n_paths, seed)
    return _solve(
        lambda k: estimator.estimate(0.5, k, v0).std, mu, v0, model.k_max, target_std,
        DEFAULT_MC_TOL, stage, DomainError,
    )
