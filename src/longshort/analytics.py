"""Closed-form gain-loss statistics for the balanced and unbalanced controller.

For independent returns with mean mu and variance sigma2, the cumulative
gain-loss G(alpha, K, k) = V(k) - v0 has

    E[G] = v0 * (alpha*(1 + K*mu)**k + (1-alpha)*(1 - K*mu)**k - 1)

and a variance assembled from the per-factor second moments:

    var(G) = alpha^2 * v0^2 * ((1+K*mu)^2 + K^2*sigma2)^k
           + (1-alpha)^2 * v0^2 * ((1-K*mu)^2 + K^2*sigma2)^k
           + 2*alpha*(1-alpha) * v0^2 * (1 - K^2*(sigma2 + mu^2))^k
           - 2*alpha * v0^2 * (1+K*mu)^k - 2*(1-alpha) * v0^2 * (1-K*mu)^k
           + v0^2 - E[G]^2

Everything is model-free: only (mu, sigma2) enter, and the stage k is always
an integer. At alpha = 1/2 the expected gain is positive for every admissible
K > 0 and every nonzero drift, which is what makes the balanced split the
unique robust choice; the predicates below expose that structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    InadmissibleGainError,
    InternalConsistencyError,
    InvalidParameterError,
    MomentOverflowError,
    StageTooSmallError,
)

# Cancellation among the variance terms is O(eps) near K=0; anything more
# negative than this (scaled by v0^2) means the formula was fed garbage.
NEGATIVE_VARIANCE_TOL = 1e-12


@dataclass(frozen=True)
class GainLossStats:
    """Mean, variance, and standard deviation of the gain-loss at one stage."""

    mean: float
    variance: float
    std: float
    stage: int


@dataclass(frozen=True)
class RpeCounterexample:
    """A scaled drift theta = K*mu at which an unbalanced split loses money."""

    alpha: float
    theta: float
    stage: int
    gain_value: float


class RpeCheck(NamedTuple):
    value: float
    positive: bool


def check_domain(
    stage=None,
    min_stage: int = 0,
    alpha: float = 0.5,
    v0: float = 1.0,
    k_gain: float = 0.0,
    k_max: float = 1.0,
    mu: float = 0.0,
    sigma2: float = 0.0,
) -> None:
    """Refuse inputs outside the controller's admissible domain.

    The one check behind every public entry point: an integer ``stage`` of
    at least ``min_stage`` (skipped when None), a split alpha in [0, 1], a
    finite v0 > 0, a finite drift mu > -1, a ceiling k_max in (0, 1], a gain
    in [0, k_max] with k_gain*mu <= 1, and a finite sigma2 >= 0, checked in
    that order. Every comparison is written so that NaN fails it. The
    defaults pass, so a caller names only what it has.
    """
    if stage is not None:
        if isinstance(stage, bool) or not isinstance(stage, (int, np.integer)):
            raise InvalidParameterError(f"stage must be an integer, got {stage!r}")
        if stage < min_stage:
            if min_stage > 1:
                raise StageTooSmallError(f"stage must be > {min_stage - 1}, got {stage}")
            raise InvalidParameterError(f"stage must be >= {min_stage}, got {stage}")
    if not 0.0 <= alpha <= 1.0:
        raise InvalidParameterError(f"alpha must be in [0, 1], got {alpha}")
    if not 0.0 < v0 < math.inf:
        raise InvalidParameterError(f"v0 must be positive and finite, got {v0}")
    if not -1.0 < mu < math.inf:
        raise InvalidParameterError(f"mu must be strictly above -1 and finite, got {mu}")
    if not 0.0 < k_max <= 1.0:
        raise InvalidParameterError(f"k_max must be in (0, 1], got {k_max}")
    if not 0.0 <= k_gain <= k_max:
        raise InadmissibleGainError(f"k_gain={k_gain} outside admissible [0, {k_max}]")
    if k_gain * mu > 1.0:
        raise InadmissibleGainError(
            f"k_gain*mu = {k_gain * mu} exceeds 1; gain inadmissible for this drift"
        )
    if not 0.0 <= sigma2 < math.inf:
        raise InvalidParameterError(f"sigma2 must be nonnegative and finite, got {sigma2}")


def _out_of_range(moment: str, stage: int, k_gain: float) -> MomentOverflowError:
    # Python raises OverflowError when a float power or an fsum leaves double range.
    return MomentOverflowError(
        f"the {moment} of the gain-loss leaves double range at stage {stage} "
        f"with k_gain={k_gain}"
    )


def expected_gain(alpha: float, k_gain: float, stage: int, mu: float, v0: float = 1.0) -> float:
    """Expected cumulative gain-loss at the given stage."""
    check_domain(stage, 0, alpha, v0, k_gain, 1.0, mu)
    k = int(stage)
    theta = k_gain * mu
    if theta == 0.0:
        return 0.0  # exact: both product factors are identically 1
    try:
        return v0 * (alpha * (1.0 + theta) ** k + (1.0 - alpha) * (1.0 - theta) ** k - 1.0)
    except OverflowError:
        raise _out_of_range("expected gain", k, k_gain) from None


def variance_gain(
    alpha: float, k_gain: float, stage: int, mu: float, sigma2: float, v0: float = 1.0
) -> float:
    """Variance of the cumulative gain-loss at the given stage.

    Tiny negative values from floating-point cancellation are clamped to 0;
    anything beyond the tolerance raises, since the expression is a variance
    and cannot be negative for valid inputs.
    """
    check_domain(stage, 0, alpha, v0, k_gain, 1.0, mu, sigma2)
    k = int(stage)
    if k_gain == 0.0 or sigma2 == 0.0:
        return 0.0  # exact: not trading, or a deterministic return path
    second_moment_term = 1.0 - k_gain * k_gain * (sigma2 + mu * mu)
    if second_moment_term < -NEGATIVE_VARIANCE_TOL:
        raise InadmissibleGainError(
            f"k_gain^2 * (sigma2 + mu^2) = {1.0 - second_moment_term} exceeds 1"
        )
    second_moment_term = max(second_moment_term, 0.0)

    theta = k_gain * mu
    spread = k_gain * k_gain * sigma2
    up = 1.0 + theta
    down = 1.0 - theta
    try:
        mean_over_v0 = alpha * up**k + (1.0 - alpha) * down**k - 1.0
        terms = (
            alpha * alpha * (up * up + spread) ** k,
            (1.0 - alpha) * (1.0 - alpha) * (down * down + spread) ** k,
            2.0 * alpha * (1.0 - alpha) * second_moment_term**k,
            -2.0 * alpha * up**k,
            -2.0 * (1.0 - alpha) * down**k,
            1.0,
            -mean_over_v0 * mean_over_v0,
        )
        var = (v0 * v0) * math.fsum(terms)
    except OverflowError:
        raise _out_of_range("variance", k, k_gain) from None
    if var < 0.0:
        # Cancellation noise among the terms is bounded by their magnitude;
        # a negative result beyond that cannot come from rounding.
        cancellation_scale = max(1.0, sum(abs(t) for t in terms))
        if var < -NEGATIVE_VARIANCE_TOL * cancellation_scale * v0 * v0:
            raise InternalConsistencyError(
                f"variance evaluated to {var}, far below zero; this is a bug"
            )
        var = 0.0
    return var


def std_gain(
    alpha: float, k_gain: float, stage: int, mu: float, sigma2: float, v0: float = 1.0
) -> float:
    """Standard deviation of the cumulative gain-loss (sqrt of the variance)."""
    return math.sqrt(variance_gain(alpha, k_gain, stage, mu, sigma2, v0))


def gain_stats(
    alpha: float, k_gain: float, stage: int, mu: float, sigma2: float, v0: float = 1.0
) -> GainLossStats:
    """Bundle mean/variance/std at one stage."""
    mean = expected_gain(alpha, k_gain, stage, mu, v0)
    var = variance_gain(alpha, k_gain, stage, mu, sigma2, v0)
    return GainLossStats(mean=mean, variance=var, std=math.sqrt(var), stage=int(stage))


def check_rpe(k_gain: float, stage: int, mu: float, v0: float = 1.0) -> RpeCheck:
    """Expected gain of the balanced controller and whether it is positive.

    For stage > 1 the value is positive whenever k_gain > 0 and mu != 0,
    regardless of the sign of mu, and exactly zero when k_gain * mu == 0.
    """
    check_domain(stage, 2)
    value = expected_gain(0.5, k_gain, stage, mu, v0)
    return RpeCheck(value=value, positive=value > 0.0)


def _gain_at_theta(alpha: float, theta: float, stage: int) -> float:
    return alpha * (1.0 + theta) ** stage + (1.0 - alpha) * (1.0 - theta) ** stage - 1.0


def find_rpe_counterexample(
    alpha: float, k_gain: float, stage: int
) -> RpeCounterexample | None:
    """Search for a scaled drift theta = k_gain*mu with negative expected gain.

    Returns None for the balanced split, where no counterexample exists. For
    alpha != 1/2 the slope of the gain in theta at the origin is
    stage*(2*alpha - 1), so a losing drift of the opposite sign exists
    arbitrarily close to zero: the search halves |theta| starting from 1
    (from 1/2 on the negative side, which must stay above -1) until the gain
    goes negative. Coming up empty would contradict the slope argument.
    """
    check_domain(stage, 2, alpha)
    k = int(stage)
    if not (0.0 < k_gain <= 1.0):
        raise InadmissibleGainError(f"k_gain={k_gain} outside (0, 1]")
    if alpha == 0.5:
        return None
    theta = 1.0 if alpha < 0.5 else -0.5
    while abs(theta) > 1e-300:
        value = _gain_at_theta(alpha, theta, k)
        if value < 0.0:
            return RpeCounterexample(alpha=alpha, theta=theta, stage=k, gain_value=value)
        theta *= 0.5
    return None


def check_robust_growth(k_gain: float, stage: int, mu: float, v0: float = 1.0) -> bool:
    """Whether the balanced expected gain does not shrink from stage to stage+1.

    True for every admissible gain and every mu > -1; a False result on valid
    inputs would contradict the growth property of the balanced controller.
    """
    check_domain(stage, 1)
    here = expected_gain(0.5, k_gain, stage, mu, v0)
    there = expected_gain(0.5, k_gain, stage + 1, mu, v0)
    return there >= here - 1e-12
