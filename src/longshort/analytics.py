"""Closed-form gain-loss statistics for the balanced and unbalanced controller.

For independent returns with mean mu and variance sigma2, write theta = K*mu,
s = K^2*sigma2, a = 1 + theta, b = 1 - theta, beta = 1 - alpha, and
phi_n(t) = (1+t)^n - 1 - n*t, which is >= 0 for t >= -1. The cumulative
gain-loss G(alpha, K, k) = V(k) - v0 then has

    E[G] / v0 = alpha*phi_k(theta) + beta*phi_k(-theta) + (alpha - beta)*k*theta
    var(G) / v0^2 = k*s*c1^2 + alpha^2 * a^(2k) * phi_k(s/a^2)
        + beta^2 * b^(2k) * phi_k(s/b^2) + 2*alpha*beta * (ab)^k * phi_k(-s/(ab))

with c1 = alpha*a^(k-1) - beta*b^(k-1). Every variance term is nonnegative, and at
alpha = 1/2 so is every term of the mean: nothing cancels or is clamped. One private
kernel, ``_moments``, evaluates both at v0 = 1, and every closed-form
number in the package reads it: the functions below and the optimizer's curve
and solver. The mean and std are linear in v0 and the variance quadratic, so a
large v0 rescales a result; one that leaves double range is refused.

Everything is model-free: only (mu, sigma2) enter, and the stage k is always
an integer. At alpha = 1/2 the expected gain is positive for every admissible
K > 0 and every nonzero drift, which is what makes the balanced split the
unique robust choice; the predicates below expose that structure.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple

from .errors import InvalidParameterError, MomentOverflowError


@dataclass(frozen=True)
class GainLossStats:
    """Mean and variance of the gain-loss at one stage, and the std derived from them."""

    mean: float
    variance: float
    stage: int
    std = property(lambda self: math.sqrt(self.variance))


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


# The most doubles a count may ask for, and the one ceiling of every count, stage included:
# near sys.maxsize bytes numpy raises ValueError, and no memory holds half as many anyway.
_MAX_DOUBLES = sys.maxsize // 16


def _check_integer(name: str, value, floor: int, ceiling=_MAX_DOUBLES):
    """The one rule for counts and seeds: an integer (numpy's, never a bool) in [floor, ceiling]."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if value < floor:
        raise InvalidParameterError(f"{name} must be >= {floor}, got {value}")
    if ceiling is not None and value > ceiling:
        raise InvalidParameterError(f"{name} must be <= {ceiling}, got {value}")


def check_domain(
    stage=None,
    min_stage: int | None = None,
    alpha: float = 0.5,
    v0: float = 1.0,
    k_gain: float = 0.0,
    k_max: float = 1.0,
    mu: float = 0.0,
    sigma2: float = 0.0,
) -> None:
    """Refuse inputs outside the controller's admissible domain.

    The one check behind every public entry point: an integer ``stage`` in
    [``min_stage``, ``_MAX_DOUBLES``] (unless ``min_stage`` is None), a split
    alpha in [0, 1], a finite v0 > 0, a finite drift mu > -1, a ceiling k_max
    in (0, 1], a gain in [0, k_max] with k_gain*mu <= 1, a finite sigma2 >= 0,
    and k_gain^2 * (sigma2 + mu^2) <= 1, in that order. A NaN fails the first
    check that reads it. The defaults pass, so a caller names only what it has.
    """
    if min_stage is not None:
        _check_integer("stage", stage, min_stage)
    if not 0.0 <= alpha <= 1.0:
        raise InvalidParameterError(f"alpha must be in [0, 1], got {alpha}")
    if not 0.0 < v0 < math.inf:
        raise InvalidParameterError(f"v0 must be positive and finite, got {v0}")
    if not -1.0 < mu < math.inf:
        raise InvalidParameterError(f"mu must be strictly above -1 and finite, got {mu}")
    if not 0.0 < k_max <= 1.0:
        raise InvalidParameterError(f"k_max must be in (0, 1], got {k_max}")
    if not 0.0 <= k_gain <= k_max:
        raise InvalidParameterError(f"k_gain={k_gain} outside admissible [0, {k_max}]")
    if k_gain * mu > 1.0:
        raise InvalidParameterError(
            f"k_gain*mu = {k_gain * mu} exceeds 1; gain inadmissible for this drift"
        )
    if not 0.0 <= sigma2 < math.inf:
        raise InvalidParameterError(f"sigma2 must be nonnegative and finite, got {sigma2}")
    room = 1.0 - k_gain * k_gain * (sigma2 + mu * mu)
    if room < -1e-12:  # beyond rounding of a gain on the boundary
        raise InvalidParameterError(f"k_gain^2 * (sigma2 + mu^2) = {1.0 - room} exceeds 1")


def _out_of_range(moment: str, stage: int, k_gain: float) -> str:
    # Python raises OverflowError when exp or expm1 leaves double range.
    return (
        f"the {moment} of the gain-loss leaves double range at stage {stage} "
        f"with k_gain={k_gain}"
    )


def _phi(n: int, t: float, log_x: float = 0.0) -> float:
    """exp(n * log_x) * phi_n(t) for t >= -1, where phi_n(t) = (1+t)**n - 1 - n*t >= 0.

    No branch cancels phi_n away: the binomial series below |n*t| = 0.01 (terms shrink
    300-fold a step), expm1/log1p below |n*t| = 1, then exp(n * log1p(t)), never a
    rounded 1 + t to the n-th; the scale inside keeps a huge phi_n in double range.
    """
    nt = n * t
    if nt * nt < 1e-4 or n < 2:  # phi_0 = phi_1 = 0
        nested = 1.0  # sum_{j=2..8} C(n, j) t**j, by C(n, j+1) t / C(n, j) = (n-j) t / (j+1)
        for j in range(7, 1, -1):
            nested = 1.0 + (n - j) * t / (j + 1) * nested
        return math.exp(n * log_x) * 0.5 * n * (n - 1) * t * t * nested
    if nt * nt < 1.0:
        return math.exp(n * log_x) * (math.expm1(n * math.log1p(t)) - nt)
    power = math.exp(n * (log_x + math.log1p(t))) if t > -1.0 else 0.0
    return power - math.exp(n * log_x) * (1.0 + nt)


def _moments(alpha: float, k_gain: float, k: int, mu: float, sigma2: float) -> tuple[float, float]:
    """(E[G], var(G)) at v0 = 1 for inputs check_domain admits: the formulas above, once.

    It refuses only a power past double range, as an overflow of the variance;
    with sigma2 = 0 the variance is exactly 0 and a mean past range comes back as inf.
    """
    theta, beta = k_gain * mu, 1.0 - alpha
    up, down = 1.0 + theta, 1.0 - theta
    spread = min(k_gain * k_gain * sigma2, up * down)  # within check_domain's slack, E[PQ] = 0
    log_up, log_down = math.log1p(theta), math.log1p(-theta) if theta < 1.0 else -math.inf
    mean, var = math.inf, 0.0  # a mean past double range stays inf; whoever reads it refuses it
    near = -0.5 < k * theta < 0.5  # near balance the powers cancel, and phi does not
    try:
        if near:
            mean = alpha * _phi(k, theta) + beta * _phi(k, -theta) + (alpha - beta) * k * theta
        else:
            # A leg of weight 0 adds nothing, and its powers may leave double range.
            up_k = math.exp(k * log_up) if alpha else 0.0
            down_k = math.exp(k * log_down) if beta else 0.0
            mean = alpha * up_k + beta * down_k - 1.0
        if k and spread:  # else no stage, no gain or a deterministic return path
            if near:  # c1 = alpha * up**(k-1) - beta * down**(k-1), each power as 1 + expm1
                c1 = alpha * math.expm1((k - 1) * log_up) - beta * math.expm1((k - 1) * log_down)
                c1 += alpha - beta
            else:
                c1 = alpha * up_k / up - beta * down_k / down
            var = k * spread * c1 * c1
            if alpha:
                var += alpha * alpha * _phi(k, spread / (up * up), 2.0 * log_up)
            if beta:
                var += beta * beta * _phi(k, spread / (down * down), 2.0 * log_down)
            if alpha and beta:
                var += 2.0 * alpha * beta * _phi(k, -spread / (up * down), log_up + log_down)
    except OverflowError:
        if k and spread:
            raise MomentOverflowError(_out_of_range("variance", k, k_gain)) from None
    return mean, var


def _scaled(value: float, scale: float, moment: str, stage: int, k_gain: float) -> float:
    # v0 scales the kernel's mean and std, v0**2 its variance; only the product
    # can leave double range here. A zero stays exact where the scale overflows.
    scaled = scale * value if value else value
    if math.isinf(scaled):
        raise MomentOverflowError(_out_of_range(moment, stage, k_gain))
    return scaled


def expected_gain(alpha: float, k_gain: float, stage: int, mu: float, v0: float = 1.0) -> float:
    """Expected cumulative gain-loss at the given stage."""
    check_domain(stage, 0, alpha, v0, k_gain, 1.0, mu)
    k = int(stage)
    return _scaled(_moments(alpha, k_gain, k, mu, 0.0)[0], v0, "expected gain", k, k_gain)


def variance_gain(
    alpha: float, k_gain: float, stage: int, mu: float, sigma2: float, v0: float = 1.0
) -> float:
    """Variance of the cumulative gain-loss at the given stage.

    It is a sum of nonnegative terms, so it is never negative and never clamped.
    """
    check_domain(stage, 0, alpha, v0, k_gain, 1.0, mu, sigma2)
    var = _moments(alpha, k_gain, int(stage), mu, sigma2)[1]
    return _scaled(var, v0 * v0, "variance", int(stage), k_gain)


def std_gain(
    alpha: float, k_gain: float, stage: int, mu: float, sigma2: float, v0: float = 1.0
) -> float:
    """Standard deviation of the cumulative gain-loss (sqrt of the variance)."""
    check_domain(stage, 0, alpha, v0, k_gain, 1.0, mu, sigma2)
    var = _moments(alpha, k_gain, int(stage), mu, sigma2)[1]
    return _scaled(math.sqrt(var), v0, "variance", int(stage), k_gain)


def gain_stats(
    alpha: float, k_gain: float, stage: int, mu: float, sigma2: float, v0: float = 1.0
) -> GainLossStats:
    """Bundle mean/variance/std at one stage: one domain check, one kernel call.

    A mean past double range is refused before a variance past range.
    """
    check_domain(stage, 0, alpha, v0, k_gain, 1.0, mu, sigma2)
    k = int(stage)
    try:
        mean, var = _moments(alpha, k_gain, k, mu, sigma2)
    except MomentOverflowError:  # its refusal drops the mean, which is refused first
        _scaled(_moments(alpha, k_gain, k, mu, 0.0)[0], v0, "expected gain", k, k_gain)
        raise
    mean = _scaled(mean, v0, "expected gain", k, k_gain)
    return GainLossStats(mean=mean, variance=_scaled(var, v0 * v0, "variance", k, k_gain), stage=k)


def check_rpe(k_gain: float, stage: int, mu: float, v0: float = 1.0) -> RpeCheck:
    """Expected gain of the balanced controller and whether it is positive.

    For stage > 1 the value is positive whenever k_gain > 0 and mu != 0,
    regardless of the sign of mu, and exactly zero when k_gain * mu == 0.
    """
    check_domain(stage, 2)
    value = expected_gain(0.5, k_gain, stage, mu, v0)
    return RpeCheck(value=value, positive=value > 0.0)


def find_rpe_counterexample(alpha: float, stage: int) -> RpeCounterexample | None:
    """Search for a scaled drift theta = K*mu with negative expected gain.

    It reads no gain, as the expected gain reads K and mu only through theta.
    Returns None for the balanced split, where no counterexample exists. For
    alpha != 1/2 the slope of the gain in theta at the origin is
    stage*(2*alpha - 1), so a losing drift of the opposite sign exists
    arbitrarily close to zero: the search halves |theta| starting from 1
    (from 1/2 on the negative side, which must stay above -1) until the gain
    goes negative. Coming up empty would contradict the slope argument.
    A gain whose powers leave double range comes back as inf and so counts
    as positive, as its dominant power (1 + |theta|)**stage is.
    """
    check_domain(stage, 2, alpha)
    k = int(stage)
    if alpha == 0.5:
        return None
    theta = 1.0 if alpha < 0.5 else -0.5
    while theta:
        value = _moments(alpha, 1.0, k, theta, 0.0)[0]  # unit gain: mu = theta
        if value < 0.0:
            return RpeCounterexample(alpha=alpha, theta=theta, stage=k, gain_value=value)
        theta *= 0.5
    return None


def check_robust_growth(k_gain: float, stage: int, mu: float, v0: float = 1.0) -> bool:
    """Whether the balanced expected gain does not shrink from stage to stage+1.

    True for every admissible gain and every mu > -1; a False result on valid
    inputs would contradict the growth property of the balanced controller.
    It reads stage + 1, so its ceiling is one below every other stage's.
    """
    _check_integer("stage", stage, 1, _MAX_DOUBLES - 1)
    here = expected_gain(0.5, k_gain, stage, mu, v0)
    there = expected_gain(0.5, k_gain, stage + 1, mu, v0)
    return there >= here
