"""Monte-Carlo and exact-enumeration estimates of gain-loss statistics.

Two estimators with deliberately different conventions:

* :class:`McGainEstimator` simulates a bank of return paths and reports the
  sample mean and the unbiased (1/(n-1)) sample variance of the terminal
  gain-loss. The bank depends only on (model, stage, n_paths, seed), so
  probing several gains against one estimator shares the random numbers,
  which keeps the estimated std curve monotone in the gain.

* :func:`estimate_exact_small` exhaustively enumerates every return sequence
  of a small discrete model with its product probability and reports exact
  population moments. It never touches the closed forms, which makes it the
  independent oracle they are validated against.

Paths are drawn in fixed-size batches, each from its own generator seeded by
(seed, batch_index); results are therefore reproducible no matter how the
batches would be scheduled across workers. Each batch's draws equal those of
``rng.choice(n_atoms, size=..., p=weights)``: the same uniforms are mapped to
atoms through a guide table that returns the same indices as the cdf search
``Generator.choice`` runs, only faster. The bank is stored stage-major and
validated once when drawn; each gain probe then checks survivability against
the bank's extreme returns and runs the account recursion of
:func:`longshort.dynamics.terminal_gains`, so its gains match
:func:`longshort.dynamics.simulate` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .analytics import GainLossStats
from .errors import (
    EnumerationTooLargeError,
    InadmissibleGainError,
    InvalidParameterError,
    ReturnOutOfBoundsError,
)
from .returns import EmpiricalPMF, ReturnModel

DEFAULT_N_PATHS = 50_000
BATCH_SIZE = 16_384
GUIDE_BUCKETS = 4_096  # a power of two, so u * GUIDE_BUCKETS is exact
ENUMERATION_CAP = 10_000_000


@dataclass(frozen=True)
class McEstimate:
    """Sampled gain-loss statistics plus the inputs needed to reproduce them."""

    mean: float
    variance: float
    std: float
    std_error_of_mean: float
    n_paths: int
    seed: int
    stage: int


def _atom_indices(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``cdf.searchsorted(u, side="right")`` through a guide table.

    Bucket ``j`` holds the uniforms in [j/G, (j+1)/G). Its guide entry counts
    the cdf values <= j/G, a lower bound on the answer for every uniform in
    the bucket: G is a power of two, so ``floor(u * G) / G <= u`` holds
    exactly. Stepping up while ``cdf[idx] <= u`` then stops at the count of
    cdf values <= u, which is the ``side="right"`` answer; it stops by
    ``cdf[-1] == 1 > u`` at the latest. Only uniforms in a bucket that a
    cdf value splits take a step.
    """
    guide = cdf.searchsorted(np.arange(GUIDE_BUCKETS) / GUIDE_BUCKETS, side="right")
    flat = u.ravel()
    idx = guide[(flat * GUIDE_BUCKETS).astype(np.intp)]
    pending = np.flatnonzero(cdf[idx] <= flat)
    while pending.size:
        idx[pending] += 1
        pending = pending[cdf[idx[pending]] <= flat[pending]]
    return idx.reshape(u.shape)


def _draw_paths(model: ReturnModel, n_paths: int, stage: int, seed: int) -> np.ndarray:
    # Equal to ``rng.choice(values.size, size=..., p=weights)`` per batch,
    # which draws ``rng.random(size)`` and searches this same normalised cdf.
    values = model.pmf.values
    cdf = model.pmf.weights.cumsum()
    cdf /= cdf[-1]
    out = np.empty((n_paths, stage), order="F")
    for batch, start in enumerate(range(0, n_paths, BATCH_SIZE)):
        stop = min(start + BATCH_SIZE, n_paths)
        rng = np.random.default_rng([seed, batch])
        out[start:stop] = values[_atom_indices(cdf, rng.random((stop - start, stage)))]
    return out


class McGainEstimator:
    """A fixed bank of sampled return paths for repeated gain probes.

    The bank is stage-major (one contiguous column per stage) and read-only.
    It is checked once, when drawn: its smallest and largest returns decide
    every probe's survivability check, because ``1 + K*x`` and ``1 - K*x``
    are monotone in ``x`` under IEEE rounding.
    """

    def __init__(self, model: ReturnModel, stage: int, n_paths: int, seed: int):
        if stage < 1:
            raise InvalidParameterError(f"stage must be >= 1, got {stage}")
        if n_paths < 2:
            raise InvalidParameterError(f"n_paths must be >= 2, got {n_paths}")
        self.model = model
        self.stage = int(stage)
        self.n_paths = int(n_paths)
        self.seed = int(seed)
        self.paths = _draw_paths(model, self.n_paths, self.stage, self.seed)
        self.paths.flags.writeable = False
        self._x_min = float(self.paths.min())
        self._x_max = float(self.paths.max())
        if self._x_min <= -1.0:
            raise ReturnOutOfBoundsError("returns must be strictly above -1")

    def estimate(self, alpha: float, k_gain: float, v0: float) -> McEstimate:
        if not (0.0 <= k_gain <= self.model.k_max):
            raise InadmissibleGainError(
                f"k_gain={k_gain} outside admissible [0, {self.model.k_max}]"
            )
        if not (0.0 <= alpha <= 1.0):
            raise InvalidParameterError(f"alpha must be in [0, 1], got {alpha}")
        if v0 <= 0.0:
            raise InvalidParameterError(f"v0 must be positive, got {v0}")
        if 1.0 + k_gain * self._x_min < 0.0 or 1.0 - k_gain * self._x_max < 0.0:
            worst = k_gain * max(-self._x_min, self._x_max)
            raise ReturnOutOfBoundsError(
                f"|k_gain * x| reaches {worst}, breaking account nonnegativity"
            )
        gains = dynamics._terminal_gains(alpha, k_gain, v0, self.paths)
        mean = float(gains.mean())
        variance = float(gains.var(ddof=1))
        std = math.sqrt(variance)
        return McEstimate(
            mean=mean,
            variance=variance,
            std=std,
            std_error_of_mean=std / math.sqrt(self.n_paths),
            n_paths=self.n_paths,
            seed=self.seed,
            stage=self.stage,
        )


def estimate_gain_stats(
    model: ReturnModel,
    alpha: float,
    k_gain: float,
    v0: float,
    stage: int,
    n_paths: int = DEFAULT_N_PATHS,
    seed: int = 0,
) -> McEstimate:
    """One-shot Monte-Carlo estimate of the gain-loss statistics at ``stage``."""
    return McGainEstimator(model, stage, n_paths, seed).estimate(alpha, k_gain, v0)


def estimate_exact_small(
    model: ReturnModel | EmpiricalPMF, alpha: float, k_gain: float, v0: float, stage: int
) -> GainLossStats:
    """Exact gain-loss moments by exhaustive enumeration of return sequences.

    Builds the full product distribution over atoms**stage sequences (capped
    at ``ENUMERATION_CAP``), evaluating the account product factors directly.
    Accepts a bare PMF for degenerate distributions that cannot carry
    two-sided bounds; the gain is then checked against survivability only.
    """
    if stage < 0:
        raise InvalidParameterError(f"stage must be >= 0, got {stage}")
    if not (0.0 <= alpha <= 1.0):
        raise InvalidParameterError(f"alpha must be in [0, 1], got {alpha}")
    if v0 <= 0.0:
        raise InvalidParameterError(f"v0 must be positive, got {v0}")
    pmf = model.pmf if isinstance(model, ReturnModel) else model
    if isinstance(model, ReturnModel):
        if not (0.0 <= k_gain <= model.k_max):
            raise InadmissibleGainError(
                f"k_gain={k_gain} outside admissible [0, {model.k_max}]"
            )
    elif not (0.0 <= k_gain <= 1.0) or float(np.max(np.abs(k_gain * pmf.values))) > 1.0:
        raise InadmissibleGainError(f"k_gain={k_gain} breaks survivability for this PMF")
    n_atoms = pmf.n_atoms
    if n_atoms**stage > ENUMERATION_CAP:
        raise EnumerationTooLargeError(
            f"{n_atoms}^{stage} sequences exceed the cap of {ENUMERATION_CAP}"
        )

    values = pmf.values
    weights = pmf.weights
    up = np.ones(1)
    down = np.ones(1)
    prob = np.ones(1)
    for _ in range(stage):
        up = np.multiply.outer(up, 1.0 + k_gain * values).ravel()
        down = np.multiply.outer(down, 1.0 - k_gain * values).ravel()
        prob = np.multiply.outer(prob, weights).ravel()
    gains = v0 * (alpha * up + (1.0 - alpha) * down - 1.0)
    mean = float(prob @ gains)
    variance = float(prob @ (gains - mean) ** 2)
    return GainLossStats(mean=mean, variance=variance, std=math.sqrt(variance), stage=int(stage))
