"""Monte-Carlo and exact-enumeration estimates of gain-loss statistics.

Two estimators with deliberately different conventions:

* Monte-Carlo reports the sample mean and the unbiased (1/(n-1)) sample
  variance of the terminal gain-loss over sampled return paths. The paths
  depend only on (model, stage, n_paths, seed) and come from one chunked
  source, consumed two ways. :class:`McGainEstimator` stores them as a bank
  for the multi-probe solvers: probing several gains against one bank shares
  the random numbers, which keeps the estimated std curve monotone.
  :func:`estimate_gain_stats` streams them for a one-shot estimate, holding
  one block of ``CHUNK_ROWS`` paths and the terminal gains, and returns the
  same numbers bit for bit.

* :func:`estimate_exact_small` exhaustively enumerates every return sequence
  of a small discrete model with its product probability and reports exact
  population moments. It never touches the closed forms, which makes it the
  independent oracle they are validated against.

A seed is one stream: the paths come from the sampler in
:mod:`longshort.returns`, whose path 0 is ``sample_path(model, stage, seed)``,
the trajectory ``simulate --trajectory-out`` writes. A block's uniforms, atom indices and
draws live in buffers allocated once per draw, so the working set is about
25 bytes per block entry whatever the number of paths; 512-row blocks keep
it at 1.5 MiB for 125 stages, and smaller blocks cost time in the per-stage
recursion without saving much more. Paths are stage-major; a gain probe,
banked or streamed, checks its gain once against the model's ceiling k_max,
which keeps every atom of the PMF survivable, so no drawn return needs a
look; it then runs the batched account recursion
``dynamics._terminal_gains``, so its gains match
:func:`longshort.dynamics.simulate` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .analytics import GainLossStats, _check_integer, check_domain
from .defaults import DEFAULT_N_PATHS
from .errors import DomainError, InvalidParameterError
from .returns import EmpiricalPMF, ReturnModel, _path_chunks, gain_ceiling

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


def _check_draw(stage, n_paths, seed, min_stage: int = 1, min_paths: int = 2) -> None:
    check_domain(stage, min_stage)
    _check_integer("n_paths", n_paths, min_paths)
    _check_integer("seed", seed, 0, ceiling=None)
    _check_integer("n_paths * stage", int(n_paths) * int(stage), 0)  # doubles in a bank or stream


def _check_probe(model: ReturnModel, alpha: float, k_gain: float, v0: float) -> None:
    # Every drawn return lies in [x_min, x_max], and K <= k_max = min(1, fl(1/x_max))
    # gives fl(K*x_max) <= 1 and fl(K*x_min) >= x_min > -1: every atom survives.
    check_domain(alpha=alpha, v0=v0, k_gain=k_gain, k_max=model.k_max)


def _summarise(gains: np.ndarray, seed: int, stage: int) -> McEstimate:
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        mean = float(gains.mean())
        variance = float(gains.var(ddof=1))
    for name, value in (("mean", mean), ("variance", variance)):
        if not math.isfinite(value):
            raise DomainError(
                f"the sample {name} of the gain-loss leaves double range at stage {stage}"
            )
    std = math.sqrt(variance)
    return McEstimate(
        mean=mean,
        variance=variance,
        std=std,
        std_error_of_mean=std / math.sqrt(gains.size),
        n_paths=int(gains.size),
        seed=int(seed),
        stage=int(stage),
    )


class McGainEstimator:
    """A fixed bank of sampled return paths for repeated gain probes.

    The bank is stage-major (one contiguous column per stage) and read-only.
    ``stage`` >= 1, ``n_paths`` >= 2 and ``seed`` >= 0 are integers. Every
    probe checks its gain against the model's ceiling k_max, as
    :func:`estimate_gain_stats` does.
    """

    def __init__(self, model: ReturnModel, stage: int, n_paths: int, seed: int):
        _check_draw(stage, n_paths, seed)
        self.model = model
        self.stage = int(stage)
        self.n_paths = int(n_paths)
        self.seed = int(seed)
        self.paths = np.empty((self.n_paths, self.stage), order="F")
        for start, block in _path_chunks(model.pmf, self.n_paths, self.stage, self.seed):
            self.paths[start : start + block.shape[0]] = block
        self.paths.flags.writeable = False

    def estimate(self, alpha: float, k_gain: float, v0: float) -> McEstimate:
        _check_probe(self.model, alpha, k_gain, v0)
        gains = dynamics._terminal_gains(alpha, k_gain, v0, self.paths)
        return _summarise(gains, self.seed, self.stage)


def estimate_gain_stats(
    model: ReturnModel,
    alpha: float,
    k_gain: float,
    v0: float,
    stage: int,
    n_paths: int = DEFAULT_N_PATHS,
    seed: int = 0,
) -> McEstimate:
    """One-shot Monte-Carlo estimate of the gain-loss statistics at ``stage``.

    Equal, bit for bit, to ``McGainEstimator(model, stage, n_paths,
    seed).estimate(alpha, k_gain, v0)``, and refuses the same inputs with
    the same types, but streams the paths: it holds one block of them and
    the ``n_paths`` terminal gains, never the bank.
    """
    _check_draw(stage, n_paths, seed)
    _check_probe(model, alpha, k_gain, v0)
    gains = np.empty(int(n_paths))
    for start, block in _path_chunks(model.pmf, int(n_paths), int(stage), int(seed)):
        gains[start : start + block.shape[0]] = dynamics._terminal_gains(
            alpha, k_gain, v0, block
        )
    return _summarise(gains, seed, stage)


def estimate_exact_small(
    model: ReturnModel | EmpiricalPMF, alpha: float, k_gain: float, v0: float, stage: int
) -> GainLossStats:
    """Exact gain-loss moments by exhaustive enumeration of return sequences.

    Builds the full product distribution over atoms**stage sequences (capped
    at ``ENUMERATION_CAP``), evaluating the account product factors directly.
    Accepts a bare PMF for degenerate distributions that cannot carry
    two-sided bounds. Either way the gain is checked against one ceiling,
    ``gain_ceiling(max(1, x_max))``: a model's ``k_max``, and 1 for a PMF
    with no atom above 1.
    """
    pmf = model.pmf if isinstance(model, ReturnModel) else model
    k_max = gain_ceiling(max(1.0, float(pmf.values[-1])))
    check_domain(stage, 0, alpha, v0, k_gain, k_max)
    n_atoms, stage = pmf.n_atoms, int(stage)  # a numpy power would wrap past the cap
    if n_atoms**stage > ENUMERATION_CAP:
        raise InvalidParameterError(
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
    return GainLossStats(mean=mean, variance=variance, stage=stage)
