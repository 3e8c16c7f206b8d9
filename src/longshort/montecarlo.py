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

Paths are drawn in fixed-size batches, each from its own generator seeded by
(seed, batch_index); results are therefore reproducible no matter how the
batches would be scheduled across workers. Each batch's draws equal those of
``rng.choice(n_atoms, size=..., p=weights)``: the same uniforms are mapped to
atoms through a guide table that returns the same indices as the cdf search
``Generator.choice`` runs, only faster. A block's uniforms, atom indices and
draws live in buffers allocated once per draw, so the working set is about
25 bytes per block entry whatever the number of paths; 512-row blocks keep
it at 1.5 MiB for 125 stages, and smaller blocks cost time in the per-stage
recursion without saving much more. Paths are stage-major; a gain probe
checks survivability once, against the bank's extreme returns or, when
streamed, the model's support bounds that every drawn return lies within,
and then runs the account recursion of
:func:`longshort.dynamics.terminal_gains`, so its gains match
:func:`longshort.dynamics.simulate` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .analytics import GainLossStats, check_domain
from .defaults import DEFAULT_N_PATHS
from .errors import (
    EnumerationTooLargeError,
    InadmissibleGainError,
    InvalidParameterError,
)
from .returns import EmpiricalPMF, ReturnModel, _check_seed

BATCH_SIZE = 16_384
CHUNK_ROWS = 512  # paths drawn at a time, within one batch
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


def _atom_lookup(cdf: np.ndarray, size: int):
    """``lookup(u, scratch)``: ``cdf.searchsorted(u, side="right")`` through a guide table.

    Bucket ``j`` holds the uniforms in [j/G, (j+1)/G). Its guide entry counts
    the cdf values <= j/G, a lower bound on the answer for every uniform in
    the bucket: G is a power of two, so ``floor(u * G) / G <= u`` holds
    exactly. Stepping up while ``cdf[idx] <= u`` then stops at the count of
    cdf values <= u, which is the ``side="right"`` answer; it stops by
    ``cdf[-1] == 1 > u`` at the latest. Only uniforms in a bucket that a
    cdf value splits take a step.

    ``u`` is 1-d, at most ``size`` long, and ``scratch`` is a float buffer
    of its length that the lookup overwrites. The indices come back in a
    buffer allocated here once, which the caller finishes with before the
    next lookup. Every index gathered lies in range, so the gathers use
    ``mode="clip"``, which skips the copy that numpy's bounds-checked
    ``take`` makes of its output.
    """
    guide = cdf.searchsorted(np.arange(GUIDE_BUCKETS) / GUIDE_BUCKETS, side="right")
    idx_buf = np.empty(size, dtype=np.intp)
    step_buf = np.empty(size, dtype=bool)

    def lookup(u: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        idx = idx_buf[: u.size]
        bucket = scratch.view(np.intp)  # spent once the guide is read
        np.multiply(u, GUIDE_BUCKETS, out=bucket, casting="unsafe")  # floor, as u >= 0
        np.take(guide, bucket, out=idx, mode="clip")
        below = np.take(cdf, idx, out=scratch, mode="clip")
        pending = np.flatnonzero(np.less_equal(below, u, out=step_buf[: u.size]))
        while pending.size:
            idx[pending] += 1
            pending = pending[cdf[idx[pending]] <= u[pending]]
        return idx

    return lookup


def _path_chunks(model: ReturnModel, n_paths: int, stage: int, seed: int):
    """Yield ``(start, block)``: the sampled paths ``start, start+1, ...``.

    Blocks are stage-major, hold at most ``CHUNK_ROWS`` paths and never cross
    a batch. Each batch's consecutive ``rng.random`` calls continue one
    stream, so the blocks are, entry for entry, the rows of
    ``rng.choice(values.size, size=(batch_rows, stage), p=weights)``, which
    draws ``rng.random`` of that size and searches this same normalised cdf.
    Every block is the same reused buffer: a consumer finishes with (or
    copies) it before asking for the next. The uniforms and atom indices
    live in buffers reused the same way, so drawing allocates nothing of a
    block's size per block.
    """
    values = model.pmf.values
    cdf = model.pmf.weights.cumsum()
    cdf /= cdf[-1]
    size = min(CHUNK_ROWS, n_paths) * stage
    uniforms = np.empty(size)
    drawn = np.empty(size)
    lookup = _atom_lookup(cdf, size)
    for batch, batch_start in enumerate(range(0, n_paths, BATCH_SIZE)):
        batch_stop = min(batch_start + BATCH_SIZE, n_paths)
        rng = np.random.default_rng([seed, batch])
        for start in range(batch_start, batch_stop, CHUNK_ROWS):
            rows = min(CHUNK_ROWS, batch_stop - start)
            u, flat = uniforms[: rows * stage], drawn[: rows * stage]
            rng.random(out=u)
            # The path-major draws overwrite their spent uniforms, then are
            # transposed into the stage-major block.
            picked = np.take(values, lookup(u, flat), out=u, mode="clip")
            block = flat.reshape((rows, stage), order="F")
            np.copyto(block, picked.reshape(rows, stage))
            yield start, block


def _check_draw(stage: int, n_paths: int, seed: int) -> None:
    check_domain(stage, 1)
    if n_paths < 2:
        raise InvalidParameterError(f"n_paths must be >= 2, got {n_paths}")
    _check_seed(seed)


def _summarise(gains: np.ndarray, seed: int, stage: int) -> McEstimate:
    mean = float(gains.mean())
    variance = float(gains.var(ddof=1))
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
    Its smallest and largest returns, found once when it is drawn, decide
    every probe's survivability check.
    """

    def __init__(self, model: ReturnModel, stage: int, n_paths: int, seed: int):
        _check_draw(stage, n_paths, seed)
        self.model = model
        self.stage = int(stage)
        self.n_paths = int(n_paths)
        self.seed = int(seed)
        self.paths = np.empty((self.n_paths, self.stage), order="F")
        for start, block in _path_chunks(model, self.n_paths, self.stage, self.seed):
            self.paths[start : start + block.shape[0]] = block
        self.paths.flags.writeable = False
        self._x_min = float(self.paths.min())
        self._x_max = float(self.paths.max())

    def estimate(self, alpha: float, k_gain: float, v0: float) -> McEstimate:
        check_domain(alpha=alpha, v0=v0, k_gain=k_gain, k_max=self.model.k_max)
        dynamics._check_survivable(k_gain, self._x_min, self._x_max)
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
    check_domain(alpha=alpha, v0=v0, k_gain=k_gain, k_max=model.k_max)
    # Every drawn return is an atom of the PMF, between the support bounds.
    dynamics._check_survivable(k_gain, model.bounds.x_min, model.bounds.x_max)
    gains = np.empty(int(n_paths))
    for start, block in _path_chunks(model, int(n_paths), int(stage), int(seed)):
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
    two-sided bounds; the gain is then checked against survivability only.
    """
    is_model = isinstance(model, ReturnModel)
    check_domain(stage, 0, alpha, v0, k_gain, model.k_max if is_model else 1.0)
    pmf = model.pmf if is_model else model
    if not is_model and float(np.max(np.abs(k_gain * pmf.values))) > 1.0:
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
