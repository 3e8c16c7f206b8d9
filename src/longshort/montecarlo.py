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

A seed is one random stream, and every path drawn with it comes through one
sampler here, ``CHUNK_ROWS`` paths at a time; path 0 is :func:`sample_path`,
the trajectory ``simulate --trajectory-out`` writes. The draws equal those of
``rng.choice(n_atoms, size=(n_paths, stage), p=weights)``: the same uniforms
map to the same atoms through a guide table, only faster. Parallel draws would
start the stream at a path's offset (``PCG64.advance``), not split it. Drawing
works in buffers of one block, about 25 bytes per entry whatever the number of
paths: 1.5 MiB for 512 rows of 125 stages; smaller blocks cost time in the
per-stage recursion without saving much more. Paths are stage-major; a gain
probe, banked or streamed, admits its controller as a
:class:`longshort.dynamics.ControllerConfig` for the model and runs the
batched account recursion ``dynamics._terminal_gains`` on it, so its gains
match :func:`longshort.dynamics.simulate` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .analytics import GainLossStats, _check_integer, check_domain
from .defaults import DEFAULT_N_PATHS
from .errors import DomainError, InvalidParameterError
from .returns import EmpiricalPMF, ReturnModel, gain_ceiling

ENUMERATION_CAP = 10_000_000
CHUNK_ROWS = 512  # sampled paths drawn at a time
GUIDE_BUCKETS = 4_096  # a power of two, so u * GUIDE_BUCKETS is exact


@dataclass(frozen=True)
class McEstimate:
    """Sample mean and variance of the gain-loss, the inputs that reproduce them, and the
    std and the standard error of the mean derived from them."""

    mean: float
    variance: float
    n_paths: int
    seed: int
    stage: int
    std = property(lambda self: math.sqrt(self.variance))
    std_error_of_mean = property(lambda self: self.std / math.sqrt(self.n_paths))


def _check_draw(stage, n_paths, seed, min_stage: int = 1, min_paths: int = 2) -> None:
    check_domain(stage, min_stage)
    _check_integer("n_paths", n_paths, min_paths)
    _check_integer("seed", seed, 0, ceiling=None)
    _check_integer("n_paths * stage", int(n_paths) * int(stage), 0)  # doubles in a bank or stream


def _summarise(gains: np.ndarray, seed: int, stage: int) -> McEstimate:
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        mean = float(gains.mean())
        variance = float(gains.var(ddof=1))
    for name, value in (("mean", mean), ("variance", variance)):
        if not math.isfinite(value):
            raise DomainError(
                f"the sample {name} of the gain-loss leaves double range at stage {stage}"
            )
    return McEstimate(mean, variance, int(gains.size), int(seed), int(stage))


def _atom_lookup(cdf: np.ndarray, size: int):
    """``lookup(u, scratch)``: ``cdf.searchsorted(u, side="right")`` through a guide table.

    Bucket ``j`` holds the uniforms in [j/G, (j+1)/G). Its guide entry counts
    the cdf values <= j/G, a lower bound on the answer for every uniform in
    the bucket: G is a power of two, so ``floor(u * G) / G <= u`` holds
    exactly. Stepping up while ``cdf[idx] <= u`` then stops at the count of
    cdf values <= u, which is the ``side="right"`` answer; it stops by
    ``cdf[-1] == 1 > u`` at the latest. Only uniforms in a bucket that a
    cdf value splits take a step.

    ``u`` is 1-d, at most ``size`` long, and ``scratch`` is a float buffer of its
    length that the lookup overwrites. The indices come back in a buffer allocated
    here once, which the caller finishes with before the next lookup. Every index
    gathered lies in range, so the gathers use ``mode="clip"``, which skips the copy
    that numpy's bounds-checked ``take`` makes of its output. It is kept for speed:
    on a shared 2-vCPU Xeon a 512 x 125 block over 125 atoms takes 0.19-0.38 ms,
    ``cdf.searchsorted`` 3.3-5.1 ms, with identical indices: 0.02-0.04 s against
    0.33-0.50 s per 50k-path draw.
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


def _path_chunks(pmf: EmpiricalPMF, n_paths: int, stage: int, seed):
    """Yield ``(start, block)``: the seed's sampled paths ``start, start+1, ...``.

    Consecutive ``rng.random`` calls continue the seed's one stream, so the
    stage-major blocks are, entry for entry, the rows of ``rng.choice(n_atoms,
    size=(n_paths, stage), p=weights)``, which draws ``rng.random`` of that
    size and searches this same normalised cdf. Every block is the same
    reused buffer: a consumer finishes with (or copies) it before asking for
    the next. The uniforms and atom indices live in buffers reused the same
    way, so drawing allocates nothing of a block's size per block.
    """
    values = pmf.values
    cdf = pmf.weights.cumsum()
    cdf /= cdf[-1]
    size = min(CHUNK_ROWS, n_paths) * stage
    uniforms = np.empty(size)
    drawn = np.empty(size)
    lookup = _atom_lookup(cdf, size)
    rng = np.random.default_rng(seed)
    for start in range(0, n_paths, CHUNK_ROWS):
        rows = min(CHUNK_ROWS, n_paths - start)
        u, flat = uniforms[: rows * stage], drawn[: rows * stage]
        rng.random(out=u)
        # The path-major draws overwrite their spent uniforms, then are
        # transposed into the stage-major block.
        picked = np.take(values, lookup(u, flat), out=u, mode="clip")
        block = flat.reshape((rows, stage), order="F")
        np.copyto(block, picked.reshape(rows, stage))
        yield start, block


def sample_path(model: ReturnModel | EmpiricalPMF, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` independent returns: path 0 of the seed's paths at stage ``n``.

    Accepts a full model or a bare PMF: one-sided or point-mass distributions
    cannot carry the two-sided support bounds a model certifies, but they can
    still be sampled. ``n`` is an integer >= 1 and ``seed`` one >= 0.
    """
    _check_integer("n", n, 1)
    _check_integer("seed", seed, 0, ceiling=None)
    pmf = model.pmf if isinstance(model, ReturnModel) else model
    _, block = next(_path_chunks(pmf, 1, n, seed))
    out = block.reshape(n)
    out.flags.writeable = False
    return out


class McGainEstimator:
    """A fixed bank of sampled return paths for repeated gain probes.

    The bank is stage-major (one contiguous column per stage) and read-only.
    ``stage`` >= 1, ``n_paths`` >= 2 and ``seed`` >= 0 are integers. Every
    probe admits its controller for the model, as :func:`estimate_gain_stats` does.
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
        config = dynamics.ControllerConfig.for_model(self.model, alpha=alpha, k_gain=k_gain, v0=v0)
        return _summarise(dynamics._terminal_gains(config, self.paths), self.seed, self.stage)


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
    config = dynamics.ControllerConfig.for_model(model, alpha=alpha, k_gain=k_gain, v0=v0)
    gains = np.empty(int(n_paths))
    for start, block in _path_chunks(model.pmf, int(n_paths), int(stage), int(seed)):
        gains[start : start + block.shape[0]] = dynamics._terminal_gains(config, block)
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
