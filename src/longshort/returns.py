"""Per-period return distributions.

Prices s(k) turn into simple returns x(k) = (s(k+1) - s(k)) / s(k); observed
returns turn into an empirical PMF placing weight count/n on each distinct
value; a :class:`ReturnModel` wraps a PMF together with the support bounds
and first two moments it derives from it, and can be sampled reproducibly.
The gain ceiling those bounds fix is :func:`gain_ceiling`.

A seed is one random stream. Every return path drawn with it, for a
trajectory or for a Monte-Carlo estimate, comes from that stream through one
sampler, ``CHUNK_ROWS`` paths at a time; :func:`sample_path` is its path 0.
The draws equal those of ``rng.choice(n_atoms, size=(n_paths, stage),
p=weights)``: the same uniforms are mapped to atoms through a guide table
that returns the same indices as the cdf search ``rng.choice`` runs, only
faster. Parallel draws would start the one stream at a path's offset
(``PCG64.advance``) rather than split it into batches.

All distributions here are discrete. PMF moments use the population (1/n)
convention: the PMF is treated as the exact distribution, not as a sample
from something else. Continuous models are out of scope.
"""

from __future__ import annotations

import csv
import os
from array import array
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .analytics import _check_integer, check_domain
from .defaults import DEFAULT_PRICE_COLUMN
from .errors import InputFileError, InvalidParameterError

WEIGHT_SUM_TOL = 1e-12

CHUNK_ROWS = 512  # sampled paths drawn at a time
GUIDE_BUCKETS = 4_096  # a power of two, so u * GUIDE_BUCKETS is exact
_CSV_BLOCK_ROWS = 1024  # rows formatted at a time; write time is flat from 128 to 4096


def _frozen_array(values) -> np.ndarray:
    out = np.asarray(values, dtype=float)
    out.flags.writeable = False
    return out


def _write_csv(path, header: Sequence[str], columns: Sequence[np.ndarray], *, index=False) -> None:
    """Write equal-length float columns under a header, led by a row index if asked.

    Cells are ``repr`` of each value, the bytes ``csv.writer`` gives for
    ``repr`` strings (they never need quoting); the header goes through
    ``csv.writer`` so that labels with commas or quotes are quoted. Rows are
    formatted a block at a time, so memory holds one block's strings only.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        n = len(columns[0])
        for start in range(0, n, _CSV_BLOCK_ROWS):
            stop = min(start + _CSV_BLOCK_ROWS, n)
            cells = [map(repr, col[start:stop].tolist()) for col in columns]
            if index:
                cells.insert(0, map(str, range(start, stop)))
            fh.writelines([",".join(row) + "\n" for row in zip(*cells)])


def gain_ceiling(x_max: float) -> float:
    """min(1, 1/x_max): the largest gain K keeping 1 + K*x and 1 - K*x >= 0 on (-1, x_max]."""
    return min(1.0, 1.0 / x_max)


@dataclass(frozen=True, eq=False)
class EmpiricalPMF:
    """Discrete return distribution in canonical form.

    Every value and weight is finite, values are sorted strictly ascending
    with exact duplicates merged, every weight is positive, and weights sum to
    one within ``WEIGHT_SUM_TOL``.
    """

    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        # First: NaN fails every comparison below, so it would pass them all.
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(weights))):
            raise InvalidParameterError("every value and weight must be finite")
        if values.ndim != 1 or weights.ndim != 1 or values.size != weights.size:
            raise InvalidParameterError("values and weights must be 1-d arrays of equal length")
        if values.size == 0:
            raise InvalidParameterError("a PMF needs at least one atom")
        if np.any(values <= -1.0):
            raise InvalidParameterError("PMF support must lie strictly above -1")
        if np.any(np.diff(values) <= 0.0):
            raise InvalidParameterError(
                "values must be sorted strictly ascending (merge duplicates)"
            )
        if np.any(weights <= 0.0):
            raise InvalidParameterError("every weight must be positive")
        total = float(weights.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidParameterError(
                f"weights sum to {total!r}, expected 1 within {WEIGHT_SUM_TOL}"
            )
        object.__setattr__(self, "values", _frozen_array(values))
        object.__setattr__(self, "weights", _frozen_array(weights))

    @property
    def atoms(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.values.tolist(), self.weights.tolist()))

    @property
    def n_atoms(self) -> int:
        return int(self.values.size)

    def mean(self) -> float:
        return float(self.weights @ self.values)

    def variance(self) -> float:
        mu = self.mean()
        with np.errstate(over="ignore"):  # an infinite variance is refused by check_domain
            return float(self.weights @ (self.values - mu) ** 2)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmpiricalPMF):
            return NotImplemented
        return np.array_equal(self.values, other.values) and np.array_equal(
            self.weights, other.weights
        )

    def __hash__(self):
        return hash((self.values.tobytes(), self.weights.tobytes()))


@dataclass(frozen=True)
class ReturnModel:
    """A return distribution: a PMF, and the support bounds and moments derived from it.

    The bounds are the support endpoints, -1 < x_min < 0 < x_max, so the
    gain ceiling they fix is tight for the distribution. Equal PMFs, equal models.
    """

    pmf: EmpiricalPMF
    x_min: float = field(init=False, compare=False)
    x_max: float = field(init=False, compare=False)
    mu: float = field(init=False, compare=False)
    sigma2: float = field(init=False, compare=False)

    def __post_init__(self):
        x_min, x_max = float(self.pmf.values[0]), float(self.pmf.values[-1])
        if not (-1.0 < x_min < 0.0 < x_max < np.inf):
            raise InvalidParameterError(
                f"bounds must satisfy -1 < x_min < 0 < x_max < inf, "
                f"got x_min={x_min}, x_max={x_max}"
            )
        mu, sigma2 = self.pmf.mean(), self.pmf.variance()
        check_domain(sigma2=sigma2)  # it overflows for atoms near the top of double range
        if not (x_min <= mu <= x_max):
            raise InvalidParameterError("mean must lie within the support bounds")
        for name, value in (("x_min", x_min), ("x_max", x_max), ("mu", mu), ("sigma2", sigma2)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_pmf(cls, pmf: EmpiricalPMF) -> "ReturnModel":
        return cls(pmf)

    @classmethod
    def two_point(cls, x_down: float, x_up: float, p_up: float = 0.5) -> "ReturnModel":
        """Two-atom model {x_down w.p. 1-p_up, x_up w.p. p_up}."""
        if not (0.0 < p_up < 1.0):
            raise InvalidParameterError("p_up must be in (0, 1)")
        pmf = EmpiricalPMF(np.array([x_down, x_up]), np.array([1.0 - p_up, p_up]))
        return cls.from_pmf(pmf)

    @classmethod
    def from_moments(cls, mu: float, sigma: float) -> "ReturnModel":
        """Symmetric two-point model {mu - sigma, mu + sigma} with the given moments."""
        if sigma <= 0.0:
            raise InvalidParameterError("sigma must be positive to pin two distinct atoms")
        return cls.two_point(mu - sigma, mu + sigma, 0.5)

    @property
    def k_max(self) -> float:
        return gain_ceiling(self.x_max)


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """Ordered positive prices for one instrument."""

    ticker: str
    prices: np.ndarray

    def __post_init__(self):
        prices = np.asarray(self.prices, dtype=float)
        if prices.ndim != 1 or prices.size < 2:
            raise InvalidParameterError(f"{self.ticker}: need at least 2 prices, got {prices.size}")
        if np.any(prices <= 0.0) or not np.all(np.isfinite(prices)):
            raise InvalidParameterError(f"{self.ticker}: all prices must be finite and positive")
        object.__setattr__(self, "prices", _frozen_array(prices))

    def __len__(self) -> int:
        return int(self.prices.size)


def returns_from_prices(series: PriceSeries) -> np.ndarray:
    """Simple per-period returns x(k) = (s(k+1) - s(k)) / s(k).

    Output has length len(prices) - 1. Positive prices give returns above -1
    up to rounding; a fall to a tiny price can round to -1, and a rise
    from one can overflow to inf. ``pmf_from_returns`` and
    ``dynamics.simulate`` refuse both.
    """
    p = series.prices
    with np.errstate(over="ignore"):  # the typed refusal downstream decides, not a warning
        out = np.diff(p) / p[:-1]
    out.flags.writeable = False
    return out


def pmf_from_returns(returns: Sequence[float] | np.ndarray) -> EmpiricalPMF:
    """Empirical PMF placing weight count/n on each distinct observed return.

    The PMF's mean and variance equal the sample mean and the biased (1/n)
    sample variance of the input.
    """
    arr = np.asarray(returns, dtype=float)
    if arr.size == 0:
        raise InvalidParameterError("cannot build a PMF from zero returns")
    if np.any(arr <= -1.0):
        raise InvalidParameterError("returns must be strictly above -1")
    values, counts = np.unique(arr, return_counts=True)
    return EmpiricalPMF(values, counts / arr.size)


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


def load_prices_csv(path, column: str = DEFAULT_PRICE_COLUMN) -> PriceSeries:
    """Read a price series from a headered CSV file.

    The named column supplies prices. When a column literally named ``date``
    (any case) is present, its values must increase strictly from row to row
    (as strings); they are checked and not kept. Rows are kept in file order.
    As with ``csv.DictReader``, blank lines are skipped and not counted as
    rows, and when a header name repeats, its last column is the one read.
    A row too short to reach the price or date column is refused. A leading
    UTF-8 byte-order mark is skipped, so it never joins the first column's name.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or column not in header:
                have = ", ".join(header or [])
                raise InputFileError(f"{path}: no column {column!r} (have: {have})")
            last = {name: j for j, name in enumerate(header)}
            price_at = last[column]
            date_col = next((c for c in header if c.lower() == "date"), None)
            date_at = last[date_col] if date_col is not None else None
            prices = array("d")
            previous_date = None
            dates_increase = True
            i = 1  # header is line 1
            for row in reader:
                if not row:
                    continue
                i += 1
                try:
                    price = float(row[price_at])
                except (IndexError, ValueError):
                    raw = row[price_at] if price_at < len(row) else None
                    raise InputFileError(
                        f"{path}: row {i}, column {column!r}: cannot parse {raw!r}"
                    ) from None
                if price <= 0.0:
                    raise InvalidParameterError(f"{path}: row {i}: price {price!r} is not positive")
                prices.append(price)
                if date_at is not None:
                    if date_at >= len(row):
                        raise InputFileError(f"{path}: row {i}, column {date_col!r}: no date")
                    date = row[date_at]
                    if previous_date is not None and previous_date >= date:
                        dates_increase = False
                    previous_date = date
    except OSError as exc:
        raise InputFileError(f"{path}: cannot read price file ({exc.strerror})") from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InputFileError(f"{path}: malformed price file ({exc})") from None
    ticker = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    series = PriceSeries(ticker=ticker, prices=np.asarray(prices))
    # Checked after the series' own checks: a series that is too short or not
    # finite is refused for that first, whatever its dates.
    if not dates_increase:
        raise InvalidParameterError(f"{ticker}: dates must be strictly increasing")
    return series
