"""Per-period return distributions.

Prices s(k) turn into simple returns x(k) = (s(k+1) - s(k)) / s(k); observed
returns turn into an empirical PMF placing weight count/n on each distinct
value; a :class:`ReturnModel` wraps a PMF together with certified support
bounds and its first two moments, and can be sampled reproducibly.

All distributions here are discrete. PMF moments use the population (1/n)
convention: the PMF is treated as the exact distribution, not as a sample
from something else. Continuous models are out of scope.
"""

from __future__ import annotations

import csv
import os
from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    EmptyReturnsError,
    InputFileError,
    InvalidBoundsError,
    InvalidParameterError,
    InvalidPmfError,
    MissingColumnError,
    NonPositivePriceError,
    PriceParseError,
    ReturnBelowNegOneError,
    TooShortError,
)

WEIGHT_SUM_TOL = 1e-12

KIND_EMPIRICAL = "empirical_pmf"
KIND_TWO_POINT = "two_point"
KIND_UNIFORM_GRID = "uniform_grid"
_KINDS = (KIND_EMPIRICAL, KIND_TWO_POINT, KIND_UNIFORM_GRID)

DEFAULT_PRICE_COLUMN = "adj_close"

_CSV_BLOCK_ROWS = 4096


def _frozen_array(values, dtype=float) -> np.ndarray:
    out = np.asarray(values, dtype=dtype)
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


@dataclass(frozen=True)
class ReturnBounds:
    """Certified support bounds for per-period returns, -1 < x_min < 0 < x_max."""

    x_min: float
    x_max: float

    def __post_init__(self):
        if not (-1.0 < self.x_min < 0.0 < self.x_max < np.inf):
            raise InvalidBoundsError(
                f"bounds must satisfy -1 < x_min < 0 < x_max < inf, "
                f"got x_min={self.x_min}, x_max={self.x_max}"
            )

    @property
    def k_max(self) -> float:
        """Largest admissible feedback gain, min(1, 1/x_max)."""
        return min(1.0, 1.0 / self.x_max)


@dataclass(frozen=True, eq=False)
class EmpiricalPMF:
    """Discrete return distribution in canonical form.

    Values are sorted strictly ascending with exact duplicates merged, every
    weight is positive, and weights sum to one within ``WEIGHT_SUM_TOL``.
    """

    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if values.ndim != 1 or weights.ndim != 1 or values.size != weights.size:
            raise InvalidPmfError("values and weights must be 1-d arrays of equal length")
        if values.size == 0:
            raise EmptyReturnsError("a PMF needs at least one atom")
        if np.any(values <= -1.0):
            raise ReturnBelowNegOneError("PMF support must lie strictly above -1")
        if np.any(np.diff(values) <= 0.0):
            raise InvalidPmfError("values must be sorted strictly ascending (merge duplicates)")
        if np.any(weights <= 0.0):
            raise InvalidPmfError("every weight must be positive")
        total = float(weights.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidPmfError(f"weights sum to {total!r}, expected 1 within {WEIGHT_SUM_TOL}")
        object.__setattr__(self, "values", _frozen_array(values))
        object.__setattr__(self, "weights", _frozen_array(weights))

    @classmethod
    def from_atoms(cls, atoms: Iterable[tuple[float, float]]) -> "EmpiricalPMF":
        """Build from (value, weight) pairs, merging exact duplicates by weight."""
        merged: dict[float, float] = {}
        for value, weight in atoms:
            merged[float(value)] = merged.get(float(value), 0.0) + float(weight)
        if not merged:
            raise EmptyReturnsError("no atoms supplied")
        values = np.array(sorted(merged))
        weights = np.array([merged[v] for v in values])
        return cls(values, weights)

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
        return float(self.weights @ (self.values - mu) ** 2)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmpiricalPMF):
            return NotImplemented
        return np.array_equal(self.values, other.values) and np.array_equal(
            self.weights, other.weights
        )

    def __hash__(self):
        return hash((self.values.tobytes(), self.weights.tobytes()))


@dataclass(frozen=True, eq=False)
class ReturnModel:
    """A return distribution with certified bounds and moments.

    The support endpoints are the bounds themselves, so the survivability
    analysis driven by (x_min, x_max) is tight for the distribution.
    """

    pmf: EmpiricalPMF
    bounds: ReturnBounds
    mu: float
    sigma2: float
    kind: str

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidParameterError(f"unknown model kind {self.kind!r}")
        if self.sigma2 < 0.0:
            raise InvalidParameterError("sigma2 must be nonnegative")
        lo, hi = float(self.pmf.values[0]), float(self.pmf.values[-1])
        if lo != self.bounds.x_min or hi != self.bounds.x_max:
            raise InvalidBoundsError(
                "x_min and x_max must be the endpoints of the PMF support"
            )
        if not (self.bounds.x_min <= self.mu <= self.bounds.x_max):
            raise InvalidParameterError("mean must lie within the support bounds")

    @classmethod
    def from_pmf(cls, pmf: EmpiricalPMF, kind: str = KIND_EMPIRICAL) -> "ReturnModel":
        bounds = ReturnBounds(float(pmf.values[0]), float(pmf.values[-1]))
        return cls(pmf=pmf, bounds=bounds, mu=pmf.mean(), sigma2=pmf.variance(), kind=kind)

    @classmethod
    def two_point(cls, x_down: float, x_up: float, p_up: float = 0.5) -> "ReturnModel":
        """Two-atom model {x_down w.p. 1-p_up, x_up w.p. p_up}."""
        if not (0.0 < p_up < 1.0):
            raise InvalidParameterError("p_up must be in (0, 1)")
        pmf = EmpiricalPMF(np.array([x_down, x_up]), np.array([1.0 - p_up, p_up]))
        return cls.from_pmf(pmf, kind=KIND_TWO_POINT)

    @classmethod
    def from_moments(cls, mu: float, sigma: float) -> "ReturnModel":
        """Symmetric two-point model {mu - sigma, mu + sigma} with the given moments."""
        if sigma <= 0.0:
            raise InvalidParameterError("sigma must be positive to pin two distinct atoms")
        return cls.two_point(mu - sigma, mu + sigma, 0.5)

    @classmethod
    def uniform_grid(cls, x_min: float, x_max: float, n_atoms: int) -> "ReturnModel":
        """Equally weighted atoms on an evenly spaced grid including both endpoints."""
        if n_atoms < 2:
            raise InvalidParameterError("uniform grid needs at least 2 atoms")
        values = np.linspace(x_min, x_max, n_atoms)
        weights = np.full(n_atoms, 1.0 / n_atoms)
        pmf = EmpiricalPMF(values, weights)
        return cls.from_pmf(pmf, kind=KIND_UNIFORM_GRID)

    @property
    def k_max(self) -> float:
        return self.bounds.k_max

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReturnModel):
            return NotImplemented
        return self.pmf == other.pmf and self.kind == other.kind

    def __hash__(self):
        return hash((self.pmf, self.kind))


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """Ordered positive prices for one instrument, optionally dated."""

    ticker: str
    prices: np.ndarray
    dates: tuple[str, ...] | None = None

    def __post_init__(self):
        prices = np.asarray(self.prices, dtype=float)
        if prices.ndim != 1 or prices.size < 2:
            raise TooShortError(f"{self.ticker}: need at least 2 prices, got {prices.size}")
        if np.any(prices <= 0.0) or not np.all(np.isfinite(prices)):
            raise NonPositivePriceError(f"{self.ticker}: all prices must be finite and positive")
        if self.dates is not None:
            dates = tuple(self.dates)
            if len(dates) != prices.size:
                raise InvalidParameterError(f"{self.ticker}: dates and prices lengths differ")
            if any(a >= b for a, b in zip(dates, dates[1:])):
                raise InvalidParameterError(f"{self.ticker}: dates must be strictly increasing")
            object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "prices", _frozen_array(prices))

    def __len__(self) -> int:
        return int(self.prices.size)


def returns_from_prices(series: PriceSeries) -> np.ndarray:
    """Simple per-period returns x(k) = (s(k+1) - s(k)) / s(k).

    Output has length len(prices) - 1; positivity of prices guarantees every
    return is strictly above -1.
    """
    p = series.prices
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
        raise EmptyReturnsError("cannot build a PMF from zero returns")
    if np.any(arr <= -1.0):
        raise ReturnBelowNegOneError("returns must be strictly above -1")
    values, counts = np.unique(arr, return_counts=True)
    return EmpiricalPMF(values, counts / arr.size)


def sample_path(model: ReturnModel | EmpiricalPMF, n: int, seed) -> np.ndarray:
    """Draw ``n`` independent returns; deterministic given seed.

    Accepts a full model or a bare PMF: one-sided or point-mass distributions
    cannot carry the two-sided support bounds a model certifies, but they can
    still be sampled.
    """
    if n < 1:
        raise InvalidParameterError("n must be at least 1")
    pmf = model.pmf if isinstance(model, ReturnModel) else model
    rng = np.random.default_rng(seed)
    idx = rng.choice(pmf.values.size, size=n, p=pmf.weights)
    out = pmf.values[idx]
    out.flags.writeable = False
    return out


def load_prices_csv(path, column: str = DEFAULT_PRICE_COLUMN) -> PriceSeries:
    """Read a price series from a headered CSV file.

    The named column supplies prices; a column literally named ``date``
    (any case) supplies dates when present. Rows are kept in file order.
    As with ``csv.DictReader``, blank lines are skipped and not counted as
    rows, and when a header name repeats, its last column is the one read.
    A row too short to reach the price or date column is refused.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or column not in header:
                have = ", ".join(header or [])
                raise MissingColumnError(f"{path}: no column {column!r} (have: {have})")
            last = {name: j for j, name in enumerate(header)}
            price_at = last[column]
            date_col = next((c for c in header if c.lower() == "date"), None)
            date_at = last[date_col] if date_col is not None else None
            prices = array("d")
            dates: list[str] = []
            i = 1  # header is line 1
            for row in reader:
                if not row:
                    continue
                i += 1
                try:
                    price = float(row[price_at])
                except (IndexError, ValueError):
                    raw = row[price_at] if price_at < len(row) else None
                    raise PriceParseError(
                        f"{path}: row {i}, column {column!r}: cannot parse {raw!r}"
                    ) from None
                if price <= 0.0:
                    raise NonPositivePriceError(f"{path}: row {i}: price {price!r} is not positive")
                prices.append(price)
                if date_at is not None:
                    if date_at >= len(row):
                        raise PriceParseError(f"{path}: row {i}, column {date_col!r}: no date")
                    dates.append(row[date_at])
    except OSError as exc:
        raise InputFileError(f"{path}: cannot read price file ({exc.strerror})") from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InputFileError(f"{path}: malformed price file ({exc})") from None
    ticker = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    return PriceSeries(
        ticker=ticker,
        prices=np.asarray(prices),
        dates=tuple(dates) if date_col is not None else None,
    )
