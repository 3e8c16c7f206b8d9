"""Exact rational oracle for the gain-loss moments of the long-short controller.

For i.i.d. per-period returns x with E[x] = mu and E[x^2] = m2, the long and
short product factors P = prod(1 + K x_j) and Q = prod(1 - K x_j) have

    E[P] = (1 + K mu)^k            E[P^2] = (1 + 2 K mu + K^2 m2)^k
    E[Q] = (1 - K mu)^k            E[Q^2] = (1 - 2 K mu + K^2 m2)^k
    E[P Q] = (1 - K^2 m2)^k

and G = v0 (alpha P + (1 - alpha) Q - 1). Evaluated in ``fractions.Fraction``
arithmetic from the model's exact rational moments, these give E[G] and
Var[G] with no rounding at all, for any PMF. Only the final square root is a
float operation, so the returned std is within one ulp-scale of the truth.

The oracle shares no code with ``longshort``: it reads prices and computes
returns itself, so it can judge the library's answers.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class ExactMoments:
    """First and second raw moments of the per-period return, as rationals."""

    mu: Fraction
    m2: Fraction


def simple_returns(prices) -> list[float]:
    """x(k) = (s(k+1) - s(k)) / s(k) in float, rounded exactly as numpy rounds it."""
    return [(b - a) / a for a, b in zip(prices, prices[1:])]


def moments_from_returns(returns) -> ExactMoments:
    """Moments of the empirical PMF placing weight count/n on each distinct return."""
    counts = Counter(returns)
    n = sum(counts.values())
    if n == 0:
        raise ValueError("no returns")
    mu = sum(Fraction(x) * c for x, c in counts.items()) / n
    m2 = sum(Fraction(x) ** 2 * c for x, c in counts.items()) / n
    return ExactMoments(mu, m2)


def moments_from_mu_sigma(mu: float, sigma: float) -> ExactMoments:
    """Moments of a model given by its mean and standard deviation."""
    mu_q, sigma_q = Fraction(mu), Fraction(sigma)
    return ExactMoments(mu_q, sigma_q * sigma_q + mu_q * mu_q)


def moments_from_pmf(values, weights) -> ExactMoments:
    """Moments of an explicit PMF; weights are taken exactly as given."""
    w = [Fraction(p) for p in weights]
    total = sum(w)
    mu = sum(Fraction(x) * p for x, p in zip(values, w)) / total
    m2 = sum(Fraction(x) ** 2 * p for x, p in zip(values, w)) / total
    return ExactMoments(mu, m2)


def exact_mean(m: ExactMoments, k_gain: float, stage: int, v0=1, alpha=HALF) -> Fraction:
    """E[G] at ``stage``, exactly."""
    k, a, v = Fraction(k_gain), Fraction(alpha), Fraction(v0)
    return v * (a * (1 + k * m.mu) ** stage + (1 - a) * (1 - k * m.mu) ** stage - 1)


def exact_variance(m: ExactMoments, k_gain: float, stage: int, v0=1, alpha=HALF) -> Fraction:
    """Var[G] at ``stage``, exactly."""
    k, a, v = Fraction(k_gain), Fraction(alpha), Fraction(v0)
    km, kk = k * m.mu, k * k * m.m2
    e_p, e_q = (1 + km) ** stage, (1 - km) ** stage
    e_pp = (1 + 2 * km + kk) ** stage
    e_qq = (1 - 2 * km + kk) ** stage
    e_pq = (1 - kk) ** stage
    mean = a * e_p + (1 - a) * e_q
    second = a * a * e_pp + (1 - a) ** 2 * e_qq + 2 * a * (1 - a) * e_pq
    return v * v * (second - mean * mean)


def exact_std(m: ExactMoments, k_gain: float, stage: int, v0=1, alpha=HALF) -> float:
    """std(G) at ``stage``; the variance is exact, only the square root rounds."""
    var = exact_variance(m, k_gain, stage, v0, alpha)
    if var < 0:
        raise ArithmeticError(f"exact variance is negative ({float(var)}); the moments are invalid")
    return math.sqrt(var)
