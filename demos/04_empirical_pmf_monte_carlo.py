"""From a price history to an empirical return PMF to Monte-Carlo estimates.

Real return distributions are not two-point. This script builds the
empirical PMF of a synthetic daily price history (weight 1/n per observed
return), estimates the gain-loss statistics at a horizon by simulating
50,000 paths, and compares against the closed forms evaluated at the PMF's
own moments. Estimates are reproducible: the seed pins every path.
"""

import numpy as np

from longshort import (
    PriceSeries,
    ReturnModel,
    estimate_gain_stats,
    expected_gain,
    pmf_from_returns,
    returns_from_prices,
    solve_optimal_gain_empirical,
    std_gain,
)

rng = np.random.default_rng(123)
n_days = 126
steps = 1.0 - 0.0015 + 0.021 * rng.standard_normal(n_days - 1)
prices = PriceSeries("synthetic", 100.0 * np.concatenate([[1.0], np.cumprod(steps)]))

rets = returns_from_prices(prices)
pmf = pmf_from_returns(rets)
model = ReturnModel.from_pmf(pmf)
print(f"{len(prices)} prices -> {rets.size} returns -> {pmf.n_atoms} atoms")
print(f"support [{model.x_min:.4f}, {model.x_max:.4f}], k_max = {model.k_max}")
print(f"mu = {model.mu:.6f}, sigma = {model.sigma2**0.5:.6f}")

stage, k_gain, v0 = rets.size, 0.6, 1.0
est = estimate_gain_stats(model, 0.5, k_gain, v0, stage, n_paths=50_000, seed=2024)
print(f"\nMonte-Carlo at K = {k_gain}, horizon {stage} (50,000 paths, seed 2024):")
print(f"  mean = {est.mean:.6f} +- {est.std_error_of_mean:.6f} (1 SE)")
print(f"  std  = {est.std:.6f}")

cf_mean = expected_gain(0.5, k_gain, stage, model.mu, v0)
cf_std = std_gain(0.5, k_gain, stage, model.mu, model.sigma2, v0)
print(f"closed forms at the PMF moments: mean = {cf_mean:.6f}, std = {cf_std:.6f}")
print(f"deviation of the MC mean: {abs(est.mean - cf_mean) / est.std_error_of_mean:.2f} SE")

again = estimate_gain_stats(model, 0.5, k_gain, v0, stage, n_paths=50_000, seed=2024)
print(f"\nsame seed, second run identical: {again == est}")

res = solve_optimal_gain_empirical(pmf, v0, stage, target_std=0.02, n_paths=50_000, seed=2024)
print(
    f"\ngain for a std budget of 0.02 (Monte-Carlo bisection): "
    f"K* = {res.k_star:.4f}, achieved std = {res.achieved_std:.5f}, "
    f"E[G] = {res.expected_gain:.5f}"
)
