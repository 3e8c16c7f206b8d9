"""Three assets, one account: independent balanced controllers per asset.

Capital splits evenly across assets (each controller starts with v0/m, half
long, half short), gains are selected per asset for per-asset risk budgets,
and the portfolio gain is the exact sum of the per-asset gains. The leverage
series reports total committed capital relative to account value; nothing
caps it, each asset being financed by its own sub-account.
"""

import numpy as np

from longshort import (
    PortfolioConfig,
    PriceSeries,
    ReturnModel,
    optimize_portfolio,
    pmf_from_returns,
    returns_from_prices,
    run_portfolio,
)

rng = np.random.default_rng(99)


def make_history(drift, vol, n=251):
    steps = 1.0 + drift + vol * rng.standard_normal(n - 1)
    return 100.0 * np.concatenate([[1.0], np.cumprod(steps)])


specs = [("alpha_co", -0.002, 0.030), ("beta_co", 0.001, 0.012), ("gamma_co", 0.0008, 0.016)]
targets = [0.8, 0.1, 0.2]  # per-asset std budgets in currency units
v0 = 100.0

pmfs, replay_paths, labels = [], [], []
for name, drift, vol in specs:
    history = make_history(drift, vol)
    train = PriceSeries(name, history[:126])
    test = PriceSeries(name, history[125:])
    pmfs.append(pmf_from_returns(returns_from_prices(train)))
    replay_paths.append(returns_from_prices(test))
    labels.append(name)

stage = 125
results = optimize_portfolio(
    list(zip(pmfs, targets)), v0, stage, n_paths=20_000, seed=17
)
print(f"portfolio of {len(specs)} assets, v0 = {v0} (so {v0 / 3:.2f} per asset):")
for label, target, res in zip(labels, targets, results):
    print(
        f"  {label:9s} target std {target:>5.2f}: K* = {res.k_star:.4f}, "
        f"in-sample E[G] = {res.expected_gain:+.4f}"
    )

config = PortfolioConfig(
    assets=tuple(
        (ReturnModel.from_pmf(pmf), res.k_star) for pmf, res in zip(pmfs, results)
    ),
    v0=v0,
)
traj = run_portfolio(config, replay_paths)

print(f"\nout-of-sample replay over {traj.n_stages} stages:")
for label, gain_loss in zip(labels, traj.asset_gain_loss):
    print(f"  {label:9s} terminal gain {gain_loss[-1]:+8.4f}")
print(f"  {'total':9s} terminal gain {traj.total_gain_loss[-1]:+8.4f}")

split = sum(gain_loss[-1] for gain_loss in traj.asset_gain_loss)
print(f"\nadditivity: sum of per-asset gains = {split:+.10f} (exact match: "
      f"{split == traj.total_gain_loss[-1]})")
print(f"max leverage ratio sum|u_i|/V: {traj.leverage.max():.4f}")

traj.write_csv("portfolio_trajectory.csv", labels=labels)
print("\nwrote portfolio_trajectory.csv")
