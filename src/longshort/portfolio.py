"""Multi-asset trading: one independent balanced controller per asset.

Total capital v0 is split evenly, v0/m per asset, and each asset runs its own
balanced controller (so each sub-account starts at v0/(2m)). Gains simply
add across assets, and every single-asset guarantee (positive expected gain
for nonzero drift, growth, monotonicity, cash financing) holds asset-wise.
The portfolio-level capital commitment sum|u_i(k)| / V(k) is reported as a
diagnostic; nothing caps it, since each asset is financed by its own
sub-account.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import dynamics
from .analytics import check_domain
from .defaults import DEFAULT_N_PATHS
from .errors import DomainError, InvalidParameterError, PortfolioAssetError
from .montecarlo import _check_draw
from .optimizer import MIN_MC_PATHS, OptimalGainResult, solve_optimal_gain_empirical
from .returns import EmpiricalPMF, ReturnModel, _frozen_array, _write_csv


@dataclass(frozen=True)
class PortfolioConfig:
    """Per-asset (model, gain) pairs sharing one evenly split account."""

    assets: tuple[tuple[ReturnModel, float], ...]
    v0: float
    # Derived: each asset's balanced controller at v0/m, built and checked once.
    controllers: tuple[dynamics.ControllerConfig, ...] = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "assets", tuple(self.assets))
        if len(self.assets) < 1:
            raise InvalidParameterError("portfolio needs at least one asset")
        check_domain(v0=self.v0)
        # Validate per-asset admissibility eagerly, tagged by asset.
        controllers = []
        for i, (model, k_gain) in enumerate(self.assets):
            try:
                cfg = dynamics.ControllerConfig.for_model(
                    model, alpha=0.5, k_gain=k_gain, v0=self.per_asset_v0
                )
            except DomainError as exc:
                raise PortfolioAssetError(i, str(exc)) from exc
            controllers.append(cfg)
        object.__setattr__(self, "controllers", tuple(controllers))

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    @property
    def per_asset_v0(self) -> float:
        return self.v0 / len(self.assets)


@dataclass(frozen=True, eq=False)
class PortfolioTrajectory:
    """Each asset's gain-loss series and the leverage series; the total gain is derived."""

    asset_gain_loss: tuple[np.ndarray, ...]
    leverage: np.ndarray

    @property
    def n_stages(self) -> int:
        return int(self.leverage.size - 1)

    @property
    def total_gain_loss(self) -> np.ndarray:
        """The asset columns added in asset order from zeros, as ``np.sum`` of them rounds."""
        return _frozen_array(sum(self.asset_gain_loss, np.zeros_like(self.leverage)))

    def write_csv(self, path, labels: Sequence[str]) -> None:
        """Columns: k, one ``gain_<label>`` column per asset, total_gain_loss, leverage_ratio."""
        if len(labels) != len(self.asset_gain_loss):
            raise InvalidParameterError("need exactly one label per asset")
        _write_csv(
            path,
            ["k"] + [f"gain_{label}" for label in labels] + ["total_gain_loss", "leverage_ratio"],
            [*self.asset_gain_loss, self.total_gain_loss, self.leverage],
            index=True,
        )


def run_portfolio(config: PortfolioConfig, paths: Sequence) -> PortfolioTrajectory:
    """Simulate every asset on its own realized path and aggregate.

    All paths must have equal length. Assets are simulated one at a time and
    added into the leverage's totals in asset order, starting from zeros;
    only each asset's gain-loss column outlives its trajectory.
    """
    if len(paths) != config.n_assets:
        raise InvalidParameterError(
            f"got {len(paths)} paths for {config.n_assets} assets"
        )
    arrays = [np.asarray(p, dtype=float) for p in paths]
    lengths = {a.size for a in arrays}
    if len(lengths) != 1:
        raise InvalidParameterError(f"paths have differing lengths {sorted(lengths)}")

    n = arrays[0].size + 1
    total_value, committed = np.zeros(n), np.zeros(n)
    asset_gains = []
    for i, (cfg, path) in enumerate(zip(config.controllers, arrays)):
        try:
            traj = dynamics.simulate(cfg, path)
        except DomainError as exc:
            raise PortfolioAssetError(i, str(exc)) from exc
        total_value += traj.v_total
        committed += np.abs(traj.u_net)
        asset_gains.append(traj.gain_loss)
        del traj  # before the next asset's trajectory is built
    leverage = np.zeros_like(total_value)
    np.divide(committed, total_value, out=leverage, where=total_value > 0.0)
    return PortfolioTrajectory(tuple(asset_gains), _frozen_array(leverage))


def optimize_portfolio(
    assets: Sequence[tuple[EmpiricalPMF, float]],
    v0: float,
    stage: int,
    n_paths: int = DEFAULT_N_PATHS,
    seed: int = 0,
) -> list[OptimalGainResult]:
    """Solve the gain-selection problem independently per asset.

    Each asset gets capital v0/m and its own (pmf, target_std), and its
    bisection, at the empirical solver's ``DEFAULT_MC_TOL``, stops at
    a std in [target_std - DEFAULT_MC_TOL * v0/m, target_std]. Every
    per-asset solve shares the same seed: the solves are marginal, so
    sharing random numbers is harmless and keeps identical assets with
    identical targets at identical gains.
    """
    if len(assets) < 1:
        raise InvalidParameterError("need at least one (pmf, target_std) pair")
    _check_draw(stage, n_paths, seed, 2, MIN_MC_PATHS)
    check_domain(v0=v0)
    per_asset_v0 = v0 / len(assets)
    results = []
    for i, (pmf, target_std) in enumerate(assets):
        try:
            results.append(
                solve_optimal_gain_empirical(
                    pmf, per_asset_v0, stage, target_std, n_paths=n_paths, seed=seed
                )
            )
        except DomainError as exc:
            raise PortfolioAssetError(i, str(exc)) from exc
    return results
