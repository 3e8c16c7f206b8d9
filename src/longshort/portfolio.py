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
from .errors import (
    DomainError,
    InvalidParameterError,
    LengthMismatchError,
    PortfolioAssetError,
)
from .optimizer import DEFAULT_MC_TOL, OptimalGainResult, solve_optimal_gain_empirical
from .returns import EmpiricalPMF, ReturnModel, _frozen_array, _write_csv

PORTFOLIO_DEFAULT_N_PATHS = 20_000


def derive_asset_seed(seed: int, asset_index: int) -> int:
    """Deterministic per-asset seed for independent sampling streams."""
    return int(np.random.SeedSequence([int(seed), int(asset_index)]).generate_state(1)[0])


@dataclass(frozen=True)
class PortfolioConfig:
    """Per-asset (model, gain) pairs sharing one evenly split account."""

    assets: tuple[tuple[ReturnModel, float], ...]
    v0: float
    alpha: float = field(default=0.5)

    def __post_init__(self):
        object.__setattr__(self, "assets", tuple(self.assets))
        if len(self.assets) < 1:
            raise InvalidParameterError("portfolio needs at least one asset")
        if self.v0 <= 0.0:
            raise InvalidParameterError(f"v0 must be positive, got {self.v0}")
        if self.alpha != 0.5:
            raise InvalidParameterError(
                "portfolio controllers are balanced by construction (alpha = 1/2)"
            )
        # Validate per-asset admissibility eagerly, tagged by asset.
        for i, (model, k_gain) in enumerate(self.assets):
            try:
                dynamics.ControllerConfig.for_model(
                    model, alpha=self.alpha, k_gain=k_gain, v0=self.per_asset_v0
                )
            except DomainError as exc:
                raise PortfolioAssetError(i, str(exc)) from exc

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    @property
    def per_asset_v0(self) -> float:
        return self.v0 / len(self.assets)


@dataclass(frozen=True, eq=False)
class PortfolioTrajectory:
    """Per-asset trajectories plus the aggregate gain and leverage series."""

    per_asset: tuple[dynamics.AccountTrajectory, ...]
    total_gain_loss: np.ndarray
    leverage: np.ndarray

    @property
    def n_stages(self) -> int:
        return int(self.total_gain_loss.size - 1)

    def write_csv(self, path, labels: Sequence[str] | None = None) -> None:
        """Columns: k, one gain column per asset, total_gain_loss, leverage_ratio."""
        m = len(self.per_asset)
        if labels is None:
            labels = [f"asset{i + 1}" for i in range(m)]
        if len(labels) != m:
            raise InvalidParameterError("need exactly one label per asset")
        _write_csv(
            path,
            ["k"] + [f"gain_{label}" for label in labels] + ["total_gain_loss", "leverage_ratio"],
            [traj.gain_loss for traj in self.per_asset] + [self.total_gain_loss, self.leverage],
            index=True,
        )


def run_portfolio(config: PortfolioConfig, paths: Sequence) -> PortfolioTrajectory:
    """Simulate every asset on its own realized path and aggregate.

    All paths must have equal length; the total gain-loss at each stage is
    the exact sum of the per-asset gain-losses.
    """
    if len(paths) != config.n_assets:
        raise LengthMismatchError(
            f"got {len(paths)} paths for {config.n_assets} assets"
        )
    arrays = [np.asarray(p, dtype=float) for p in paths]
    lengths = {a.size for a in arrays}
    if len(lengths) != 1:
        raise LengthMismatchError(f"paths have differing lengths {sorted(lengths)}")

    trajectories = []
    for i, ((model, k_gain), path) in enumerate(zip(config.assets, arrays)):
        cfg = dynamics.ControllerConfig.for_model(
            model, alpha=config.alpha, k_gain=k_gain, v0=config.per_asset_v0
        )
        try:
            trajectories.append(dynamics.simulate(cfg, path))
        except DomainError as exc:
            raise PortfolioAssetError(i, str(exc)) from exc

    total_gain = np.sum([t.gain_loss for t in trajectories], axis=0)
    total_value = np.sum([t.v_total for t in trajectories], axis=0)
    committed = np.sum([np.abs(t.u_net) for t in trajectories], axis=0)
    leverage = np.zeros_like(total_value)
    np.divide(committed, total_value, out=leverage, where=total_value > 0.0)
    return PortfolioTrajectory(
        per_asset=tuple(trajectories),
        total_gain_loss=_frozen_array(total_gain),
        leverage=_frozen_array(leverage),
    )


def optimize_portfolio(
    assets: Sequence[tuple[EmpiricalPMF, float]],
    v0: float,
    stage: int,
    tol: float = DEFAULT_MC_TOL,
    n_paths: int = PORTFOLIO_DEFAULT_N_PATHS,
    seed: int = 0,
) -> list[OptimalGainResult]:
    """Solve the gain-selection problem independently per asset.

    Each asset gets capital v0/m and its own (pmf, target_std). Every
    per-asset solve shares the same seed: the solves are marginal, so
    sharing random numbers is harmless and keeps identical assets with
    identical targets at identical gains.
    """
    if len(assets) < 1:
        raise InvalidParameterError("need at least one (pmf, target_std) pair")
    if v0 <= 0.0:
        raise InvalidParameterError(f"v0 must be positive, got {v0}")
    per_asset_v0 = v0 / len(assets)
    results = []
    for i, (pmf, target_std) in enumerate(assets):
        try:
            results.append(
                solve_optimal_gain_empirical(
                    pmf, per_asset_v0, stage, target_std, tol=tol, n_paths=n_paths, seed=seed
                )
            )
        except DomainError as exc:
            raise PortfolioAssetError(i, str(exc)) from exc
    return results
