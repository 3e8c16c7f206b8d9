"""Account dynamics for the double linear feedback controller.

An initial account v0 is split into a long sub-account alpha*v0 and a short
sub-account (1-alpha)*v0. At every stage the controller commits u_long = K*V_L
to the long side and u_short = -K*V_S to the short side, so

    V_L(k+1) = V_L(k) + x(k) * u_long(k)
    V_S(k+1) = V_S(k) + x(k) * u_short(k)

which compounds to V_L(k) = alpha*v0 * prod(1 + K*x(j)) and
V_S(k) = (1-alpha)*v0 * prod(1 - K*x(j)).

Values are plain doubles; products of up to ~10^3 factors in [0, 2) stay in
range, and an overflow check raises rather than returning infinities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InadmissibleGainError,
    InvalidParameterError,
    ReturnOutOfBoundsError,
    SimulationOverflowError,
)
from .returns import ReturnBounds, ReturnModel, _frozen_array, _write_csv


@dataclass(frozen=True)
class ControllerConfig:
    """An (alpha, k_gain) controller with initial account v0.

    ``k_max`` is derived from the return model's upper support bound as
    min(1, 1/x_max); build configs through :meth:`for_model` or
    :meth:`for_bounds` rather than passing it free-form. Gains in
    [0, k_max] keep both sub-accounts nonnegative on in-bounds paths and
    keep every trade cash-financed.
    """

    alpha: float
    k_gain: float
    v0: float
    k_max: float

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise InvalidParameterError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.v0 <= 0.0:
            raise InvalidParameterError(f"v0 must be positive, got {self.v0}")
        if not (0.0 < self.k_max <= 1.0):
            raise InvalidParameterError(f"k_max must be in (0, 1], got {self.k_max}")
        if not (0.0 <= self.k_gain <= self.k_max):
            raise InadmissibleGainError(
                f"k_gain={self.k_gain} outside admissible [0, {self.k_max}]"
            )

    @classmethod
    def for_bounds(
        cls, bounds: ReturnBounds, *, alpha: float, k_gain: float, v0: float
    ) -> "ControllerConfig":
        return cls(alpha=alpha, k_gain=k_gain, v0=v0, k_max=bounds.k_max)

    @classmethod
    def for_model(
        cls, model: ReturnModel, *, alpha: float, k_gain: float, v0: float
    ) -> "ControllerConfig":
        return cls.for_bounds(model.bounds, alpha=alpha, k_gain=k_gain, v0=v0)


@dataclass(frozen=True, eq=False)
class AccountTrajectory:
    """Stage-by-stage account values and controls along one return path.

    All arrays have length n+1 for a path of n returns. The control triple at
    the final stage is the standing order implied by the terminal accounts;
    it is never filled.
    """

    v_long: np.ndarray
    v_short: np.ndarray
    v_total: np.ndarray
    gain_loss: np.ndarray
    u_long: np.ndarray
    u_short: np.ndarray
    u_net: np.ndarray

    @property
    def n_stages(self) -> int:
        """Number of returns applied (arrays have one more entry)."""
        return int(self.v_total.size - 1)

    @property
    def controls(self) -> np.ndarray:
        """(n+1, 3) array of (u_long, u_short, u_net) per stage."""
        return np.column_stack([self.u_long, self.u_short, self.u_net])

    def write_csv(self, path) -> None:
        """Columns: k, v_long, v_short, v_total, gain_loss, u_long, u_short."""
        _write_csv(
            path,
            ["k", "v_long", "v_short", "v_total", "gain_loss", "u_long", "u_short"],
            [self.v_long, self.v_short, self.v_total, self.gain_loss, self.u_long, self.u_short],
            index=True,
        )


@dataclass(frozen=True)
class CashFinancingAudit:
    """Worst-case committed capital relative to account value."""

    max_control_ratio: float
    cash_financed: bool


def _check_path(k_gain: float, path: np.ndarray) -> None:
    # Survivability guard: factors 1 + K*x and 1 - K*x must stay nonnegative.
    # This is the strongest check expressible from the config alone; staying
    # within the bounds that produced k_max is the caller's obligation.
    if np.any(path <= -1.0):
        raise ReturnOutOfBoundsError("returns must be strictly above -1")
    scaled = k_gain * path
    if np.any(1.0 + scaled < 0.0) or np.any(1.0 - scaled < 0.0):
        worst = float(np.max(np.abs(scaled)))
        raise ReturnOutOfBoundsError(
            f"|k_gain * x| reaches {worst}, breaking account nonnegativity"
        )


def simulate(config: ControllerConfig, path) -> AccountTrajectory:
    """Run the two-account recursion along a realized return path."""
    x = np.asarray(path, dtype=float)
    if x.ndim != 1:
        raise InvalidParameterError("path must be a 1-d sequence of returns")
    _check_path(config.k_gain, x)

    # Python floats are IEEE doubles like numpy's float64 scalars, and their
    # overflow gives inf rather than raising, so this loop rounds exactly as
    # an elementwise numpy recursion would, at a fraction of the cost.
    n = x.size
    k_gain = float(config.k_gain)
    neg_gain = -k_gain
    v_long, v_short, u_long, u_short = (np.empty(n + 1) for _ in range(4))
    vl_out, vs_out, ul_out, us_out = map(memoryview, (v_long, v_short, u_long, u_short))
    v_l = vl_out[0] = float(config.alpha * config.v0)
    v_s = vs_out[0] = float((1.0 - config.alpha) * config.v0)
    k = 0
    for x_k in memoryview(x):
        u_l = ul_out[k] = k_gain * v_l
        u_s = us_out[k] = neg_gain * v_s
        k += 1
        v_l = vl_out[k] = v_l + x_k * u_l
        v_s = vs_out[k] = v_s + x_k * u_s
    ul_out[n] = k_gain * v_l
    us_out[n] = neg_gain * v_s

    if not (np.all(np.isfinite(v_long)) and np.all(np.isfinite(v_short))):
        raise SimulationOverflowError(
            f"account value overflowed double precision on a path of length {n}"
        )

    v_total = v_long + v_short
    return AccountTrajectory(
        v_long=_frozen_array(v_long),
        v_short=_frozen_array(v_short),
        v_total=_frozen_array(v_total),
        gain_loss=_frozen_array(v_total - config.v0),
        u_long=_frozen_array(u_long),
        u_short=_frozen_array(u_short),
        u_net=_frozen_array(u_long + u_short),
    )


def terminal_gains(alpha: float, k_gain: float, v0: float, paths) -> np.ndarray:
    """Terminal gain-loss for a batch of paths, one per row.

    Applies exactly the same stepwise recursion as :func:`simulate`,
    vectorized across rows, so per-path results agree bitwise.
    """
    x = np.atleast_2d(np.asarray(paths, dtype=float))
    if not (0.0 <= alpha <= 1.0):
        raise InvalidParameterError(f"alpha must be in [0, 1], got {alpha}")
    if v0 <= 0.0:
        raise InvalidParameterError(f"v0 must be positive, got {v0}")
    if not (0.0 <= k_gain <= 1.0):
        raise InadmissibleGainError(f"k_gain={k_gain} outside [0, 1]")
    _check_path(k_gain, x)
    return _terminal_gains(alpha, k_gain, v0, x)


def _terminal_gains(alpha: float, k_gain: float, v0: float, x: np.ndarray) -> np.ndarray:
    """The recursion behind :func:`terminal_gains`, on already-checked inputs.

    Each step computes ``v + x * (K * v)`` with the same roundings as
    :func:`simulate`, written into reused buffers; a stage-major (Fortran
    order) ``x`` makes every column read contiguous.
    """
    v_long = np.full(x.shape[0], alpha * v0)
    v_short = np.full(x.shape[0], (1.0 - alpha) * v0)
    step = np.empty(x.shape[0])
    with np.errstate(over="ignore"):  # overflow is detected and raised below
        for k in range(x.shape[1]):
            col = x[:, k]
            np.multiply(v_long, k_gain, out=step)
            step *= col
            v_long += step
            np.multiply(v_short, -k_gain, out=step)
            step *= col
            v_short += step
        v_long += v_short
    if not np.all(np.isfinite(v_long)):
        raise SimulationOverflowError("account value overflowed double precision")
    v_long -= v0
    return v_long


def audit_cash_financing(traj: AccountTrajectory, k_gain: float) -> CashFinancingAudit:
    """Largest |u(k)| / V(k) over the trajectory and whether it is <= k_gain <= 1.

    For admissible inputs the bound holds by construction; a failed audit
    signals an implementation bug rather than a bad configuration.
    """
    v = traj.v_total
    ratios = np.zeros_like(v)
    np.divide(np.abs(traj.u_net), v, out=ratios, where=v > 0.0)
    max_ratio = float(ratios.max()) if ratios.size else 0.0
    ok = max_ratio <= k_gain + 1e-12 and k_gain <= 1.0 + 1e-12
    return CashFinancingAudit(max_control_ratio=max_ratio, cash_financed=ok)
