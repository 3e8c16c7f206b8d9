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

import math
from dataclasses import dataclass

import numpy as np

from .analytics import check_domain
from .errors import DomainError, InvalidParameterError
from .returns import ReturnModel, _frozen_array, _write_csv


@dataclass(frozen=True)
class ControllerConfig:
    """An (alpha, k_gain) controller with initial account v0, admitted here and nowhere else.

    ``k_max`` is derived from the return model's upper support bound as
    min(1, fl(1/x_max)); build configs through :meth:`for_model` rather than
    passing it free-form. Gains in [0, k_max] keep every trade cash-financed,
    and every return the model draws survives: it lies in [x_min, x_max], so
    fl(K*x) <= fl(K*x_max) <= 1 and fl(K*x) >= fl(K*x_min) >= x_min > -1 keep
    both factors 1 + K*x and 1 - K*x nonnegative, and no drawn return needs a
    look. A realized path may leave that support; :func:`simulate` checks it.
    """

    alpha: float
    k_gain: float
    v0: float
    k_max: float

    def __post_init__(self):
        check_domain(alpha=self.alpha, v0=self.v0, k_gain=self.k_gain, k_max=self.k_max)

    @classmethod
    def for_model(
        cls, model: ReturnModel, *, alpha: float, k_gain: float, v0: float
    ) -> "ControllerConfig":
        return cls(alpha=alpha, k_gain=k_gain, v0=v0, k_max=model.k_max)


@dataclass(frozen=True, eq=False)
class AccountTrajectory:
    """Stage-by-stage account values and controls along one return path.

    It stores the two sub-accounts (n+1 values for n returns) and the gain
    and v0 they ran at; the other columns derive from them, read-only and
    rounded as ``simulate`` rounds them. The controls at the final stage
    are the standing order implied by the terminal accounts, never filled.
    """

    v_long: np.ndarray
    v_short: np.ndarray
    k_gain: float
    v0: float

    v_total = property(lambda self: _frozen_array(self.v_long + self.v_short))
    gain_loss = property(lambda self: _frozen_array(self.v_total - self.v0))
    u_long = property(lambda self: _frozen_array(self.k_gain * self.v_long))
    u_short = property(lambda self: _frozen_array(-self.k_gain * self.v_short))
    u_net = property(lambda self: _frozen_array(self.u_long + self.u_short))

    @property
    def n_stages(self) -> int:
        """Number of returns applied (arrays have one more entry)."""
        return int(self.v_long.size - 1)

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
    # within the bounds that produced k_max is the caller's obligation. The
    # path's extremes decide it once every return is finite: NaN, and 0 * inf
    # at K = 0, fail every comparison. An empty path has extremes +inf and
    # -inf, which pass.
    if not np.isfinite(path).all():
        raise InvalidParameterError("returns must be finite")
    x_min = float(path.min(initial=np.inf))
    x_max = float(path.max(initial=-np.inf))
    if x_min <= -1.0:
        raise InvalidParameterError("returns must be strictly above -1")
    # 1 + K*x and 1 - K*x are monotone in x under IEEE rounding, so the
    # extreme returns decide survivability for every return between them.
    if 1.0 + k_gain * x_min < 0.0 or 1.0 - k_gain * x_max < 0.0:
        worst = k_gain * max(-x_min, x_max)
        raise InvalidParameterError(
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
    v_long, v_short = np.empty(n + 1), np.empty(n + 1)
    vl_out, vs_out = memoryview(v_long), memoryview(v_short)
    v_l = vl_out[0] = float(config.alpha * config.v0)
    v_s = vs_out[0] = float((1.0 - config.alpha) * config.v0)
    k = 0
    for x_k in memoryview(x):
        k += 1
        v_l = vl_out[k] = v_l + x_k * (k_gain * v_l)
        v_s = vs_out[k] = v_s - x_k * (k_gain * v_s)

    # An account that leaves double range stays inf or NaN at every later
    # stage, so the terminal values show whether any value overflowed.
    if not (math.isfinite(v_l) and math.isfinite(v_s)):
        raise DomainError(
            f"account value overflowed double precision on a path of length {n}"
        )

    return AccountTrajectory(_frozen_array(v_long), _frozen_array(v_short), k_gain, config.v0)


def _terminal_gains(config: ControllerConfig, x: np.ndarray) -> np.ndarray:
    """Terminal gain-loss for a batch of paths, one per row, drawn from the config's model.

    The config admits the gain and, with it, every path its model draws, so
    no return is checked here. Each step computes ``v + x * (K * v)`` with
    the same roundings as :func:`simulate`, so each row's gain equals
    simulate's bit for bit. The steps write into reused buffers; a
    stage-major (Fortran order) ``x`` makes every column read contiguous.
    The long and short accounts are the two rows of one array, so each stage
    costs three numpy calls whatever the number of paths.
    """
    alpha, k_gain, v0 = config.alpha, config.k_gain, config.v0
    rows = x.shape[0]
    accounts = np.empty((2, rows))
    accounts[0] = alpha * v0
    accounts[1] = (1.0 - alpha) * v0
    gains = np.array([[k_gain], [-k_gain]])
    step = np.empty((2, rows))
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN is refused below
        for k in range(x.shape[1]):
            np.multiply(accounts, gains, out=step)
            step *= x[:, k]
            accounts += step
    v_total = accounts[0] + accounts[1]
    if not np.all(np.isfinite(v_total)):
        raise DomainError("account value overflowed double precision")
    v_total -= v0
    return v_total


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
