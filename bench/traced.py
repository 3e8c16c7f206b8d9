"""The traced pass: each command replayed in-process through the public library.

Each runner calls the same ``longshort`` functions, with the same arguments,
as the CLI subcommand it mirrors, and records a span around every call into a
library module. Nothing in ``longshort`` is patched: spans sit at the module
boundaries, so what happens inside one call (the bank draw and probes inside
a solve, say) is measured by the layer probes below, which call those layers
directly on the same inputs.

Spans stay in memory and are written out when the run ends. A layer's self
time is its span minus the time its child spans cover.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np
from longshort import analytics, dynamics, montecarlo, optimizer, portfolio, returns
from longshort.errors import LongShortError

from workloads import CLI_SEED, REPLAY_N_PATHS, TOY, TOY_K_MAX, Op

STD_GAIN_CALLS = 2_000
TOY_SIGMA2 = TOY["sigma"] * TOY["sigma"]  # as the CLI squares --sigma
PROBE_FRACTIONS = (1.0, 0.5, 0.25)  # K / k_max of a bisection's first probes


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None
    command: str | None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``command`` tags every span opened under it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.command: str | None = None

    @contextmanager
    def span(self, name: str):
        """Time the block; yields the span's counts dict for the caller to fill."""
        rec = Span(name, time.perf_counter(), None, self._open[-1] if self._open else None, self.command)
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec.counts
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def self_time(self, index: int) -> float:
        # Children of one span never overlap: the pass is single-threaded.
        return self.spans[index].duration - sum(s.duration for s in self.spans if s.parent == index)

    def write(self, fh, pass_no: int) -> None:
        """One JSON line per span, with its self time and the pass it belongs to."""
        for i, s in enumerate(self.spans):
            rec = {**asdict(s), "pass": pass_no, "self": self.self_time(i)}
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def run_op(tr: Tracer, op: Op, inputs: str, out: str) -> None:
    """Replay ``op`` in-process under a root span named after its kind."""
    tr.command = op.op_id
    try:
        with tr.span(f"cli.{op.kind}") as counts:
            try:
                _RUNNERS[op.kind](tr, op.params, inputs, os.path.join(out, op.op_id))
            except LongShortError as exc:  # the CLI would exit 3 or 4: record it
                counts["error"] = type(exc).__name__
    finally:
        tr.command = None


# --- one runner per op kind, mirroring the CLI subcommand ---


def _load(tr, path):
    with tr.span("returns.load_prices_csv") as c:
        series = returns.load_prices_csv(path)
        c["rows"] = len(series)
    return series


def _pmf(tr, series):
    with tr.span("returns.pmf_from_returns"):
        return returns.pmf_from_returns(returns.returns_from_prices(series))


def _solve_mc(tr, pmf, v0, stage, target, n_paths):
    with tr.span("optimizer.solve_optimal_gain_empirical") as c:
        res = optimizer.solve_optimal_gain_empirical(pmf, v0, stage, target, n_paths=n_paths, seed=CLI_SEED)
        c.update(probes=res.iterations + 1, banks=1, n_paths=n_paths, stage=stage)
    return res


def _write_curve(tr, curve, path):
    with tr.span("optimizer.curve_write_csv") as c:
        curve.write_csv(path)
        c["bytes"] = os.path.getsize(path)


def _optimize_prices(tr, p, inputs, out):
    series = _load(tr, os.path.join(inputs, p["prices"]))
    pmf = _pmf(tr, series)
    _solve_mc(tr, pmf, 1.0, len(series) - 1, p["target_std"], montecarlo.DEFAULT_N_PATHS)


def _curve_prices(tr, p, inputs, out):
    model = returns.ReturnModel.from_pmf(_pmf(tr, _load(tr, os.path.join(inputs, p["prices"]))))
    with tr.span("optimizer.build_curve_empirical") as c:
        curve = optimizer.build_curve_empirical(model, 1.0, p["stage"], p["grid"], montecarlo.DEFAULT_N_PATHS, CLI_SEED)
        c.update(points=p["grid"], probes=p["grid"], banks=1)
    _write_curve(tr, curve, out + ".csv")


def _simulate_prices(tr, p, inputs, out):
    model = returns.ReturnModel.from_pmf(_pmf(tr, _load(tr, os.path.join(inputs, p["prices"]))))
    est = _bank(tr, model, p["stage"], montecarlo.DEFAULT_N_PATHS)
    _probe(tr, est, p["k_gain"])


def _curve_moments(tr, p, inputs, out):
    with tr.span("optimizer.build_curve") as c:
        curve = optimizer.build_curve(TOY["mu"], TOY_SIGMA2, 1.0, p["stage"], TOY_K_MAX, p["grid"])
        c["points"] = p["grid"]
    _write_curve(tr, curve, out + ".csv")


def _solve_closed(tr, stage, target):
    with tr.span("optimizer.solve_optimal_gain") as c:
        res = optimizer.solve_optimal_gain(TOY["mu"], TOY_SIGMA2, 1.0, stage, TOY_K_MAX, target)
        c["probes"] = res.iterations + 1


def _optimize_moments(tr, p, inputs, out):
    _solve_closed(tr, p["stage"], p["target_std"])


def _repro_toy(tr, p, inputs, out):
    os.makedirs(out, exist_ok=True)
    for stage in (10, 30, 60, 90):
        with tr.span("optimizer.build_curve") as c:
            curve = optimizer.build_curve(TOY["mu"], TOY_SIGMA2, 1.0, stage, 1.0, 200)
            c["points"] = 200
        _write_curve(tr, curve, os.path.join(out, f"toy_curve_k{stage}.csv"))
        _solve_closed(tr, stage, 0.3)


def _backtest_single(tr, p, inputs, out):
    train = _load(tr, os.path.join(inputs, p["train"]))
    pmf = _pmf(tr, train)
    res = _solve_mc(tr, pmf, 1.0, len(train) - 1, p["target_std"], REPLAY_N_PATHS)
    test = _load(tr, os.path.join(inputs, p["test"]))
    with tr.span("returns.returns_from_prices"):
        test_returns = returns.returns_from_prices(test)
    config = dynamics.ControllerConfig.for_model(returns.ReturnModel.from_pmf(pmf), alpha=0.5, k_gain=res.k_star, v0=1.0)
    with tr.span("dynamics.simulate") as c:
        traj = dynamics.simulate(config, test_returns)
        c["stages"] = traj.n_stages
    with tr.span("dynamics.audit_cash_financing"):
        dynamics.audit_cash_financing(traj, res.k_star)
    with tr.span("dynamics.trajectory_write_csv"):
        traj.write_csv(out + "_trajectory.csv")


def _backtest_portfolio(tr, p, inputs, out):
    with open(os.path.join(inputs, p["config"]), encoding="utf-8") as fh:
        spec = json.load(fh)
    pmfs, paths, names = [], [], []
    for asset in spec["assets"]:
        train = _load(tr, os.path.join(inputs, asset["train_prices"]))
        pmfs.append((_pmf(tr, train), float(asset["target_std"])))
        test = _load(tr, os.path.join(inputs, asset["test_prices"]))
        with tr.span("returns.returns_from_prices"):
            paths.append(returns.returns_from_prices(test))
        names.append(asset["name"])
    stage = len(train) - 1
    with tr.span("portfolio.optimize_portfolio") as c:
        results = portfolio.optimize_portfolio(pmfs, spec["v0"], stage, n_paths=REPLAY_N_PATHS, seed=CLI_SEED)
        c.update(probes=sum(r.iterations + 1 for r in results), banks=len(results))
    config = portfolio.PortfolioConfig(
        assets=tuple((returns.ReturnModel.from_pmf(pmf), r.k_star) for (pmf, _), r in zip(pmfs, results)),
        v0=spec["v0"],
    )
    with tr.span("portfolio.run_portfolio") as c:
        traj = portfolio.run_portfolio(config, paths)
        c["stages"] = traj.n_stages * len(paths)
    with tr.span("portfolio.trajectory_write_csv"):
        traj.write_csv(out + "_trajectory.csv", labels=names)


_RUNNERS = {
    "optimize_prices": _optimize_prices,
    "curve_prices": _curve_prices,
    "simulate_prices": _simulate_prices,
    "curve_moments": _curve_moments,
    "optimize_moments": _optimize_moments,
    "repro_toy": _repro_toy,
    "backtest_single": _backtest_single,
    "backtest_portfolio": _backtest_portfolio,
}


# --- layer probes: direct calls into one layer, outside any command ---


def _bank(tr, model, stage, n_paths):
    with tr.span("montecarlo.McGainEstimator") as c:
        est = montecarlo.McGainEstimator(model, stage, n_paths, CLI_SEED)
        c.update(bytes=est.paths.nbytes, path_steps=n_paths * stage)
    return est


def _probe(tr, est, k_gain):
    with tr.span("montecarlo.estimate") as c:
        est.estimate(0.5, k_gain, 1.0)
        c["path_steps"] = est.n_paths * est.stage


def probe_layers(tr: Tracer, ops: list[Op], inputs: str) -> None:
    """Time the Monte-Carlo bank and probe, and one closed-form std call.

    Runs once per pass, for whichever of these layers the pass's commands
    use, on the inputs those commands use.
    """
    tr.command = "layer-probe"
    try:
        with tr.span("layer-probe"):
            _probe_layers(tr, ops, inputs)
    finally:
        tr.command = None


def _probe_layers(tr: Tracer, ops: list[Op], inputs: str) -> None:
    mc = next((op for op in ops if op.kind in ("optimize_prices", "backtest_single")), None)
    if mc is not None:
        n_paths = REPLAY_N_PATHS if mc.kind == "backtest_single" else montecarlo.DEFAULT_N_PATHS
        path = os.path.join(inputs, mc.params.get("prices") or mc.params["train"])
        series = returns.load_prices_csv(path)
        model = returns.ReturnModel.from_pmf(returns.pmf_from_returns(returns.returns_from_prices(series)))
        est = _bank(tr, model, len(series) - 1, n_paths)
        for frac in PROBE_FRACTIONS:
            _probe(tr, est, frac * model.k_max)
    if any(op.kind in ("curve_moments", "optimize_moments", "repro_toy") for op in ops):
        grid = np.linspace(1e-3, TOY_K_MAX, STD_GAIN_CALLS).tolist()
        with tr.span("analytics.std_gain") as c:
            for k in grid:
                analytics.std_gain(0.5, k, 250, TOY["mu"], TOY_SIGMA2, 1.0)
            c["calls"] = STD_GAIN_CALLS
