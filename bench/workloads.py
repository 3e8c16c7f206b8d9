"""Seeded inputs, command lists and output checks for the benchmark workloads.

Every input is generated here from the workload seed with the standard
library's ``random`` (its streams do not change between numpy versions), so
the program under test receives nothing but price CSVs, a portfolio JSON and
command-line flags.

Why the training return *multisets* are fixed per asset: a fit's accuracy
(how far K* lands from the budget, how well the reported std matches the
exact one) is a property of the PMF and of the CLI's own Monte-Carlo seed.
Drawing a fresh PMF per workload seed would turn ``budget_std_ratio`` into a
lottery whose spread across seeds exceeds any bound. So each asset's 125
training returns are drawn once from a constant stream, and the workload seed
picks their order, the start price and every out-of-sample path; files differ
byte for byte between seeds while the fitted PMF stays the same up to the
last-digit rounding of the printed prices.

For the same reason closed-form-scan uses the paper's worked example
(mu = -0.1, sigma = 0.15) at fixed grid sizes, and its seed only shuffles the
order of the commands: where the variance formula cancels at small gains depends
chaotically on the exact K values, and the defect has to show the same way in
every run.
"""

from __future__ import annotations

import datetime
import json
import math
import os
import random
import statistics
from dataclasses import dataclass, field

import oracle

CLI_SEED = 0  # the CLI's --seed; fixed so that fits depend only on the PMF
TRAIN_ROWS = 126  # half a trading year, as in the paper's studies
TEST_ROWS = 50_000
REPLAY_N_PATHS = 1_000
MC_N_PATHS = 50_000  # the CLI default, which empirical-fit leaves unset
TOY = {"mu": -0.1, "sigma": 0.15}
TOY_K_MAX = 1.0  # min(1, 1 / (mu + sigma)) for TOY
SCAN_GRID = 100_000
SCAN_CURVE_STAGES = (90, 250, 1000)
SCAN_BUDGETS = (1e-7, 1e-5, 1e-3, 0.03, 0.3)
SCAN_STAGES = (10, 90, 250, 1000)
RETURN_CLIP = 0.45  # keeps |K x| < 1 for every admissible gain
_TRAIN_STREAM = 20190102


@dataclass(frozen=True)
class Asset:
    """A synthetic instrument: heavy-tailed (Student t, 3 dof) daily returns."""

    name: str
    vol: float
    drift: float
    budget: float  # the std budget s used when fitting this asset


# Daily volatilities comparable to TSLA, MSFT and AMZN in 2019, plus a fourth
# asset for the multi-asset replay; budgets are the paper's 0.08, 0.01, 0.02.
ASSETS = (
    Asset("tsla", 0.035, -0.0008, 0.08),
    Asset("msft", 0.015, 0.0012, 0.01),
    Asset("amzn", 0.019, 0.0009, 0.02),
    Asset("nvda", 0.030, 0.0010, 0.05),
)


@dataclass(frozen=True)
class Op:
    """One CLI command of a pass: its kind, parameters and output stem."""

    op_id: str
    kind: str
    params: dict = field(hash=False)

    def argv(self, out_dir: str) -> list[str]:
        """Arguments after ``longshort``; inputs are named relative to the cwd."""
        p, out = self.params, os.path.join(out_dir, self.op_id)
        seed = ["--seed", str(CLI_SEED)]
        if self.kind == "optimize_prices":
            return ["optimize", "--prices", p["prices"], "--target-std", repr(p["target_std"]), *seed, "--out", f"{out}.json"]
        if self.kind == "curve_prices":
            return ["curve", "--prices", p["prices"], "--stage", str(p["stage"]), "--grid", str(p["grid"]), *seed, "--out", f"{out}.csv"]
        if self.kind == "simulate_prices":
            return ["simulate", "--prices", p["prices"], "--k-gain", repr(p["k_gain"]), "--stage", str(p["stage"]), *seed, "--out", f"{out}.json"]
        moments = ["--mu", repr(TOY["mu"]), "--sigma", repr(TOY["sigma"])]
        if self.kind == "curve_moments":
            return ["curve", *moments, "--stage", str(p["stage"]), "--grid", str(p["grid"]), "--out", f"{out}.csv"]
        if self.kind == "optimize_moments":
            return ["optimize", *moments, "--stage", str(p["stage"]), "--target-std", repr(p["target_std"]), "--out", f"{out}.json"]
        if self.kind == "repro_toy":
            return ["repro", "toy", "--out-dir", out]
        n_paths = ["--n-paths", str(REPLAY_N_PATHS)]
        if self.kind == "backtest_single":
            return ["backtest", "--train-prices", p["train"], "--test-prices", p["test"], "--target-std", repr(p["target_std"]), *n_paths, *seed, "--out-prefix", out]
        if self.kind == "backtest_portfolio":
            return ["backtest", "--portfolio-config", p["config"], *n_paths, *seed, "--out-prefix", out]
        raise ValueError(f"unknown op kind {self.kind!r}")


# --- input generation ---


def _t3(rng: random.Random) -> float:
    """A Student t draw with 3 degrees of freedom, scaled to unit variance."""
    return rng.gauss(0.0, 1.0) / math.sqrt(rng.gammavariate(1.5, 2.0) / 3.0) / math.sqrt(3.0)


def _clip(x: float) -> float:
    return max(-RETURN_CLIP, min(RETURN_CLIP, x))


def train_returns(asset: Asset) -> list[float]:
    """The asset's fixed multiset of TRAIN_ROWS - 1 training returns.

    Standardised, so that the sample has exactly the asset's drift and vol.
    """
    rng = random.Random(_TRAIN_STREAM + ASSETS.index(asset))
    draws = [_t3(rng) for _ in range(TRAIN_ROWS - 1)]
    mean, sd = statistics.fmean(draws), statistics.pstdev(draws)
    return [_clip(asset.drift + asset.vol * (x - mean) / sd) for x in draws]


def _write_prices(path: str, start: datetime.date, start_price: float, rets) -> None:
    price = start_price
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"date,adj_close\n{start.isoformat()},{price!r}\n")
        for i, r in enumerate(rets, start=1):
            price *= 1.0 + r
            fh.write(f"{(start + datetime.timedelta(days=i)).isoformat()},{price!r}\n")


def write_train_file(workdir: str, asset: Asset, seed: int) -> str:
    rng = random.Random(f"train/{asset.name}/{seed}")
    rets = train_returns(asset)
    rng.shuffle(rets)
    name = f"{asset.name}_train.csv"
    _write_prices(os.path.join(workdir, name), datetime.date(2019, 1, 2), rng.uniform(20.0, 400.0), rets)
    return name


def write_test_file(workdir: str, asset: Asset, seed: int) -> str:
    rng = random.Random(f"test/{asset.name}/{seed}")
    rets = (_clip(asset.vol * _t3(rng)) for _ in range(TEST_ROWS - 1))  # no drift over 50k days
    name = f"{asset.name}_test.csv"
    _write_prices(os.path.join(workdir, name), datetime.date(1900, 1, 1), rng.uniform(20.0, 400.0), rets)
    return name


def build_ops(workload: str, workdir: str, seed: int) -> list[Op]:
    """Write the workload's inputs into ``workdir`` and return one pass's commands."""
    if workload == "empirical-fit":
        train = {a.name: write_train_file(workdir, a, seed) for a in ASSETS[:3]}
        ops = [Op(f"opt_{a.name}", "optimize_prices", {"prices": train[a.name], "target_std": a.budget}) for a in ASSETS[:3]]
        stage = TRAIN_ROWS - 1
        ops.append(Op("curve_tsla", "curve_prices", {"prices": train["tsla"], "stage": stage, "grid": 20}))
        ops.append(Op("sim_tsla", "simulate_prices", {"prices": train["tsla"], "stage": stage, "k_gain": 0.5}))
        return ops
    if workload == "closed-form-scan":
        ops = [Op(f"curve_k{k}", "curve_moments", {"stage": k, "grid": SCAN_GRID}) for k in SCAN_CURVE_STAGES]
        ops += [
            Op(f"opt_k{k}_s{s:g}", "optimize_moments", {"stage": k, "target_std": s})
            for k in SCAN_STAGES
            for s in SCAN_BUDGETS
        ]
        ops.append(Op("repro_toy", "repro_toy", {}))
        random.Random(f"scan/{seed}").shuffle(ops)
        return ops
    if workload == "walk-forward-replay":
        train = {a.name: write_train_file(workdir, a, seed) for a in ASSETS}
        test = {a.name: write_test_file(workdir, a, seed) for a in ASSETS}
        config = {
            "v0": float(len(ASSETS)),  # one unit of capital per asset
            "assets": [
                {"name": a.name, "train_prices": train[a.name], "test_prices": test[a.name], "target_std": a.budget}
                for a in ASSETS
            ],
        }
        with open(os.path.join(workdir, "portfolio.json"), "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=2, sort_keys=True)
            fh.write("\n")
        tsla = ASSETS[0]
        return [
            Op("bt_tsla", "backtest_single", {"train": train["tsla"], "test": test["tsla"], "target_std": tsla.budget}),
            Op("bt_portfolio", "backtest_portfolio", {"config": "portfolio.json"}),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("empirical-fit", "closed-form-scan", "walk-forward-replay")


# --- output checks ---


class MissingOutput(Exception):
    """The command exited 0 but an output or manifest is absent or unparseable."""


class CheckFailed(Exception):
    """An output broke one of the structural checks."""


@dataclass(frozen=True)
class Fit:
    """A fitted gain, with what the exact oracle needs to judge it."""

    model: str  # a price file, or "toy" for the moment model
    k_star: float
    achieved_std: float
    target_std: float
    stage: int
    v0: float


@dataclass(frozen=True)
class Model:
    """What the checks know about a return model: exact moments, gain ceiling, train length."""

    moments: oracle.ExactMoments
    k_max: float
    n_returns: int


class Checker:
    """Checks command outputs in a pass directory and judges fits exactly.

    Price files are parsed once per run, and exact stds are cached: a pass
    repeats the same fits, and the rational arithmetic is not free.
    """

    def __init__(self, inputs_dir: str):
        self.inputs_dir = inputs_dir
        self._models: dict[str, Model] = {}
        self._std: dict[tuple, float] = {}

    def model(self, name: str) -> Model:
        if name not in self._models:
            if name == "toy":
                moments = oracle.moments_from_mu_sigma(TOY["mu"], TOY["sigma"])
                self._models[name] = Model(moments, TOY_K_MAX, 0)
            else:
                prices = read_prices(os.path.join(self.inputs_dir, name))
                rets = oracle.simple_returns(prices)
                k_max = min(1.0, 1.0 / max(rets))
                self._models[name] = Model(oracle.moments_from_returns(rets), k_max, len(rets))
        return self._models[name]

    def exact_std(self, model: str, k_gain: float, stage: int, v0: float) -> float:
        key = (model, k_gain, stage, v0)
        if key not in self._std:
            self._std[key] = oracle.exact_std(self.model(model).moments, k_gain, stage, v0)
        return self._std[key]

    def check(self, op: Op, pass_dir: str) -> list[Fit]:
        """Raise MissingOutput or CheckFailed, or return the op's fits."""
        return getattr(self, f"_check_{op.kind}")(op, pass_dir)

    # one method per op kind

    def _check_optimize_prices(self, op, d):
        name = op.params.get("prices", "toy")
        m = self.model(name)
        stage = op.params.get("stage", m.n_returns)  # --prices fits default to the train length
        res = _json(os.path.join(d, f"{op.op_id}.json"))
        _manifest(os.path.join(d, f"{op.op_id}.json.manifest.json"), "optimize")
        _expect(res.get("stage") == stage, f"stage {res.get('stage')} != {stage}")
        _expect(res.get("target_std") == op.params["target_std"], "target_std not echoed")
        return [_fit_from(res, name, m.k_max, 1.0)]

    _check_optimize_moments = _check_optimize_prices

    def _check_curve_prices(self, op, d):
        k_max = self.model(op.params["prices"]).k_max if "prices" in op.params else TOY_K_MAX
        _curve(os.path.join(d, f"{op.op_id}.csv"), op.params["grid"], k_max)
        _manifest(os.path.join(d, f"{op.op_id}.csv.manifest.json"), "curve")
        return []

    _check_curve_moments = _check_curve_prices

    def _check_simulate_prices(self, op, d):
        p = op.params
        res = _json(os.path.join(d, f"{op.op_id}.json"))
        _manifest(os.path.join(d, f"{op.op_id}.json.manifest.json"), "simulate")
        _expect(
            (res.get("n_paths"), res.get("stage"), res.get("seed")) == (MC_N_PATHS, p["stage"], CLI_SEED),
            "n_paths, stage or seed not echoed",
        )
        m = self.model(p["prices"]).moments
        exact_m = float(oracle.exact_mean(m, p["k_gain"], p["stage"]))
        exact_s = self.exact_std(p["prices"], p["k_gain"], p["stage"], 1.0)
        # Gross-error bounds on a Monte-Carlo answer: 6 standard errors for the
        # mean, 5 % for the std (the sampling error of the std is ~0.5 % here).
        _expect(abs(res["mean"] - exact_m) <= 6.0 * res["std_error_of_mean"], f"MC mean {res['mean']} vs exact {exact_m}")
        _expect(abs(res["std"] / exact_s - 1.0) <= 0.05, f"MC std {res['std']} vs exact {exact_s}")
        return []

    def _check_repro_toy(self, op, d):
        out = os.path.join(d, op.op_id)
        res = _json(os.path.join(out, "toy_results.json"))
        _manifest(os.path.join(out, "manifest.json"), "repro toy")
        sols = res.get("solutions", [])
        _expect([s.get("stage") for s in sols] == [10, 30, 60, 90], "toy stages")
        for s in sols:
            _curve(os.path.join(out, f"toy_curve_k{s['stage']}.csv"), 200, TOY_K_MAX)
        return [_fit_from(s, "toy", TOY_K_MAX, 1.0) for s in sols]

    def _check_backtest_single(self, op, d):
        p = op.params
        summary = _json(os.path.join(d, f"{op.op_id}_summary.json"))
        _manifest(os.path.join(d, f"{op.op_id}.manifest.json"), "backtest")
        m = self.model(p["train"])
        _expect(summary.get("train_stages") == m.n_returns, "train_stages")
        _expect(summary.get("test_stages") == TEST_ROWS - 1, "test_stages")
        _expect(summary.get("cash_financed") is True, "cash_financed is not true")
        last = _trajectory_last_row(os.path.join(d, f"{op.op_id}_trajectory.csv"))
        _expect(float(last[4]) == summary["terminal_gain"], "terminal gain differs from the trajectory")
        return [_fit_from(summary["fit"], p["train"], m.k_max, 1.0)]

    def _check_backtest_portfolio(self, op, d):
        summary = _json(os.path.join(d, f"{op.op_id}_summary.json"))
        _manifest(os.path.join(d, f"{op.op_id}.manifest.json"), "backtest")
        with open(os.path.join(self.inputs_dir, op.params["config"]), encoding="utf-8") as fh:
            config = json.load(fh)
        assets = summary.get("assets", [])
        _expect(len(assets) == len(config["assets"]), "one fit per asset")
        _expect(summary.get("test_stages") == TEST_ROWS - 1, "test_stages")
        per_asset_v0 = config["v0"] / len(config["assets"])
        fits = []
        for got, spec in zip(assets, config["assets"]):
            m = self.model(spec["train_prices"])
            _expect(got["fit"].get("stage") == m.n_returns, "fit stage")
            fits.append(_fit_from(got["fit"], spec["train_prices"], m.k_max, per_asset_v0))
        last = _trajectory_last_row(os.path.join(d, f"{op.op_id}_trajectory.csv"))
        _expect(float(last[-2]) == summary["terminal_gain"], "terminal gain differs from the trajectory")
        # Each asset commits at most K_i times its own account, so the total
        # commitment ratio cannot exceed the largest gain.
        k_top = max(f.k_star for f in fits)
        _expect(summary["max_leverage_ratio"] <= k_top + 1e-9, "portfolio commits more than its largest gain")
        return fits


def read_prices(path: str) -> list[float]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    col = lines[0].split(",").index("adj_close")
    return [float(line.split(",")[col]) for line in lines[1:]]


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise MissingOutput(f"{os.path.basename(path)}: {exc}") from None


def _manifest(path: str, command: str) -> None:
    got = _json(path).get("command")
    if got != command:
        raise MissingOutput(f"{os.path.basename(path)}: command {got!r}, expected {command!r}")


def _fit_from(res: dict, model: str, k_max: float, v0: float) -> Fit:
    try:
        k_star, achieved, target, stage = res["k_star"], res["achieved_std"], res["target_std"], res["stage"]
    except KeyError as exc:
        raise MissingOutput(f"fit lacks {exc}") from None
    _expect(0.0 <= k_star <= k_max, f"K*={k_star} outside [0, {k_max}]")
    return Fit(model, k_star, achieved, target, stage, v0)


def _curve(path: str, grid: int, k_max: float) -> None:
    # Streamed, like every check on a large output: the benchmark's own peak
    # RSS must stay below its children's (see run.run_cli).
    try:
        with open(path, encoding="utf-8") as fh:
            _expect(fh.readline() == "k_gain,std,mean\n", "curve header")
            rows, prev = 0, None
            for line in fh:
                k, std, _ = map(float, line.split(","))
                if prev is None:
                    _expect(k == 0.0, "gain grid does not start at 0")
                else:
                    _expect(k > prev[0], f"gain grid not increasing at K={k}")
                    _expect(std >= prev[1], f"std decreases in K at K={k} ({prev[1]!r} -> {std!r})")
                rows, prev = rows + 1, (k, std)
    except (OSError, ValueError) as exc:
        raise MissingOutput(f"{os.path.basename(path)}: {exc}") from None
    _expect(rows == grid, f"{rows} curve rows, expected {grid}")
    _expect(abs(prev[0] - k_max) <= 1e-12, "gain grid does not end at k_max")


def _trajectory_last_row(path: str) -> list[str]:
    lines, tail = 0, b""
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                lines += chunk.count(b"\n")
                tail = (tail + chunk)[-4096:]
    except OSError as exc:
        raise MissingOutput(f"{os.path.basename(path)}: {exc}") from None
    _expect(lines == TEST_ROWS + 1, "trajectory row count")  # header + one row per price
    return tail.rstrip(b"\n").rsplit(b"\n", 1)[-1].decode().split(",")
