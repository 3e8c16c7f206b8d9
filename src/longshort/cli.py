"""Command-line interface.

Subcommands cover the full workflow: ``curve`` traces the (std, mean) plane
curve, ``optimize`` solves for the gain under a std budget, ``simulate``
Monte-Carlo-estimates gain statistics, ``backtest`` fits on one price
segment and replays another, and ``repro`` bundles the worked-example
parameter sets as named presets (price files are always user-supplied).

Every fit and curve is closed-form. The paper's expressions for E[G] and
Var[G] depend on the returns only through (mu, sigma2), so with ``--prices``
they are exact for independent draws from the empirical PMF: the price file
only decides where (mu, sigma2, k_max) come from, and ``--mu``, ``--sigma``
or ``--k-max`` given with it are refused. Only ``simulate`` samples
paths, streaming them through ``montecarlo.estimate_gain_stats`` so that no
path bank is held; ``--n-paths`` is accepted by the fitting commands and
ignored there. The library keeps the paper's Monte-Carlo procedures
(``solve_optimal_gain_empirical``, ``build_curve_empirical``,
``optimize_portfolio``) as cross-checks.

Each command computes its results and returns them, with the manifest
parameters named in the ``_MANIFESTS`` table, to one write step that checks
every output path and then writes outputs, manifest and summary line.

Scalar results go to JSON, series to CSV, and every run writes a manifest
recording the command, parameters, seed, and output paths, so any output can
be regenerated byte-for-byte. Exit codes: 0 success, 2 usage error, 3 domain
or precondition error (bad input, such as a number that is not finite, a
negative --sigma or a flag that conflicts with --prices, or an output path
that cannot be written: an empty path, a missing directory, or a file that
is a directory), 4 internal-consistency violation (a bug, not bad input).

The default seed is 0, overridable by the LONGSHORT_SEED environment
variable and then by --seed. Commands given ``--prices`` or price files
record the resolved seed even where nothing is sampled.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, NamedTuple

from . import __version__, analytics, dynamics, optimizer, portfolio, returns
from .errors import (
    ConfigKeyError,
    DomainError,
    InputFileError,
    InternalConsistencyError,
    InvalidParameterError,
    LengthMismatchError,
    OutputFileError,
    PortfolioAssetError,
)
from .montecarlo import DEFAULT_N_PATHS, estimate_gain_stats

SEED_ENV_VAR = "LONGSHORT_SEED"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_INTERNAL = 4

TOY_PRESET = {"mu": -0.1, "sigma": 0.15, "v0": 1.0, "target_std": 0.3, "stages": (10, 30, 60, 90)}
TSLA_PRESET = {"target_std": 0.08, "v0": 1.0}
THREE_STOCK_PRESET = {"target_stds": (0.08, 0.01, 0.02), "v0": 100.0}

# Each kind of run's manifest: its command name and the parameters it
# records, looked up in the values the run resolved and then in its flags.
# Fits are exact and sample nothing, so they resolve n_paths to None.
_MODEL_PARAMETERS = ("mu", "sigma", "prices", "price_column")
_MANIFESTS = {
    "curve": ("curve", (*_MODEL_PARAMETERS, "v0", "stage", "grid", "k_max", "n_paths")),
    "optimize": (
        "optimize",
        (*_MODEL_PARAMETERS, "v0", "stage", "target_std", "tol", "k_max", "n_paths"),
    ),
    "simulate": ("simulate", (*_MODEL_PARAMETERS, "alpha", "k_gain", "v0", "stage", "n_paths")),
    "backtest": (
        "backtest",
        ("train_prices", "test_prices", "price_column", "target_std", "v0", "tol", "n_paths"),
    ),
    "portfolio": ("backtest", ("portfolio_config", "v0", "tol", "n_paths")),
    "toy": ("repro toy", ("mu", "sigma", "v0", "target_std", "stages")),
    "tsla": ("repro tsla", ("train_prices", "test_prices", "price_column", "target_std", "v0")),
}


@dataclass
class _Run:
    """What a command computed, for the write step to write and record."""

    manifest: str  # a key of _MANIFESTS
    manifest_path: str
    outputs: list[tuple[str, Callable]]  # (path, write) pairs, listed in the manifest
    message: str
    seed: int | None
    values: dict = field(default_factory=dict)  # manifest values that replace the flags'


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_output_dirs(*paths, files=()) -> None:
    """Refuse outputs that cannot be written, before anything is written.

    Each of ``paths``, an output flag's value, must lie in an existing
    directory, and none of ``files``, the files the command writes, may be
    empty or an existing directory.
    """
    for path in paths:
        if path is None:
            continue
        parent = os.path.dirname(os.fspath(path))
        if parent and not os.path.isdir(parent):
            why = "is not a directory" if os.path.exists(parent) else "does not exist"
            raise OutputFileError(f"{path}: output directory {parent} {why}")
    for path in files:
        if path == "":
            raise OutputFileError("output file path is empty")
        if path is not None and os.path.isdir(path):
            raise OutputFileError(f"{path}: output file is an existing directory")


def _make_out_dir(out_dir, *names) -> None:
    """Create ``out_dir`` for the files ``names``, refusing first what cannot be written.

    ``out_dir`` must not be empty. It and its missing parents are created,
    so the nearest of them that exists must be a directory; if ``out_dir``
    exists, none of ``names`` may be a directory inside it.
    """
    existing = os.fspath(out_dir)
    if not existing:
        raise OutputFileError("output directory path is empty")
    while existing and not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if existing and not os.path.isdir(existing):
        raise OutputFileError(f"{out_dir}: output directory {existing} is not a directory")
    if os.path.isdir(out_dir):
        _check_output_dirs(files=[os.path.join(out_dir, name) for name in names])
    os.makedirs(out_dir, exist_ok=True)


def _write_run(args, run: _Run) -> int:
    """Check every output path, then write the outputs, the manifest and the summary line."""
    paths = [path for path, _ in run.outputs] + [run.manifest_path]
    if args.command == "repro":
        _make_out_dir(args.out_dir, *(os.path.basename(path) for path in paths))
    else:
        flags = [getattr(args, name, None) for name in ("out", "trajectory_out", "out_prefix")]
        _check_output_dirs(*flags, files=paths)
    for path, write in run.outputs:
        write(path)
    command, names = _MANIFESTS[run.manifest]
    values = {**vars(args), **run.values}
    manifest = {
        "command": command,
        "parameters": {name: values[name] for name in names},
        "seed": run.seed,
        "outputs": [str(path) for path, _ in run.outputs],
        "tool_version": __version__,
    }
    _write_json(run.manifest_path, manifest)
    print(run.message)
    return EXIT_OK


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(raw)
    except ValueError:
        raise InvalidParameterError(f"{SEED_ENV_VAR}={raw!r} is not an integer") from None


class _Model(NamedTuple):
    """The moments, gain ceiling and stage a command fits or traces at."""

    mu: float
    sigma2: float
    k_max: float
    stage: int
    model: returns.ReturnModel | None  # the price file's model; None for --mu/--sigma
    ticker: str | None


def _resolve_model(prices, price_column, stage=None, target_std=None, flags=None) -> _Model:
    """The return model behind a command: a price file's PMF, or --mu/--sigma.

    ``flags`` are the parsed flags of a command that takes moment flags.
    A price file fixes mu, sigma2 and the gain ceiling min(1, 1/x_max), so
    --mu, --sigma and --k-max are refused with it, before it is read; the
    stage defaults to its number of returns. Given a ``target_std``, the
    gain solve's domain checks run before the model is built, so that a flat
    or one-signed PMF is refused for its drift or volatility before its
    support bounds are. Moment flags need a stage, both moments and a
    nonnegative sigma; k_max defaults to min(1, 1/(mu + sigma)).
    """
    moments = {name: getattr(flags, name, None) for name in ("mu", "sigma", "k_max")}
    if prices is None:
        mu, sigma, k_max = moments.values()
        if stage is None:
            raise InvalidParameterError("--stage is required with moment flags")
        if mu is None or sigma is None:
            raise InvalidParameterError("supply either --prices or both --mu and --sigma")
        if not sigma >= 0.0:
            raise InvalidParameterError(f"--sigma must be nonnegative, got {sigma}")
        if k_max is None:
            if sigma > 0.0 and mu + sigma > 0.0:
                k_max = min(1.0, 1.0 / (mu + sigma))
            else:
                k_max = 1.0  # degenerate moments pin no upper support bound
        return _Model(mu, sigma * sigma, k_max, stage, None, None)
    for name, value in moments.items():
        if value is not None:
            raise InvalidParameterError(
                f"--{name.replace('_', '-')} conflicts with --prices: the price data fix the "
                "moments and the gain ceiling"
            )
    series = returns.load_prices_csv(prices, column=price_column)
    pmf = returns.pmf_from_returns(returns.returns_from_prices(series))
    if stage is None:
        stage = len(series) - 1
    if target_std is not None:
        optimizer._check_solve_domain(pmf.mean(), pmf.variance(), stage, target_std)
    model = returns.ReturnModel.from_pmf(pmf)
    return _Model(model.mu, model.sigma2, model.k_max, stage, model, series.ticker)


def _result_payload(res: optimizer.OptimalGainResult) -> dict:
    return {"alpha": 0.5, **asdict(res)}


# --- subcommand implementations ---


def _cmd_curve(args) -> _Run:
    fit = _resolve_model(args.prices, args.price_column, args.stage, flags=args)
    curve = optimizer.build_curve(fit.mu, fit.sigma2, args.v0, fit.stage, fit.k_max, args.grid)
    return _Run(
        manifest="curve",
        manifest_path=f"{args.out}.manifest.json",
        outputs=[(args.out, curve.write_csv)],
        message=f"wrote {args.out} ({args.grid} points, stage {args.stage})",
        seed=args.seed if args.prices else None,
        values={"n_paths": None},
    )


def _cmd_optimize(args) -> _Run:
    fit = _resolve_model(args.prices, args.price_column, args.stage, args.target_std, flags=args)
    tol = args.tol if args.tol is not None else optimizer.DEFAULT_TOL
    res = optimizer.solve_optimal_gain(
        fit.mu, fit.sigma2, args.v0, fit.stage, fit.k_max, args.target_std, tol=tol
    )
    return _Run(
        manifest="optimize",
        manifest_path=f"{args.out}.manifest.json",
        outputs=[(args.out, partial(_write_json, payload=_result_payload(res)))],
        message=(
            f"k_star={res.k_star:.6f} achieved_std={res.achieved_std:.6f} "
            f"expected_gain={res.expected_gain:.6f}"
        ),
        seed=args.seed if args.prices else None,
        values={"n_paths": None, "stage": fit.stage, "tol": tol},
    )


def _cmd_simulate(args) -> _Run:
    fit = _resolve_model(args.prices, args.price_column, args.stage, flags=args)
    model = fit.model
    if model is None:
        model = returns.ReturnModel.from_moments(args.mu, args.sigma)
    est = estimate_gain_stats(
        model, args.alpha, args.k_gain, args.v0, args.stage, args.n_paths, args.seed
    )
    payload = {**asdict(est), "alpha": args.alpha, "k_gain": args.k_gain, "v0": args.v0}
    outputs = [(args.out, partial(_write_json, payload=payload))]
    if args.trajectory_out is not None:
        config = dynamics.ControllerConfig.for_model(
            model, alpha=args.alpha, k_gain=args.k_gain, v0=args.v0
        )
        sample = returns.sample_path(model, args.stage, args.seed)
        outputs.append((args.trajectory_out, dynamics.simulate(config, sample).write_csv))
    return _Run(
        manifest="simulate",
        manifest_path=f"{args.out}.manifest.json",
        outputs=outputs,
        message=f"mean={est.mean:.6f} std={est.std:.6f} (n={est.n_paths}, seed={est.seed})",
        seed=args.seed,
    )


def _backtest_single(
    args, train_path, test_path, out_prefix: str, target_std: float, v0: float, tol: float
) -> tuple[dict, list]:
    """Fit on the training file and replay the test file: (summary, outputs)."""
    fit = _resolve_model(train_path, args.price_column, target_std=target_std)
    res = optimizer.solve_optimal_gain(
        fit.mu, fit.sigma2, v0, fit.stage, fit.k_max, target_std, tol=tol
    )

    test_returns = returns.returns_from_prices(
        returns.load_prices_csv(test_path, column=args.price_column)
    )
    # Replay admissibility is checked against the realized test path by the
    # simulator itself; out-of-sample data may exceed the training support.
    config = dynamics.ControllerConfig.for_model(
        fit.model, alpha=0.5, k_gain=res.k_star, v0=v0
    )
    traj = dynamics.simulate(config, test_returns)
    audit = dynamics.audit_cash_financing(traj, res.k_star)

    terminal_gain = float(traj.gain_loss[-1])
    summary = {
        "ticker": fit.ticker,
        "fit": _result_payload(res),
        "train_stages": fit.stage,
        "test_stages": int(test_returns.size),
        "terminal_gain": terminal_gain,
        "terminal_return": terminal_gain / v0,
        "max_control_ratio": audit.max_control_ratio,
        "cash_financed": audit.cash_financed,
        "v0": v0,
        "seed": args.seed,
    }
    outputs = [
        (f"{out_prefix}_trajectory.csv", traj.write_csv),
        (f"{out_prefix}_summary.json", partial(_write_json, payload=summary)),
    ]
    return summary, outputs


def _cmd_backtest(args) -> _Run:
    tol = args.tol if args.tol is not None else optimizer.DEFAULT_TOL
    if args.portfolio_config:
        v0, assets = _read_portfolio_config(args.portfolio_config, args.v0)
        return _backtest_portfolio(args, args.portfolio_config, v0, assets, tol, args.out_prefix)
    if not (args.train_prices and args.test_prices and args.target_std is not None):
        raise InvalidParameterError(
            "single-asset backtest needs --train-prices, --test-prices and --target-std"
        )
    summary, outputs = _backtest_single(
        args, args.train_prices, args.test_prices, args.out_prefix, args.target_std, args.v0, tol
    )
    return _Run(
        manifest="backtest",
        manifest_path=f"{args.out_prefix}.manifest.json",
        outputs=outputs,
        message=(
            f"k_star={summary['fit']['k_star']:.6f} "
            f"terminal_gain={summary['terminal_gain']:.6f} "
            f"({100.0 * summary['terminal_return']:.2f}% on v0={args.v0})"
        ),
        seed=args.seed,
        values={"n_paths": None, "tol": tol},
    )


_REQUIRED = object()
_JSON_TYPES = {
    "number": ((int, float), "a number"),
    "string": (str, "a string"),
    "list": (list, "a list"),
}


def _config_value(path, where: str, mapping: dict, key: str, kind: str, default=_REQUIRED):
    """``mapping[key]`` if it has JSON type ``kind``; ``default`` if absent and optional."""
    if key not in mapping:
        if default is _REQUIRED:
            raise ConfigKeyError(f"{path}: {where}missing key {key!r}")
        return default
    value = mapping[key]
    types, noun = _JSON_TYPES[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigKeyError(f"{path}: {where}key {key!r} must be {noun}, got {value!r}")
    return value


def _read_portfolio_config(path, default_v0: float) -> tuple[float, list[dict]]:
    """(v0, assets) from a portfolio JSON file, every key present and typed."""
    try:
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise InputFileError(f"{path}: cannot read portfolio config ({exc.strerror})") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputFileError(f"{path}: malformed portfolio config ({exc})") from None
    if not isinstance(spec, dict):
        raise ConfigKeyError(f"{path}: expected a JSON object, got {spec!r}")
    v0 = float(_config_value(path, "", spec, "v0", "number", default_v0))
    assets = []
    for i, asset in enumerate(_config_value(path, "", spec, "assets", "list")):
        where = f"asset {i}: "
        if not isinstance(asset, dict):
            raise ConfigKeyError(f"{path}: {where}expected a JSON object, got {asset!r}")
        assets.append(
            {
                "train_prices": _config_value(path, where, asset, "train_prices", "string"),
                "test_prices": _config_value(path, where, asset, "test_prices", "string"),
                "target_std": float(_config_value(path, where, asset, "target_std", "number")),
                "name": _config_value(path, where, asset, "name", "string", None),
                "price_column": _config_value(
                    path, where, asset, "price_column", "string", returns.DEFAULT_PRICE_COLUMN
                ),
            }
        )
    return v0, assets


def _backtest_portfolio(
    args, config_path, v0: float, assets: list[dict], tol: float, out_prefix: str
) -> _Run:
    """Fit every asset with capital v0/m on its training file, then replay the test files.

    A refusal raised for one asset is tagged with its index, as in
    ``portfolio.optimize_portfolio``.
    """
    if not assets:
        raise InvalidParameterError(f"{config_path}: no assets listed")
    analytics.check_domain(v0=v0)
    names, fits, results, test_paths = [], [], [], []
    for i, asset in enumerate(assets):
        column, target_std = asset["price_column"], asset["target_std"]
        try:
            fit = _resolve_model(asset["train_prices"], column, target_std=target_std)
            res = optimizer.solve_optimal_gain(
                fit.mu, fit.sigma2, v0 / len(assets), fit.stage, fit.k_max, target_std, tol=tol
            )
            test = returns.load_prices_csv(asset["test_prices"], column=column)
        except DomainError as exc:
            raise PortfolioAssetError(i, str(exc)) from exc
        name = asset.get("name")
        names.append(fit.ticker if name is None else name)
        fits.append(fit)
        results.append(res)
        test_paths.append(returns.returns_from_prices(test))
    # Every asset is fitted at one stage, so the training series must agree.
    stages = sorted({fit.stage for fit in fits})
    if len(stages) != 1:
        raise LengthMismatchError(
            f"{config_path}: training series have differing numbers of returns {stages}"
        )
    config = portfolio.PortfolioConfig(
        assets=tuple((fit.model, res.k_star) for fit, res in zip(fits, results)),
        v0=v0,
    )
    traj = portfolio.run_portfolio(config, test_paths)

    terminal_gain = float(traj.total_gain_loss[-1])
    summary = {
        "assets": [
            {"name": name, "fit": _result_payload(res)}
            for name, res in zip(names, results)
        ],
        "terminal_gain": terminal_gain,
        "terminal_return": terminal_gain / v0,
        "max_leverage_ratio": float(traj.leverage.max()),
        "v0": v0,
        "train_stages": stages[0],
        "test_stages": traj.n_stages,
        "seed": args.seed,
    }
    return _Run(
        manifest="portfolio",
        manifest_path=f"{out_prefix}.manifest.json",
        outputs=[
            (f"{out_prefix}_trajectory.csv", partial(traj.write_csv, labels=names)),
            (f"{out_prefix}_summary.json", partial(_write_json, payload=summary)),
        ],
        message=(
            f"k_star={[round(r.k_star, 4) for r in results]} "
            f"terminal_gain={terminal_gain:.4f} max_leverage={summary['max_leverage_ratio']:.4f}"
        ),
        seed=args.seed,
        values={"n_paths": None, "portfolio_config": config_path, "v0": v0, "tol": tol},
    )


def _repro_toy(args) -> _Run:
    p = TOY_PRESET
    sigma2 = p["sigma"] ** 2
    outputs = []
    solutions = []
    for stage in p["stages"]:
        curve = optimizer.build_curve(p["mu"], sigma2, p["v0"], stage, 1.0, 200)
        outputs.append((os.path.join(args.out_dir, f"toy_curve_k{stage}.csv"), curve.write_csv))
        res = optimizer.solve_optimal_gain(
            p["mu"], sigma2, p["v0"], stage, 1.0, p["target_std"]
        )
        solutions.append({"stage": stage, **_result_payload(res)})
    parameters = dict(p, stages=list(p["stages"]))
    results = {"preset": "toy", "parameters": parameters, "solutions": solutions}
    outputs.append(
        (os.path.join(args.out_dir, "toy_results.json"), partial(_write_json, payload=results))
    )
    return _Run(
        manifest="toy",
        manifest_path=os.path.join(args.out_dir, "manifest.json"),
        outputs=outputs,
        message="\n".join(
            f"stage {sol['stage']:3d}: k_star={sol['k_star']:.3f} "
            f"expected_gain={sol['expected_gain']:.3f}"
            for sol in solutions
        ),
        seed=None,
        values=parameters,
    )


def _cmd_repro(args) -> _Run:
    if args.preset == "toy":
        if args.train_prices or args.test_prices:
            raise InvalidParameterError(
                "repro toy takes no price files: --train-prices and --test-prices "
                "apply to tsla and three-stock"
            )
        return _repro_toy(args)
    n_files = 1 if args.preset == "tsla" else 3
    if len(args.train_prices or ()) != n_files or len(args.test_prices or ()) != n_files:
        raise InvalidParameterError(
            f"repro {args.preset} needs --train-prices and --test-prices "
            f"{'once' if n_files == 1 else 'three times'} each"
        )
    if args.preset == "tsla":
        p = TSLA_PRESET
        train, test = args.train_prices[0], args.test_prices[0]
        prefix = os.path.join(args.out_dir, "tsla")
        summary, outputs = _backtest_single(
            args, train, test, prefix, p["target_std"], p["v0"], optimizer.DEFAULT_TOL
        )
        return _Run(
            manifest="tsla",
            manifest_path=os.path.join(args.out_dir, "manifest.json"),
            outputs=outputs,
            message=(
                f"k_star={summary['fit']['k_star']:.4f} "
                f"terminal_return={100.0 * summary['terminal_return']:.2f}%"
            ),
            seed=args.seed,
            values={"train_prices": train, "test_prices": test, **p},
        )
    # three-stock: the portfolio backtest, its config written first as three_stock_config.json
    p = THREE_STOCK_PRESET
    assets = [
        {
            "train_prices": train,
            "test_prices": test,
            "target_std": target,
            "price_column": args.price_column,
        }
        for train, test, target in zip(args.train_prices, args.test_prices, p["target_stds"])
    ]
    config_path = os.path.join(args.out_dir, "three_stock_config.json")
    prefix = os.path.join(args.out_dir, "three_stock")
    run = _backtest_portfolio(args, config_path, p["v0"], assets, optimizer.DEFAULT_TOL, prefix)
    config = {"v0": p["v0"], "assets": assets}
    run.outputs.insert(0, (config_path, partial(_write_json, payload=config)))
    return run


# --- parser wiring ---

_FIT_N_PATHS_HELP = "ignored: fits are exact from the return moments; paths apply to simulate only"

# Every shared flag, declared once. A subcommand lists the flags it takes,
# each by name or as (name, keywords), the keywords replacing the shared ones.
_FLAGS = {
    "--mu": {"type": float, "help": "mean per-period return"},
    "--sigma": {"type": float, "help": "std of per-period returns"},
    "--prices": {"help": "price CSV; builds an empirical PMF instead of moments"},
    "--price-column": {
        "default": returns.DEFAULT_PRICE_COLUMN,
        "help": f"price column name (default {returns.DEFAULT_PRICE_COLUMN!r})",
    },
    "--v0": {"type": float, "default": 1.0, "help": "initial account value"},
    "--seed": {"type": int, "help": "RNG seed (default 0 or $LONGSHORT_SEED)"},
    "--k-max": {
        "type": float,
        "help": "override the gain ceiling (moment flags only; refused with --prices)",
    },
    "--tol": {"type": float},
    "--n-paths": {"type": int, "help": _FIT_N_PATHS_HELP},
}
_MODEL_FLAGS = ("--mu", "--sigma", "--prices", "--price-column", "--v0", "--seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="longshort",
        description="Balanced double-linear long-short feedback trading tools",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    subcommands = (
        ("curve", "trace the (std, mean) curve over the gain grid", _cmd_curve, (
            *_MODEL_FLAGS,
            ("--stage", {"type": int, "required": True, "help": "target stage k"}),
            ("--grid", {"type": int, "default": 200, "help": "number of gain grid points"}),
            "--k-max",
            "--n-paths",
            ("--out", {"default": "curve.csv", "help": "output CSV path"}),
        )),
        ("optimize", "solve for the gain under a std budget", _cmd_optimize, (
            *_MODEL_FLAGS,
            ("--target-std", {"type": float, "required": True}),
            ("--stage", {"type": int, "help": "target stage k (default: train length)"}),
            "--k-max",
            "--tol",
            "--n-paths",
            ("--out", {"default": "optimal_gain.json"}),
        )),
        ("simulate", "Monte-Carlo estimate of gain statistics", _cmd_simulate, (
            *_MODEL_FLAGS,
            ("--alpha", {"type": float, "default": 0.5}),
            ("--k-gain", {"type": float, "required": True}),
            ("--stage", {"type": int, "required": True}),
            ("--n-paths", {
                "default": DEFAULT_N_PATHS,
                "help": f"Monte-Carlo paths (default {DEFAULT_N_PATHS})",
            }),
            ("--out", {"default": "mc_estimate.json"}),
            ("--trajectory-out", {
                "help": "also write one seeded sample path's account trajectory CSV",
            }),
        )),
        ("backtest", "fit on one price segment, replay another", _cmd_backtest, (
            ("--train-prices", {"help": "training price CSV (single asset)"}),
            ("--test-prices", {"help": "out-of-sample price CSV (single asset)"}),
            ("--portfolio-config", {"help": "JSON portfolio description (multi-asset)"}),
            ("--target-std", {"type": float}),
            "--price-column",
            ("--v0", {"help": None}),
            "--tol",
            "--n-paths",
            ("--seed", {"help": None}),
            ("--out-prefix", {"default": "backtest"}),
        )),
        ("repro", "run a named worked-example preset", _cmd_repro, (
            ("preset", {"choices": ["toy", "tsla", "three-stock"]}),
            ("--train-prices", {"action": "append", "help": "price CSV (repeatable)"}),
            ("--test-prices", {"action": "append", "help": "price CSV (repeatable)"}),
            "--price-column",
            ("--seed", {"help": None}),
            ("--out-dir", {"default": "repro_out"}),
        )),
    )
    for name, help_text, func, flags in subcommands:
        p_sub = sub.add_parser(name, help=help_text)
        for flag in flags:
            flag, keywords = (flag, {}) if isinstance(flag, str) else flag
            p_sub.add_argument(flag, **{**_FLAGS.get(flag, {}), **keywords})
        p_sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is None:
            args.seed = _default_seed()
        return _write_run(args, args.func(args))
    except InternalConsistencyError as exc:
        print(f"internal consistency violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
