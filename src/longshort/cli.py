"""Command-line interface.

Subcommands cover the full workflow: ``curve`` traces the (std, mean) plane
curve, ``optimize`` solves for the gain under a std budget, ``simulate``
Monte-Carlo-estimates gain statistics, ``backtest`` fits on one price
segment and replays another, and ``repro`` bundles the worked-example
parameter sets as named presets (price files are always user-supplied).

Every fit and curve is closed-form. The paper's expressions for E[G] and
Var[G] depend on the returns only through (mu, sigma2), so with ``--prices``
they are exact for independent draws from the empirical PMF: the price file
only decides where (mu, sigma2, k_max) come from. Only ``simulate`` samples
paths, streaming them through ``montecarlo.estimate_gain_stats`` so that no
path bank is held; ``--n-paths`` is accepted by the fitting commands and
ignored there. The library keeps the paper's Monte-Carlo procedures
(``solve_optimal_gain_empirical``, ``build_curve_empirical``,
``optimize_portfolio``) as cross-checks.

Scalar results go to JSON, series to CSV, and every run writes a manifest
recording the command, parameters, seed, and output paths, so any output can
be regenerated byte-for-byte. Exit codes: 0 success, 2 usage error, 3 domain
or precondition error (bad input, or an output path that cannot be written:
an empty path, a missing directory, or a file that is a directory), 4
internal-consistency violation (a bug, not bad input).

The default seed is 0, overridable by the LONGSHORT_SEED environment
variable and then by --seed. Commands given ``--prices`` or price files
record the resolved seed even where nothing is sampled.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import __version__, dynamics, optimizer, portfolio, returns
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


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to regenerate a command's outputs byte-for-byte."""

    command: str
    parameters: dict
    seed: int | None
    outputs: list[str]
    tool_version: str = __version__

    def write(self, path) -> None:
        payload = {
            "command": self.command,
            "parameters": self.parameters,
            "seed": self.seed,
            "outputs": self.outputs,
            "tool_version": self.tool_version,
        }
        _write_json(path, payload)


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


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise InvalidParameterError(f"{SEED_ENV_VAR}={raw!r} is not an integer") from None


def _load_pmf(path, column: str) -> tuple[returns.PriceSeries, returns.EmpiricalPMF]:
    series = returns.load_prices_csv(path, column=column)
    return series, returns.pmf_from_returns(returns.returns_from_prices(series))


def _fit_model(pmf: returns.EmpiricalPMF, stage: int, target_std: float) -> returns.ReturnModel:
    """The PMF's model, once the gain solve's domain checks pass.

    The checks come first, as in ``optimizer.solve_optimal_gain_empirical``:
    a flat or one-signed PMF is refused for its drift or volatility before
    its support bounds are.
    """
    optimizer._check_solve_domain(pmf.mean(), pmf.variance(), stage, target_std)
    return returns.ReturnModel.from_pmf(pmf)


def _model_from_args(args) -> returns.ReturnModel:
    """Build the return model from --prices or from --mu/--sigma."""
    if getattr(args, "prices", None):
        return returns.ReturnModel.from_pmf(_load_pmf(args.prices, args.price_column)[1])
    if args.mu is None or args.sigma is None:
        raise InvalidParameterError("supply either --prices or both --mu and --sigma")
    return returns.ReturnModel.from_moments(args.mu, args.sigma)


def _moments_from_args(args) -> tuple[float, float, float]:
    """(mu, sigma2, k_max) for closed-form commands, without forcing a model."""
    if args.mu is None or args.sigma is None:
        raise InvalidParameterError("supply either --prices or both --mu and --sigma")
    if args.k_max is not None:
        k_max = args.k_max
    elif args.sigma > 0.0 and args.mu + args.sigma > 0.0:
        k_max = min(1.0, 1.0 / (args.mu + args.sigma))
    else:
        k_max = 1.0  # degenerate moments pin no upper support bound
    return args.mu, args.sigma * args.sigma, k_max


def _refuse_k_max_with_prices(args) -> None:
    # With --prices the gain ceiling is the price data's min(1, 1/x_max); a
    # --k-max that no computation reads would still land in the manifest.
    if args.prices and args.k_max is not None:
        raise InvalidParameterError(
            "--k-max applies to --mu/--sigma only; with --prices the data fix the gain ceiling"
        )


def _result_payload(res: optimizer.OptimalGainResult) -> dict:
    return {
        "alpha": 0.5,
        "k_star": res.k_star,
        "achieved_std": res.achieved_std,
        "expected_gain": res.expected_gain,
        "target_std": res.target_std,
        "stage": res.stage,
        "iterations": res.iterations,
    }


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mu", type=float, help="mean per-period return")
    parser.add_argument("--sigma", type=float, help="std of per-period returns")
    parser.add_argument("--prices", help="price CSV; builds an empirical PMF instead of moments")
    parser.add_argument(
        "--price-column",
        default=returns.DEFAULT_PRICE_COLUMN,
        help=f"price column name (default {returns.DEFAULT_PRICE_COLUMN!r})",
    )
    parser.add_argument("--v0", type=float, default=1.0, help="initial account value")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (default 0 or $LONGSHORT_SEED)")


# --- subcommand implementations ---


def _cmd_curve(args) -> int:
    _refuse_k_max_with_prices(args)
    seed = args.seed if args.seed is not None else _default_seed()
    if args.prices:
        model = _model_from_args(args)
        mu, sigma2, k_max = model.mu, model.sigma2, model.k_max
    else:
        mu, sigma2, k_max = _moments_from_args(args)
    curve = optimizer.build_curve(mu, sigma2, args.v0, args.stage, k_max, args.grid)
    manifest_path = f"{args.out}.manifest.json"
    _check_output_dirs(args.out, files=(args.out, manifest_path))
    curve.write_csv(args.out)
    manifest = RunManifest(
        command="curve",
        parameters={
            "mu": args.mu,
            "sigma": args.sigma,
            "prices": args.prices,
            "price_column": args.price_column,
            "v0": args.v0,
            "stage": args.stage,
            "grid": args.grid,
            "k_max": args.k_max,
            "n_paths": None,
        },
        seed=seed if args.prices else None,
        outputs=[str(args.out)],
    )
    manifest.write(manifest_path)
    print(f"wrote {args.out} ({args.grid} points, stage {args.stage})")
    return EXIT_OK


def _cmd_optimize(args) -> int:
    _refuse_k_max_with_prices(args)
    seed = args.seed if args.seed is not None else _default_seed()
    if args.prices:
        series, pmf = _load_pmf(args.prices, args.price_column)
        stage = args.stage if args.stage is not None else len(series) - 1
        model = _fit_model(pmf, stage, args.target_std)
        mu, sigma2, k_max = model.mu, model.sigma2, model.k_max
    else:
        if args.stage is None:
            raise InvalidParameterError("--stage is required with moment flags")
        stage = args.stage
        mu, sigma2, k_max = _moments_from_args(args)
    tol = args.tol if args.tol is not None else optimizer.DEFAULT_TOL
    res = optimizer.solve_optimal_gain(
        mu, sigma2, args.v0, stage, k_max, args.target_std, tol=tol
    )
    payload = _result_payload(res)
    manifest_path = f"{args.out}.manifest.json"
    _check_output_dirs(args.out, files=(args.out, manifest_path))
    _write_json(args.out, payload)
    manifest = RunManifest(
        command="optimize",
        parameters={
            "mu": args.mu,
            "sigma": args.sigma,
            "prices": args.prices,
            "price_column": args.price_column,
            "v0": args.v0,
            "stage": stage,
            "target_std": args.target_std,
            "tol": tol,
            "k_max": args.k_max,
            "n_paths": None,
        },
        seed=seed if args.prices else None,
        outputs=[str(args.out)],
    )
    manifest.write(manifest_path)
    print(
        f"k_star={res.k_star:.6f} achieved_std={res.achieved_std:.6f} "
        f"expected_gain={res.expected_gain:.6f}"
    )
    return EXIT_OK


def _cmd_simulate(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    model = _model_from_args(args)
    est = estimate_gain_stats(
        model, args.alpha, args.k_gain, args.v0, args.stage, args.n_paths, seed
    )
    payload = {
        "mean": est.mean,
        "variance": est.variance,
        "std": est.std,
        "std_error_of_mean": est.std_error_of_mean,
        "n_paths": est.n_paths,
        "seed": est.seed,
        "stage": est.stage,
        "alpha": args.alpha,
        "k_gain": args.k_gain,
        "v0": args.v0,
    }
    manifest_path = f"{args.out}.manifest.json"
    _check_output_dirs(
        args.out, args.trajectory_out, files=(args.out, args.trajectory_out, manifest_path)
    )
    _write_json(args.out, payload)
    outputs = [str(args.out)]
    if args.trajectory_out:
        config = dynamics.ControllerConfig.for_model(
            model, alpha=args.alpha, k_gain=args.k_gain, v0=args.v0
        )
        sample = returns.sample_path(model, args.stage, seed)
        dynamics.simulate(config, sample).write_csv(args.trajectory_out)
        outputs.append(str(args.trajectory_out))
    manifest = RunManifest(
        command="simulate",
        parameters={
            "mu": args.mu,
            "sigma": args.sigma,
            "prices": args.prices,
            "price_column": args.price_column,
            "alpha": args.alpha,
            "k_gain": args.k_gain,
            "v0": args.v0,
            "stage": args.stage,
            "n_paths": args.n_paths,
        },
        seed=seed,
        outputs=outputs,
    )
    manifest.write(manifest_path)
    print(f"mean={est.mean:.6f} std={est.std:.6f} (n={est.n_paths}, seed={est.seed})")
    return EXIT_OK


def _backtest_single(
    train_path,
    test_path,
    price_column: str,
    target_std: float,
    v0: float,
    tol: float,
    seed: int,
    out_prefix: str,
    manifest_path: str,
) -> tuple[dict, list[str]]:
    """Fit on the training file, replay the test file, write trajectory and summary.

    ``manifest_path``, which the caller writes, is checked with the outputs.
    """
    train, pmf = _load_pmf(train_path, price_column)
    stage = len(train) - 1
    model = _fit_model(pmf, stage, target_std)
    res = optimizer.solve_optimal_gain(
        model.mu, model.sigma2, v0, stage, model.k_max, target_std, tol=tol
    )

    test_returns = returns.returns_from_prices(
        returns.load_prices_csv(test_path, column=price_column)
    )
    # Replay admissibility is checked against the realized test path by the
    # simulator itself; out-of-sample data may exceed the training support.
    config = dynamics.ControllerConfig.for_model(
        model, alpha=0.5, k_gain=res.k_star, v0=v0
    )
    traj = dynamics.simulate(config, test_returns)
    audit = dynamics.audit_cash_financing(traj, res.k_star)

    traj_path = f"{out_prefix}_trajectory.csv"
    summary_path = f"{out_prefix}_summary.json"
    _check_output_dirs(out_prefix, files=(traj_path, summary_path, manifest_path))
    traj.write_csv(traj_path)
    terminal_gain = float(traj.gain_loss[-1])
    summary = {
        "ticker": train.ticker,
        "fit": _result_payload(res),
        "train_stages": stage,
        "test_stages": int(test_returns.size),
        "terminal_gain": terminal_gain,
        "terminal_return": terminal_gain / v0,
        "max_control_ratio": audit.max_control_ratio,
        "cash_financed": audit.cash_financed,
        "v0": v0,
        "seed": seed,
    }
    _write_json(summary_path, summary)
    return summary, [traj_path, summary_path]


def _cmd_backtest(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    if args.portfolio_config:
        return _backtest_portfolio(args, seed)
    if not (args.train_prices and args.test_prices and args.target_std is not None):
        raise InvalidParameterError(
            "single-asset backtest needs --train-prices, --test-prices and --target-std"
        )
    tol = args.tol if args.tol is not None else optimizer.DEFAULT_TOL
    manifest_path = f"{args.out_prefix}.manifest.json"
    summary, outputs = _backtest_single(
        args.train_prices,
        args.test_prices,
        args.price_column,
        args.target_std,
        args.v0,
        tol,
        seed,
        args.out_prefix,
        manifest_path,
    )
    manifest = RunManifest(
        command="backtest",
        parameters={
            "train_prices": args.train_prices,
            "test_prices": args.test_prices,
            "price_column": args.price_column,
            "target_std": args.target_std,
            "v0": args.v0,
            "tol": tol,
            "n_paths": None,
        },
        seed=seed,
        outputs=outputs,
    )
    manifest.write(manifest_path)
    print(
        f"k_star={summary['fit']['k_star']:.6f} "
        f"terminal_gain={summary['terminal_gain']:.6f} "
        f"({100.0 * summary['terminal_return']:.2f}% on v0={args.v0})"
    )
    return EXIT_OK


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


def _backtest_portfolio(args, seed: int) -> int:
    v0, assets = _read_portfolio_config(args.portfolio_config, args.v0)
    if not assets:
        raise InvalidParameterError(f"{args.portfolio_config}: no assets listed")
    tol = args.tol if args.tol is not None else optimizer.DEFAULT_TOL

    names, pmfs, targets, test_paths_list, train_stages = [], [], [], [], []
    for asset in assets:
        column = asset["price_column"]
        train, pmf = _load_pmf(asset["train_prices"], column)
        train_stages.append(len(train) - 1)
        pmfs.append(pmf)
        targets.append(asset["target_std"])
        names.append(asset["name"] if asset["name"] is not None else train.ticker)
        test_paths_list.append(
            returns.returns_from_prices(returns.load_prices_csv(asset["test_prices"], column=column))
        )
    # Every asset is fitted at one stage, so the training series must agree.
    if len(set(train_stages)) != 1:
        raise LengthMismatchError(
            f"{args.portfolio_config}: training series have differing numbers of "
            f"returns {sorted(set(train_stages))}"
        )
    stage = train_stages[0]

    # Each asset is fitted on its own PMF with capital v0/m, refusals tagged
    # by asset as in portfolio.optimize_portfolio.
    if v0 <= 0.0:
        raise InvalidParameterError(f"v0 must be positive, got {v0}")
    models, results = [], []
    for i, (pmf, target_std) in enumerate(zip(pmfs, targets)):
        try:
            model = _fit_model(pmf, stage, target_std)
            res = optimizer.solve_optimal_gain(
                model.mu, model.sigma2, v0 / len(pmfs), stage, model.k_max, target_std, tol=tol
            )
        except DomainError as exc:
            raise PortfolioAssetError(i, str(exc)) from exc
        models.append(model)
        results.append(res)
    config = portfolio.PortfolioConfig(
        assets=tuple((model, res.k_star) for model, res in zip(models, results)),
        v0=v0,
    )
    traj = portfolio.run_portfolio(config, test_paths_list)

    traj_path = f"{args.out_prefix}_trajectory.csv"
    summary_path = f"{args.out_prefix}_summary.json"
    manifest_path = f"{args.out_prefix}.manifest.json"
    _check_output_dirs(args.out_prefix, files=(traj_path, summary_path, manifest_path))
    traj.write_csv(traj_path, labels=names)
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
        "train_stages": stage,
        "test_stages": traj.n_stages,
        "seed": seed,
    }
    _write_json(summary_path, summary)
    manifest = RunManifest(
        command="backtest",
        parameters={
            "portfolio_config": args.portfolio_config,
            "v0": v0,
            "tol": tol,
            "n_paths": None,
        },
        seed=seed,
        outputs=[traj_path, summary_path],
    )
    manifest.write(manifest_path)
    print(
        f"k_star={[round(r.k_star, 4) for r in results]} "
        f"terminal_gain={terminal_gain:.4f} max_leverage={summary['max_leverage_ratio']:.4f}"
    )
    return EXIT_OK


def _cmd_repro(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    if args.preset == "toy":
        return _repro_toy(args, seed)
    if args.preset == "tsla":
        return _repro_tsla(args, seed)
    return _repro_three_stock(args, seed)


def _repro_toy(args, seed: int) -> int:
    p = TOY_PRESET
    _make_out_dir(
        args.out_dir,
        *(f"toy_curve_k{stage}.csv" for stage in p["stages"]),
        "toy_results.json",
        "manifest.json",
    )
    sigma2 = p["sigma"] ** 2
    outputs = []
    solutions = []
    for stage in p["stages"]:
        curve = optimizer.build_curve(p["mu"], sigma2, p["v0"], stage, 1.0, 200)
        curve_path = os.path.join(args.out_dir, f"toy_curve_k{stage}.csv")
        curve.write_csv(curve_path)
        outputs.append(curve_path)
        res = optimizer.solve_optimal_gain(
            p["mu"], sigma2, p["v0"], stage, 1.0, p["target_std"]
        )
        solutions.append({"stage": stage, **_result_payload(res)})
    results_path = os.path.join(args.out_dir, "toy_results.json")
    _write_json(results_path, {"preset": "toy", "parameters": dict(p, stages=list(p["stages"])), "solutions": solutions})
    outputs.append(results_path)
    RunManifest(
        command="repro toy",
        parameters=dict(p, stages=list(p["stages"])),
        seed=None,
        outputs=outputs,
    ).write(os.path.join(args.out_dir, "manifest.json"))
    for sol in solutions:
        print(
            f"stage {sol['stage']:3d}: k_star={sol['k_star']:.3f} "
            f"expected_gain={sol['expected_gain']:.3f}"
        )
    return EXIT_OK


def _repro_tsla(args, seed: int) -> int:
    if not (args.train_prices and args.test_prices):
        raise InvalidParameterError("repro tsla needs --train-prices and --test-prices")
    p = TSLA_PRESET
    _make_out_dir(args.out_dir)
    prefix = os.path.join(args.out_dir, "tsla")
    summary, outputs = _backtest_single(
        args.train_prices[0],
        args.test_prices[0],
        args.price_column,
        p["target_std"],
        p["v0"],
        optimizer.DEFAULT_TOL,
        seed,
        prefix,
        os.path.join(args.out_dir, "manifest.json"),
    )
    RunManifest(
        command="repro tsla",
        parameters={
            "train_prices": args.train_prices[0],
            "test_prices": args.test_prices[0],
            "price_column": args.price_column,
            **p,
        },
        seed=seed,
        outputs=outputs,
    ).write(os.path.join(args.out_dir, "manifest.json"))
    print(
        f"k_star={summary['fit']['k_star']:.4f} "
        f"terminal_return={100.0 * summary['terminal_return']:.2f}%"
    )
    return EXIT_OK


def _repro_three_stock(args, seed: int) -> int:
    p = THREE_STOCK_PRESET
    if not (args.train_prices and args.test_prices) or len(args.train_prices) != 3 or len(
        args.test_prices
    ) != 3:
        raise InvalidParameterError(
            "repro three-stock needs --train-prices and --test-prices three times each"
        )
    _make_out_dir(
        args.out_dir,
        "three_stock_config.json",
        "three_stock_trajectory.csv",
        "three_stock_summary.json",
        "three_stock.manifest.json",
    )
    config = {
        "v0": p["v0"],
        "assets": [
            {
                "train_prices": train,
                "test_prices": test,
                "target_std": target,
                "price_column": args.price_column,
            }
            for train, test, target in zip(
                args.train_prices, args.test_prices, p["target_stds"]
            )
        ],
    }
    config_path = os.path.join(args.out_dir, "three_stock_config.json")
    _write_json(config_path, config)
    inner = argparse.Namespace(
        portfolio_config=config_path,
        v0=p["v0"],
        tol=None,
        seed=seed,
        out_prefix=os.path.join(args.out_dir, "three_stock"),
    )
    return _backtest_portfolio(inner, seed)


# --- parser wiring ---

_FIT_N_PATHS_HELP = "ignored: fits are exact from the return moments; paths apply to simulate only"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="longshort",
        description="Balanced double-linear long-short feedback trading tools",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_curve = sub.add_parser("curve", help="trace the (std, mean) curve over the gain grid")
    _add_model_flags(p_curve)
    p_curve.add_argument("--stage", type=int, required=True, help="target stage k")
    p_curve.add_argument("--grid", type=int, default=200, help="number of gain grid points")
    p_curve.add_argument(
        "--k-max", type=float, default=None,
        help="override the gain ceiling (moment flags only; refused with --prices)",
    )
    p_curve.add_argument("--n-paths", type=int, default=None, help=_FIT_N_PATHS_HELP)
    p_curve.add_argument("--out", default="curve.csv", help="output CSV path")
    p_curve.set_defaults(func=_cmd_curve)

    p_opt = sub.add_parser("optimize", help="solve for the gain under a std budget")
    _add_model_flags(p_opt)
    p_opt.add_argument("--target-std", type=float, required=True)
    p_opt.add_argument("--stage", type=int, default=None, help="target stage k (default: train length)")
    p_opt.add_argument(
        "--k-max", type=float, default=None,
        help="override the gain ceiling (moment flags only; refused with --prices)",
    )
    p_opt.add_argument("--tol", type=float, default=None)
    p_opt.add_argument("--n-paths", type=int, default=None, help=_FIT_N_PATHS_HELP)
    p_opt.add_argument("--out", default="optimal_gain.json")
    p_opt.set_defaults(func=_cmd_optimize)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo estimate of gain statistics")
    _add_model_flags(p_sim)
    p_sim.add_argument("--alpha", type=float, default=0.5)
    p_sim.add_argument("--k-gain", type=float, required=True)
    p_sim.add_argument("--stage", type=int, required=True)
    p_sim.add_argument(
        "--n-paths", type=int, default=DEFAULT_N_PATHS,
        help=f"Monte-Carlo paths (default {DEFAULT_N_PATHS})",
    )
    p_sim.add_argument("--out", default="mc_estimate.json")
    p_sim.add_argument(
        "--trajectory-out", default=None,
        help="also write one seeded sample path's account trajectory CSV",
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_back = sub.add_parser("backtest", help="fit on one price segment, replay another")
    p_back.add_argument("--train-prices", help="training price CSV (single asset)")
    p_back.add_argument("--test-prices", help="out-of-sample price CSV (single asset)")
    p_back.add_argument("--portfolio-config", help="JSON portfolio description (multi-asset)")
    p_back.add_argument("--target-std", type=float, default=None)
    p_back.add_argument(
        "--price-column",
        default=returns.DEFAULT_PRICE_COLUMN,
        help=f"price column name (default {returns.DEFAULT_PRICE_COLUMN!r})",
    )
    p_back.add_argument("--v0", type=float, default=1.0)
    p_back.add_argument("--tol", type=float, default=None)
    p_back.add_argument("--n-paths", type=int, default=None, help=_FIT_N_PATHS_HELP)
    p_back.add_argument("--seed", type=int, default=None)
    p_back.add_argument("--out-prefix", default="backtest")
    p_back.set_defaults(func=_cmd_backtest)

    p_repro = sub.add_parser("repro", help="run a named worked-example preset")
    p_repro.add_argument("preset", choices=["toy", "tsla", "three-stock"])
    p_repro.add_argument("--train-prices", action="append", help="price CSV (repeatable)")
    p_repro.add_argument("--test-prices", action="append", help="price CSV (repeatable)")
    p_repro.add_argument(
        "--price-column",
        default=returns.DEFAULT_PRICE_COLUMN,
        help=f"price column name (default {returns.DEFAULT_PRICE_COLUMN!r})",
    )
    p_repro.add_argument("--seed", type=int, default=None)
    p_repro.add_argument("--out-dir", default="repro_out")
    p_repro.set_defaults(func=_cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalConsistencyError as exc:
        print(f"internal consistency violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
