"""The CLI's commands: what each one computes, and the one write step.

:mod:`longshort.cli` parses the flags and imports this module only once a
command is known to run, so the library and numpy load for commands alone.
Each command, named after its subcommand, takes the parsed flags and returns
a :class:`_Run`: its results, with any values it resolved in place of its
flags'. Four things are decided in one place each: how the outputs are
written (:func:`_write_all`), a gain fit (:func:`_fit`), what the manifest
records and where it goes (the rule beside ``_UNRECORDED``, which
:func:`write_run` applies), and a portfolio config's asset keys
(``_ASSET_KEYS``).
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
from dataclasses import asdict, dataclass, field
from functools import partial
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import __version__, analytics, dynamics, optimizer, portfolio, returns
from .errors import (
    DomainError,
    InputFileError,
    InvalidParameterError,
    OutputFileError,
    PortfolioAssetError,
)
from .montecarlo import estimate_gain_stats, sample_path

TOY_PRESET = {"mu": -0.1, "sigma": 0.15, "v0": 1.0, "target_std": 0.3, "stages": (10, 30, 60, 90)}
TSLA_PRESET = {"target_std": 0.08, "v0": 1.0}
THREE_STOCK_PRESET = {"target_stds": (0.08, 0.01, 0.02), "v0": 100.0}

# A manifest records the command (repro's with its preset) and, as its
# parameters, every parsed flag as the run resolved it (fits sample nothing,
# so they resolve n_paths to None), except the seed, which has its own key,
# and the output flags, whose files it lists. It sits at <stem>.manifest.json,
# the stem being --out or --out-prefix, else at manifest.json in --out-dir, and
# records the seed when the run reads a price file or samples paths: when it
# sets one of the _SEEDED_BY values.
_STEMS = ("out", "out_prefix")
_UNRECORDED = ("seed", *_STEMS, "out_dir", "trajectory_out")
_SEEDED_BY = ("prices", "train_prices", "portfolio_config", "n_paths")


@dataclass
class _Run:
    """What a command computed, for the write step to write and record."""

    outputs: list[tuple[str, Callable]]  # (path, write) pairs, listed in the manifest
    message: str
    values: dict = field(default_factory=dict)  # resolved values that replace the flags'


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _stage(target) -> str:
    """A new empty file beside ``target``, with the mode ``open(target, "w")`` would give it.

    Its name is as long as ``target``'s, so a name too long is refused here.
    """
    width = len(os.fsencode(os.path.basename(target)))
    for n in itertools.count():  # the first name free in the directory
        name = f".longshort-{os.getpid()}-{n}"
        staged = os.path.join(os.path.dirname(target), name.ljust(width - 4, "_") + ".tmp")
        with contextlib.suppress(FileExistsError):
            os.close(os.open(staged, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666))
            return staged


def _write_all(writes, out_dir=None) -> None:
    """Write every ``(path, write)`` of a run, or refuse and leave every file as it was.

    No path may be empty, an existing directory, or another path's file, nor
    may ``out_dir``, which is created first, be empty. Each write goes to a
    file staged beside its path's ``realpath`` (so a symlinked output is
    written through) under a name as long as the path's; once all have
    succeeded the staged files are renamed into place in order, the manifest
    last. An OS refusal is an ``OutputFileError`` naming the path; no staged
    file, and no directory the call created, outlives a refusal. A rename
    can then fail only if the directory changes under the run: the outputs
    renamed before it are removed, so none outlives its manifest.
    """
    if out_dir == "":  # os.path.join would put its files in the working directory
        raise OutputFileError("output directory path is empty")
    targets = []
    for path, _ in writes:
        if path == "":
            raise OutputFileError("output file path is empty")
        if os.path.isdir(path):
            raise OutputFileError(f"{path}: output file is an existing directory")
        target = os.path.realpath(path) + os.sep * path.endswith(os.sep)  # keep "dir/" refused
        if target in targets:
            raise OutputFileError(f"{path}: two outputs of the run name this file")
        targets.append(target)
    # What to remove unless every rename succeeds: the files, then the
    # directories made for out_dir, deepest first.
    undo, created, path, head = [], [], out_dir, out_dir
    while head and not os.path.lexists(head):
        created.append(head)
        head = os.path.dirname(head.rstrip(os.sep))
    try:
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
        for (path, write), target in zip(writes, targets):
            undo.append(_stage(target))
            write(undo[-1])
        for i, ((path, _), target) in enumerate(zip(writes, targets)):
            os.replace(undo[i], target)
            undo[i] = target
        undo.clear()
        created.clear()
    except OSError as exc:
        raise OutputFileError(f"{path}: cannot write output ({exc.strerror or exc})") from None
    finally:
        for remove, names in ((os.remove, undo), (os.rmdir, created)):
            for name in names:
                with contextlib.suppress(OSError):
                    remove(name)


def write_run(args, run: _Run) -> None:
    """Write the run's outputs and its manifest as one step, then print the summary line."""
    values = {**vars(args), **run.values}
    command = " ".join(values.pop(name) for name in ("command", "preset") if name in values)
    stem = next((values[name] for name in _STEMS if values.get(name) is not None), None)
    manifest_path = (
        f"{stem}.manifest.json" if stem is not None else os.path.join(args.out_dir, "manifest.json")
    )
    manifest = {
        "command": command,
        "parameters": {name: value for name, value in values.items() if name not in _UNRECORDED},
        "seed": args.seed if any(values.get(name) for name in _SEEDED_BY) else None,
        "outputs": [str(path) for path, _ in run.outputs],
        "tool_version": __version__,
    }
    outputs = [*run.outputs, (manifest_path, partial(_write_json, payload=manifest))]
    _write_all(outputs, getattr(args, "out_dir", None))
    print(run.message)


class _Model(NamedTuple):
    """The moments, gain ceiling and stage a command fits or traces at."""

    mu: float
    sigma2: float
    k_max: float
    stage: int
    model: returns.ReturnModel | None  # the price file's model; None for --mu/--sigma
    ticker: str | None


def _resolve_model(args, prices, price_column, stage=None) -> _Model:
    """The return model behind a command: a price file's PMF, or --mu/--sigma.

    A price file fixes mu, sigma2 and the gain ceiling min(1, 1/x_max), so
    the command's --mu, --sigma and --k-max are refused with it, before it
    is read; the stage defaults to its number of returns. Its PMF is refused
    for its support, before a fit reads its drift, volatility or stage. Moment
    flags need a stage, both moments and a nonnegative sigma; k_max defaults
    to the gain ceiling at x_max = mu + sigma. They name no law: the fits read
    (mu, sigma2) and k_max alone, and only ``simulate`` builds one from them.
    """
    moments = {name: getattr(args, name, None) for name in ("mu", "sigma", "k_max")}
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
                k_max = returns.gain_ceiling(mu + sigma)
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
    model = returns.ReturnModel.from_pmf(pmf)
    if stage is None:
        stage = len(series) - 1
    return _Model(model.mu, model.sigma2, model.k_max, stage, model, series.ticker)


def _fit(args, prices, price_column, target_std, v0, stage=None):
    """The closed-form fit under ``target_std``: (model, optimizer.OptimalGainResult).

    The tolerance is --tol; repro has no such flag and fits at the solver's
    default. A price file is refused for its support first, then for the
    fit's drift, volatility, stage and target.
    """
    fit = _resolve_model(args, prices, price_column, stage)
    return fit, optimizer.solve_optimal_gain(
        fit.mu, fit.sigma2, v0, fit.stage, fit.k_max, target_std,
        tol=getattr(args, "tol", optimizer.DEFAULT_TOL),
    )


def _result_payload(res: optimizer.OptimalGainResult) -> dict:
    return {"alpha": 0.5, **asdict(res)}


# --- the commands ---


def curve(args) -> _Run:
    fit = _resolve_model(args, args.prices, args.price_column, args.stage)
    curve = optimizer.build_curve(fit.mu, fit.sigma2, args.v0, fit.stage, fit.k_max, args.grid)
    return _Run(
        outputs=[(args.out, curve.write_csv)],
        message=f"wrote {args.out} ({args.grid} points, stage {args.stage})",
        values={"n_paths": None},
    )


def optimize(args) -> _Run:
    fit, res = _fit(args, args.prices, args.price_column, args.target_std, args.v0, args.stage)
    return _Run(
        outputs=[(args.out, partial(_write_json, payload=_result_payload(res)))],
        message=(
            f"k_star={res.k_star:.6f} achieved_std={res.achieved_std:.6f} "
            f"expected_gain={res.expected_gain:.6f}"
        ),
        values={"n_paths": None, "stage": fit.stage},
    )


def simulate(args) -> _Run:
    """Monte-Carlo gain statistics; moment flags are sampled as the two-point law
    {mu - sigma, mu + sigma}, refused unless -1 < mu - sigma < 0 < mu + sigma."""
    fit = _resolve_model(args, args.prices, args.price_column, args.stage)
    model = fit.model
    if model is None:
        model = returns.ReturnModel.from_moments(args.mu, args.sigma)
    est = estimate_gain_stats(
        model, args.alpha, args.k_gain, args.v0, args.stage, args.n_paths, args.seed
    )
    payload = {**asdict(est), "std": est.std, "std_error_of_mean": est.std_error_of_mean,
               "alpha": args.alpha, "k_gain": args.k_gain, "v0": args.v0}
    outputs = [(args.out, partial(_write_json, payload=payload))]
    if args.trajectory_out is not None:
        config = dynamics.ControllerConfig.for_model(
            model, alpha=args.alpha, k_gain=args.k_gain, v0=args.v0
        )
        sample = sample_path(model, args.stage, args.seed)
        outputs.append((args.trajectory_out, dynamics.simulate(config, sample).write_csv))
    return _Run(
        outputs=outputs,
        message=f"mean={est.mean:.6f} std={est.std:.6f} (n={est.n_paths}, seed={est.seed})",
    )


def _backtest_single(
    args, train_path, test_path, out_prefix: str, target_std: float, v0: float
) -> tuple[dict, list]:
    """Fit on the training file and replay the test file: (summary, outputs)."""
    fit, res = _fit(args, train_path, args.price_column, target_std, v0)

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


def backtest(args) -> _Run:
    if args.portfolio_config:
        for name in ("train_prices", "test_prices", "target_std"):
            if getattr(args, name) is not None:
                raise InvalidParameterError(
                    f"--{name.replace('_', '-')} conflicts with --portfolio-config: the config "
                    "lists every asset's price files and target"
                )
        v0, assets = _read_portfolio_config(args.portfolio_config, args)
        return _backtest_portfolio(args, args.portfolio_config, v0, assets, args.out_prefix)
    if not (args.train_prices and args.test_prices and args.target_std is not None):
        raise InvalidParameterError(
            "single-asset backtest needs --train-prices, --test-prices and --target-std"
        )
    summary, outputs = _backtest_single(
        args, args.train_prices, args.test_prices, args.out_prefix, args.target_std, args.v0
    )
    return _Run(
        outputs=outputs,
        message=(
            f"k_star={summary['fit']['k_star']:.6f} "
            f"terminal_gain={summary['terminal_gain']:.6f} "
            f"({100.0 * summary['terminal_return']:.2f}% on v0={args.v0})"
        ),
        values={"n_paths": None},
    )


_REQUIRED = object()
_FLAG = object()  # the default is the command's flag of the same name
_JSON_TYPES = {
    "number": ((int, float), "a number"),
    "string": (str, "a string"),
    "list": (list, "a list"),
}
# Each asset's keys in a portfolio config, in the order they are read: the
# JSON type and the default (_REQUIRED if there is none). An asset that names
# no price column reads --price-column's, as a config without "v0" takes --v0.
_ASSET_KEYS = {
    "train_prices": ("string", _REQUIRED),
    "test_prices": ("string", _REQUIRED),
    "target_std": ("number", _REQUIRED),
    "name": ("string", None),
    "price_column": ("string", _FLAG),
}


def _config_value(path, where: str, mapping: dict, key: str, kind: str, default=_REQUIRED):
    """``mapping[key]`` if it has JSON type ``kind``, a number as a float; else ``default``.

    An integer literal beyond double range is refused, as no float holds it.
    """
    if key not in mapping:
        if default is _REQUIRED:
            raise InputFileError(f"{path}: {where}missing key {key!r}")
        return default
    value = mapping[key]
    types, noun = _JSON_TYPES[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise InputFileError(f"{path}: {where}key {key!r} must be {noun}, got {value!r}")
    if kind != "number":
        return value
    try:
        return float(value)
    except OverflowError:
        raise InputFileError(
            f"{path}: {where}key {key!r} must be a number within double range"
        ) from None


def _read_portfolio_config(path, args) -> tuple[float, list[dict]]:
    """(v0, assets) from a portfolio JSON file, every key present and typed; a BOM is skipped."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise InputFileError(f"{path}: cannot read portfolio config ({exc.strerror})") from None
    except ValueError as exc:  # a JSON, Unicode or integer-length error
        raise InputFileError(f"{path}: malformed portfolio config ({exc})") from None
    if not isinstance(spec, dict):
        raise InputFileError(f"{path}: expected a JSON object, got {spec!r}")
    v0 = _config_value(path, "", spec, "v0", "number", args.v0)
    assets = []
    for i, asset in enumerate(_config_value(path, "", spec, "assets", "list")):
        where = f"asset {i}: "
        if not isinstance(asset, dict):
            raise InputFileError(f"{path}: {where}expected a JSON object, got {asset!r}")
        read = partial(_config_value, path, where, asset)
        assets.append({
            key: read(key, kind, getattr(args, key) if default is _FLAG else default)
            for key, (kind, default) in _ASSET_KEYS.items()
        })
    return v0, assets


def _backtest_portfolio(args, config_path, v0: float, assets: list[dict], out_prefix: str) -> _Run:
    """Fit every asset with capital v0/m on its training file, then replay the test files.

    A refusal raised for one asset is tagged with its index, as in
    ``portfolio.optimize_portfolio``. Each asset's label, its name or else its
    training file's stem, heads its trajectory column, so no two may be equal.
    Every asset is fitted at one stage and replayed in step, so each asset's
    training and test files must hold as many returns as asset 0's.
    """
    if not assets:
        raise InvalidParameterError(f"{config_path}: no assets listed")
    analytics.check_domain(v0=v0)
    names, fits, results, test_paths = [], [], [], []
    for i, asset in enumerate(assets):
        column = asset["price_column"]
        try:
            fit, res = _fit(
                args, asset["train_prices"], column, asset["target_std"], v0 / len(assets)
            )
            test = returns.load_prices_csv(asset["test_prices"], column=column)
        except DomainError as exc:
            raise PortfolioAssetError(i, str(exc)) from exc
        name = asset.get("name")
        name = fit.ticker if name is None else name
        if name in names:  # the trajectory header would repeat it, and a reader keeps one
            raise InputFileError(
                f"{config_path}: assets {names.index(name)} and {i} share the label {name!r}"
            )
        test_path = returns.returns_from_prices(test)
        if i and fit.stage != fits[0].stage:
            raise InvalidParameterError(
                f"{config_path}: assets 0 and {i} have {fits[0].stage} and {fit.stage} "
                "training returns"
            )
        if i and test_path.size != test_paths[0].size:
            raise InvalidParameterError(
                f"{config_path}: assets 0 and {i} have {test_paths[0].size} and {test_path.size} "
                "test returns"
            )
        names.append(name)
        fits.append(fit)
        results.append(res)
        test_paths.append(test_path)
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
        "train_stages": fits[0].stage,
        "test_stages": traj.n_stages,
        "seed": args.seed,
    }
    return _Run(
        outputs=[
            (f"{out_prefix}_trajectory.csv", partial(traj.write_csv, labels=names)),
            (f"{out_prefix}_summary.json", partial(_write_json, payload=summary)),
        ],
        message=(
            f"k_star={[round(r.k_star, 4) for r in results]} "
            f"terminal_gain={terminal_gain:.4f} max_leverage={summary['max_leverage_ratio']:.4f}"
        ),
        values={"n_paths": None, "v0": v0},
    )


def _repro_toy(args) -> _Run:
    p = TOY_PRESET  # fitted and traced from its moments, as optimize and curve are
    outputs, solutions = [], []
    for stage in p["stages"]:
        fit, res = _fit(SimpleNamespace(**p), None, None, p["target_std"], p["v0"], stage)
        curve = optimizer.build_curve(fit.mu, fit.sigma2, p["v0"], stage, fit.k_max, 200)
        outputs.append((os.path.join(args.out_dir, f"toy_curve_k{stage}.csv"), curve.write_csv))
        solutions.append({"stage": stage, **_result_payload(res)})
    parameters = dict(p, stages=list(p["stages"]))
    results = {"preset": "toy", "parameters": parameters, "solutions": solutions}
    outputs.append(
        (os.path.join(args.out_dir, "toy_results.json"), partial(_write_json, payload=results))
    )
    return _Run(
        outputs=outputs,
        message="\n".join(
            f"stage {sol['stage']:3d}: k_star={sol['k_star']:.3f} "
            f"expected_gain={sol['expected_gain']:.3f}"
            for sol in solutions
        ),
        values=parameters,
    )


def repro(args) -> _Run:
    preset = args.preset
    if preset == "toy":
        if args.train_prices or args.test_prices:
            raise InvalidParameterError(
                "repro toy takes no price files: --train-prices and --test-prices "
                "apply to tsla and three-stock"
            )
        return _repro_toy(args)
    n_files = 1 if preset == "tsla" else 3
    if len(args.train_prices or ()) != n_files or len(args.test_prices or ()) != n_files:
        raise InvalidParameterError(
            f"repro {preset} needs --train-prices and --test-prices "
            f"{'once' if n_files == 1 else 'three times'} each"
        )
    if preset == "tsla":
        p = TSLA_PRESET
        train, test = args.train_prices[0], args.test_prices[0]
        prefix = os.path.join(args.out_dir, "tsla")
        summary, outputs = _backtest_single(args, train, test, prefix, p["target_std"], p["v0"])
        return _Run(
            outputs=outputs,
            message=(
                f"k_star={summary['fit']['k_star']:.4f} "
                f"terminal_return={100.0 * summary['terminal_return']:.2f}%"
            ),
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
    run = _backtest_portfolio(args, config_path, p["v0"], assets, prefix)
    config = {"v0": p["v0"], "assets": assets}
    run.outputs.insert(0, (config_path, partial(_write_json, payload=config)))
    run.values = p  # repro has no --n-paths to resolve
    return run
