"""A seeded sweep of the CLI's exit codes over its whole domain.

``N_CASES`` in-process ``cli.main`` calls draw ``optimize``, ``curve``,
``simulate``, ``backtest`` and ``repro`` arguments from one fixed seed. mu
(of either sign), sigma, --k-max, --v0, --target-std, --tol and --k-gain are
log-uniform over 1e-12 to 10, or one of the edge values 0, +-1, 5e-324 and
1e300, and are written with ``repr()``, so that exponent forms such as
``-3e-05`` occur. Stages run from 2 to 100,000 for ``optimize`` and
``curve`` and to 5,000 for ``simulate``, whose cost grows with stage times
paths; --grid runs from 2 to 50, --alpha over [0, 1] and --n-paths up to
200; a quarter of the model runs read one of three heavy-tailed price files
instead of --mu/--sigma. Backtests (one asset,
or a portfolio config whose numbers are such values or integer literals of
300 to 420 digits) and the three ``repro`` presets read the same three files;
``three-stock`` and each config draw their training files without
replacement, so that their asset labels are distinct.

A second set of ``N_PRICE_CASES`` calls, drawn from ``PRICE_SEED``, reads
drawn price files instead: random headers (duplicate and missing columns,
``date`` in any case), line ends and blank lines, prices on a random walk
with cells such as 1e-300, 2e-308, 1e300, ``nan``, ``inf``, 0 and text
mixed in, dates that may repeat, and rows cut short.

Every call must exit 0 or 3: never 1 (a traceback), 2 (a usage error) or 4,
and no call may raise a warning, numpy's included. Every JSON file a call
writes must be strict JSON, without NaN or Infinity. Every fit that exits 0
must have achieved_std <= target_std, and every curve that exits 0 a
nondecreasing std column. A failing case is fixed in the program, never
dropped from the draw.
"""

import csv
import json
import math
import random
import traceback
from collections import Counter

import numpy as np
import pytest

from longshort import cli

SEED = 20221016
N_CASES = 400
EDGES = (0.0, 1.0, -1.0, 5e-324, 1e300)
PRICE_SEED = 20221017
N_PRICE_CASES = 300
PRICE_CELLS = ("1e-300", "2e-308", "1e300", "nan", "inf", "-inf", "0", "-1", "5e-324", "", "x")


def _number(rng, signed=False):
    if rng.random() < 0.15:
        return rng.choice(EDGES)
    x = 10.0 ** rng.uniform(-12.0, 1.0)
    return -x if signed and rng.random() < 0.5 else x


def _stage(rng, top):
    return round(math.exp(rng.uniform(math.log(2), math.log(top))))


def _write_heavy_tailed_prices(path, seed, vol, drift):
    """126 prices whose returns are clipped Student-t (3 dof) draws."""
    rng = np.random.default_rng(seed)
    steps = 1.0 + np.clip(drift + vol * rng.standard_t(3, 125) / np.sqrt(3.0), -0.45, 0.45)
    prices = 100.0 * np.concatenate([[1.0], np.cumprod(steps)])
    with open(path, "w") as fh:
        fh.write("date,adj_close\n")
        for i, p in enumerate(prices):
            fh.write(f"2019-{1 + i // 28:02d}-{1 + i % 28:02d},{float(p)!r}\n")


def _json_number(rng):
    """A config number: a drawn value written with ``repr()``, or a long integer literal."""
    if rng.random() < 0.1:
        return "1" + "0" * rng.randint(300, 420)
    return repr(_number(rng))


def _portfolio_config(rng, price_files, path):
    assets = [
        '{"train_prices": %s, "test_prices": %s, "target_std": %s}'
        % (json.dumps(train), json.dumps(rng.choice(price_files)), _json_number(rng))
        for train in rng.sample(price_files, rng.randint(1, 3))
    ]
    v0 = f'"v0": {_json_number(rng)}, ' if rng.random() < 0.5 else ""
    path.write_text('{%s"assets": [%s]}' % (v0, ", ".join(assets)))


def _case(rng, price_files, out_dir):
    """(command, argv) of one drawn call, writing under ``out_dir``."""
    command = rng.choice(("optimize", "curve", "simulate", "backtest", "repro"))
    if command == "repro":
        preset = rng.choice(("toy", "tsla", "three-stock"))
        n_files = {"toy": 0, "tsla": 1, "three-stock": 3}[preset]
        argv = [command, preset]
        for train in rng.sample(price_files, n_files):
            argv += ["--train-prices", train]
        for _ in range(n_files):
            argv += ["--test-prices", rng.choice(price_files)]
        return command, [*argv, "--out-dir", str(out_dir / "repro")]
    if command == "backtest":
        if rng.random() < 0.5:
            argv = [command, "--train-prices", rng.choice(price_files)]
            argv += ["--test-prices", rng.choice(price_files), "--target-std", repr(_number(rng))]
        else:
            _portfolio_config(rng, price_files, out_dir / "portfolio.json")
            argv = [command, "--portfolio-config", str(out_dir / "portfolio.json")]
        if rng.random() < 0.5:
            argv += ["--v0", repr(_number(rng))]
        if rng.random() < 0.5:
            argv += ["--tol", repr(_number(rng))]
        return command, [*argv, "--out-prefix", str(out_dir / "bt")]
    argv = [command]
    if rng.random() < 0.25:
        argv += ["--prices", rng.choice(price_files)]
    else:
        argv += ["--mu", repr(_number(rng, signed=True)), "--sigma", repr(_number(rng))]
    if command != "optimize" or rng.random() < 0.5:
        argv += ["--stage", str(_stage(rng, 5_000 if command == "simulate" else 100_000))]
    if rng.random() < 0.5:
        argv += ["--v0", repr(_number(rng))]
    if command == "optimize":
        argv += ["--target-std", repr(_number(rng))]
    if command == "curve":
        argv += ["--grid", str(rng.randint(2, 50))]
    if command == "simulate":
        argv += ["--k-gain", repr(_number(rng)), "--alpha", repr(rng.random())]
        argv += ["--n-paths", str(rng.randint(1, 200))]
    elif rng.random() < 0.5:
        argv += ["--k-max", repr(_number(rng))]
    out = "out.csv" if command == "curve" else "out.json"
    return command, [*argv, "--out", str(out_dir / out)]


def _run(argv):
    """(exit code, traceback or None) of one in-process call."""
    try:
        return cli.main(argv), None
    except SystemExit as exc:
        return exc.code, None
    except Exception:  # an escaped exception is the traceback of exit 1
        return 1, traceback.format_exc()


def _strict_json(path):
    def refuse(constant):
        raise AssertionError(f"{path} holds {constant}")

    return json.loads(path.read_text(), parse_constant=refuse)


def _within_budget(fit):
    assert fit["achieved_std"] <= fit["target_std"], fit


def _check_outputs(command, argv, out_dir):
    written = {p.relative_to(out_dir).as_posix(): p for p in out_dir.rglob("*") if p.is_file()}
    payloads = {name: _strict_json(p) for name, p in written.items() if name.endswith(".json")}
    if command == "optimize":
        target = float(argv[argv.index("--target-std") + 1])
        assert payloads["out.json"]["target_std"] == target
        _within_budget(payloads["out.json"])
    elif command == "curve":
        with open(written["out.csv"], newline="") as fh:
            stds = [float(row["std"]) for row in csv.DictReader(fh)]
        assert all(a <= b for a, b in zip(stds, stds[1:])), (argv, stds)
    for name, payload in payloads.items():
        if name.endswith("summary.json"):
            for fit in [payload.get("fit")] + [a["fit"] for a in payload.get("assets", [])]:
                if fit is not None:
                    _within_budget(fit)
        elif name.endswith("toy_results.json"):
            for fit in payload["solutions"]:
                _within_budget(fit)


def _drawn_price_file(rng, path):
    """Write a drawn price file: header, line end, prices and dates all drawn."""
    header = ["date", "adj_close"]
    if rng.random() < 0.5:
        header = [
            rng.choice(("adj_close", "adj_close", "date", "Date", "DATE", "close"))
            for _ in range(rng.randint(1, 4))
        ]
    line_end = rng.choice(("\n", "\r\n", "\r"))
    awkward = rng.choice((0.0, 0.0, 0.01, 0.1))  # the share of awkward cells
    stalls = rng.choice((0.0, 0.0, 0.0, 0.1))  # the share of dates that fail to increase
    vol = rng.choice((0.01, 0.1, 1.0))
    price, day, lines = 10.0 ** rng.uniform(-2.0, 4.0), 0, [",".join(header)]
    for _ in range(rng.randint(0, 40)):
        price *= math.exp(rng.gauss(0.0, vol))
        day += rng.choice((0, -1)) if rng.random() < stalls else 1
        cells = []
        for name in header:
            if rng.random() < awkward:
                cells.append(rng.choice(PRICE_CELLS))
            elif name.lower() == "date":
                cells.append(f"2019-{1 + day // 28 % 12:02d}-{1 + day % 28:02d}")
            else:
                cells.append(repr(price))
        if rng.random() < 0.01:
            cells = cells[: rng.randint(0, len(cells))]
        lines.append(",".join(cells))
        if rng.random() < 0.05:
            lines.append("")
    path.write_text(line_end.join(lines) + line_end * rng.randint(0, 1), newline="")
    return str(path)


def _price_case(rng, out_dir):
    """(command, argv) of one call that reads drawn price files."""
    train, test = (_drawn_price_file(rng, out_dir / name) for name in ("train.csv", "test.csv"))
    command = rng.choice(("optimize", "curve", "simulate", "backtest", "repro"))
    if command == "repro":
        argv = [command, "tsla", "--train-prices", train, "--test-prices", test]
        return command, [*argv, "--out-dir", str(out_dir / "repro")]
    if command == "backtest":
        argv = [command, "--train-prices", train, "--test-prices", test]
        argv += ["--target-std", repr(_number(rng))]
        return command, [*argv, "--out-prefix", str(out_dir / "bt")]
    argv = [command, "--prices", train]
    if command == "optimize":
        argv += ["--target-std", repr(_number(rng))]
    if command == "curve":
        argv += ["--grid", str(rng.randint(2, 20))]
    if command == "simulate":
        argv += ["--k-gain", repr(_number(rng)), "--n-paths", str(rng.randint(1, 50))]
    if command != "optimize" or rng.random() < 0.5:
        argv += ["--stage", str(_stage(rng, 1_000))]
    out = "out.csv" if command == "curve" else "out.json"
    return command, [*argv, "--out", str(out_dir / out)]


def _kind(argv):
    """A call's kind: its command, repro's with its preset, a config's with its asset count."""
    if argv[0] == "repro":
        return f"repro {argv[1]}"
    if "--portfolio-config" in argv:
        with open(argv[argv.index("--portfolio-config") + 1]) as fh:
            return f"backtest of {len(json.load(fh)['assets'])} assets"
    return argv[0]


def _sweep(tmp_path, capsys, n_cases, draw):
    """Run ``n_cases`` drawn calls: (exit-code counts, kinds that exit 0, failures)."""
    codes, passed, failures = Counter(), set(), []
    for i in range(n_cases):
        out_dir = tmp_path / f"case{i}"
        out_dir.mkdir()
        command, argv = draw(out_dir)
        code, trace = _run(argv)
        capsys.readouterr()
        codes[code] += 1
        if code not in (0, 3):
            failures.append((code, argv, trace))
        elif code == 0:
            _check_outputs(command, argv, out_dir)
            passed.add(_kind(argv))
    return codes, passed, failures


@pytest.mark.filterwarnings("error")
def test_exit_codes_over_the_whole_domain(tmp_path, capsys):
    price_files = [str(tmp_path / name) for name in ("a.csv", "b.csv", "c.csv")]
    _write_heavy_tailed_prices(price_files[0], 1, 0.035, -0.0008)
    _write_heavy_tailed_prices(price_files[1], 2, 0.015, 0.0012)
    _write_heavy_tailed_prices(price_files[2], 3, 0.025, 0.0004)
    rng = random.Random(SEED)
    codes, passed, failures = _sweep(
        tmp_path, capsys, N_CASES, lambda d: _case(rng, price_files, d)
    )
    assert failures == []
    # the draw reaches both outcomes, and most runs pass the parser
    assert codes.get(0, 0) >= N_CASES // 4 and codes.get(3, 0) >= N_CASES // 4, codes
    # and it reaches the multi-asset success paths
    assert "repro three-stock" in passed, passed
    assert passed & {"backtest of 2 assets", "backtest of 3 assets"}, passed


@pytest.mark.filterwarnings("error")
def test_exit_codes_over_drawn_price_files(tmp_path, capsys):
    rng = random.Random(PRICE_SEED)
    codes, _, failures = _sweep(tmp_path, capsys, N_PRICE_CASES, lambda d: _price_case(rng, d))
    assert failures == []
    # the draw reaches both outcomes
    assert codes.get(0, 0) >= N_PRICE_CASES // 10 and codes.get(3, 0) >= N_PRICE_CASES // 4, codes
