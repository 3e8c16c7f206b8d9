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

This module builds the parser from the standard library, ``errors`` and
``defaults`` alone. The command bodies and the one write step that records
their outputs live in :mod:`longshort.commands`, which ``main`` imports after
parsing, so ``--version``, ``--help`` and usage errors load neither numpy nor
the library modules.

Scalar results go to JSON, series to CSV, and every run writes a manifest
recording the command (``repro``'s with its preset), the seed, the output
paths and, as parameters, every other flag the run parsed, as it resolved
them, so that the manifest alone reruns it byte-for-byte. Exit codes: 0
success, 2 usage error, 3 domain or precondition error (bad input, such as a
number that is not finite, a negative --sigma or seed, a flag that conflicts
with --prices or with --portfolio-config, a budget whose target_std / v0 is
below sqrt(sys.float_info.min), about 1.49e-154, or two portfolio assets
with one label; an output path that cannot be
written: an empty path, a file that is a directory, two outputs naming one
file, or a write that the OS refuses, such as into a missing directory; or a
request too large for memory, such as 10**15 paths, or a count past 2**59 - 1,
such as 2**60 paths or a 2**59 stage), 4 internal-consistency violation (a
bug, not bad input). Outputs are staged beside their paths, under names as
long as theirs, and renamed into place once all are written, so a refused run
leaves earlier outputs as they were and removes a --out-dir it created.

The default seed is 0, overridable by the LONGSHORT_SEED environment
variable and then by --seed; a negative seed is refused (exit 3) before any
file is read. Commands given ``--prices`` or price files record the resolved
seed even where nothing is sampled.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from . import __version__
from .defaults import DEFAULT_N_PATHS, DEFAULT_PRICE_COLUMN, DEFAULT_TOL
from .errors import DomainError, InternalConsistencyError, InvalidParameterError

SEED_ENV_VAR = "LONGSHORT_SEED"

EXIT_OK = 0
EXIT_DOMAIN = 3
EXIT_INTERNAL = 4


# --- parser wiring ---

_FIT_N_PATHS_HELP = "ignored: fits are exact from the return moments; paths apply to simulate only"

# Every shared flag, declared once. A subcommand lists the flags it takes,
# each by name or as (name, keywords), the keywords replacing the shared ones.
_FLAGS = {
    "--mu": {"type": float, "help": "mean per-period return"},
    "--sigma": {"type": float, "help": "std of per-period returns"},
    "--prices": {"help": "price CSV; builds an empirical PMF instead of moments"},
    "--price-column": {
        "default": DEFAULT_PRICE_COLUMN,
        "help": f"price column name (default {DEFAULT_PRICE_COLUMN!r})",
    },
    "--v0": {"type": float, "default": 1.0, "help": "initial account value"},
    "--seed": {"type": int, "help": "RNG seed (default 0 or $LONGSHORT_SEED)"},
    "--k-max": {
        "type": float,
        "help": "override the gain ceiling (moment flags only; refused with --prices)",
    },
    "--tol": {"type": float, "default": DEFAULT_TOL},
    "--n-paths": {"type": int, "help": _FIT_N_PATHS_HELP},
}
_MODEL_FLAGS = ("--mu", "--sigma", "--prices", "--price-column", "--v0", "--seed")

# argparse reads "-3e-05" as a flag, since its negative-number pattern has no
# exponent; repr() writes small numbers in exactly that form.
_NEGATIVE_NUMBER = re.compile(r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="longshort",
        description="Balanced double-linear long-short feedback trading tools",
    )
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    subcommands = (
        ("curve", "trace the (std, mean) curve over the gain grid", (
            *_MODEL_FLAGS,
            ("--stage", {"type": int, "required": True, "help": "target stage k"}),
            ("--grid", {"type": int, "default": 200, "help": "number of gain grid points"}),
            "--k-max",
            "--n-paths",
            ("--out", {"default": "curve.csv", "help": "output CSV path"}),
        )),
        ("optimize", "solve for the gain under a std budget", (
            *_MODEL_FLAGS,
            ("--target-std", {"type": float, "required": True}),
            ("--stage", {"type": int, "help": "target stage k (default: train length)"}),
            "--k-max",
            "--tol",
            "--n-paths",
            ("--out", {"default": "optimal_gain.json"}),
        )),
        ("simulate", "Monte-Carlo estimate of gain statistics", (
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
        ("backtest", "fit on one price segment, replay another", (
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
        ("repro", "run a named worked-example preset", (
            ("preset", {"choices": ["toy", "tsla", "three-stock"]}),
            ("--train-prices", {"action": "append", "help": "price CSV (repeatable)"}),
            ("--test-prices", {"action": "append", "help": "price CSV (repeatable)"}),
            "--price-column",
            ("--seed", {"help": None}),
            ("--out-dir", {"default": "repro_out"}),
        )),
    )
    for name, help_text, flags in subcommands:
        p_sub = sub.add_parser(name, help=help_text)
        p_sub._negative_number_matcher = _NEGATIVE_NUMBER
        for flag in flags:
            flag, keywords = (flag, {}) if isinstance(flag, str) else flag
            p_sub.add_argument(flag, **{**_FLAGS.get(flag, {}), **keywords})
    return parser


def _resolve_seed(flag: int | None) -> int:
    """The run's seed: --seed, else $LONGSHORT_SEED, else 0; refused below 0."""
    if flag is not None:
        seed, source = flag, "--seed"
    else:
        raw = os.environ.get(SEED_ENV_VAR, "0")
        try:
            seed, source = int(raw), SEED_ENV_VAR
        except ValueError:
            raise InvalidParameterError(f"{SEED_ENV_VAR}={raw!r} is not an integer") from None
    if seed < 0:
        raise InvalidParameterError(f"{source} must be nonnegative, got {seed}")
    return seed


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.seed = _resolve_seed(args.seed)
        # The library, and numpy with it, loads only once a command runs.
        from . import commands

        command = getattr(commands, args.command)  # each subcommand's body bears its name
        commands.write_run(args, command(args))
        return EXIT_OK
    except InternalConsistencyError as exc:
        print(f"internal consistency violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError as exc:  # a request too large to allocate, such as 10**15 paths
        why = str(exc) or "allocation failed"
        print(f"error: not enough memory for this request ({why})", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
