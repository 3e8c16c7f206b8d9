"""Every library name the benchmark reaches resolves.

The scripts under ``bench/`` call into ``longshort`` directly: the traced
pass replays commands through the library, and the benchmark's own tests
check it. A name they use that the library drops breaks only a benchmark
run, which this suite does not make. So the scripts are parsed here, and
every attribute chain rooted at a name imported from ``longshort`` (such as
``returns.ReturnModel.from_pmf``) is resolved against the library. Every call
of a callable the library defines must also bind to its signature: the
call's number of positional arguments and its keyword names, with
placeholder values. Calls that unpack ``*`` or ``**`` are skipped.
"""

import ast
import importlib
import inspect
from pathlib import Path
from typing import NamedTuple

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
SCRIPTS = sorted(BENCH.glob("*.py"))


def _imported_roots(tree) -> dict[str, str]:
    """Local name -> dotted library path, for every import from ``longshort``."""
    roots = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "longshort":
            for alias in node.names:
                roots[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "longshort":
                    local = alias.asname or alias.name.split(".")[0]
                    roots[local] = alias.name if alias.asname else local
    return roots


def _dotted(node, roots: dict[str, str]) -> str | None:
    """The dotted library path of an imported name or an attribute chain on one, else None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in roots:
        return ".".join([roots[node.id], *reversed(attrs)])
    return None


def _chains(tree, roots: dict[str, str]) -> set[str]:
    """Dotted library paths of every imported name and every attribute chain on one."""
    chains = set(roots.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (dotted := _dotted(node, roots)):
            chains.add(dotted)
    return chains


class _Call(NamedTuple):
    dotted: str
    n_positional: int
    keywords: tuple[str, ...]
    line: int


def _calls(tree, roots: dict[str, str]) -> list[_Call]:
    """Every call of a library callable, but those that unpack ``*`` or ``**``."""
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or (dotted := _dotted(node.func, roots)) is None:
            continue
        keywords = tuple(kw.arg for kw in node.keywords)
        if None in keywords or any(isinstance(arg, ast.Starred) for arg in node.args):
            continue
        calls.append(_Call(dotted, len(node.args), keywords, node.lineno))
    return calls


def _bind_error(call: _Call) -> str | None:
    """Why the call's arguments do not fit its callable's signature, or None if they do."""
    signature = inspect.signature(_resolve(call.dotted))
    try:
        signature.bind(*range(call.n_positional), **dict.fromkeys(call.keywords))
    except TypeError as exc:
        return f"line {call.line}: {call.dotted}: {exc}"
    return None


def _resolve(dotted: str):
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            obj = importlib.import_module(".".join(parts[:i]))
    return obj


def _parse(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return tree, _imported_roots(tree)


def _bench_chains(path: Path) -> set[str]:
    return _chains(*_parse(path))


def _bench_calls(path: Path) -> list[_Call]:
    """The script's calls of callables that the library defines (not, say, a str method)."""
    return [
        call for call in _calls(*_parse(path))
        if (getattr(_resolve(call.dotted), "__module__", None) or "").startswith("longshort.")
    ]


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_every_chain_resolves(path):
    unresolved = []
    for dotted in sorted(_bench_chains(path)):
        try:
            _resolve(dotted)
        except (AttributeError, ImportError):
            unresolved.append(dotted)
    assert unresolved == []


def test_the_scan_finds_the_library_calls():
    found = set().union(*map(_bench_chains, SCRIPTS))
    assert {
        "longshort.optimizer.solve_optimal_gain_empirical",
        "longshort.montecarlo.McGainEstimator",
        "longshort.montecarlo.estimate_exact_small",
        "longshort.returns.ReturnModel.from_pmf",
        "longshort.errors.LongShortError",
    } <= found


def test_a_dropped_name_is_caught():
    tree = ast.parse("from longshort import montecarlo\nmontecarlo.BATCH_SIZE\n")
    (chain,) = _chains(tree, _imported_roots(tree)) - {"longshort.montecarlo"}
    with pytest.raises((AttributeError, ImportError)):
        _resolve(chain)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_every_call_binds(path):
    assert [error for call in _bench_calls(path) if (error := _bind_error(call))] == []


def test_the_scan_finds_the_calls():
    calls = [call for path in SCRIPTS for call in _bench_calls(path)]
    assert len(calls) >= 30
    fit = next(c for c in calls if c.dotted == "longshort.optimizer.solve_optimal_gain_empirical")
    assert {"n_paths", "seed"} <= set(fit.keywords)


def test_an_unknown_keyword_is_caught():
    tree = ast.parse(
        "from longshort import optimizer\n"
        "optimizer.solve_optimal_gain_empirical(pmf, 1.0, 10, 0.1, n_paths=2000, n_walkers=3)\n"
    )
    (call,) = _calls(tree, _imported_roots(tree))
    assert "n_walkers" in _bind_error(call)
    assert _bind_error(call._replace(keywords=("n_paths",))) is None
