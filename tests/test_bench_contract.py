"""Every library name the benchmark reaches resolves.

The scripts under ``bench/`` call into ``longshort`` directly: the traced
pass replays commands through the library, and the benchmark's own tests
check it. A name they use that the library drops breaks only a benchmark
run, which this suite does not make. So the scripts are parsed here, and
every attribute chain rooted at a name imported from ``longshort`` (such as
``returns.ReturnModel.from_pmf``) is resolved against the library.
"""

import ast
import importlib
from pathlib import Path

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


def _chains(tree, roots: dict[str, str]) -> set[str]:
    """Dotted library paths of every imported name and every attribute chain on one."""
    chains = set(roots.values())
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id in roots:
            chains.add(".".join([roots[node.id], *reversed(attrs)]))
    return chains


def _resolve(dotted: str):
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            obj = importlib.import_module(".".join(parts[:i]))
    return obj


def _bench_chains(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return _chains(tree, _imported_roots(tree))


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
