"""What start-up loads: the package and the CLI import the library only when used.

``import longshort`` resolves its public names on first access, and the CLI
builds its parser from the standard library alone, so ``--version``,
``--help`` and usage errors load no numpy. Each check runs in a fresh
interpreter, where nothing has been imported yet.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import longshort

SRC = Path(__file__).resolve().parents[1] / "src"

LIBRARY = {
    f"longshort.{name}"
    for name in ("analytics", "dynamics", "montecarlo", "optimizer", "portfolio", "returns")
}
HEAVY = {"numpy", "longshort.commands", *LIBRARY}

# Written to a file at exit, so that whatever the run prints stays apart.
_REPORT = """\
import atexit, sys

def _report():
    with open({path!r}, "w") as fh:
        fh.write("\\n".join(sorted(sys.modules)))

atexit.register(_report)
"""
_RUN_CLI = """
import runpy
runpy.run_module("longshort.cli", run_name="__main__", alter_sys=True)
"""


def loaded_modules(tmp_path, *argv, code=None):
    """(completed process, loaded module names) of ``longshort *argv`` or of ``code``.

    The run is a fresh ``python -W error`` with ``PYTHONPATH=src``; the CLI
    runs as ``python -m longshort.cli`` runs it, so runpy's warning about a
    module imported before it is run would fail it.
    """
    report = tmp_path / "modules.txt"
    script = _REPORT.format(path=str(report)) + (_RUN_CLI if code is None else code)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", script, *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    return proc, set(report.read_text().split("\n"))


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--version"], 0),
        (["--help"], 0),
        (["optimize", "--help"], 0),
        (["optimize", "--bogus"], 2),
        (["curve", "--mu", "0.1"], 2),  # --stage is required
    ],
)
def test_parser_runs_load_no_library(tmp_path, argv, code):
    proc, modules = loaded_modules(tmp_path, *argv)
    assert proc.returncode == code, proc.stderr
    assert "Warning" not in proc.stderr
    assert "longshort.cli" not in modules  # it ran as __main__, imported once
    assert modules & HEAVY == set()


def test_a_command_loads_the_library(tmp_path):
    # The positive control: the same report does see numpy when a command runs.
    argv = ["optimize", "--mu", "-0.1", "--sigma", "0.15", "--stage", "10", "--target-std", "0.1"]
    proc, modules = loaded_modules(tmp_path, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert HEAVY - {"longshort.portfolio"} <= modules
    assert json.loads((tmp_path / "optimal_gain.json").read_text())["stage"] == 10


def test_import_loads_no_submodule(tmp_path):
    proc, modules = loaded_modules(
        tmp_path, code="import longshort\nprint(longshort.__version__, longshort.DomainError)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0.1.0 <class 'longshort.errors.DomainError'>\n"
    assert {m for m in modules if m.startswith("longshort")} == {"longshort", "longshort.errors"}
    assert "numpy" not in modules


def test_submodules_resolve_as_attributes(tmp_path):
    code = "import longshort\nprint(longshort.optimizer.solve_optimal_gain.__module__)"
    proc, modules = loaded_modules(tmp_path, code=code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "longshort.optimizer\n"


def test_star_import_binds_all_and_only_all(tmp_path):
    code = (
        "import longshort\nnames = {}\nexec('from longshort import *', names)\n"
        "assert set(names) - {'__builtins__'} == set(longshort.__all__), names.keys()"
    )
    proc, modules = loaded_modules(tmp_path, code=code)
    assert proc.returncode == 0, proc.stderr
    assert LIBRARY <= modules


def test_public_names_are_their_defining_modules_objects():
    for name in longshort.__all__:
        module = importlib.import_module(f"longshort.{longshort._MODULE_OF[name]}")
        value = getattr(longshort, name)
        assert value is getattr(module, name), name
        assert getattr(value, "__module__", module.__name__) == module.__name__, name


def test_dir_lists_every_public_name():
    assert set(longshort.__all__) | {"__version__"} <= set(dir(longshort))
    assert len(longshort.__all__) == len(set(longshort.__all__))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        longshort.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from longshort import no_such_name  # noqa: F401


def test_analytics_loads_no_numpy(tmp_path):
    # The closed forms are pure math; the array modules that commands import load numpy.
    proc, modules = loaded_modules(tmp_path, code="import longshort.analytics")
    assert proc.returncode == 0, proc.stderr
    assert "longshort.analytics" in modules
    assert "numpy" not in modules
