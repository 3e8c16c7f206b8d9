"""The error types stay few: a class exists only if a caller can act on it.

This reads the source of every module of the package. Each ``raise`` names a
class of ``errors``, or a parameter that holds one, so a refusal no caller
tells apart raises a kept class with its own message. Each class of
``errors`` is raised, caught, carries data or is the base of another.
"""

import ast
from pathlib import Path

import longshort

SRC = Path(longshort.__file__).parent
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
CLASSES = {node.name: node for node in TREES["errors.py"].body if isinstance(node, ast.ClassDef)}


def _raises(node, params=frozenset()):
    """Each ``raise`` under ``node``, with the parameters of the functions around it."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = node.args
        params = params | {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
    if isinstance(node, ast.Raise):
        yield node, params
    for child in ast.iter_child_nodes(node):
        yield from _raises(child, params)


def _raised_name(node: ast.Raise):
    """The name a ``raise`` calls or raises, or None for anything else."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def _caught_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            yield from (t.id for t in types if isinstance(t, ast.Name))


def test_every_raise_names_an_error_type():
    strays = []
    for module, tree in TREES.items():
        for node, params in _raises(tree):
            if node.exc is None:  # a bare re-raise adds no type
                continue
            name = _raised_name(node)
            if name in CLASSES or name in params:
                continue
            if (module, name) == ("__init__.py", "AttributeError"):  # PEP 562 requires it
                continue
            strays.append(f"{module}:{node.lineno} raises {ast.unparse(node.exc)}")
    assert strays == []


def test_every_error_type_is_used():
    raised = {_raised_name(node) for tree in TREES.values() for node, _ in _raises(tree)}
    caught = {name for tree in TREES.values() for name in _caught_names(tree)}
    bases = {base.id for node in CLASSES.values() for base in node.bases}
    carries_data = {
        name for name, node in CLASSES.items()
        if any(isinstance(item, ast.FunctionDef) and item.name == "__init__" for item in node.body)
    }
    unused = set(CLASSES) - raised - caught - bases - carries_data
    assert unused == set()
