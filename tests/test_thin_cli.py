"""The CLI stays thin: its commands reach the library through public names alone.

This parses ``commands.py`` and collects every name it imports from the
package and every attribute it reads from a module of the package; none may
begin with an underscore, bar dunders such as ``__version__``.
"""

import ast
from pathlib import Path

import longshort

SRC = Path(longshort.__file__).parent
MODULES = {path.stem for path in SRC.glob("*.py")}


def test_commands_read_no_private_name():
    tree = ast.parse((SRC / "commands.py").read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    imported = [alias for node in imports for alias in node.names]
    modules = {alias.asname or alias.name for alias in imported if alias.name in MODULES}
    read = [
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    ]
    assert "optimizer" in modules and read  # the walk sees the commands' library calls
    names = [alias.name for alias in imported] + read
    private = [name for name in names if name.startswith("_") and not name.endswith("__")]
    assert private == []
