"""Every name a module of the package imports is used in it: a stdlib-only
stand-in for a linter's unused-import rule (F401)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qcollapse"
# the package's __init__ imports names to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, as ``line: name``.  An
    import on a line marked ``# noqa: F401`` is kept on purpose, and
    ``from __future__`` imports are directives, not names."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{alias.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_finds_an_unread_name_and_keeps_a_marked_one():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import numpy as np\n"
        "from os import (\n"
        "    path,\n"
        "    sep,  # noqa: F401\n"
        ")\n"
        "x: np.ndarray = path.join('a', 'b')\n"
    )
    assert unused_imports(source) == ["2: math"]
    assert MODULES and len(MODULES) == len(list(SRC.glob("*.py"))) - 1
