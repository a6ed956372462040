"""Every name a module of the package imports is used in it, and every
private module-level name is read somewhere in the package: stdlib-only
stand-ins for a linter's unused-import rule (F401) and a dead-code check."""

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


def private_definitions(source: str) -> list[str]:
    """The private names ``source`` defines at module level (a function,
    class or assignment target starting with ``_``, dunders aside), as
    ``line: name``."""
    defined = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.extend((node.lineno, n.id) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return [f"{line}: {name}" for line, name in defined if name.startswith("_") and not name.endswith("__")]


def read_names(source: str) -> set[str]:
    """The names ``source`` loads, bare or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) or isinstance(node, ast.Attribute)
    }


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private module-level names of ``sources`` (name -> source) that
    none of them reads, as ``module:line: name``."""
    read = set().union(*map(read_names, sources.values()))
    return [
        f"{module}:{definition}"
        for module, source in sources.items()
        for definition in private_definitions(source)
        if definition.split(": ")[1] not in read
    ]


def test_package_reads_every_private_name_it_defines():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert sum(len(private_definitions(source)) for source in sources.values()) > 0
    assert unread_private_names(sources) == []


def test_unread_private_names_finds_a_leftover_and_keeps_a_read_one():
    defining = (
        "_CAP = 4\n"
        "_seen: dict = {}\n"
        "__all__ = ['public']\n"
        "def _helper(): return _CAP\n"
        "def _leftover(): return 0\n"
        "class _Unused: pass\n"
        "def public(): return _helper()\n"
        "def __getattr__(name): raise AttributeError(name)\n"
    )
    reading = "import defining\ndefining._seen.clear()\n"
    got = unread_private_names({"defining.py": defining, "reading.py": reading})
    assert got == ["defining.py:5: _leftover", "defining.py:6: _Unused"]
