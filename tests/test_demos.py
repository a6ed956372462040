"""The shipped demos: their configs survive single-leaf corruption with a
documented exit code, and their scripts import only public names that exist."""

import itertools
import math
import runpy
from pathlib import Path

import pytest
import yaml

from qcollapse.cli import main

DEMOS = Path(__file__).resolve().parent.parent / "demos"
CONFIGS = {path.name: yaml.safe_load(path.read_text()) for path in sorted((DEMOS / "configs").glob("*.yaml"))}

# Small values of every YAML kind; no large integers, so no huge world is built.
FUZZ_VALUES = ("x", [1, 2], {"a": 1}, True, 2.5, None, -1, 0, [], {}, math.nan)


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        yield path
        return
    for key, child in items:
        yield from _leaf_paths(child, path + (key,))


LEAVES = [(name, path) for name, doc in CONFIGS.items() for path in _leaf_paths(doc)]


def _replaced(doc, path, value):
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(doc, dict):
        return {**doc, head: _replaced(doc[head], rest, value)}
    return [_replaced(child, rest, value) if i == head else child for i, child in enumerate(doc)]


def test_mutated_demo_config_exits_with_a_documented_code(tmp_path, capsys):
    # every leaf of every demo config replaced by every value, each run in full
    for i, ((name, path), value) in enumerate(itertools.product(LEAVES, FUZZ_VALUES)):
        cfg = tmp_path / name
        cfg.write_text(yaml.safe_dump(_replaced(CONFIGS[name], path, value)), encoding="utf-8")
        code = main(["--config", str(cfg), "--out", str(tmp_path / str(i))])
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4) and "Traceback" not in err, (name, path, value, err)


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_script_imports(script):
    namespace = runpy.run_path(str(DEMOS / script), run_name="demo")
    assert callable(namespace["main"])
