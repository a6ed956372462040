"""The shipped demos: their configs survive single-leaf corruption with a
documented exit code, and their scripts import only public names that exist."""

import math
import runpy
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(leaf=st.sampled_from(LEAVES), value=st.sampled_from(FUZZ_VALUES))
def test_mutated_demo_config_exits_with_a_documented_code(tmp_path, leaf, value):
    name, path = leaf
    cfg = tmp_path / name
    cfg.write_text(yaml.safe_dump(_replaced(CONFIGS[name], path, value)), encoding="utf-8")
    assert main(["--config", str(cfg), "--validate-only"]) in (0, 2, 3, 4)


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_script_imports(script):
    namespace = runpy.run_path(str(DEMOS / script), run_name="demo")
    assert callable(namespace["main"])
