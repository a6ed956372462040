"""The shipped demos: their configs, and one document with what none of them
has, survive single-leaf corruption with a documented exit code, and their
scripts import only public names that exist and run to the end."""

import itertools
import math
import runpy
from pathlib import Path

import pytest
import yaml

from qcollapse.cli import main

DEMOS = Path(__file__).resolve().parent.parent / "demos"
# factor weights and a custom topology, which no demo config has
FACTORS_CUSTOM = {
    "name": "layers",
    "seed": 4,
    "mode": "hwfc",
    "format": "structured-dump",
    "topology": {"type": "custom", "segments": 4, "directions": 2, "edges": {1: [[1, 3], [2, 4]], 2: [[3, 1], [4, 2]]}},
    "alphabet": ["ground", {"name": "air", "glyph": "."}],
    "rules": [
        {"value": "ground", "weight": {"factor": "bottom_layer_only", "u": 1.0, "layer_size": 2}},
        {"value": "air", "weight": {"factor": "above_bottom_layer", "u": 2.0, "layer_size": 2}},
        {
            "value": "air",
            "weight": {"factor": "interior_layers_only", "u": 0.5, "layer_size": 1, "n_segments": 4},
            "pattern": {"d2": "ground"},
        },
    ],
    "partitions": "blocks:2",
}
CONFIGS = {
    **{path.name: yaml.safe_load(path.read_text()) for path in sorted((DEMOS / "configs").glob("*.yaml"))},
    "factors_custom.yaml": FACTORS_CUSTOM,
}

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
def test_demo_script_imports(script, capsys):
    # run as a script, so the body's calls into the library run too
    namespace = runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert callable(namespace["main"])
    assert capsys.readouterr().out
