import json

import pytest

from qcollapse import ConfigError, parse_config, serialize_config
from qcollapse.cli import main

CHECKER = """
name: checker
seed: 7
mode: qwfc
topology: {type: grid2d, width: 3, height: 3}
rules: {generator: checkerboard}
"""

LITERAL = """
seed: 1
mode: cwfc
topology: {type: grid2d, width: 2, height: 2}
alphabet:
  - {name: black, color: [0, 0, 0], glyph: "#"}
  - {name: white, color: [255, 255, 255], glyph: "."}
rules:
  - {value: black, pattern: {right: white, up: white, left: white, down: white}}
  - {value: white, pattern: {right: black, up: black, left: black, down: black}}
"""


def test_parse_generator_config():
    cfg = parse_config(CHECKER)
    assert cfg.mode == "qwfc" and cfg.seed == 7
    assert cfg.topology.adjacency.n_segments == 9
    assert cfg.alphabet.n_values == 2
    assert len(cfg.ruleset) == 2
    assert cfg.partitioning is not None  # generator default: one block per row


def test_parse_literal_rules_with_aliases():
    cfg = parse_config(LITERAL)
    assert len(cfg.ruleset) == 2
    rule = cfg.ruleset.rules[0]
    assert rule.value == 1
    assert rule.pattern.pairs == frozenset({(1, 2), (2, 2), (3, 2), (4, 2)})


def test_serialize_round_trip():
    cfg = parse_config(CHECKER)
    again = parse_config(serialize_config(cfg))
    assert again.source == cfg.source
    assert again.seed == cfg.seed and again.order == cfg.order
    assert len(again.ruleset) == len(cfg.ruleset)


@pytest.mark.parametrize(
    "text,needle",
    [
        ("mode: qwfc", "seed"),
        ("seed: 1", "mode"),
        ("seed: 1\nmode: flood\ntopology: {type: grid2d, width: 1, height: 1}\nrules: {generator: checkerboard}", "mode"),
        ("seed: 1\nmode: qwfc\ntopology: {type: donut}\nrules: {generator: checkerboard}", "topology"),
        ("seed: 1\nmode: qwfc\ntopology: {type: grid2d, width: 0, height: 1}\nrules: {generator: checkerboard}", "width"),
        ("seed: yes\nmode: qwfc\ntopology: {type: grid2d, width: 1, height: 1}\nrules: {generator: checkerboard}", "seed"),
        (CHECKER + "order: [1, 2, 3]", "order"),
        (CHECKER + "partitions: 'rows:2'", "row groups"),
        (CHECKER + "partitions: [[1, 2, 3, 4, 5, 6, 7, 8]]", "not covered"),
        (CHECKER.replace("qwfc", "hwfc").replace("rules: {generator: checkerboard}", "alphabet: [a, b]\nrules:\n  - {value: 1}"), "hwfc"),
        (CHECKER.replace("generator: checkerboard", "generator: sand"), "generator"),
    ],
)
def test_config_errors(text, needle):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert needle in str(err.value)


def test_parse_error_reports_location():
    with pytest.raises(ConfigError) as err:
        parse_config("a: [1,\nb: }")
    assert "line" in str(err.value)


def test_direction_alias_tables():
    hexdoc = """
seed: 1
mode: oracle
topology: {type: hexgrid, radius: 0}
alphabet: [a, b]
rules:
  - {value: a, weight: 2.0}
  - {value: b, pattern: {ne: a}}
"""
    cfg = parse_config(hexdoc)
    assert cfg.ruleset.rules[1].pattern.pairs == frozenset({(2, 1)})
    with pytest.raises(ConfigError):
        parse_config(hexdoc.replace("ne:", "northeast:"))


def test_custom_topology():
    doc = """
seed: 1
mode: oracle
topology:
  type: custom
  segments: 2
  directions: 1
  edges:
    1: [[1, 2]]
alphabet: [a, b]
rules:
  - {value: a}
  - {value: b, pattern: {d1: a}}
"""
    cfg = parse_config(doc)
    assert cfg.topology.kind == "custom"
    assert cfg.topology.adjacency.neighbors(1, 1) == (2,)


def test_column_partitions():
    doc = CHECKER.replace("width: 3, height: 3", "width: 4, height: 2") + "partitions: 'columns:2'"
    cfg = parse_config(doc)
    assert cfg.partitioning.blocks == ((1, 5, 2, 6), (3, 7, 4, 8))


# --------------------------------------------------------------------------
# command line
# --------------------------------------------------------------------------


def _write(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_cli_qwfc_run(tmp_path, capsys):
    cfg = _write(tmp_path, CHECKER)
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out", str(out), "--shots", "3", "--exact-dist", "--export-qasm"])
    assert code == 0
    assert (out / "checker-0002.txt").exists()
    assert (out / "checker.qasm").read_text().startswith("OPENQASM 3.0;")
    dist = json.loads((out / "checker-dist.json").read_text())
    assert set(dist["probabilities"]) == {"170", "341"}
    legend = json.loads((out / "checker-legend.json").read_text())
    assert legend["alphabet"][0]["name"] == "black"
    assert "qubits=9" in capsys.readouterr().out


def test_cli_mode_override_and_oracle(tmp_path):
    cfg = _write(tmp_path, CHECKER)
    out = tmp_path / "oracle"
    assert main(["--config", str(cfg), "--mode", "oracle", "--out", str(out)]) == 0
    dist = json.loads((out / "checker-dist.json").read_text())
    assert set(dist["probabilities"]) == {"170", "341"}


def test_cli_validate_only(tmp_path, capsys):
    cfg = _write(tmp_path, CHECKER)
    assert main(["--config", str(cfg), "--validate-only"]) == 0
    assert "config ok" in capsys.readouterr().out


def test_cli_exit_code_validation(tmp_path, capsys):
    cfg = _write(tmp_path, "seed: 1\n")
    assert main(["--config", str(cfg)]) == 2
    assert main(["--config", str(tmp_path / "missing.yaml")]) == 2
    capsys.readouterr()


def test_cli_exit_code_conflict(tmp_path, capsys):
    doc = """
seed: 3
mode: qwfc
order: [2, 1]
topology: {type: grid2d, width: 2, height: 1}
alphabet: [a, b]
rules:
  - {value: a, pattern: {right: b, left: b}}
"""
    cfg = _write(tmp_path, doc)
    assert main(["--config", str(cfg)]) == 3
    assert main(["--config", str(cfg), "--mode", "cwfc"]) == 3
    capsys.readouterr()


def test_cli_exit_code_capacity(tmp_path, capsys):
    doc = CHECKER.replace("width: 3, height: 3", "width: 6, height: 6")
    cfg = _write(tmp_path, doc)
    assert main(["--config", str(cfg)]) == 4  # 36 qubits exceed the cap
    capsys.readouterr()


def test_cli_hwfc_single_value_has_no_qubits(tmp_path, capsys):
    doc = """
seed: 1
mode: hwfc
topology: {type: grid2d, width: 3, height: 2}
alphabet: [rock]
rules:
  - {value: rock}
partitions: "columns:3"
"""
    cfg = _write(tmp_path, doc)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert "qubits=0 " in capsys.readouterr().out


def test_cli_rejects_non_finite_weight(tmp_path, capsys):
    for bad in (".nan", ".inf"):
        cfg = _write(tmp_path, LITERAL.replace("{value: black,", f"{{value: black, weight: {bad},"))
        assert main(["--config", str(cfg)]) == 2
        assert "finite" in capsys.readouterr().err


TWO_CELLS = """
seed: 1
mode: cwfc
topology: {type: grid2d, width: 2, height: 1}
alphabet: [a, b]
rules:
  - {value: a}
  - {value: b}
"""


FACTOR_WEIGHT = "{value: a, weight: {factor: bottom_layer_only, u: %s, layer_size: 1}}"

HEXMAP_R0 = """
seed: 6
mode: hwfc
topology: {type: hexgrid, radius: 0}
rules: {generator: hexmap, u_blue: 5.0}
partitions: "blocks:8"
"""


# one malformed field each, keyed by a word its error names; each used to
# make a run exit 1 with a traceback
MALFORMED = {
    "weight": TWO_CELLS.replace("{value: a}", "{value: a, weight: heavy}"),
    "color": TWO_CELLS.replace("[a, b]", "[{name: a, color: red}, b]"),
    "pattern": TWO_CELLS.replace("{value: a}", "{value: a, pattern: [1, 2]}"),
    "edges": TWO_CELLS.replace(
        "{type: grid2d, width: 2, height: 1}", "{type: custom, segments: 2, directions: 1, edges: 5}"
    ),
    "order": TWO_CELLS + "order: [1, x]\n",
    "partitions": TWO_CELLS + "partitions: [[1], [x]]\n",
    "format": TWO_CELLS + "format: bogus\n",
    "factor": TWO_CELLS.replace("{value: a}", FACTOR_WEIGHT % "x"),
    "finite": TWO_CELLS.replace("{value: a}", FACTOR_WEIGHT % ".nan"),
    "parameter": TWO_CELLS.replace("{value: a}", FACTOR_WEIGHT % ("9" * 400)),
    "blocks:0": TWO_CELLS + 'partitions: "blocks:0"\n',
    "blocks:3": TWO_CELLS + 'partitions: "blocks:3"\n',
    "rows:0": TWO_CELLS + 'partitions: "rows:0"\n',
    "columns:0": TWO_CELLS + 'partitions: "columns:0"\n',
    "blocks:\u00b3": TWO_CELLS + 'partitions: "blocks:\u00b3"\n',
    "blocks:8": HEXMAP_R0,
    "name": TWO_CELLS.replace("[a, b]", "[{name: [1]}, b]"),
    "alphabet": TWO_CELLS.replace("[a, b]", "[{name: {a: 1}}, b]"),
    "seed": TWO_CELLS.replace("seed: 1", "seed: -1"),
}


@pytest.mark.parametrize("field", sorted(MALFORMED))
def test_cli_malformed_field_exits_2(tmp_path, capsys, field):
    cfg = _write(tmp_path, MALFORMED[field])
    assert main(["--config", str(cfg), "--validate-only"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err
    assert "Traceback" not in err


def test_cli_deterministic_artifacts(tmp_path):
    cfg = _write(tmp_path, CHECKER.replace("qwfc", "hwfc"))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["--config", str(cfg), "--out", str(out), "--shots", "5"]) == 0
        outs.append(out)
    files = sorted(p.name for p in outs[0].iterdir())
    assert files == sorted(p.name for p in outs[1].iterdir())
    for name in files:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
