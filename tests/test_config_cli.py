import json
from pathlib import Path

import pytest

from qcollapse import (
    ConfigError,
    ConflictError,
    RandomSource,
    hwfc_generate,
    load_config,
    parse_config,
    render,
    serialize_config,
)
from qcollapse.cli import main
from qcollapse.config import MODES
from qcollapse.render import FORMATS

DEMO_CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"

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


def test_serialize_gives_the_overridden_document():
    cfg = load_config(DEMO_CONFIGS / "checkerboard.yaml", {"seed": 3})
    again = parse_config(serialize_config(cfg))
    assert cfg.seed == again.seed == 3
    assert again.source == cfg.source


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


# every draw conflicts: 'a' needs 'b' beside it, and 'b' has no rule
CONFLICTING = """
seed: 3
mode: qwfc
order: [2, 1]
topology: {type: grid2d, width: 2, height: 1}
alphabet: [a, b]
rules:
  - {value: a, pattern: {right: b, left: b}}
"""


def test_cli_exit_code_conflict(tmp_path, capsys):
    cfg = _write(tmp_path, CONFLICTING)
    assert main(["--config", str(cfg)]) == 3
    assert main(["--config", str(cfg), "--mode", "cwfc"]) == 3
    capsys.readouterr()


def test_cli_hwfc_restarts_exhausted(tmp_path, capsys):
    doc = CONFLICTING.replace("mode: qwfc", 'mode: hwfc\npartitions: "blocks:2"\nmax_restarts: 2')
    out = tmp_path / "out"
    assert main(["--config", str(_write(tmp_path, doc)), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "still conflicting after 2 restarts: partition 2: no admissible value for segment 2" in err
    assert not out.exists()


# about half the draws conflict: segment 2 has a value only if segment 1 is 'a'
PARTLY_CONFLICTING = """
seed: 3
mode: hwfc
shots: 4
topology: {type: grid2d, width: 2, height: 1}
partitions: "blocks:2"
alphabet: [a, b]
rules:
  - {value: a, pattern: {left: a}}
  - {value: b, pattern: {left: a}}
"""


def test_cli_hwfc_exact_dist_renormalises_over_the_conflict_free_draws(tmp_path, capsys):
    cfg = _write(tmp_path, PARTLY_CONFLICTING)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "drawn")]) == 0
    assert " restarts=3 " in capsys.readouterr().out

    # half the mass conflicts at partition 2; what restarts sample is the rest
    out = tmp_path / "exact"
    assert main(["--config", str(cfg), "--exact-dist", "--out", str(out)]) == 0
    capsys.readouterr()
    dist = json.loads((out / "run-dist.json").read_text(encoding="utf-8"))
    assert dist["probabilities"] == {"0": 0.5, "2": 0.5}


def test_cli_hwfc_exact_dist_fails_before_drawing_when_every_branch_conflicts(
    tmp_path, capsys, monkeypatch
):
    from qcollapse import cli

    def no_draws(*args, **kwargs):
        raise AssertionError("drew an instance before the exact enumeration")

    monkeypatch.setattr(cli, "hwfc_generate", no_draws)
    doc = CONFLICTING.replace("mode: qwfc", 'mode: hwfc\npartitions: "blocks:2"')
    out = tmp_path / "exact"
    assert main(["--config", str(_write(tmp_path, doc)), "--exact-dist", "--out", str(out)]) == 3
    assert "partition 2: no admissible value for segment 2" in capsys.readouterr().err
    assert not out.exists()


def test_cli_hwfc_restarts_a_conflicting_shot(tmp_path, capsys):
    # hexmap.yaml at seed 3 conflicts once in its two shots
    config = load_config(DEMO_CONFIGS / "hexmap.yaml")
    out = tmp_path / "out"
    assert main(["--config", str(DEMO_CONFIGS / "hexmap.yaml"), "--seed", "3", "--out", str(out)]) == 0
    assert " restarts=1 " in capsys.readouterr().out

    # a hand-written restart loop draws on from the same stream
    rng = RandomSource(3)
    conflicts = 0

    def drawn():
        nonlocal conflicts
        for _ in range(10):
            try:
                return hwfc_generate(
                    config.topology.adjacency, config.alphabet.n_values, config.ruleset,
                    config.partitioning, rng,
                )
            except ConflictError:
                conflicts += 1
        raise AssertionError("no instance in 10 attempts")

    for i in range(config.shots):
        text = render(drawn(), config.alphabet, config.topology, config.output_format, config.scale)
        assert (out / f"hexmap-{i:04d}.ppm").read_text(encoding="utf-8") == text
    assert conflicts == 1


def test_cli_exit_code_capacity(tmp_path, capsys):
    doc = CHECKER.replace("width: 3, height: 3", "width: 8, height: 8")
    cfg = _write(tmp_path, doc)
    assert main(["--config", str(cfg)]) == 4  # 64 qubits exceed the int64 index limit
    assert "limit of 63" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "doc, args",
    [(TWO_CELLS.replace("mode: cwfc", "mode: hwfc"), []), (TWO_CELLS, ["--mode", "hwfc"])],
    ids=["document", "command-line"],
)
def test_cli_hwfc_without_partitions_exits_2(tmp_path, capsys, doc, args):
    assert main(["--config", str(_write(tmp_path, doc)), *args]) == 2
    assert "config error: mode 'hwfc' requires a 'partitions' field" in capsys.readouterr().err


FACTOR_WEIGHT = "{value: a, weight: {factor: bottom_layer_only, u: %s, layer_size: 1}}"

HEXMAP_R0 = """
seed: 6
mode: hwfc
topology: {type: hexgrid, radius: 0}
rules: {generator: hexmap, u_blue: 5.0}
partitions: "blocks:8"
"""

# a generator whose use case has another topology than the configured one
CUBE = """
seed: 1
mode: cwfc
topology: {type: grid3d, width: 2, depth: 2, height: 2}
rules: {generator: %s}
"""


RULES_NESTED = TWO_CELLS.replace("\nrules:\n  - {value: a}\n  - {value: b}\n", "\nrules: %s%s\n")

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
    "bottom_layer_only": TWO_CELLS.replace("{value: a}", FACTOR_WEIGHT % "-1.0"),
    "interior_layers_only": TWO_CELLS.replace(
        "{value: a}", "{value: a, weight: {factor: interior_layers_only, u: -0.5, layer_size: 0, n_segments: 2}}"
    ),
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
    "glyph": TWO_CELLS.replace("[a, b]", "[{name: a, glyph: [1, 2]}, b]"),
    "255": TWO_CELLS.replace("[a, b]", "[{name: a, color: [900, -40, 40]}, b]"),
    "ints": TWO_CELLS.replace("[a, b]", "[{name: a, color: [true, 0, 0]}, b]"),
    "checkerboard": CUBE % "checkerboard",
    "pipes": CUBE % "pipes",
    "depth=1": CUBE % "platformer",
    "../../x": TWO_CELLS + "name: ../../x\n",
    "..": TWO_CELLS + "name: ..\n",
    "None": TWO_CELLS + "name: ~\n",
    "123": TWO_CELLS + "name: 123\n",
    "\\x00": TWO_CELLS + 'name: "a\\0b"\n',
    "2.9": TWO_CELLS + "order: [2.9, 1.2]\n",
    "True": TWO_CELLS + "partitions: [[true], [2]]\n",
    "1.5": TWO_CELLS.replace(
        "{type: grid2d, width: 2, height: 1}",
        "{type: custom, segments: 2, directions: 1, edges: {1: [[1.5, 2]]}}",
    ),
    "> 0": TWO_CELLS.replace("{value: a}", "{value: a, weight: true}"),
    "bogus": TWO_CELLS.replace(
        "alphabet: [a, b]\nrules:\n  - {value: a}\n  - {value: b}\n", "rules: {generator: pipes, bogus: 3}\n"
    ),
    "shot": TWO_CELLS + "shot: 5\n",
    # nested past the YAML parser's recursion, at two depths
    "nested": RULES_NESTED % ("[" * 500, "]" * 500),
    "too deep": RULES_NESTED % ("[" * 5000, "]" * 5000),
}


@pytest.mark.parametrize("field", sorted(MALFORMED))
def test_cli_malformed_field_exits_2(tmp_path, capsys, field):
    cfg = _write(tmp_path, MALFORMED[field])
    for args in (["--validate-only"], ["--out", str(tmp_path / "out")]):
        assert main(["--config", str(cfg), *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and field in err
        assert "Traceback" not in err


# a flag replaces the config field of its name before any check: it wins over
# an invalid value, and an invalid flag gets that field's own message
@pytest.mark.parametrize(
    "doc, args, code, needle",
    [
        (TWO_CELLS + "format: voxel-slices\n", ["--format", "ascii"], 0, "instances=1"),
        (TWO_CELLS.replace("seed: 1", "seed: -1"), ["--seed", "3"], 0, "seed=3"),
        (TWO_CELLS + "shots: 0\n", ["--shots", "2"], 0, "instances=2"),
        (TWO_CELLS.replace("mode: cwfc", "mode: hwfc"), ["--mode", "cwfc"], 0, "mode=cwfc"),
        (TWO_CELLS, ["--seed", "-1"], 2, "config error: field 'seed' must be >= 0"),
        (TWO_CELLS, ["--shots", "0"], 2, "config error: field 'shots' must be >= 1"),
    ],
    ids=["format", "seed", "shots", "mode", "bad-seed", "bad-shots"],
)
def test_cli_flag_replaces_its_field(tmp_path, capsys, doc, args, code, needle):
    assert main(["--config", str(_write(tmp_path, doc)), "--out", str(tmp_path / "out"), *args]) == code
    captured = capsys.readouterr()
    assert needle in (captured.out if code == 0 else captured.err)


# one size past each cap checked at parse time; the world is never built
GRID = "{type: grid2d, width: 2, height: 1}"
PAST_A_CAP = {
    "segments-grid2d": (TWO_CELLS.replace(GRID, "{type: grid2d, width: 256, height: 257}"), []),
    "segments-hexgrid": (TWO_CELLS.replace(GRID, "{type: hexgrid, radius: 148}"), []),
    "segments-grid3d": (TWO_CELLS.replace(GRID, "{type: grid3d, width: 2, depth: 2, height: 16385}"), []),
    "segments-custom": (TWO_CELLS.replace(GRID, "{type: custom, segments: 65537, directions: 1}"), []),
    "directions-custom": (TWO_CELLS.replace(GRID, "{type: custom, segments: 2, directions: 1025}"), []),
    "shots": (TWO_CELLS + "shots: 8388609\n", []),
    "shots-flag": (TWO_CELLS, ["--shots", "8388609"]),
    "ppm-grid2d": (TWO_CELLS + "format: ppm\nscale: 1449\n", []),
    "ppm-hexgrid": (TWO_CELLS.replace(GRID, "{type: hexgrid, radius: 1}") + "format: ppm\nscale: 700\n", []),
}
CAP_MESSAGES = {
    "segments": "segments exceed the cap of 65536",
    "directions": "1025 directions exceed the cap of 1024",
    "shots": "16777218 shots x segments exceed the cap of 16777216",
    "ppm": "PPM pixels exceed the cap of 4194304",
}


@pytest.mark.parametrize("case", sorted(PAST_A_CAP))
def test_cli_size_past_a_cap_exits_4(tmp_path, capsys, case):
    doc, args = PAST_A_CAP[case]
    out = tmp_path / "out"
    assert main(["--config", str(_write(tmp_path, doc)), "--out", str(out), *args]) == 4
    err = capsys.readouterr().err
    assert err.startswith("capacity exceeded:") and "Traceback" not in err
    assert CAP_MESSAGES[case.split("-")[0]] in err
    assert not out.exists()


def test_cli_custom_directions_past_the_cap_exit_4_before_any_edge_set(tmp_path, capsys, monkeypatch):
    from qcollapse import config

    def built(*args):
        raise AssertionError("the adjacency was built")

    monkeypatch.setattr(config, "AdjacencyConfig", built)
    monkeypatch.setattr(config, "frozenset", built, raising=False)  # no edge set either
    big = config.MAX_DIRECTIONS + 1
    doc = TWO_CELLS.replace(GRID, f"{{type: custom, segments: 2, directions: {big}, edges: {{1: [[1, 2]]}}}}")
    assert main(["--config", str(_write(tmp_path, doc)), "--validate-only"]) == 4
    err = capsys.readouterr().err
    assert f"{big} directions exceed the cap of {config.MAX_DIRECTIONS}" in err
    assert "Traceback" not in err


def test_cli_config_past_the_byte_cap_exits_4_before_it_is_parsed(tmp_path, capsys, monkeypatch):
    from qcollapse import config

    cap = config.MAX_CONFIG_BYTES
    fits = TWO_CELLS + "#" * (cap - len(TWO_CELLS) - 1) + "\n"  # a comment pads it to the cap
    assert len(fits.encode("utf-8")) == cap
    assert main(["--config", str(_write(tmp_path, fits)), "--validate-only"]) == 0
    capsys.readouterr()

    def parsed(*args):
        raise AssertionError("the document was parsed")

    monkeypatch.setattr(config.yaml, "safe_load", parsed)
    # one byte past the cap; a two-byte character at the cut decodes no further
    for past in (fits + "\n", fits[:-2] + "\u00e9\n"):
        assert len(past.encode("utf-8")) == cap + 1
        out = tmp_path / "out"
        assert main(["--config", str(_write(tmp_path, past)), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err == f"capacity exceeded: config file exceeds the cap of {cap} bytes\n"
        assert not out.exists()


def test_cli_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_bytes(TWO_CELLS.encode("utf-8") + b"name: \xff\n")
    assert main(["--config", str(cfg), "--validate-only"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config file is not UTF-8") and "Traceback" not in err


GENERATORS = ("checkerboard", "pipes", "hexmap", "platformer", "voxel_skyline")
TOPOLOGIES = {
    "grid2d": "{type: grid2d, width: 2, height: 2}",
    "hexgrid": "{type: hexgrid, radius: 1}",
    "grid3d": "{type: grid3d, width: 2, depth: 1, height: 2}",
    "custom": "{type: custom, segments: 2, directions: 1, edges: {1: [[1, 2]]}}",
}


@pytest.mark.parametrize("mode", ["cwfc", "qwfc", "hwfc"])
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("generator", GENERATORS)
def test_cli_every_generator_on_every_topology(tmp_path, capsys, generator, topology, mode):
    doc = f"seed: 1\nmode: {mode}\ntopology: {TOPOLOGIES[topology]}\nrules: {{generator: {generator}}}\n"
    cfg = _write(tmp_path, doc)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) in (0, 2, 3, 4)
    assert "Traceback" not in capsys.readouterr().err


# the (topology, format) pairs that cannot be drawn: a custom topology has no
# cell layout, and voxel-slices needs grid3d
UNDRAWABLE = {
    ("custom", "ascii"),
    ("custom", "ppm"),
    ("custom", "voxel-slices"),
    ("grid2d", "voxel-slices"),
    ("hexgrid", "voxel-slices"),
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_cli_every_format_on_every_topology(tmp_path, capsys, topology, fmt, mode):
    doc = TWO_CELLS.replace("mode: cwfc", f"mode: {mode}").replace(
        "{type: grid2d, width: 2, height: 1}", TOPOLOGIES[topology]
    )
    cfg = _write(tmp_path, doc + f"format: {fmt}\npartitions: 'blocks:2'\n")
    code = main(["--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    # oracle mode renders nothing, so it takes any format
    assert code == (2 if mode != "oracle" and (topology, fmt) in UNDRAWABLE else 0), err


def test_cli_wall_time_counts_config_load(tmp_path, capsys, monkeypatch):
    import time

    from qcollapse import cli

    real_load = cli.load_config

    def slow_load(*args):
        time.sleep(0.05)
        return real_load(*args)

    monkeypatch.setattr(cli, "load_config", slow_load)
    assert main(["--config", str(_write(tmp_path, TWO_CELLS))]) == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    wall_time = float(summary.split("wall_time=")[1].rstrip("s"))
    assert wall_time >= 0.05


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


def test_cli_hwfc_exact_dist_checks_budget_before_drawing(tmp_path, capsys, monkeypatch):
    from pathlib import Path

    from qcollapse import cli

    configs = Path(__file__).resolve().parent.parent / "demos" / "configs"
    # the budget is read first, so a conflict in the draws cannot come before it
    out = tmp_path / "hexmap"
    args = ["--config", str(configs / "hexmap.yaml"), "--exact-dist", "--shots", "300"]
    assert main([*args, "--out", str(out)]) == 4
    assert not out.exists()

    def no_draws(*args, **kwargs):
        raise AssertionError("drew an instance before checking the budget")

    monkeypatch.setattr(cli, "hwfc_generate", no_draws)
    assert main(["--config", str(configs / "pipes.yaml"), "--exact-dist"]) == 4
    assert "exceed the budget" in capsys.readouterr().err


def test_cli_flags_outside_their_mode_exit_before_drawing(tmp_path, capsys, monkeypatch):
    from pathlib import Path

    from qcollapse import cli

    def no_draws(*args, **kwargs):
        raise AssertionError("drew an instance before checking the flags")

    for name in ("cwfc_generate", "hwfc_generate", "exact_distribution_oracle"):
        monkeypatch.setattr(cli, name, no_draws)
    configs = Path(__file__).resolve().parent.parent / "demos" / "configs"
    pipes = str(configs / "pipes.yaml")
    cases = [
        ([pipes, "--shots", "300", "--export-qasm"], "--export-qasm only applies"),
        ([pipes, "--mode", "cwfc", "--shots", "200", "--exact-dist"], "--exact-dist is only"),
        ([pipes, "--mode", "cwfc", "--export-qasm"], "--export-qasm only applies"),
        ([pipes, "--mode", "oracle", "--export-qasm"], "--export-qasm only applies"),
    ]
    for i, (args, message) in enumerate(cases):
        out = tmp_path / str(i)
        assert main(["--config", *args, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_cli_hwfc_block_past_the_index_limit(tmp_path, capsys):
    doc = CHECKER.replace("width: 3, height: 3", "width: 8, height: 8").replace(
        "mode: qwfc", 'mode: hwfc\npartitions: "blocks:1"'
    )
    out = tmp_path / "out"
    assert main(["--config", str(_write(tmp_path, doc)), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "partition 1: 64 qubits exceed the limit of 63 for int64 basis indices" in err
    assert not out.exists()
