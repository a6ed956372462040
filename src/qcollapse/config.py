"""Run configuration: YAML schema parsing and validation.

A config names a topology, an alphabet, a ruleset (literal rules or a named
generator), a generation mode and its parameters.  Seeds are mandatory so
every run is reproducible.  See demos/configs/ for working documents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import yaml

from . import usecases
from .errors import CapacityError, ConfigError
from .hybrid import Partitioning, column_blocks, equal_blocks, validate_partitioning
from .model import (
    AdjacencyConfig,
    Alphabet,
    ContentInstance,
    Pattern,
    Rule,
    Ruleset,
    Symbol,
    make_factor,
)
from .render import FORMATS, can_draw, ppm_size
from .topology import DIRECTION_NAMES, Topology, grid2d_topology, grid3d_topology, hexgrid_topology

MODES = ("cwfc", "qwfc", "hwfc", "oracle")
DEFAULT_FORMAT = "ascii"  # of a file without 'format'
FIELDS = (
    "name", "seed", "mode", "topology", "alphabet", "rules",
    "order", "partitions", "shots", "max_restarts", "format", "scale",
)
# the modes that read each field some mode ignores; a file whose own mode is
# not among them refuses the field
READ_BY = {
    "order": ("qwfc", "oracle"),
    "partitions": ("hwfc",),
    "max_restarts": ("cwfc", "hwfc"),
    "shots": ("cwfc", "qwfc", "hwfc"),
    "format": ("cwfc", "qwfc", "hwfc"),
    "scale": ("cwfc", "qwfc", "hwfc"),
}

# size caps, checked before the world is built; exceeding one exits 4
MAX_CONFIG_BYTES = 1 << 15  # bytes of a config file, checked before it is parsed
MAX_SEGMENTS = 1 << 16  # segments in the topology
MAX_DIRECTIONS = 1 << 10  # directions of a custom topology
MAX_SHOT_SEGMENTS = 1 << 24  # shots x segments drawn in one run
MAX_PPM_PIXELS = 1 << 22  # pixels in one rendered PPM image

# each built-in topology kind: its factory, the keys it reads besides 'type'
# (the factory's arguments), their minimum and the segment count they make
_TOPOLOGY_KINDS = {
    "grid2d": (grid2d_topology, ("width", "height"), 1, math.prod),
    "hexgrid": (hexgrid_topology, ("radius",), 0, lambda dims: 3 * dims[0] * (dims[0] + 1) + 1),
    "grid3d": (grid3d_topology, ("width", "depth", "height"), 1, math.prod),
}
# each rule generator: its use case and the topology fields it takes
_GENERATORS = {
    "checkerboard": (usecases.checkerboard_usecase, ("width", "height")),
    "pipes": (usecases.pipes_usecase, ("width", "height")),
    "hexmap": (usecases.hexmap_usecase, ("radius",)),
    "platformer": (usecases.platformer_usecase, ("width", "height")),
    "voxel_skyline": (usecases.voxel_skyline_usecase, ("width", "depth", "height")),
}


@dataclass
class RunConfig:
    name: str
    seed: int
    mode: str
    topology: Topology
    alphabet: Alphabet
    ruleset: Ruleset
    order: tuple[int, ...]
    partitioning: Partitioning | None
    shots: int
    max_restarts: int
    output_format: str
    scale: int
    source: dict
    validator: Callable[[ContentInstance], list[str]] | None = None

    def __post_init__(self):
        if self.mode == "hwfc" and self.partitioning is None:
            raise ConfigError("mode 'hwfc' requires a 'partitions' field")
        fmt, kind = self.output_format, self.topology.kind
        if self.mode != "oracle" and not can_draw(fmt, kind):  # oracle renders nothing
            usable = ", ".join(repr(f) for f in FORMATS if can_draw(f, kind))
            raise ConfigError(f"format {fmt!r} cannot draw a {kind!r} topology; use {usable}")


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse and validate a YAML config document; ``overrides`` replace its
    top-level fields before any check, and ``source`` is the merged document."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1} column {mark.column + 1}" if mark else ""
        raise ConfigError(f"parse error{where}: {exc}") from None
    except RecursionError:
        raise ConfigError("parse error: document nested too deep") from None
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a mapping")
    config = _build({**doc, **(overrides or {})})
    # the file's own mode, unless a --mode override runs the file under another
    if config.mode == doc.get("mode"):
        for field, modes in READ_BY.items():
            if field in doc and config.mode not in modes:
                *others, last = modes
                who = f"{', '.join(others)} and {last} follow" if others else f"{last} follows"
                raise ConfigError(f"field {field!r} is not read in mode {config.mode!r}; only {who} it")
    # the file's own format, unless a --format override draws it in another
    own = doc.get("format", DEFAULT_FORMAT)
    if "scale" in doc and config.output_format == own != "ppm":
        raise ConfigError(f"field 'scale' is not read with format {own!r}; only ppm follows it")
    return config


def load_config(path, overrides: dict | None = None) -> RunConfig:
    with open(path, "rb") as fh:
        data = fh.read(MAX_CONFIG_BYTES + 1)
    if len(data) > MAX_CONFIG_BYTES:
        raise CapacityError(f"config file exceeds the cap of {MAX_CONFIG_BYTES} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not UTF-8: {exc}") from None
    return parse_config(text, overrides)


def _require(doc: dict, field: str):
    if field not in doc:
        raise ConfigError(f"missing required field {field!r}")
    return doc[field]


def _check_cap(size: int, what: str, cap: int) -> None:
    if size > cap:
        raise CapacityError(f"{size} {what} exceed the cap of {cap}")


def _is_int(raw) -> bool:
    return isinstance(raw, int) and not isinstance(raw, bool)


def _int_field(doc, field, default=None, minimum=None):
    raw = doc.get(field, default)
    if raw is None:
        raise ConfigError(f"missing required field {field!r}")
    if not _is_int(raw):
        raise ConfigError(f"field {field!r} must be an integer, got {raw!r}")
    if minimum is not None and raw < minimum:
        raise ConfigError(f"field {field!r} must be >= {minimum}")
    return raw


def _ids(raw, what: str) -> tuple[int, ...]:
    """A list of segment ids as a tuple; each must be an int, not a bool."""
    if not isinstance(raw, list) or not all(_is_int(i) for i in raw):
        raise ConfigError(f"{what} must list integer segment ids, got {raw!r}")
    return tuple(raw)


def _check_keys(spec: dict, allowed: tuple[str, ...], what: str) -> None:
    """Refuse a key of a nested mapping that nothing reads."""
    for key in spec:
        if key not in allowed:
            raise ConfigError(f"unknown {what} key {key!r}; the keys are {', '.join(allowed)}")


def _name_field(doc) -> str:
    """The run name, which artifact file names start with: one plain file name."""
    name = doc.get("name", "run")
    if not isinstance(name, str):
        raise ConfigError(f"field 'name' must be a string, got {name!r}")
    if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ConfigError(f"field 'name' must be one plain file name, got {name!r}")
    return name


def _build_topology(spec) -> Topology:
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError("field 'topology' must be a mapping with a 'type'")
    kind = spec["type"]
    if kind != "custom":
        if not isinstance(kind, str) or kind not in _TOPOLOGY_KINDS:
            raise ConfigError(f"unknown topology type {kind!r}")
        factory, fields, minimum, n_segments = _TOPOLOGY_KINDS[kind]
        _check_keys(spec, ("type", *fields), f"{kind} topology")
        dims = [_int_field(spec, f, minimum=minimum) for f in fields]
        _check_cap(n_segments(dims), "segments", MAX_SEGMENTS)
        return factory(*dims)
    # custom: segments, directions, and edge pairs keyed by direction
    _check_keys(spec, ("type", "segments", "directions", "edges"), "custom topology")
    n = _int_field(spec, "segments", minimum=1)
    _check_cap(n, "segments", MAX_SEGMENTS)
    d = _int_field(spec, "directions", minimum=1)
    _check_cap(d, "directions", MAX_DIRECTIONS)
    edges_spec = spec.get("edges", {})
    if not isinstance(edges_spec, dict):
        raise ConfigError(f"topology.edges must map directions to [i, j] pairs, got {edges_spec!r}")
    decimal = {str(direction): direction for direction in range(1, d + 1)}
    edge_sets: dict[int, frozenset] = {}
    for key, pairs in edges_spec.items():
        direction = key if _is_int(key) else decimal.get(key)
        if direction is None or not 1 <= direction <= d:
            raise ConfigError(f"topology.edges key {key!r} must be a direction in [1,{d}]")
        if direction in edge_sets:
            raise ConfigError(f"topology.edges gives direction {direction} twice")
        where = f"topology.edges[{direction}]"
        try:
            edge_sets[direction] = frozenset(_ids([i, j], f"{where} pairs") for i, j in pairs)
        except (TypeError, ValueError):
            raise ConfigError(f"{where} must be [i, j] pairs") from None
    try:
        adjacency = AdjacencyConfig(n, d, tuple(edge_sets.get(k, frozenset()) for k in range(1, d + 1)))
    except ValueError as exc:
        raise ConfigError(f"topology: {exc}") from None
    return Topology("custom", adjacency, (("segments", n),))


def _build_alphabet(spec) -> Alphabet:
    if not isinstance(spec, list) or not spec:
        raise ConfigError("field 'alphabet' must be a non-empty list")
    symbols = []
    for entry in spec:
        if isinstance(entry, str):
            symbols.append(Symbol(entry))
            continue
        if not isinstance(entry, dict) or "name" not in entry:
            raise ConfigError(f"alphabet entry {entry!r} needs a 'name'")
        if not isinstance(entry["name"], str):
            raise ConfigError(f"alphabet entry name must be a string, got {entry['name']!r}")
        _check_keys(entry, ("name", "color", "glyph"), "alphabet entry")
        color = entry.get("color")
        if color is not None:
            if not (
                isinstance(color, list)
                and len(color) == 3
                and all(type(c) is int and 0 <= c <= 255 for c in color)
            ):
                raise ConfigError(
                    f"alphabet color for {entry['name']!r} must be an RGB triple of ints in [0, 255]"
                )
            color = tuple(color)
        glyph = entry.get("glyph")
        if glyph is not None and not (isinstance(glyph, str) and len(glyph) == 1):
            raise ConfigError(f"alphabet glyph for {entry['name']!r} must be one character, got {glyph!r}")
        symbols.append(Symbol(entry["name"], color, glyph))
    try:
        return Alphabet(tuple(symbols))
    except ValueError as exc:
        raise ConfigError(f"alphabet: {exc}") from None


def _resolve_value(raw, alphabet: Alphabet) -> int:
    if _is_int(raw):
        value = raw
    else:
        try:
            value = alphabet.value_of(str(raw))
        except KeyError:
            raise ConfigError(f"unknown symbol {raw!r}") from None
    if not (1 <= value <= alphabet.n_values):
        raise ConfigError(
            f"value {value} outside the alphabet [1,{alphabet.n_values}]"
        )
    return value


def _is_ascii_digits(text: str) -> bool:
    """True for a nonempty run of 0-9 only; ``int`` would also read other
    scripts' decimal digits."""
    return text.isascii() and text.isdecimal()


def _resolve_direction(raw, topology: Topology) -> int:
    names = DIRECTION_NAMES.get(topology.kind, ())
    if _is_int(raw):
        d = raw
    elif isinstance(raw, str) and raw.lower() in names:
        d = names.index(raw.lower()) + 1
    elif isinstance(raw, str) and raw.lower().startswith("d") and _is_ascii_digits(raw[1:]):
        d = int(raw[1:])
    else:
        raise ConfigError(f"unknown direction {raw!r}")
    if not (1 <= d <= topology.adjacency.n_directions):
        raise ConfigError(
            f"direction {raw!r} outside [1,{topology.adjacency.n_directions}]"
        )
    return d


def _is_finite_number(raw) -> bool:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        return False
    try:
        return math.isfinite(raw)
    except OverflowError:  # an int too large for a float
        return False


def _build_literal_rules(spec, alphabet, topology) -> Ruleset:
    rules = []
    for entry in spec:
        if not isinstance(entry, dict) or "value" not in entry:
            raise ConfigError(f"rule entry {entry!r} needs a 'value'")
        _check_keys(entry, ("value", "weight", "pattern"), "rule")
        value = _resolve_value(entry["value"], alphabet)
        weight_spec = entry.get("weight", 1.0)
        if isinstance(weight_spec, dict):
            factor = weight_spec.get("factor", "")
            params = {k: v for k, v in weight_spec.items() if k != "factor"}
            for key, raw in params.items():
                if not _is_finite_number(raw):
                    raise ConfigError(
                        f"rule weight: factor {factor!r} parameter {key!r} must be a finite number, got {raw!r}"
                    )
            try:
                weight = make_factor(factor, **params)
            except (KeyError, TypeError) as exc:
                raise ConfigError(f"rule weight: {exc}") from None
        else:
            if not (_is_finite_number(weight_spec) and weight_spec > 0):
                raise ConfigError(f"rule weight must be a finite number > 0, got {weight_spec!r}")
            weight = float(weight_spec)
        pattern = entry.get("pattern") or {}
        if not isinstance(pattern, dict):
            raise ConfigError(f"rule pattern must map directions to values, got {pattern!r}")
        pairs = []
        for draw, vraw in pattern.items():
            pairs.append((_resolve_direction(draw, topology), _resolve_value(vraw, alphabet)))
        try:
            rules.append(Rule(value, weight, Pattern(frozenset(pairs))))
        except ValueError as exc:
            raise ConfigError(f"rule {entry!r}: {exc}") from None
    if not rules:
        raise ConfigError("field 'rules' must define at least one rule")
    try:
        return Ruleset(tuple(rules))
    except ValueError as exc:
        raise ConfigError(f"rules: {exc}") from None


def _build_from_generator(spec, topology: Topology):
    """Returns (alphabet, ruleset, validator, default_partitioning)."""
    name = spec["generator"]
    params = {k: v for k, v in spec.items() if k != "generator"}
    for key, raw in params.items():
        if not _is_finite_number(raw):
            raise ConfigError(f"generator {name!r} parameter {key!r} must be a finite number, got {raw!r}")
    if not isinstance(name, str) or name not in _GENERATORS:
        raise ConfigError(f"unknown rule generator {name!r}")
    usecase, fields = _GENERATORS[name]
    try:
        uc = usecase(*(topology.param(f) for f in fields), **params)
    except KeyError as exc:
        raise ConfigError(f"generator {name!r} incompatible with topology: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"generator {name!r}: {exc}") from None
    if uc.topology != topology:
        shape = ", ".join(f"{k}={v}" for k, v in uc.topology.params)
        raise ConfigError(f"generator {name!r} needs a {uc.topology.kind} topology with {shape}")
    return uc.alphabet, uc.ruleset, uc.validator, uc.partitioning


def _build_order(spec, topology: Topology) -> tuple[int, ...]:
    n = topology.adjacency.n_segments
    if spec is None or spec in ("raster", "spiral"):
        # ids are already raster (grids) or ring-spiral (hex discs)
        return tuple(range(1, n + 1))
    if not isinstance(spec, list):
        raise ConfigError(f"field 'order' must be 'raster', 'spiral' or a list, got {spec!r}")
    order = _ids(spec, "field 'order'")
    if sorted(order) != list(range(1, n + 1)):
        raise ConfigError("field 'order' must be a permutation of all segment ids")
    return order


def _build_partitioning(spec, topology: Topology) -> Partitioning | None:
    if spec is None:
        return None
    n = topology.adjacency.n_segments
    if isinstance(spec, list):
        part = Partitioning(tuple(_ids(block, "each block of field 'partitions'") for block in spec))
    elif isinstance(spec, str) and ":" in spec:
        scheme, _, count = spec.partition(":")
        if not _is_ascii_digits(count):
            raise ConfigError(f"partition count in {spec!r} must be an integer")
        h = int(count)
        if not 1 <= h <= n:
            raise ConfigError(f"partition count in {spec!r} must be in [1,{n}]")
        if scheme == "blocks":
            part = equal_blocks(n, h)
        elif (scheme, topology.kind) in (("rows", "grid2d"), ("layers", "grid3d")):
            if topology.param("height") % h:
                raise ConfigError(f"{h} {scheme[:-1]} groups do not divide height {topology.param('height')}")
            part = equal_blocks(n, h)
        elif scheme == "columns" and topology.kind == "grid2d":
            try:
                part = column_blocks(topology.param("width"), topology.param("height"), h)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        else:
            raise ConfigError(f"partition scheme {spec!r} not valid for topology {topology.kind!r}")
    else:
        raise ConfigError(f"field 'partitions' must be 'scheme:H' or a list of lists, got {spec!r}")
    problems = validate_partitioning(part, n)
    if problems:
        raise ConfigError("partitions: " + "; ".join(problems))
    return part


def _build(doc: dict) -> RunConfig:
    for field in doc:
        if field not in FIELDS:
            raise ConfigError(f"unknown field {field!r}; the fields are {', '.join(FIELDS)}")
    seed = _int_field(doc, "seed", minimum=0)
    mode = _require(doc, "mode")
    if mode not in MODES:
        raise ConfigError(f"field 'mode' must be one of {MODES}, got {mode!r}")
    topology = _build_topology(_require(doc, "topology"))
    shots = _int_field(doc, "shots", default=1, minimum=1)
    _check_cap(shots * topology.adjacency.n_segments, "shots x segments", MAX_SHOT_SEGMENTS)
    output_format = doc.get("format", DEFAULT_FORMAT)
    if output_format not in FORMATS:
        raise ConfigError(f"field 'format' must be one of {FORMATS}, got {output_format!r}")
    scale = _int_field(doc, "scale", default=16, minimum=1)
    if output_format == "ppm" and mode != "oracle" and can_draw("ppm", topology.kind):
        _check_cap(math.prod(ppm_size(topology, scale)), "PPM pixels", MAX_PPM_PIXELS)

    rules_spec = _require(doc, "rules")
    validator = None
    default_partitioning = None
    if isinstance(rules_spec, dict) and "generator" in rules_spec:
        alphabet, ruleset, validator, default_partitioning = _build_from_generator(
            rules_spec, topology
        )
        if "alphabet" in doc:
            alphabet = _build_alphabet(doc["alphabet"])
            if alphabet.n_values < max(r.value for r in ruleset.rules):
                raise ConfigError("alphabet is smaller than the generated ruleset requires")
    elif isinstance(rules_spec, list):
        alphabet = _build_alphabet(_require(doc, "alphabet"))
        ruleset = _build_literal_rules(rules_spec, alphabet, topology)
    else:
        raise ConfigError("field 'rules' must be a list of rules or a generator mapping")
    try:  # every factor output, once per segment (the run reuses the rows)
        for segment in range(1, topology.adjacency.n_segments + 1):
            ruleset.compiled.segment_weights(segment)
    except ValueError as exc:
        raise ConfigError(f"rule weight: {exc}") from None

    order = _build_order(doc.get("order"), topology)
    partitioning = _build_partitioning(doc.get("partitions"), topology) or default_partitioning
    return RunConfig(
        name=_name_field(doc),
        seed=seed,
        mode=mode,
        topology=topology,
        alphabet=alphabet,
        ruleset=ruleset,
        order=order,
        partitioning=partitioning,
        shots=shots,
        max_restarts=_int_field(doc, "max_restarts", default=100, minimum=0),
        output_format=output_format,
        scale=scale,
        source=doc,
        validator=validator,
    )
