"""Content model: alphabets, adjacency graphs, patterns, rules and the
pattern-based value distribution shared by every generation mode.

Content is an ordered collection of (segment id, value) pairs.  Segment ids
are 1-based in [1, N], values are 1-based in [1, W].  Adjacency is a set of
directed graphs, one per abstract direction; rules attach a weight to a value
given a pattern of required neighbor values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from .errors import ConflictError

# --------------------------------------------------------------------------
# alphabet
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Symbol:
    """One alphabet entry with optional render hints."""

    name: str
    color: tuple[int, int, int] | None = None
    glyph: str | None = None


@dataclass(frozen=True)
class Alphabet:
    symbols: tuple[Symbol, ...]

    def __post_init__(self):
        if len(self.symbols) < 1:
            raise ValueError("alphabet needs at least one symbol")
        names = [s.name for s in self.symbols]
        if len(set(names)) != len(names):
            raise ValueError("symbol names must be unique")

    @property
    def n_values(self) -> int:
        return len(self.symbols)

    def symbol(self, value: int) -> Symbol:
        """Symbol record for a 1-based value."""
        return self.symbols[value - 1]

    def value_of(self, name: str) -> int:
        for idx, s in enumerate(self.symbols):
            if s.name == name:
                return idx + 1
        raise KeyError(name)


def make_alphabet(*specs) -> Alphabet:
    """Build an alphabet from (name, color, glyph) tuples or plain names."""
    symbols = []
    for spec in specs:
        if isinstance(spec, str):
            symbols.append(Symbol(spec))
        else:
            symbols.append(Symbol(*spec))
    return Alphabet(tuple(symbols))


# --------------------------------------------------------------------------
# adjacency
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AdjacencyConfig:
    """Directed neighbor graphs, one per direction.

    ``edges[d-1]`` holds the (i, j) pairs meaning "segment i has neighbor j
    in direction d".  Directions are 1-based.
    """

    n_segments: int
    n_directions: int
    edges: tuple[frozenset[tuple[int, int]], ...]

    def __post_init__(self):
        if len(self.edges) != self.n_directions:
            raise ValueError("need one edge set per direction")
        for es in self.edges:
            for i, j in es:
                if not (1 <= i <= self.n_segments and 1 <= j <= self.n_segments):
                    raise ValueError(f"edge ({i},{j}) out of range")

    @cached_property
    def _neighbor_map(self) -> tuple[dict[int, tuple[int, ...]], ...]:
        maps = []
        for es in self.edges:
            m: dict[int, list[int]] = {}
            for i, j in es:
                m.setdefault(i, []).append(j)
            maps.append({i: tuple(sorted(js)) for i, js in m.items()})
        return tuple(maps)

    @cached_property
    def _influencer_map(self) -> dict[int, tuple[int, ...]]:
        # i influences j's value distribution iff j has an edge toward i in
        # some direction; used for incremental entropy updates.
        m: dict[int, set[int]] = {}
        for es in self.edges:
            for i, j in es:
                m.setdefault(j, set()).add(i)
        return {j: tuple(sorted(s)) for j, s in m.items()}

    def neighbors(self, segment: int, direction: int) -> tuple[int, ...]:
        """Out-neighbors of ``segment`` in 1-based ``direction``."""
        return self._neighbor_map[direction - 1].get(segment, ())

    def influenced_by(self, segment: int) -> tuple[int, ...]:
        """Segments whose value distribution may change once ``segment`` is placed."""
        return self._influencer_map.get(segment, ())


def build_grid2d(width: int, height: int) -> AdjacencyConfig:
    """Nearest-neighbor 2D grid, D=4: right (1), up (2), left (3), down (4).

    Segment ids are row-major starting at 1 with y=0 the top row; boundaries
    are open (missing neighbors impose no constraint).
    """
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be >= 1")

    def sid(x, y):
        return y * width + x + 1

    steps = ((1, 0), (0, -1), (-1, 0), (0, 1))
    edges = []
    for dx, dy in steps:
        es = set()
        for y in range(height):
            for x in range(width):
                nx, ny = x + dx, y + dy
                if 0 <= nx < width and 0 <= ny < height:
                    es.add((sid(x, y), sid(nx, ny)))
        edges.append(frozenset(es))
    return AdjacencyConfig(width * height, 4, tuple(edges))


# Axial steps for a pointy-top layout, counterclockwise starting east.
HEX_DIRECTIONS = ((1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1))


def hexgrid_coordinates(radius: int) -> tuple[tuple[int, int], ...]:
    """Axial (q, r) coordinates of a hex disc, ring-spiral from the center.

    Each ring starts at its easternmost cell and proceeds counterclockwise,
    so segment ids double as a canonical center-out generation order.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    coords = [(0, 0)]
    # Walk order that traverses a ring CCW when starting from its east cell.
    walk = (2, 3, 4, 5, 0, 1)
    for ring in range(1, radius + 1):
        cur = (ring, 0)
        for di in walk:
            dq, dr = HEX_DIRECTIONS[di]
            for _ in range(ring):
                coords.append(cur)
                cur = (cur[0] + dq, cur[1] + dr)
    return tuple(coords)


def build_hexgrid(radius: int) -> AdjacencyConfig:
    """Hexagonal disc with D=6 nearest-neighbor directions (CCW from east)."""
    coords = hexgrid_coordinates(radius)
    index = {c: i + 1 for i, c in enumerate(coords)}
    edges = []
    for dq, dr in HEX_DIRECTIONS:
        es = set()
        for c, i in index.items():
            j = index.get((c[0] + dq, c[1] + dr))
            if j is not None:
                es.add((i, j))
        edges.append(frozenset(es))
    return AdjacencyConfig(len(coords), 6, tuple(edges))


def build_grid3d_columns(width: int, depth: int, height: int) -> AdjacencyConfig:
    """3D grid with vertical adjacency only, D=2: above (1), below (2).

    Ids are layer-major bottom-up: id = z*width*depth + y*width + x + 1 with
    z=0 the ground layer, so ascending ids build from the ground up.
    """
    if width < 1 or depth < 1 or height < 1:
        raise ValueError("grid dimensions must be >= 1")
    layer = width * depth

    def sid(x, y, z):
        return z * layer + y * width + x + 1

    above, below = set(), set()
    for z in range(height):
        for y in range(depth):
            for x in range(width):
                if z + 1 < height:
                    above.add((sid(x, y, z), sid(x, y, z + 1)))
                if z - 1 >= 0:
                    below.add((sid(x, y, z), sid(x, y, z - 1)))
    return AdjacencyConfig(layer * height, 2, (frozenset(above), frozenset(below)))


# --------------------------------------------------------------------------
# patterns and rules
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Pattern:
    """Set of (direction, required value) pairs; directions pairwise distinct."""

    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        dirs = [d for d, _ in self.pairs]
        if len(set(dirs)) != len(dirs):
            raise ValueError("pattern directions must be pairwise distinct")

    @classmethod
    def of(cls, *pairs: tuple[int, int]) -> "Pattern":
        return cls(frozenset(pairs))


EMPTY_PATTERN = Pattern(frozenset())


@dataclass(frozen=True)
class FunctionalWeight:
    """Named weight function resolved from the factor registry.

    The callable receives (segment id, merged placed-value mapping) and must
    return a value >= 0.
    """

    name: str
    params: tuple[tuple[str, float], ...]
    fn: Callable[[int, Mapping[int, int]], float] = field(compare=False)


@dataclass(frozen=True)
class Rule:
    value: int
    weight: float | FunctionalWeight
    pattern: Pattern

    def __post_init__(self):
        if self.value < 1:
            raise ValueError(f"rule values must be >= 1, got {self.value}")
        if not isinstance(self.weight, FunctionalWeight) and not (
            math.isfinite(self.weight) and self.weight > 0
        ):
            raise ValueError(f"constant rule weights must be finite and > 0, got {self.weight}")


@dataclass(frozen=True)
class Ruleset:
    rules: tuple[Rule, ...]

    def __post_init__(self):
        if len(self.rules) < 1:
            raise ValueError("a ruleset needs at least one rule")

    def __len__(self) -> int:
        return len(self.rules)

    def _compiled(self, n_directions: int) -> "_CompiledRuleset":
        cache = self.__dict__.setdefault("_compile_cache", {})
        comp = cache.get(n_directions)
        if comp is None:
            comp = _CompiledRuleset(self, n_directions)
            cache[n_directions] = comp
        return comp


class _CompiledRuleset:
    """Array form of a ruleset for fast batched pattern matching."""

    def __init__(self, ruleset: Ruleset, n_directions: int):
        m = len(ruleset.rules)
        self.dist_cache: dict[tuple[tuple[int, ...], int], object] = {}
        self.max_value = max(rule.value for rule in ruleset.rules)
        self.required = np.zeros((m, n_directions), dtype=np.int64)
        self.values = np.zeros(m, dtype=np.int64)
        self.const_u = np.zeros(m, dtype=np.float64)
        self.func_rows: list[tuple[int, FunctionalWeight]] = []
        self.pattern_directions = frozenset(
            d for rule in ruleset.rules for d, _ in rule.pattern.pairs
        )
        for row, rule in enumerate(ruleset.rules):
            self.values[row] = rule.value
            for d, v in rule.pattern.pairs:
                if not (1 <= d <= n_directions):
                    raise ValueError(f"pattern direction {d} outside [1,{n_directions}]")
                self.required[row, d - 1] = v
            if isinstance(rule.weight, FunctionalWeight):
                self.func_rows.append((row, rule.weight))
            else:
                self.const_u[row] = rule.weight


# --- functional factor registry -------------------------------------------

_FACTOR_REGISTRY: dict[str, Callable[..., Callable[[int, Mapping[int, int]], float]]] = {}


def register_factor(name: str, factory) -> None:
    _FACTOR_REGISTRY[name] = factory


def make_factor(name: str, **params: float) -> FunctionalWeight:
    """Instantiate a registered functional weight, e.g. bottom_layer_only."""
    try:
        factory = _FACTOR_REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown functional factor {name!r}") from None
    fn = factory(**params)
    return FunctionalWeight(name, tuple(sorted(params.items())), fn)


def _bottom_layer_only(u: float, layer_size: int):
    def fn(segment, _content):
        return u if segment <= layer_size else 0.0

    return fn


def _above_bottom_layer(u: float, layer_size: int):
    def fn(segment, _content):
        return 0.0 if segment <= layer_size else u

    return fn


def _interior_layers_only(u: float, layer_size: int, n_segments: int):
    def fn(segment, _content):
        if segment <= layer_size or segment > n_segments - layer_size:
            return 0.0
        return u

    return fn


register_factor("bottom_layer_only", _bottom_layer_only)
register_factor("above_bottom_layer", _above_bottom_layer)
register_factor("interior_layers_only", _interior_layers_only)


# --------------------------------------------------------------------------
# content
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ContentInstance:
    """Ordered (segment id, value) pairs; partial while shorter than N."""

    entries: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        ids = [i for i, _ in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError("segment ids must be pairwise distinct")

    @cached_property
    def mapping(self) -> dict[int, int]:
        return dict(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, segment: int, value: int) -> "ContentInstance":
        return ContentInstance(self.entries + ((segment, value),))

    def union(self, other: "ContentInstance") -> "ContentInstance":
        return ContentInstance(self.entries + other.entries)

    def value_of(self, segment: int) -> int:
        return self.mapping[segment]

    def is_complete(self, n_segments: int) -> bool:
        return len(self.entries) == n_segments


EMPTY_CONTENT = ContentInstance()


# --------------------------------------------------------------------------
# pattern matching and value distribution
# --------------------------------------------------------------------------


_CONFLICT = object()  # cache sentinel for signatures with no admissible value
_DIST_CACHE_CAP = 1 << 18


def constraint_signature(
    segment: int,
    adjacency: AdjacencyConfig,
    placed: Mapping[int, int],
    extra: Mapping[int, int] | None = None,
) -> tuple[int, ...]:
    """Per-direction neighbor constraint: 0 = unconstrained, -1 = placed
    neighbors contradict each other, otherwise the common placed value."""
    out = []
    for d in range(1, adjacency.n_directions + 1):
        val = 0
        for s in adjacency.neighbors(segment, d):
            v = placed.get(s)
            if v is None and extra is not None:
                v = extra.get(s)
            if v is None:
                continue
            if val == 0:
                val = v
            elif val != v:
                val = -1
                break
        out.append(val)
    return tuple(out)


def value_distribution(
    segment: int,
    adjacency: AdjacencyConfig,
    content: ContentInstance,
    ruleset: Ruleset,
    n_values: int,
    frozen: ContentInstance | None = None,
) -> np.ndarray:
    """Normalized probability vector over the alphabet for one segment.

    Each value's weight is the sum of rule weights whose pattern matches the
    placed content (plus the frozen context, if any).  Raises ConflictError
    when every weight vanishes, and ValueError when a rule's value lies
    outside [1, n_values].
    """
    comp = ruleset._compiled(adjacency.n_directions)
    if comp.max_value > n_values:
        raise ValueError(f"rule value {comp.max_value} outside the alphabet [1,{n_values}]")
    placed = content.mapping
    extra = frozen.mapping if frozen is not None else None
    signature = constraint_signature(segment, adjacency, placed, extra)

    # With constant weights the result reads the signature, never the
    # segment: one entry (a conflict included) serves every segment and every
    # adjacency with this D that shows the same neighbourhood.  W is part of
    # the key because it fixes the vector's length.
    key = (signature, n_values)
    cache = None
    if not comp.func_rows and len(comp.dist_cache) < _DIST_CACHE_CAP:
        cache = comp.dist_cache
        hit = cache.get(key)
        if hit is not None:
            if hit is _CONFLICT:
                raise ConflictError(segment, content)
            return hit

    constraint = np.array(signature, dtype=np.int64)
    match = np.all(
        (comp.required == 0) | (constraint == 0) | (comp.required == constraint),
        axis=1,
    )
    u = comp.const_u
    if comp.func_rows:
        u = u.copy()
        merged = dict(placed)
        if extra:
            merged.update(extra)
        for row, fw in comp.func_rows:
            w = fw.fn(segment, merged)
            if not (math.isfinite(w) and w >= 0):
                raise ValueError(
                    f"functional factor {fw.name!r} returned {w}, expected a finite value >= 0"
                )
            u[row] = w

    weights = np.bincount(comp.values[match] - 1, weights=u[match], minlength=n_values)
    total = weights.sum()
    if total <= 0.0:
        if cache is not None:
            cache[key] = _CONFLICT
        raise ConflictError(segment, content)
    probs = weights / total
    if cache is not None:
        probs.setflags(write=False)
        cache[key] = probs
    return probs


# --------------------------------------------------------------------------
# canonical integer encoding and distributions
# --------------------------------------------------------------------------


def bits_per_value(n_values: int) -> int:
    """Bits needed to store a value as v-1 in binary (0 when W == 1)."""
    return (n_values - 1).bit_length()


def encode_values(values: Mapping[int, int], segments: tuple[int, ...], n_values: int) -> int:
    """Pack per-segment values into a basis integer.

    The group of the j-th segment in ``segments`` occupies bit positions
    j*q .. (j+1)*q-1 with the value stored little-endian as v-1.
    """
    q = bits_per_value(n_values)
    key = 0
    for pos, seg in enumerate(segments):
        key |= (values[seg] - 1) << (pos * q)
    return key


def decode_values(key: int, segments: tuple[int, ...], n_values: int) -> tuple[tuple[int, int], ...]:
    q = bits_per_value(n_values)
    mask = (1 << q) - 1
    out = []
    for pos, seg in enumerate(segments):
        v = ((key >> (pos * q)) & mask) + 1
        if v > n_values:
            raise ValueError(f"basis key {key} decodes outside the alphabet")
        out.append((seg, v))
    return tuple(out)


@dataclass(frozen=True)
class Distribution:
    """Exact or empirical probabilities over complete content instances.

    Keys are basis integers under the canonical encoding for ``segments``.
    """

    segments: tuple[int, ...]
    n_values: int
    probs: dict[int, float]

    def total_mass(self) -> float:
        return math.fsum(self.probs.values())

    def decode(self, key: int) -> ContentInstance:
        return ContentInstance(decode_values(key, self.segments, self.n_values))

    def items_sorted(self):
        return sorted(self.probs.items())
