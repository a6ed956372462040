"""Content model: alphabets, adjacency graphs, patterns, rules and the
pattern-based value distribution shared by every generation mode.

Content is an ordered collection of (segment id, value) pairs.  Segment ids
are 1-based in [1, N], values are 1-based in [1, W].  Adjacency is a set of
directed graphs, one per abstract direction; rules attach a weight to a value
given a pattern of required neighbor values.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass, field
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
    def _in_edge_map(self) -> dict[int, tuple[tuple[int, int], ...]]:
        m: dict[int, list[tuple[int, int]]] = {}
        for d, es in enumerate(self.edges, start=1):
            for i, j in es:
                m.setdefault(j, []).append((i, d))
        return {j: tuple(sorted(pairs)) for j, pairs in m.items()}

    def neighbors(self, segment: int, direction: int) -> tuple[int, ...]:
        """Out-neighbors of ``segment`` in 1-based ``direction``."""
        return self._neighbor_map[direction - 1].get(segment, ())

    def in_edges(self, segment: int) -> tuple[tuple[int, int], ...]:
        """Sorted (i, d) pairs such that ``segment`` is i's neighbor in
        direction d: the constraints a placement at ``segment`` changes."""
        return self._in_edge_map.get(segment, ())


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
        if dirs and min(dirs) < 1:
            raise ValueError(f"pattern directions must be >= 1, got {min(dirs)}")

    @classmethod
    def of(cls, *pairs: tuple[int, int]) -> "Pattern":
        return cls(frozenset(pairs))


@dataclass(frozen=True)
class FunctionalWeight:
    """Named weight function of the segment id alone, built by ``make_factor``.

    It must return a finite value >= 0.  Reading no placed value, it gives
    every engine the same weight row at a segment (see ``segment_weights``).
    """

    name: str
    params: tuple[tuple[str, float], ...]
    fn: Callable[[int], float] = field(compare=False)


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
        total = sum(r.weight for r in self.rules if not isinstance(r.weight, FunctionalWeight))
        if not math.isfinite(total):
            raise ValueError(f"constant rule weights sum to {total}, past the float64 range")

    def __len__(self) -> int:
        return len(self.rules)

    @cached_property
    def compiled(self) -> "CompiledRuleset":
        return CompiledRuleset(self)


# cells per compiled ruleset, shared by its seven caches; a cell costs up to
# ~300 B on the worlds measured (see CompiledRuleset), ~300 MB at the cap
_CACHE_CAP = 1 << 20


class CompiledRuleset:
    """Array form of a ruleset for batched pattern matching, and the caches
    that read it.

    ``required[row, d-1]`` is the value rule ``row`` needs in direction d
    (0 = none), one column per direction up to the largest a pattern names,
    so the compile serves every adjacency with at least that many directions.
    """

    def __init__(self, ruleset: Ruleset):
        m = len(ruleset.rules)
        # Seven caches, each filled through _cache on a miss while cache_cells
        # stays within _CACHE_CAP, never evicted.  Per kept object its cells,
        # and the bytes per cell tracemalloc sees (CPython 3.11, 64-bit):
        # - dist_cache: signature_entry's by (signature, W, factor outputs), W
        #   cells or 1 for a conflict: ~250 B at W = 2, ~300 at 1, ~65 at 16
        # - circuits: quantum.build_circuit's by (adjacency, order, W), its
        #   state's entries plus W per load: 17-50 B, ~230 for a tiny state;
        #   plus the pairs its layout's decode tables can hold (table_cells),
        #   whether or not shots fill them: ~41 B in a dict of ten, ~310 alone
        # - block_cache: hwfc blocks by (shape id, W, interface values): a
        #   product block's factors, W per segment, whose walked state, kept
        #   only for a draw near a boundary and for hwfc_exact_distribution,
        #   keys with "walked" appended; a dependency block's walked state,
        #   its entries: 40-60 B.  A state's support dict, once
        #   exact_distribution reads it, adds ~85 B an entry.  And the rows
        #   (index, amplitude arrays) after step j of a dependency block's
        #   walk, by (shape id, W, the interface values steps 1..j read, j),
        #   one cell per row: 37-45 B
        # - schedules: hybrid._schedule's by (adjacency, W, blocks), their
        #   blocks' segments, and per dependency block's walk step one, its
        #   recipe's cells, its dependency offsets and W lifted values:
        #   22-65 B; shape_ids: its walk shapes interned to ids, counted as
        #   plans are: 60-85 B
        # - plans: quantum.order_plan's by (adjacency, order), per step one, its
        #   dependencies and per direction one plus what it lists: ~60 B
        # - cwfc_steps: classic._steps' tables by (adjacency, W), their
        #   segments plus their in-edges: ~95 B
        # Keys that hold an AdjacencyConfig keep it alive uncharged, with the
        # neighbour maps it builds: ~1.0 MB for checkerboard 32x32.
        self.dist_cache: dict[tuple, object] = {}
        self.circuits: dict[tuple, object] = {}
        self.block_cache: dict[tuple, object] = {}
        self.schedules: dict[tuple, tuple] = {}
        self.shape_ids: dict[tuple, int] = {}
        self.plans: dict[tuple, tuple] = {}
        self.cwfc_steps: dict[tuple, tuple] = {}
        self.cache_cells = 0
        self.max_value = max(rule.value for rule in ruleset.rules)
        self.pattern_directions = frozenset(
            d for rule in ruleset.rules for d, _ in rule.pattern.pairs
        )
        self.max_direction = max(self.pattern_directions, default=0)
        self.required = np.zeros((m, self.max_direction), dtype=np.int64)
        self.values = np.zeros(m, dtype=np.int64)
        self.const_u = np.zeros(m, dtype=np.float64)
        self.func_rows: list[tuple[int, FunctionalWeight]] = []
        for row, rule in enumerate(ruleset.rules):
            self.values[row] = rule.value
            for d, v in rule.pattern.pairs:
                self.required[row, d - 1] = v
            if isinstance(rule.weight, FunctionalWeight):
                self.func_rows.append((row, rule.weight))
            else:
                self.const_u[row] = rule.weight
        self._segment_weights: dict[int, tuple[tuple[float, ...], np.ndarray]] = {}
        self._rows: dict[tuple[float, ...], np.ndarray] = {}  # weight row by factor outputs

    def segment_weights(self, segment: int) -> tuple[tuple[float, ...], np.ndarray]:
        """The factors' outputs at ``segment`` and the weight row they give,
        resolved once per segment id; segments with equal outputs share one
        row.  ``((), const_u)`` without factors.  A bad output, or a row whose
        sum overflows, is not kept, so it raises on every call."""
        if not self.func_rows:
            return (), self.const_u
        entry = self._segment_weights.get(segment)
        if entry is None:
            outputs = tuple(_factor_output(fw, segment) for _, fw in self.func_rows)
            u = self._rows.get(outputs)
            if u is None:
                u = self.const_u.copy()
                u[[row for row, _ in self.func_rows]] = outputs
                total = sum(u.tolist())
                if not math.isfinite(total):
                    raise ValueError(f"weights at segment {segment} sum to {total}, past the float64 range")
                self._rows[outputs] = u
            entry = self._segment_weights[segment] = (outputs, u)
        return entry

    def check(self, n_directions: int, n_values: int | None = None) -> None:
        """Raise ValueError if a pattern names a direction past
        ``n_directions`` or, given ``n_values``, a rule's value lies past it."""
        if self.max_direction > n_directions:
            raise ValueError(f"pattern direction {self.max_direction} outside [1,{n_directions}]")
        if n_values is not None and self.max_value > n_values:
            raise ValueError(f"rule value {self.max_value} outside the alphabet [1,{n_values}]")


def _cache(comp: CompiledRuleset, cache: dict, key, value, cells: int):
    """``value``, kept in ``cache`` under ``key`` if its ``cells`` fit the
    compiled ruleset's ``_CACHE_CAP``."""
    if comp.cache_cells + cells <= _CACHE_CAP:
        cache[key] = value
        comp.cache_cells += cells
    return value


# --- functional factors ----------------------------------------------------


def _bottom_layer_only(u: float, layer_size: int):
    def fn(segment):
        return u if segment <= layer_size else 0.0

    return fn


def _above_bottom_layer(u: float, layer_size: int):
    def fn(segment):
        return 0.0 if segment <= layer_size else u

    return fn


def _interior_layers_only(u: float, layer_size: int, n_segments: int):
    def fn(segment):
        return u if layer_size < segment <= n_segments - layer_size else 0.0

    return fn


_FACTORIES = {
    "bottom_layer_only": _bottom_layer_only,
    "above_bottom_layer": _above_bottom_layer,
    "interior_layers_only": _interior_layers_only,
}


def make_factor(name: str, **params: float) -> FunctionalWeight:
    """Instantiate a named functional weight, e.g. bottom_layer_only."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(f"unknown functional factor {name!r}") from None
    return FunctionalWeight(name, tuple(sorted(params.items())), factory(**params))


def _factor_output(fw: FunctionalWeight, segment: int) -> float:
    w = fw.fn(segment)
    if not (math.isfinite(w) and w >= 0):
        raise ValueError(f"functional factor {fw.name!r} returned {w}, expected a finite value >= 0")
    return w


# --------------------------------------------------------------------------
# content
# --------------------------------------------------------------------------


class ContentInstance:
    """Ordered (segment id, value) pairs; partial while shorter than N.
    An instance stores only ``mapping``, an ordered dict copied from the
    pairs or dict given (``_adopt`` takes a fresh dict as it is); ``entries``,
    the pairs as a tuple, is built on first read, and equality, hash and repr
    read it.  Attributes are read-only."""

    def __init__(self, entries: tuple[tuple[int, int], ...] | Mapping[int, int] = ()):
        mapping = dict(entries)
        if len(mapping) != len(entries):
            raise ValueError("segment ids must be pairwise distinct")
        # object.__setattr__ stores it without building a per-instance __dict__
        object.__setattr__(self, "mapping", mapping)

    @classmethod
    def _adopt(cls, mapping: dict[int, int]) -> "ContentInstance":
        """An instance whose ``mapping`` is ``mapping`` itself, neither copied
        nor checked: for a fresh dict that no one else holds or changes."""
        instance = object.__new__(cls)
        object.__setattr__(instance, "mapping", mapping)
        return instance

    @cached_property
    def entries(self) -> tuple[tuple[int, int], ...]:
        return tuple(self.mapping.items())

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.entries,))

    def __repr__(self) -> str:
        return f"ContentInstance(entries={self.entries!r})"

    def __len__(self) -> int:
        return len(self.mapping)

    def add(self, segment: int, value: int) -> "ContentInstance":
        """Child with one more pair.  Only the new id is checked; the child
        starts from a copy of this instance's mapping."""
        mapping = self.mapping
        if segment in mapping:
            raise ValueError("segment ids must be pairwise distinct")
        return ContentInstance._adopt({**mapping, segment: value})


# --------------------------------------------------------------------------
# pattern matching and value distribution
# --------------------------------------------------------------------------


_CONFLICT = object()  # cache sentinel for keys with no admissible value


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


def _distribution_entry(
    segment: int,
    adjacency: AdjacencyConfig,
    content: ContentInstance,
    ruleset: Ruleset,
    n_values: int,
) -> tuple[np.ndarray, float, tuple[float, ...]]:
    """``signature_entry`` for one segment of ``content``; raises
    ConflictError where it is None."""
    comp = ruleset.compiled
    comp.check(adjacency.n_directions, n_values)
    # Directions past the last one a pattern names match every rule.
    signature = constraint_signature(segment, adjacency, content.mapping)[: comp.max_direction]
    entry = signature_entry(comp, signature, n_values, segment)
    if entry is None:
        raise ConflictError(segment, content)
    return entry


def signature_entry(
    comp: CompiledRuleset, signature: tuple[int, ...], n_values: int, segment: int
) -> tuple[np.ndarray, float, tuple[float, ...]] | None:
    """Cached (read-only probabilities, entropy in nats, cumulative sum as a
    tuple of floats) for ``segment`` under ``signature``, cut to
    ``comp.max_direction``; None when no value is admissible.

    The vector reads the signature, W and the segment's weight row, which
    the functional weights' outputs fix, never the segment itself: one entry
    (a conflict included) serves every segment and every adjacency that
    shows the same key.  W is part of the key because it fixes the vector's
    length.  cwfc (``classic.Placement.run``) reads this key in
    ``comp.dist_cache`` itself and calls this only on a miss or a conflict.
    """
    outputs, u = comp.segment_weights(segment)
    key = (signature, n_values, outputs)
    cache = comp.dist_cache
    entry = cache.get(key)
    if entry is None:
        entry = _fill_entry(comp, signature, n_values, u)
        _cache(comp, cache, key, entry, 1 if entry is _CONFLICT else n_values)
    return None if entry is _CONFLICT else entry


def _fill_entry(comp: CompiledRuleset, signature, n_values: int, u: np.ndarray) -> object:
    constraint = np.array(signature, dtype=np.int64)
    match = np.all(
        (comp.required == 0) | (constraint == 0) | (comp.required == constraint),
        axis=1,
    )
    weights = np.bincount(comp.values[match] - 1, weights=u[match], minlength=n_values)
    total = weights.sum()
    if total <= 0.0:
        return _CONFLICT
    probs = weights / total
    nz = probs[probs > 0.0]
    probs.setflags(write=False)
    return probs, float(-(nz * np.log(nz)).sum()), tuple(np.cumsum(probs).tolist())


def value_distribution(
    segment: int,
    adjacency: AdjacencyConfig,
    content: ContentInstance,
    ruleset: Ruleset,
    n_values: int,
) -> np.ndarray:
    """Normalized, read-only probability vector over the alphabet for one
    segment.

    Each value's weight is the sum of rule weights whose pattern matches the
    placed content.  The oracle's selector and the tests call it; the
    circuit compile and cwfc derive their signatures themselves and read
    ``signature_entry``.  Raises ConflictError when every weight vanishes,
    and ValueError when a rule's value lies outside [1, n_values], a pattern
    direction outside [1, D], or a functional weight returns a value that is
    not finite and >= 0.
    """
    return _distribution_entry(segment, adjacency, content, ruleset, n_values)[0]


def value_entropy(
    segment: int,
    adjacency: AdjacencyConfig,
    content: ContentInstance,
    ruleset: Ruleset,
    n_values: int,
) -> float:
    """Entropy in nats (0 ln 0 := 0) of ``value_distribution``'s vector,
    computed once per cache entry.  Raises as ``value_distribution`` does."""
    return _distribution_entry(segment, adjacency, content, ruleset, n_values)[1]


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
    for seg in reversed(segments):
        key = key << q | (values[seg] - 1)
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

    @classmethod
    def fold(cls, segments: tuple[int, ...], n_values: int, masses) -> Distribution:
        """Sum the mass of each (segment-value pairs, mass) item, in the order
        given, onto the canonical encoding of its pairs over ``segments``."""
        probs: dict[int, float] = {}
        for pairs, mass in masses:
            key = encode_values(dict(pairs), segments, n_values)
            probs[key] = probs.get(key, 0.0) + mass
        return cls(segments, n_values, probs)

    def total_mass(self) -> float:
        return math.fsum(self.probs.values())
