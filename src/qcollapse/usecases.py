"""Demonstration corpus: five ready-made use cases with rulesets, default
orders, partitionings and validators over complete instances."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Callable

from .hybrid import Partitioning, column_blocks, equal_blocks
from .model import (
    Alphabet,
    ContentInstance,
    Pattern,
    Rule,
    Ruleset,
    make_alphabet,
    make_factor,
)
from .topology import Topology, grid2d_topology, grid3d_topology, hexgrid_topology


@dataclass(frozen=True)
class UseCase:
    name: str
    topology: Topology
    alphabet: Alphabet
    ruleset: Ruleset
    partitioning: Partitioning
    validator: Callable[[ContentInstance], list[str]]

    @property
    def adjacency(self):
        return self.topology.adjacency

    @cached_property
    def order(self) -> tuple[int, ...]:
        """The segment order: ascending ids, which the topologies number so
        that it is raster on a grid, ring-spiral from the centre on a hex
        disc, and layer by layer from the ground up in 3-D (a platformer's
        bottom row first, building upward)."""
        return tuple(range(1, self.adjacency.n_segments + 1))


# --------------------------------------------------------------------------
# checkerboard
# --------------------------------------------------------------------------


def checkerboard_ruleset() -> Ruleset:
    """Two rules: a cell takes the color opposite to all four neighbors."""
    all_of = lambda v: Pattern.of((1, v), (2, v), (3, v), (4, v))
    return Ruleset((Rule(2, 1.0, all_of(1)), Rule(1, 1.0, all_of(2))))


def checkerboard_usecase(width: int, height: int) -> UseCase:
    topology = grid2d_topology(width, height)
    alphabet = make_alphabet(("black", (20, 20, 20), "#"), ("white", (235, 235, 235), "."))
    adjacency = topology.adjacency

    def validator(instance: ContentInstance) -> list[str]:
        values = instance.mapping
        bad = []
        for es in adjacency.edges:
            for i, j in es:
                if values[i] == values[j]:
                    bad.append(f"segments {i} and {j} share color {values[i]}")
        return sorted(set(bad))

    n = adjacency.n_segments
    return UseCase(
        "checkerboard",
        topology,
        alphabet,
        checkerboard_ruleset(),
        equal_blocks(n, height),
        validator,
    )


# --------------------------------------------------------------------------
# pipes
# --------------------------------------------------------------------------

# Port sets per tile, keyed by direction: 1 right, 2 up, 3 left, 4 down.
PIPE_PORTS: tuple[frozenset[int], ...] = (
    frozenset(),          # 1 blank
    frozenset({1, 3}),    # 2 horizontal
    frozenset({2, 4}),    # 3 vertical
    frozenset({1, 4}),    # 4 elbow right-down
    frozenset({3, 4}),    # 5 elbow left-down
    frozenset({1, 2}),    # 6 elbow right-up
    frozenset({3, 2}),    # 7 elbow left-up
    frozenset({1, 2, 3, 4}),  # 8 cross
)

_OPPOSITE = {1: 3, 2: 4, 3: 1, 4: 2}


def pipes_compatible(center: int, neighbor: int, direction: int) -> bool:
    """True iff the facing ports of the two tiles agree."""
    has_port = direction in PIPE_PORTS[center - 1]
    faces_back = _OPPOSITE[direction] in PIPE_PORTS[neighbor - 1]
    return has_port == faces_back


# _PIPES_OK[d - 1][center][neighbor] is pipes_compatible(center, neighbor, d)
# for tiles 1..8 (index 0 unused), tabled once for the validator.
_PIPES_OK = tuple(
    tuple(tuple(c > 0 and t > 0 and pipes_compatible(c, t, d) for t in range(9)) for c in range(9))
    for d in (1, 2, 3, 4)
)


def generate_pipes_ruleset() -> Ruleset:
    """Full-neighborhood rules for connected pipe networks (8 * 4^4 = 2048)."""
    rules = []
    for center in range(1, 9):
        allowed = [
            [t for t in range(1, 9) if pipes_compatible(center, t, d)]
            for d in (1, 2, 3, 4)
        ]
        for combo in product(*allowed):
            pattern = Pattern.of(*((d, v) for d, v in zip((1, 2, 3, 4), combo)))
            rules.append(Rule(center, 1.0, pattern))
    return Ruleset(tuple(rules))


def pipes_usecase(width: int, height: int) -> UseCase:
    topology = grid2d_topology(width, height)
    alphabet = make_alphabet(
        ("blank", (255, 255, 255), " "),
        ("horizontal", (40, 90, 200), "-"),
        ("vertical", (40, 90, 200), "|"),
        ("elbow-rd", (40, 90, 200), "r"),
        ("elbow-ld", (40, 90, 200), "7"),
        ("elbow-ru", (40, 90, 200), "L"),
        ("elbow-lu", (40, 90, 200), "J"),
        ("cross", (40, 90, 200), "+"),
    )
    adjacency = topology.adjacency

    def validator(instance: ContentInstance) -> list[str]:
        values = instance.mapping
        bad = []
        for d, ok in enumerate(_PIPES_OK, start=1):
            for i, j in adjacency.edges[d - 1]:
                if not ok[values[i]][values[j]]:
                    bad.append(f"port mismatch between {i} and {j} (direction {d})")
        return sorted(set(bad))

    return UseCase(
        "pipes",
        topology,
        alphabet,
        generate_pipes_ruleset(),
        column_blocks(width, height, width),  # one partition per column
        validator,
    )


# --------------------------------------------------------------------------
# hexagon map
# --------------------------------------------------------------------------

# Terrain chain blue-yellow-green-gray: a color may neighbor itself and its
# immediate chain neighbors.


def hexmap_allowed(color: int) -> tuple[int, ...]:
    return tuple(c for c in (color - 1, color, color + 1) if 1 <= c <= 4)


def generate_hexmap_ruleset(u_blue: float = 5.0) -> Ruleset:
    """Full 6-neighborhood chain rules (2^6 + 3^6 + 3^6 + 2^6 = 1586)."""
    if u_blue <= 0:
        raise ValueError("u_blue must be > 0")
    rules = []
    for center in range(1, 5):
        weight = u_blue if center == 1 else 1.0
        for combo in product(hexmap_allowed(center), repeat=6):
            pattern = Pattern.of(*((d, v) for d, v in zip(range(1, 7), combo)))
            rules.append(Rule(center, weight, pattern))
    return Ruleset(tuple(rules))


def hexmap_usecase(radius: int, u_blue: float = 5.0) -> UseCase:
    topology = hexgrid_topology(radius)
    alphabet = make_alphabet(
        ("blue", (60, 110, 220), "~"),
        ("yellow", (230, 200, 90), "s"),
        ("green", (70, 160, 70), "g"),
        ("gray", (130, 130, 130), "^"),
    )
    adjacency = topology.adjacency

    def validator(instance: ContentInstance) -> list[str]:
        values = instance.mapping
        bad = []
        for es in adjacency.edges:
            for i, j in es:
                if abs(values[i] - values[j]) > 1:
                    bad.append(f"colors of {i} and {j} are not chain-adjacent")
        return sorted(set(bad))

    n = adjacency.n_segments
    return UseCase(
        "hexmap",
        topology,
        alphabet,
        generate_hexmap_ruleset(u_blue),
        equal_blocks(n, 2 if n > 1 else 1),
        validator,
    )


# --------------------------------------------------------------------------
# platformer
# --------------------------------------------------------------------------

GROUND, GRASS, MUSHROOM, BLOCK, AIR, TREE_BOTTOM, TREE_MIDDLE, TREE_TOP = range(1, 9)

# (below, above) pairs a finished level may contain; the bottom row is all
# ground and a tree may be cut off by the top edge.
PLATFORMER_ALLOWED_ABOVE: frozenset[tuple[int, int]] = frozenset(
    {
        (GROUND, GROUND),
        (GROUND, GRASS),
        (GROUND, MUSHROOM),
        (GRASS, MUSHROOM),
        (GRASS, TREE_BOTTOM),
        (GRASS, AIR),
        (MUSHROOM, AIR),
        (TREE_BOTTOM, TREE_MIDDLE),
        (TREE_MIDDLE, TREE_MIDDLE),
        (TREE_MIDDLE, TREE_TOP),
        (TREE_TOP, AIR),
        (AIR, AIR),
        (AIR, BLOCK),
        (BLOCK, AIR),
    }
)


def platformer_ruleset(width: int, height: int) -> Ruleset:
    """Fifteen rules over above (1) / below (2) adjacency.

    Ground seeds the bottom row; every non-ground rule vanishes there.  The
    block rule additionally vanishes in the top row so a block always ends up
    between two air tiles, and carries a small weight to stay rare.
    """
    n = width * height
    below = lambda v: Pattern.of((2, v))
    f = lambda u: make_factor("above_bottom_layer", u=u, layer_size=width)
    rules = (
        Rule(GROUND, 1.0, below(GROUND)),
        Rule(GROUND, make_factor("bottom_layer_only", u=1.0, layer_size=width), Pattern.of()),
        Rule(GRASS, f(1.0), below(GROUND)),
        Rule(MUSHROOM, f(1.0), below(GROUND)),
        Rule(MUSHROOM, f(1.0), below(GRASS)),
        Rule(TREE_BOTTOM, f(1.0), below(GRASS)),
        Rule(TREE_MIDDLE, f(1.0), below(TREE_BOTTOM)),
        Rule(TREE_MIDDLE, f(1.0), below(TREE_MIDDLE)),
        Rule(TREE_TOP, f(1.0), below(TREE_MIDDLE)),
        Rule(
            BLOCK,
            make_factor("interior_layers_only", u=0.1, layer_size=width, n_segments=n),
            Pattern.of((2, AIR), (1, AIR)),
        ),
        Rule(AIR, f(1.0), below(GRASS)),
        Rule(AIR, f(1.0), below(MUSHROOM)),
        Rule(AIR, f(1.0), below(AIR)),
        Rule(AIR, f(1.0), below(BLOCK)),
        Rule(AIR, f(1.0), below(TREE_TOP)),
    )
    return Ruleset(rules)


def platformer_usecase(width: int, height: int) -> UseCase:
    if width < 2 or height < 2:
        raise ValueError("platformer levels need width, height >= 2")
    topology = grid3d_topology(width, 1, height)
    alphabet = make_alphabet(
        ("ground", (120, 80, 40), "G"),
        ("grass", (90, 190, 70), "w"),
        ("mushroom", (220, 70, 70), "m"),
        ("block", (240, 180, 60), "B"),
        ("air", (200, 225, 255), "."),
        ("tree-bottom", (110, 70, 30), "t"),
        ("tree-middle", (50, 130, 50), "T"),
        ("tree-top", (30, 170, 30), "Y"),
    )
    adjacency = topology.adjacency
    n = adjacency.n_segments

    def validator(instance: ContentInstance) -> list[str]:
        values = instance.mapping
        bad = []
        for i in range(1, width + 1):
            if values[i] != GROUND:
                bad.append(f"bottom-row segment {i} is not ground")
        for i, j in adjacency.edges[0]:  # (i, above j)
            if (values[i], values[j]) not in PLATFORMER_ALLOWED_ABOVE:
                bad.append(f"value {values[j]} may not sit above {values[i]} ({i}->{j})")
        return sorted(set(bad))

    partitions = 2 * height if width % 2 == 0 else height
    return UseCase(
        "platformer",
        topology,
        alphabet,
        platformer_ruleset(width, height),
        equal_blocks(n, partitions),
        validator,
    )


# --------------------------------------------------------------------------
# voxel skyline
# --------------------------------------------------------------------------

EMPTY, FILLED = 1, 2


def voxel_skyline_ruleset(layer_size: int) -> Ruleset:
    """Four rules: a voxel may only be filled on the ground or atop a filled one."""
    below = lambda v: Pattern.of((2, v))
    return Ruleset(
        (
            Rule(FILLED, 1.0, below(FILLED)),
            Rule(EMPTY, 1.0, below(FILLED)),
            Rule(EMPTY, 1.0, below(EMPTY)),
            Rule(FILLED, make_factor("bottom_layer_only", u=1.0, layer_size=layer_size), Pattern.of()),
        )
    )


def voxel_skyline_usecase(width: int, depth: int, height: int) -> UseCase:
    topology = grid3d_topology(width, depth, height)
    alphabet = make_alphabet(("empty", (235, 235, 245), "."), ("filled", (90, 90, 160), "#"))
    adjacency = topology.adjacency
    n = adjacency.n_segments

    def validator(instance: ContentInstance) -> list[str]:
        values = instance.mapping
        bad = []
        for i, j in adjacency.edges[1]:  # (i, below j)
            if values[i] == FILLED and values[j] == EMPTY:
                bad.append(f"voxel {i} floats above empty voxel {j}")
        return sorted(set(bad))

    return UseCase(
        "voxel-skyline",
        topology,
        alphabet,
        voxel_skyline_ruleset(width * depth),
        equal_blocks(n, height),
        validator,
    )
