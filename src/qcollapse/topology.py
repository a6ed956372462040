"""Built-in geometries: each topology is an adjacency plus the parameters
renderers read.  Boundaries are open: a missing neighbor imposes no
constraint."""

from __future__ import annotations

from dataclasses import dataclass

from .model import AdjacencyConfig


@dataclass(frozen=True)
class Topology:
    kind: str  # "grid2d" | "hexgrid" | "grid3d" | "custom"
    adjacency: AdjacencyConfig
    params: tuple[tuple[str, int], ...] = ()

    def param(self, name: str) -> int:
        return dict(self.params)[name]


# the names a config may give each built-in kind's directions, in the order
# its factory below numbers them from 1
DIRECTION_NAMES = {
    "grid2d": ("right", "up", "left", "down"),
    "grid3d": ("above", "below"),
    "hexgrid": ("e", "ne", "nw", "w", "sw", "se"),
}


def grid2d_topology(width: int, height: int) -> Topology:
    """Nearest-neighbor 2D grid, D=4: right (1), up (2), left (3), down (4).

    Segment ids are row-major starting at 1 with y=0 the top row.
    """
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be >= 1")
    index = {(x, y): y * width + x + 1 for y in range(height) for x in range(width)}
    edges = _lattice_edges(index, ((1, 0), (0, -1), (-1, 0), (0, 1)))
    return Topology("grid2d", AdjacencyConfig(len(index), 4, edges), (("width", width), ("height", height)))


def _lattice_edges(index: dict[tuple[int, int], int], steps) -> tuple[frozenset[tuple[int, int]], ...]:
    """One edge set per 2-D step: (i, j) wherever the step moves cell i of
    ``index`` (coordinates to segment ids) onto cell j."""
    edges = []
    for da, db in steps:
        es = set()
        for (a, b), i in index.items():
            j = index.get((a + da, b + db))
            if j is not None:
                es.add((i, j))
        edges.append(frozenset(es))
    return tuple(edges)


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


def hexgrid_topology(radius: int) -> Topology:
    """Hexagonal disc with D=6 nearest-neighbor directions (CCW from east);
    ids follow ``hexgrid_coordinates``."""
    index = {c: i + 1 for i, c in enumerate(hexgrid_coordinates(radius))}
    edges = _lattice_edges(index, HEX_DIRECTIONS)
    return Topology("hexgrid", AdjacencyConfig(len(index), 6, edges), (("radius", radius),))


def grid3d_topology(width: int, depth: int, height: int) -> Topology:
    """3D grid with vertical adjacency only, D=2: above (1), below (2).

    Ids are layer-major bottom-up: id = z*width*depth + y*width + x + 1 with
    z=0 the ground layer, so ascending ids build from the ground up.
    """
    if width < 1 or depth < 1 or height < 1:
        raise ValueError("grid dimensions must be >= 1")
    layer = width * depth
    above = frozenset((i, i + layer) for i in range(1, layer * (height - 1) + 1))
    below = frozenset((j, i) for i, j in above)
    return Topology(
        "grid3d",
        AdjacencyConfig(layer * height, 2, (above, below)),
        (("width", width), ("depth", depth), ("height", height)),
    )
