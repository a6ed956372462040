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


def grid2d_topology(width: int, height: int) -> Topology:
    """Nearest-neighbor 2D grid, D=4: right (1), up (2), left (3), down (4).

    Segment ids are row-major starting at 1 with y=0 the top row.
    """
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be >= 1")

    def sid(x, y):
        return y * width + x + 1

    edges = []
    for dx, dy in ((1, 0), (0, -1), (-1, 0), (0, 1)):
        es = set()
        for y in range(height):
            for x in range(width):
                nx, ny = x + dx, y + dy
                if 0 <= nx < width and 0 <= ny < height:
                    es.add((sid(x, y), sid(nx, ny)))
        edges.append(frozenset(es))
    adjacency = AdjacencyConfig(width * height, 4, tuple(edges))
    return Topology("grid2d", adjacency, (("width", width), ("height", height)))


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
    edges = []
    for dq, dr in HEX_DIRECTIONS:
        es = set()
        for c, i in index.items():
            j = index.get((c[0] + dq, c[1] + dr))
            if j is not None:
                es.add((i, j))
        edges.append(frozenset(es))
    return Topology("hexgrid", AdjacencyConfig(len(index), 6, tuple(edges)), (("radius", radius),))


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
