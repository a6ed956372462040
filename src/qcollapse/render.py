"""Rendering of complete instances: ascii glyph grids, plain P3 images,
voxel slice stacks and a structured dump with the canonical encoding."""

from __future__ import annotations

from .model import Alphabet, ContentInstance, encode_values
from .topology import Topology, hexgrid_coordinates

FORMATS = ("ascii", "ppm", "voxel-slices", "structured-dump")


def can_draw(fmt: str, kind: str) -> bool:
    """Whether format ``fmt`` draws a ``kind`` topology: a custom topology has
    no cell layout, so only structured-dump draws it; voxel-slices needs
    grid3d."""
    if fmt == "voxel-slices":
        return kind == "grid3d"
    return fmt == "structured-dump" or kind != "custom"


def ppm_size(topology: Topology, scale: int) -> tuple[int, int]:
    """(width, height) in pixels of ``render_ppm``'s image of a grid2d,
    hexgrid or grid3d topology (a voxel grid is drawn by its front face)."""
    if topology.kind == "hexgrid":
        radius = topology.param("radius")
        side = (2 * radius + 1) * scale
        return side + radius * (scale // 2), side
    return topology.param("width") * scale, topology.param("height") * scale


_FALLBACK_COLORS = ((0, 0, 0), (255, 255, 255), (255, 0, 0), (0, 128, 255))


def _glyph(alphabet: Alphabet, value: int) -> str:
    sym = alphabet.symbol(value)
    return sym.glyph if sym.glyph is not None else str(value % 10)


def _color(alphabet: Alphabet, value: int) -> tuple[int, int, int]:
    sym = alphabet.symbol(value)
    if sym.color is not None:
        return sym.color
    return _FALLBACK_COLORS[(value - 1) % len(_FALLBACK_COLORS)]


def _grid2d_cells(instance, topology):
    """Rows of values, top row first (works for grid2d and depth-1 grid3d)."""
    values = instance.mapping
    if topology.kind == "grid2d":
        w, h = topology.param("width"), topology.param("height")
        return [[values[y * w + x + 1] for x in range(w)] for y in range(h)]
    if topology.kind == "grid3d" and topology.param("depth") == 1:
        w, h = topology.param("width"), topology.param("height")
        # layer-major bottom-up ids; display top layer first
        return [[values[z * w + x + 1] for x in range(w)] for z in reversed(range(h))]
    raise ValueError(f"no 2D cell layout for topology {topology.kind!r}")


def render_ascii(instance: ContentInstance, alphabet: Alphabet, topology: Topology) -> str:
    if topology.kind == "hexgrid":
        return _render_hex_ascii(instance, alphabet, topology)
    if topology.kind == "grid3d" and topology.param("depth") > 1:
        return render_voxel_slices(instance, alphabet, topology)
    rows = _grid2d_cells(instance, topology)
    return "\n".join("".join(_glyph(alphabet, v) for v in row) for row in rows) + "\n"


def _render_hex_ascii(instance, alphabet, topology):
    values = instance.mapping
    radius = topology.param("radius")
    coords = hexgrid_coordinates(radius)
    # char column 2q + r keeps pointy-top rows interleaved
    by_row: dict[int, list[tuple[int, int]]] = {}
    for idx, (q, r) in enumerate(coords):
        by_row.setdefault(r, []).append((2 * q + r, idx + 1))
    lines = []
    offset = 2 * radius  # leftmost possible column is -2R
    for r in range(-radius, radius + 1):
        cells = sorted(by_row.get(r, []))
        line = [" "] * (4 * radius + 1)
        for col, seg in cells:
            line[col + offset] = _glyph(alphabet, values[seg])
        lines.append("".join(line).rstrip())
    return "\n".join(lines) + "\n"


def render_ppm(
    instance: ContentInstance, alphabet: Alphabet, topology: Topology, scale: int = 16
) -> str:
    """Plain-text P3 image; every tile becomes a scale x scale pixel block."""
    if topology.kind == "hexgrid":
        pixels = _hex_pixels(instance, alphabet, topology, scale)
    else:
        rows = (
            _grid2d_cells(instance, topology)
            if topology.kind != "grid3d" or topology.param("depth") == 1
            else _voxel_elevation(instance, topology)
        )
        pixels = [
            [_color(alphabet, v) for v in row for _ in range(scale)]
            for row in rows
            for _ in range(scale)
        ]
    height = len(pixels)
    width = len(pixels[0]) if height else 0
    lines = ["P3", f"{width} {height}", "255"]
    for prow in pixels:
        lines.append(" ".join(f"{r} {g} {b}" for r, g, b in prow))
    return "\n".join(lines) + "\n"


def _voxel_elevation(instance, topology):
    """Front elevation of a voxel grid: nearest non-background voxel wins."""
    values = instance.mapping
    w, d, h = topology.param("width"), topology.param("depth"), topology.param("height")
    rows = []
    for z in reversed(range(h)):
        row = []
        for x in range(w):
            shown = 1
            for y in range(d):
                v = values[z * w * d + y * w + x + 1]
                if v != 1:
                    shown = v
                    break
            row.append(shown)
        rows.append(row)
    return rows


def _hex_pixels(instance, alphabet, topology, scale):
    values = instance.mapping
    radius = topology.param("radius")
    coords = hexgrid_coordinates(radius)
    width, height = ppm_size(topology, scale)
    background = (255, 255, 255)
    pixels = [[background] * width for _ in range(height)]
    for idx, (q, r) in enumerate(coords):
        x0 = (q + radius) * scale + (r + radius) * (scale // 2)
        y0 = (r + radius) * scale
        color = _color(alphabet, values[idx + 1])
        for dy in range(scale):
            for dx in range(scale):
                pixels[y0 + dy][x0 + dx] = color
    return pixels


def render_voxel_slices(instance: ContentInstance, alphabet: Alphabet, topology: Topology) -> str:
    """Height-many ascii layers, bottom layer first."""
    if topology.kind != "grid3d":
        raise ValueError("voxel-slices requires a grid3d topology")
    values = instance.mapping
    w, d, h = topology.param("width"), topology.param("depth"), topology.param("height")
    parts = []
    for z in range(h):
        lines = [f"layer {z}"]
        for y in range(d):
            lines.append(
                "".join(_glyph(alphabet, values[z * w * d + y * w + x + 1]) for x in range(w))
            )
        parts.append("\n".join(lines))
    return "\n\n".join(parts) + "\n"


def render_structured(instance: ContentInstance, alphabet: Alphabet, topology: Topology) -> str:
    """Canonical basis integer plus one line per segment value."""
    n = topology.adjacency.n_segments
    segments = tuple(range(1, n + 1))
    key = encode_values(instance.mapping, segments, alphabet.n_values)
    lines = [f"canonical {key}"]
    for seg in segments:
        v = instance.mapping[seg]
        lines.append(f"{seg} {v} {alphabet.symbol(v).name}")
    return "\n".join(lines) + "\n"


def render(
    instance: ContentInstance,
    alphabet: Alphabet,
    topology: Topology,
    fmt: str,
    scale: int = 16,
) -> str:
    if fmt == "ascii":
        return render_ascii(instance, alphabet, topology)
    if fmt == "ppm":
        return render_ppm(instance, alphabet, topology, scale)
    if fmt == "voxel-slices":
        return render_voxel_slices(instance, alphabet, topology)
    if fmt == "structured-dump":
        return render_structured(instance, alphabet, topology)
    raise ValueError(f"unknown render format {fmt!r}; expected one of {FORMATS}")
