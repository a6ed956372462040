import numpy as np
import pytest

from qcollapse import AdjacencyConfig, ContentInstance, make_alphabet, render
from qcollapse.render import _cell_rows, _color, ppm_size
from qcollapse.render import render_ascii, render_ppm, render_structured, render_voxel_slices
from qcollapse.topology import Topology, grid2d_topology, grid3d_topology, hexgrid_coordinates, hexgrid_topology
from qcollapse.usecases import checkerboard_usecase, hexmap_usecase, voxel_skyline_usecase


def _checker_instance():
    # the 3x3 coloring starting with black at the top-left corner
    return ContentInstance(tuple((i, 1 if i % 2 == 1 else 2) for i in range(1, 10)))


def test_ascii_grid2d():
    uc = checkerboard_usecase(3, 3)
    out = render_ascii(_checker_instance(), uc.alphabet, uc.topology)
    assert out == "#.#\n.#.\n#.#\n"


def test_ascii_glyph_fallback():
    from qcollapse import make_alphabet

    topo = grid2d_topology(2, 1)
    alphabet = make_alphabet("a", "b")  # no glyphs configured
    out = render_ascii(ContentInstance(((1, 1), (2, 2))), alphabet, topo)
    assert out == "12\n"


def test_ascii_hexgrid_shape():
    uc = hexmap_usecase(1)
    inst = ContentInstance(tuple((i, 1) for i in range(1, 8)))
    out = render_ascii(inst, uc.alphabet, uc.topology)
    lines = out.splitlines()
    assert len(lines) == 3
    assert [ln.count("~") for ln in lines] == [2, 3, 2]
    assert lines[1].startswith("~")  # westmost cell of the middle row


def test_ppm_dimensions_and_colors():
    uc = checkerboard_usecase(2, 2)
    inst = ContentInstance(((1, 1), (2, 2), (3, 2), (4, 1)))
    out = render_ppm(inst, uc.alphabet, uc.topology, scale=2)
    lines = out.splitlines()
    assert lines[0] == "P3" and lines[1] == "4 4" and lines[2] == "255"
    first_row = lines[3].split()
    assert first_row[:6] == ["20", "20", "20", "20", "20", "20"]  # black block


def test_voxel_slices_layout():
    uc = voxel_skyline_usecase(2, 2, 2)
    inst = ContentInstance(tuple((i, 2 if i <= 4 else 1) for i in range(1, 9)))
    out = render_voxel_slices(inst, uc.alphabet, uc.topology)
    assert out == "layer 0\n##\n##\n\nlayer 1\n..\n..\n"
    with pytest.raises(ValueError):
        render_voxel_slices(inst, uc.alphabet, grid2d_topology(2, 2))


def test_grid3d_depth1_renders_top_down():
    topo = grid3d_topology(2, 1, 2)
    from qcollapse import make_alphabet

    alphabet = make_alphabet(("low", None, "G"), ("high", None, "."))
    inst = ContentInstance(((1, 1), (2, 1), (3, 2), (4, 2)))
    assert render_ascii(inst, alphabet, topo) == "..\nGG\n"


def test_structured_dump_canonical_key():
    uc = checkerboard_usecase(3, 3)
    out = render_structured(_checker_instance(), uc.alphabet, uc.topology)
    lines = out.splitlines()
    assert lines[0] == "canonical 170"
    assert lines[1] == "1 1 black" and lines[2] == "2 2 white"
    assert len(lines) == 10


def test_render_dispatch_and_unknown_format():
    uc = checkerboard_usecase(3, 3)
    inst = _checker_instance()
    assert render(inst, uc.alphabet, uc.topology, "ascii").startswith("#.#")
    with pytest.raises(ValueError):
        render(inst, uc.alphabet, uc.topology, "svg")


def _reference_ppm(instance, alphabet, topology, scale):
    """The per-pixel renderer ``render_ppm`` replaced: one colour tuple per
    pixel, each formatted on its own."""
    if topology.kind == "hexgrid":
        radius = topology.param("radius")
        width, height = ppm_size(topology, scale)
        pixels = [[(255, 255, 255)] * width for _ in range(height)]
        for idx, (q, r) in enumerate(hexgrid_coordinates(radius)):
            x0 = (q + radius) * scale + (r + radius) * (scale // 2)
            y0 = (r + radius) * scale
            color = _color(alphabet, instance.mapping[idx + 1])
            for dy in range(scale):
                for dx in range(scale):
                    pixels[y0 + dy][x0 + dx] = color
    else:
        pixels = [
            [_color(alphabet, v) for v in row for _ in range(scale)]
            for row in _cell_rows(instance, topology)
            for _ in range(scale)
        ]
    height = len(pixels)
    width = len(pixels[0]) if height else 0
    lines = ["P3", f"{width} {height}", "255"]
    for prow in pixels:
        lines.append(" ".join(f"{r} {g} {b}" for r, g, b in prow))
    return "\n".join(lines) + "\n"


PPM_TOPOLOGIES = {
    "grid2d-1x1": grid2d_topology(1, 1),
    "grid2d-5x3": grid2d_topology(5, 3),
    "hexgrid-r0": hexgrid_topology(0),
    "hexgrid-r1": hexgrid_topology(1),
    "hexgrid-r3": hexgrid_topology(3),
    "grid3d-3x1x2": grid3d_topology(3, 1, 2),
    "grid3d-3x2x4": grid3d_topology(3, 2, 4),
}


@pytest.mark.parametrize("name", sorted(PPM_TOPOLOGIES))
@pytest.mark.parametrize("scale", [0, 1, 2, 3, 5, 16])
def test_ppm_is_the_per_pixel_renderers_byte_for_byte(name, scale):
    topology = PPM_TOPOLOGIES[name]
    n = topology.adjacency.n_segments
    rng = np.random.default_rng(scale * 31 + n)
    # configured colours, fallback colours (values 3..6) and a repeated colour
    alphabet = make_alphabet(("a", (1, 2, 3)), ("b", (250, 0, 9)), "c", "d", "e", ("f", (1, 2, 3)))
    for _ in range(3):
        instance = ContentInstance(tuple((s, int(v)) for s, v in zip(range(1, n + 1), rng.integers(1, 7, n))))
        got = render_ppm(instance, alphabet, topology, scale)
        assert got == _reference_ppm(instance, alphabet, topology, scale)
    if scale:
        assert got.split("\n")[1] == "%d %d" % ppm_size(topology, scale)


def test_ppm_refuses_a_custom_topology_as_the_per_pixel_renderer():
    topology = Topology("custom", AdjacencyConfig(2, 1, (frozenset({(1, 2)}),)))
    instance = ContentInstance(((1, 1), (2, 2)))
    for draw in (render_ppm, _reference_ppm):
        with pytest.raises(ValueError, match="no 2D cell layout for topology 'custom'"):
            draw(instance, make_alphabet("a", "b"), topology, 4)
