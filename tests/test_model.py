import numpy as np
import pytest
from conftest import pattern_matches

from qcollapse import (
    Alphabet,
    ConflictError,
    ContentInstance,
    FunctionalWeight,
    Pattern,
    RandomSource,
    Rule,
    Ruleset,
    Symbol,
    bits_per_value,
    build_circuit,
    build_grid2d,
    build_grid3d_columns,
    build_hexgrid,
    cwfc_generate,
    decode_values,
    encode_values,
    make_alphabet,
    make_factor,
    value_distribution,
)
from qcollapse.model import hexgrid_coordinates
from qcollapse.usecases import checkerboard_ruleset


def test_alphabet_basics():
    a = make_alphabet("x", ("y", (1, 2, 3), "Y"))
    assert a.n_values == 2
    assert a.symbol(2) == Symbol("y", (1, 2, 3), "Y")
    assert a.value_of("x") == 1
    with pytest.raises(KeyError):
        a.value_of("z")


def test_alphabet_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        make_alphabet("a", "a")
    with pytest.raises(ValueError):
        Alphabet(())


def test_grid2d_2x2_edges():
    # ids row-major, y=0 top: 1 2 / 3 4
    adj = build_grid2d(2, 2)
    assert adj.n_segments == 4 and adj.n_directions == 4
    assert adj.edges[0] == frozenset({(1, 2), (3, 4)})  # right
    assert adj.edges[1] == frozenset({(3, 1), (4, 2)})  # up
    assert adj.edges[2] == frozenset({(2, 1), (4, 3)})  # left
    assert adj.edges[3] == frozenset({(1, 3), (2, 4)})  # down
    assert adj.neighbors(1, 1) == (2,)
    assert adj.neighbors(1, 2) == ()  # open boundary
    assert set(adj.influenced_by(1)) == {2, 3}


def test_grid3d_columns_layout():
    # 2 wide, 1 deep, 2 tall: ground layer ids 1,2; top layer 3,4
    adj = build_grid3d_columns(2, 1, 2)
    assert adj.n_segments == 4 and adj.n_directions == 2
    assert adj.edges[0] == frozenset({(1, 3), (2, 4)})  # above
    assert adj.edges[1] == frozenset({(3, 1), (4, 2)})  # below


def test_hexgrid_radius1_spiral_and_neighbors():
    coords = hexgrid_coordinates(1)
    assert coords == ((0, 0), (1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1))
    adj = build_hexgrid(1)
    assert adj.n_segments == 7 and adj.n_directions == 6
    # center's neighbor in each CCW-from-east direction is ring id 2..7
    assert [adj.neighbors(1, d) for d in range(1, 7)] == [(2,), (3,), (4,), (5,), (6,), (7,)]
    # opposite directions pair up (d and d+3)
    for d in range(1, 4):
        assert adj.edges[d - 1] == frozenset((j, i) for i, j in adj.edges[d + 2])


@pytest.mark.parametrize("radius,n", [(0, 1), (1, 7), (2, 19), (3, 37)])
def test_hexgrid_size_formula(radius, n):
    assert build_hexgrid(radius).n_segments == n


def test_pattern_and_rule_validation():
    with pytest.raises(ValueError):
        Pattern.of((1, 1), (1, 2))  # repeated direction
    with pytest.raises(ValueError):
        Rule(1, 0.0, Pattern.of())
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite"):
            Rule(1, bad, Pattern.of())
    with pytest.raises(ValueError):
        Ruleset(())


def test_rule_values_outside_alphabet_rejected():
    for bad in (0, -1):
        with pytest.raises(ValueError, match=">= 1"):
            Rule(bad, 1.0, Pattern.of())
    # a value-3 rule at W=2 used to give [0.5, 0, 0.5] and a load that
    # spilled into the next segment's qubits
    adj = build_grid2d(2, 1)
    rs = Ruleset((Rule(1, 1.0, Pattern.of()), Rule(3, 1.0, Pattern.of())))
    with pytest.raises(ValueError, match="outside the alphabet"):
        value_distribution(1, adj, ContentInstance(), rs, 2)
    with pytest.raises(ValueError, match="outside the alphabet"):
        build_circuit(adj, 2, rs, (1, 2))
    with pytest.raises(ValueError, match="outside the alphabet"):
        cwfc_generate(adj, make_alphabet("a", "b"), rs, RandomSource(1))
    np.testing.assert_allclose(value_distribution(1, adj, ContentInstance(), rs, 3), [0.5, 0, 0.5])


def test_content_instance():
    c = ContentInstance().add(3, 1).add(1, 2)
    assert c.mapping == {3: 1, 1: 2}
    assert c.value_of(3) == 1
    assert not c.is_complete(3) and c.add(2, 1).is_complete(3)
    with pytest.raises(ValueError):
        c.add(3, 2)  # duplicate id


def test_pattern_matches_semantics():
    adj = build_grid2d(2, 1)  # ids 1,2 side by side
    p = Pattern.of((1, 2))  # right neighbor must carry value 2
    empty = ContentInstance()
    assert pattern_matches(1, adj, empty, p) == 1  # unplaced: no constraint
    assert pattern_matches(2, adj, empty, p) == 1  # missing neighbor: no constraint
    assert pattern_matches(1, adj, ContentInstance(((2, 2),)), p) == 1
    assert pattern_matches(1, adj, ContentInstance(((2, 1),)), p) == 0
    # frozen context constrains exactly like placed content
    assert pattern_matches(1, adj, empty, p, frozen=ContentInstance(((2, 1),))) == 0


def test_value_distribution_checkerboard():
    adj = build_grid2d(2, 2)
    rs = checkerboard_ruleset()
    empty = ContentInstance()
    np.testing.assert_allclose(value_distribution(1, adj, empty, rs, 2), [0.5, 0.5])
    after = ContentInstance(((1, 1),))
    np.testing.assert_allclose(value_distribution(2, adj, after, rs, 2), [0.0, 1.0])
    with pytest.raises(ConflictError):
        # neighbors force both colors at once
        value_distribution(2, adj, ContentInstance(((1, 1), (4, 2))), rs, 2)


def test_value_distribution_weights():
    adj = build_grid2d(1, 1)
    rs = Ruleset((Rule(1, 1.0, Pattern.of()), Rule(2, 3.0, Pattern.of())))
    np.testing.assert_allclose(value_distribution(1, adj, ContentInstance(), rs, 2), [0.25, 0.75])


def test_value_distribution_cache_keyed_on_alphabet_size():
    adj = build_grid2d(1, 1)
    rs = Ruleset((Rule(1, 1.0, Pattern.of()), Rule(2, 3.0, Pattern.of())))
    np.testing.assert_allclose(value_distribution(1, adj, ContentInstance(), rs, 2), [0.25, 0.75])
    # same ruleset and signature, larger alphabet: the vector grows a zero
    np.testing.assert_allclose(value_distribution(1, adj, ContentInstance(), rs, 3), [0.25, 0.75, 0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_functional_factor_must_return_finite(bad):
    adj = build_grid2d(1, 1)
    rs = Ruleset(
        (
            Rule(1, 1.0, Pattern.of()),
            Rule(2, FunctionalWeight("broken", (), lambda _seg, _content: bad), Pattern.of()),
        )
    )
    with pytest.raises(ValueError, match="finite"):
        value_distribution(1, adj, ContentInstance(), rs, 2)


def test_functional_factor_layers():
    # 2-wide, 3-tall column world: bottom layer is ids 1..2
    adj = build_grid3d_columns(2, 1, 3)
    rs = Ruleset(
        (
            Rule(1, make_factor("bottom_layer_only", u=2.0, layer_size=2), Pattern.of()),
            Rule(2, make_factor("above_bottom_layer", u=1.0, layer_size=2), Pattern.of()),
            Rule(3, make_factor("interior_layers_only", u=1.0, layer_size=2, n_segments=6), Pattern.of()),
        )
    )
    empty = ContentInstance()
    np.testing.assert_allclose(value_distribution(1, adj, empty, rs, 3), [1, 0, 0])
    np.testing.assert_allclose(value_distribution(3, adj, empty, rs, 3), [0, 0.5, 0.5])
    np.testing.assert_allclose(value_distribution(5, adj, empty, rs, 3), [0, 1, 0])


def test_bits_per_value():
    assert [bits_per_value(w) for w in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]


def test_encode_decode_roundtrip():
    segments = (1, 2, 3)
    values = {1: 3, 2: 1, 3: 4}
    key = encode_values(values, segments, 4)
    assert key == (3 - 1) | ((1 - 1) << 2) | ((4 - 1) << 4)
    assert dict(decode_values(key, segments, 4)) == values
    with pytest.raises(ValueError):
        decode_values(3, (1,), 3)  # bit pattern 11 has no value in [1,3]


def test_checkerboard_canonical_keys():
    # The two valid 3x3 colorings map to basis integers 170 and 341.
    segments = tuple(range(1, 10))
    start_black = {i: 1 if (i - 1) % 2 == 0 else 2 for i in segments}
    start_white = {i: 2 if (i - 1) % 2 == 0 else 1 for i in segments}
    assert encode_values(start_black, segments, 2) == 170
    assert encode_values(start_white, segments, 2) == 341
