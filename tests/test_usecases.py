from itertools import product

import numpy as np
import pytest

from qcollapse import (
    ContentInstance,
    RandomSource,
    build_circuit,
    cwfc_generate,
    exact_distribution,
    hwfc_generate,
    sample_shots,
    simulate,
    value_distribution,
    with_restarts,
)
from qcollapse.quantum import walked_state
from qcollapse.usecases import (
    AIR,
    BLOCK,
    GRASS,
    GROUND,
    MUSHROOM,
    PIPE_PORTS,
    PLATFORMER_ALLOWED_ABOVE,
    TREE_BOTTOM,
    TREE_MIDDLE,
    TREE_TOP,
    checkerboard_usecase,
    generate_hexmap_ruleset,
    generate_pipes_ruleset,
    hexmap_allowed,
    hexmap_usecase,
    pipes_compatible,
    pipes_usecase,
    platformer_ruleset,
    platformer_usecase,
    voxel_skyline_ruleset,
    voxel_skyline_usecase,
)


def test_pipes_rule_count_brute_force():
    """Count valid full neighborhoods by direct enumeration of all 8^5 tuples."""
    count = 0
    for center, r, u, l, d in product(range(1, 9), repeat=5):
        ok = all(
            pipes_compatible(center, nb, direction)
            for direction, nb in zip((1, 2, 3, 4), (r, u, l, d))
        )
        count += ok
    assert count == 2048
    assert len(generate_pipes_ruleset()) == count


def test_pipes_port_table():
    assert len(PIPE_PORTS) == 8
    assert PIPE_PORTS[0] == frozenset() and PIPE_PORTS[7] == frozenset({1, 2, 3, 4})
    # compatibility is symmetric under swapping sides
    opposite = {1: 3, 2: 4, 3: 1, 4: 2}
    for a, b, d in product(range(1, 9), range(1, 9), range(1, 5)):
        assert pipes_compatible(a, b, d) == pipes_compatible(b, a, opposite[d])


def test_hexmap_rule_count_brute_force():
    count = 0
    for center in range(1, 5):
        for combo in product(range(1, 5), repeat=6):
            count += all(abs(c - center) <= 1 for c in combo)
    assert count == 2**6 + 3**6 + 3**6 + 2**6 == 1586
    assert len(generate_hexmap_ruleset()) == count


def test_hexmap_allowed_chain():
    assert hexmap_allowed(1) == (1, 2)
    assert hexmap_allowed(2) == (1, 2, 3)
    assert hexmap_allowed(4) == (3, 4)


def test_hexmap_single_cell_distribution():
    """One free hexagon with a boosted water weight of 5.

    The unnormalized masses are 2^6 * 5, 3^6, 3^6 and 2^6 for the four
    terrain types, totalling 1842.
    """
    uc = hexmap_usecase(0, 5.0)
    circuit = build_circuit(uc.adjacency, 4, uc.ruleset, (1,))
    dist = exact_distribution(simulate(circuit), circuit.layout)
    expected = {0: 320 / 1842, 1: 729 / 1842, 2: 729 / 1842, 3: 64 / 1842}
    for key, p in expected.items():
        assert abs(dist.probs[key] - p) < 1e-12
    assert set(dist.probs) == set(expected)


def test_hexmap_rejects_bad_weight():
    with pytest.raises(ValueError):
        generate_hexmap_ruleset(0.0)


def test_checkerboard_validator():
    uc = checkerboard_usecase(2, 2)
    good = ContentInstance(((1, 1), (2, 2), (3, 2), (4, 1)))
    bad = ContentInstance(((1, 1), (2, 1), (3, 2), (4, 1)))
    assert uc.validator(good) == []
    assert uc.validator(bad) != []


def test_pipes_validator_catches_mismatch():
    uc = pipes_usecase(2, 1)
    # horizontal stub facing a blank tile leaves an open port
    bad = ContentInstance(((1, 2), (2, 1)))
    good = ContentInstance(((1, 1), (2, 1)))
    assert uc.validator(bad) != []
    assert uc.validator(good) == []


def test_platformer_ruleset_shape():
    rs = platformer_ruleset(4, 4)
    assert len(rs) == 15
    values = {r.value for r in rs.rules}
    assert values == set(range(1, 9))


def test_platformer_every_value_has_successor():
    """No placement can dead-end: every value admits something above it."""
    uc = platformer_usecase(4, 4)
    adj = uc.adjacency
    width = 4
    for below_value in range(1, 9):
        # segment in an interior layer with the cell below already placed
        seg = 2 * width + 1
        content = ContentInstance(((seg - width, below_value),))
        probs = value_distribution(seg, adj, content, uc.ruleset, 8)
        support = {v + 1 for v in np.nonzero(probs > 0)[0]}
        assert support, f"value {below_value} admits nothing above it"
        for above_value in support - {BLOCK}:
            assert (below_value, above_value) in PLATFORMER_ALLOWED_ABOVE


def test_platformer_bottom_row_is_ground():
    uc = platformer_usecase(4, 4)
    probs = value_distribution(1, uc.adjacency, ContentInstance(), uc.ruleset, 8)
    assert probs[GROUND - 1] == 1.0


def test_platformer_no_block_in_top_row():
    uc = platformer_usecase(4, 4)
    top = uc.adjacency.n_segments  # a top-row segment
    content = ContentInstance(((top - 4, AIR),))  # air below it
    probs = value_distribution(top, uc.adjacency, content, uc.ruleset, 8)
    assert probs[BLOCK - 1] == 0.0


def test_platformer_samples_valid():
    uc = platformer_usecase(6, 5)
    rng = RandomSource(13)
    for _ in range(5):
        inst = hwfc_generate(uc.adjacency, 8, uc.ruleset, uc.partitioning, rng)
        assert uc.validator(inst) == []


def test_voxel_ruleset_and_support():
    rs = voxel_skyline_ruleset(4)
    assert len(rs) == 4
    uc = voxel_skyline_usecase(2, 2, 3)
    rng = RandomSource(21)
    for _ in range(5):
        inst = hwfc_generate(uc.adjacency, 2, uc.ruleset, uc.partitioning, rng)
        assert uc.validator(inst) == []
        # filled counts can only shrink with height
        counts = [
            sum(1 for s in range(z * 4 + 1, z * 4 + 5) if inst.mapping[s] == 2)
            for z in range(3)
        ]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_voxel_validator_catches_floaters():
    uc = voxel_skyline_usecase(1, 1, 2)
    floating = ContentInstance(((1, 1), (2, 2)))
    assert uc.validator(floating) != []


def test_usecase_partition_shapes():
    assert pipes_usecase(10, 4).partitioning.blocks[0] == (1, 11, 21, 31)
    assert len(pipes_usecase(10, 4).partitioning.blocks) == 10
    assert len(platformer_usecase(10, 10).partitioning.blocks) == 20
    assert len(voxel_skyline_usecase(4, 4, 4).partitioning.blocks) == 4
    assert len(checkerboard_usecase(3, 3).partitioning.blocks) == 3


# the five use cases on small worlds; qwfc compiles each as one circuit
PROPERTY_WORLDS = {
    "checkerboard-3x3": lambda: checkerboard_usecase(3, 3),
    "pipes-3x2": lambda: pipes_usecase(3, 2),
    "platformer-3x2": lambda: platformer_usecase(3, 2),
    "voxels-2x2x3": lambda: voxel_skyline_usecase(2, 2, 3),
    "hexmap-r1": lambda: hexmap_usecase(1),
}


def _instances(engine, uc, rng, count):
    n_values = uc.alphabet.n_values
    if engine == "qwfc":
        circuit = build_circuit(uc.adjacency, n_values, uc.ruleset, uc.order)
        return sample_shots(walked_state(circuit), circuit.layout, count, rng)
    if engine == "cwfc":
        return [cwfc_generate(uc.adjacency, uc.alphabet, uc.ruleset, rng) for _ in range(count)]
    attempt = lambda: hwfc_generate(uc.adjacency, n_values, uc.ruleset, uc.partitioning, rng)
    return [with_restarts(attempt, 100) for _ in range(count)]


# cwfc breaks the voxel validator (perfbench's strict xfail
# test_cwfc_voxel_skyline_breaks_its_validator); it joins once cwfc propagates
@pytest.mark.parametrize(
    "engine, world",
    [
        (engine, world)
        for engine in ("cwfc", "qwfc", "hwfc")
        for world in sorted(PROPERTY_WORLDS)
        if (engine, world) != ("cwfc", "voxels-2x2x3")
    ],
)
def test_every_engine_gives_valid_instances_of_every_use_case(engine, world):
    uc = PROPERTY_WORLDS[world]()
    segments = list(range(1, uc.adjacency.n_segments + 1))
    for seed in range(3):
        for instance in _instances(engine, uc, RandomSource(seed), 5):
            assert sorted(s for s, _ in instance.entries) == segments
            assert all(1 <= v <= uc.alphabet.n_values for _, v in instance.entries)
            assert uc.validator(instance) == []
