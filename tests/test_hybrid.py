import hashlib
from dataclasses import replace

import numpy as np
import pytest
from conftest import max_prob_deviation

from qcollapse import (
    AdjacencyConfig,
    BudgetExceededError,
    ConflictError,
    ContentInstance,
    Partitioning,
    Pattern,
    RandomSource,
    Rule,
    Ruleset,
    build_circuit,
    dependency_set,
    equal_blocks,
    exact_distribution,
    hwfc_exact_distribution,
    hwfc_generate,
    encode_values,
    simulate,
    validate_partitioning,
    with_restarts,
)
from qcollapse import framework, hybrid, quantum
from qcollapse.model import EMPTY_PATTERN
from qcollapse.quantum import order_plan
from qcollapse.topology import grid2d_topology
from qcollapse.usecases import (
    checkerboard_usecase,
    hexmap_usecase,
    pipes_usecase,
    platformer_usecase,
    voxel_skyline_usecase,
)


def test_equal_blocks():
    assert equal_blocks(6, 3).blocks == ((1, 2), (3, 4), (5, 6))
    assert equal_blocks(7, 3).blocks == ((1, 2, 3), (4, 5), (6, 7))
    assert equal_blocks(5, 5).blocks == ((1,), (2,), (3,), (4,), (5,))
    with pytest.raises(ValueError):
        equal_blocks(3, 4)


def test_validate_partitioning():
    assert validate_partitioning(Partitioning(((1, 2), (3,))), 3) == []
    bad = validate_partitioning(Partitioning(((1, 2), (2,))), 3)
    assert any("more than one partition" in v for v in bad)
    assert any("not covered" in v for v in bad)
    assert validate_partitioning(Partitioning(((1,), ())), 1) != []
    assert validate_partitioning(Partitioning(((1, 5),)), 3) != []


def test_hwfc_generate_matches_validator_and_seed():
    uc = checkerboard_usecase(3, 3)
    a = hwfc_generate(uc.adjacency, 2, uc.ruleset, uc.partitioning, RandomSource(8))
    b = hwfc_generate(uc.adjacency, 2, uc.ruleset, uc.partitioning, RandomSource(8))
    assert a == b
    assert uc.validator(a) == []
    assert len(a) == 9


def test_hwfc_factorizes_checkerboard():
    uc = checkerboard_usecase(2, 2)
    circuit = build_circuit(uc.adjacency, 2, uc.ruleset, uc.order)
    joint = exact_distribution(simulate(circuit), circuit.layout)
    split = hwfc_exact_distribution(uc.adjacency, 2, uc.ruleset, equal_blocks(4, 2))
    assert max_prob_deviation(joint.probs, split.probs) < 1e-12


def test_hwfc_factorizes_hexmap():
    uc = hexmap_usecase(1)
    circuit = build_circuit(uc.adjacency, 4, uc.ruleset, uc.order)
    joint = exact_distribution(simulate(circuit), circuit.layout)
    split = hwfc_exact_distribution(uc.adjacency, 4, uc.ruleset, uc.partitioning)
    assert max_prob_deviation(joint.probs, split.probs) < 1e-12


def test_hwfc_budget(monkeypatch):
    uc = checkerboard_usecase(4, 4)
    monkeypatch.setattr(framework, "EXACT_BUDGET", 10)
    with pytest.raises(BudgetExceededError):
        hwfc_exact_distribution(uc.adjacency, 2, uc.ruleset, uc.partitioning)


def test_hwfc_conflict_names_partition():
    from qcollapse import Pattern, Rule, Ruleset
    from qcollapse.topology import grid2d_topology

    adj = grid2d_topology(2, 1).adjacency
    rs = Ruleset((Rule(1, 1.0, Pattern.of((1, 2), (3, 2))),))  # value 2 unreachable
    with pytest.raises(ConflictError) as err:
        hwfc_generate(adj, 2, rs, equal_blocks(2, 2), RandomSource(0))
    assert "partition 2" in str(err.value)


def test_hwfc_exact_distribution_is_what_restarts_sample():
    # a 3-cell chain, ends first: the middle cell needs both ends within 1 of
    # its value, so the ends (1, 4) and (4, 1) conflict
    adj = grid2d_topology(3, 1).adjacency
    near = lambda v: [a for a in range(1, 5) if abs(a - v) <= 1]
    rs = Ruleset(
        tuple(
            Rule(v, 1.0 + (v == 1), Pattern.of((1, a), (3, b)))
            for v in range(1, 5)
            for a in near(v)
            for b in near(v)
        )
    )
    partitioning = Partitioning(((1,), (3,), (2,)))
    dist = hwfc_exact_distribution(adj, 4, rs, partitioning)

    # by hand: an end's weights count its rules; the middle's, the rules its ends allow
    end = np.array([8.0, 9.0, 9.0, 4.0]) / 30
    kept = 1 - 2 * end[0] * end[3]
    expected = {}
    for x1 in range(1, 5):
        for x3 in range(1, 5):
            mid = np.array([(1.0 + (v == 1)) * (v in near(x1) and v in near(x3)) for v in range(1, 5)])
            for v in range(1, 5):
                if mid[v - 1] > 0:
                    key = encode_values({1: x1, 2: v, 3: x3}, (1, 2, 3), 4)
                    expected[key] = end[x1 - 1] * end[x3 - 1] * mid[v - 1] / mid.sum() / kept
    assert abs(kept - 0.92889) < 1e-5
    assert len(dist.probs) == len(expected) == 26
    assert max_prob_deviation(dist.probs, expected) < 1e-15

    rng = RandomSource(7)
    n = 100_000
    counts: dict[int, int] = {}
    for _ in range(n):
        instance = with_restarts(lambda: hwfc_generate(adj, 4, rs, partitioning, rng), 100)
        key = encode_values(instance.mapping, (1, 2, 3), 4)
        counts[key] = counts.get(key, 0) + 1
    assert set(counts) <= set(dist.probs)
    tv = 0.5 * sum(abs(counts.get(k, 0) / n - p) for k, p in dist.probs.items())
    assert tv < (len(dist.probs) / n) ** 0.5  # ~0.016; the expected TV is at most 0.4 of it


# --------------------------------------------------------------------------
# the block outcome cache
# --------------------------------------------------------------------------


def _samples(adjacency, n_values, ruleset, partitioning, seed, count):
    """Entries of ``count`` consecutive instances, or the conflict message."""
    rng = RandomSource(seed)
    out = []
    for _ in range(count):
        try:
            out.append(hwfc_generate(adjacency, n_values, ruleset, partitioning, rng).entries)
        except ConflictError as exc:
            out.append(str(exc))
    return out


@pytest.mark.parametrize(
    "make",
    [
        lambda: pipes_usecase(10, 4),
        lambda: platformer_usecase(10, 10),
        lambda: voxel_skyline_usecase(4, 4, 4),
        lambda: replace(hexmap_usecase(3), partitioning=equal_blocks(37, 8)),
    ],
    ids=["pipes-10x4", "platformer-10x10", "voxels-4x4x4", "hexmap-r3"],
)
def test_warm_block_cache_gives_cold_instances(make):
    uc = make()
    args = (uc.adjacency, uc.alphabet.n_values)
    warm = _samples(*args, uc.ruleset, uc.partitioning, 2024, 4)
    comp = uc.ruleset.compiled
    filled = (len(comp.block_cache), comp.block_cache_entries)
    assert filled[0] > 0
    # the same draws again are served from the cache alone
    assert _samples(*args, uc.ruleset, uc.partitioning, 2024, 4) == warm
    assert (len(comp.block_cache), comp.block_cache_entries) == filled
    for seed in (2024, 7):
        cold = _samples(*args, Ruleset(uc.ruleset.rules), uc.partitioning, seed, 4)
        assert _samples(*args, uc.ruleset, uc.partitioning, seed, 4) == cold


def test_block_cache_keeps_adjacencies_and_alphabets_apart():
    from qcollapse import Pattern, Rule
    from qcollapse.model import EMPTY_PATTERN

    # Value 2 needs the right neighbour to be 1.  Segment 1's right
    # neighbour is 2 on the 2x2 grid and absent on the 1x4 column, so block
    # (2, 1) has a different table on each under the same empty interface;
    # W=2 and W=3 encode it differently.
    shared = Ruleset((Rule(1, 1.0, EMPTY_PATTERN), Rule(2, 3.0, Pattern.of((1, 1)))))
    partitioning = Partitioning(((2, 1), (4, 3)))
    worlds = [(grid2d_topology(w, h).adjacency, n) for w, h in ((2, 2), (1, 4)) for n in (2, 3)]
    for adjacency, n_values in worlds + worlds[::-1]:
        fresh = Ruleset(shared.rules)
        assert _samples(adjacency, n_values, shared, partitioning, 5, 6) == _samples(
            adjacency, n_values, fresh, partitioning, 5, 6
        )
        got = hwfc_exact_distribution(adjacency, n_values, shared, partitioning)
        want = hwfc_exact_distribution(adjacency, n_values, Ruleset(shared.rules), partitioning)
        assert (got.segments, got.n_values, got.probs) == (want.segments, want.n_values, want.probs)
    cache = shared.compiled.block_cache
    assert {key[:2] for key in cache} == set(worlds)


def test_block_cache_cap_stops_growth_not_output(monkeypatch):
    uc = replace(hexmap_usecase(3), partitioning=equal_blocks(37, 8))
    args = (uc.adjacency, uc.alphabet.n_values)
    cold = _samples(*args, uc.ruleset, uc.partitioning, 11, 6)
    cap = 3000
    monkeypatch.setattr(hybrid, "_BLOCK_CACHE_CAP", cap)
    capped = Ruleset(uc.ruleset.rules)
    comp = capped.compiled
    assert _samples(*args, capped, uc.partitioning, 11, 6) == cold
    assert 0 < comp.block_cache_entries <= cap
    assert comp.block_cache_entries == sum(len(t.indices) for t in comp.block_cache.values())
    for seed in (12, 13):
        _samples(*args, capped, uc.partitioning, seed, 6)
        assert comp.block_cache_entries <= cap


def test_repeated_conflicting_interface_raises_again():
    from qcollapse import Pattern, Rule

    adj = grid2d_topology(2, 1).adjacency
    rs = Ruleset((Rule(1, 1.0, Pattern.of((1, 2), (3, 2))),))  # value 2 unreachable
    messages = []
    for _ in range(2):
        with pytest.raises(ConflictError) as err:
            hwfc_generate(adj, 2, rs, equal_blocks(2, 2), RandomSource(0))
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("partition 2: ")
    assert list(rs.compiled.block_cache) == [(adj, 2, (1,), ())]


def test_hwfc_block_past_the_index_limit_names_its_partition():
    from qcollapse import CapacityError

    uc = checkerboard_usecase(8, 8)
    with pytest.raises(CapacityError) as err:
        hwfc_generate(uc.adjacency, 2, uc.ruleset, equal_blocks(64, 1), RandomSource(0))
    assert str(err.value) == (
        "partition 1: 64 qubits exceed the limit of 63 for int64 basis indices"
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: pipes_usecase(10, 4),
        lambda: platformer_usecase(10, 10),
        lambda: voxel_skyline_usecase(4, 4, 4),
        lambda: replace(hexmap_usecase(3), partitioning=equal_blocks(37, 8)),
    ],
    ids=["pipes-10x4", "platformer-10x10", "voxels-4x4x4", "hexmap-r3"],
)
def test_block_states_equal_simulate(make, monkeypatch):
    # every block compiled for three instances, under its real frozen interface
    uc = make()
    compiled = []

    def recording(*args, **kwargs):
        circuit = build_circuit(*args, **kwargs)
        compiled.append(circuit)
        return circuit

    monkeypatch.setattr(hybrid, "build_circuit", recording)
    fresh = Ruleset(uc.ruleset.rules)  # an empty block cache: every block compiles
    _samples(uc.adjacency, uc.alphabet.n_values, fresh, uc.partitioning, 2024, 3)
    assert len(compiled) >= len(uc.partitioning.blocks)
    # each compile's state is cached as it is, in compile order
    cached = list(fresh.compiled.block_cache.values())
    assert len(cached) == len(compiled)
    assert all(state is circuit.state for state, circuit in zip(cached, compiled))
    for circuit in compiled:
        walked, simulated = circuit.state, simulate(circuit)
        assert np.array_equal(walked.indices, simulated.indices)
        assert np.array_equal(walked.amplitudes, simulated.amplitudes)
        assert np.array_equal(walked.probabilities, simulated.probabilities)


# --------------------------------------------------------------------------
# the order plan
# --------------------------------------------------------------------------


def _per_call_interface(adjacency, block, values):
    """The interface as it was built before the plan: every placed segment
    adjacent to the block in any direction, as a sorted set of pairs."""
    return tuple(
        sorted(
            {
                (s, values[s])
                for seg in block
                for d in range(1, adjacency.n_directions + 1)
                for s in adjacency.neighbors(seg, d)
                if s in values
            }
        )
    )


def _custom_world():
    # segment 1 has three neighbours in direction 1 and 3 has itself in
    # direction 2; blocks list their segments out of id order
    edges = (
        frozenset({(1, 2), (1, 3), (1, 4), (5, 1), (6, 2), (6, 5)}),
        frozenset({(2, 5), (3, 5), (4, 6), (6, 1), (3, 3), (5, 6)}),
    )
    rs = Ruleset(
        (Rule(1, 1.0, EMPTY_PATTERN), Rule(2, 2.0, Pattern.of((1, 1))), Rule(3, 1.0, Pattern.of((2, 2))))
    )
    return AdjacencyConfig(6, 2, edges), 3, rs, Partitioning(((3, 1), (6, 5), (2, 4)))


def _usecase_world(make, partitioning=None):
    def world():
        uc = make()
        return uc.adjacency, uc.alphabet.n_values, uc.ruleset, partitioning or uc.partitioning

    return world


PLAN_WORLDS = {
    "checkerboard-6x6": _usecase_world(lambda: checkerboard_usecase(6, 6)),
    "pipes-10x4": _usecase_world(lambda: pipes_usecase(10, 4)),
    "platformer-10x10": _usecase_world(lambda: platformer_usecase(10, 10)),
    "voxels-4x4x4": _usecase_world(lambda: voxel_skyline_usecase(4, 4, 4)),
    "hexmap-r2": _usecase_world(lambda: hexmap_usecase(2)),
    "hexmap-r3-blocks8": _usecase_world(lambda: hexmap_usecase(3), equal_blocks(37, 8)),
    "custom": _custom_world,
}


@pytest.mark.parametrize("world", sorted(PLAN_WORLDS))
def test_plan_boundary_gives_the_per_call_interface(world):
    adjacency, n_values, ruleset, partitioning = PLAN_WORLDS[world]()
    rng = np.random.default_rng(3)
    blocks = partitioning.blocks
    for h, block in enumerate(blocks):
        _, boundary = order_plan(adjacency, ruleset, block)
        assert list(boundary) == sorted(set(boundary)) and not set(boundary) & set(block)
        placed = [s for b in blocks[:h] for s in b]
        for trial in range(6):
            # every earlier block's segments first, then random parts of them
            kept = placed if trial == 0 else [s for s in placed if rng.random() < 0.5]
            values = {int(s): int(rng.integers(1, n_values + 1)) for s in kept}
            got = tuple((s, values[s]) for s in boundary if s in values)
            assert got == _per_call_interface(adjacency, block, values)
    # every block compiled by hwfc is cached under the per-call interface
    fresh = Ruleset(ruleset.rules)
    rng = RandomSource(5)
    for _ in range(3):
        instance = with_restarts(lambda: hwfc_generate(adjacency, n_values, fresh, partitioning, rng), 20)
        for h, block in enumerate(blocks):
            earlier = {s: instance.mapping[s] for b in blocks[:h] for s in b}
            key = (adjacency, n_values, block, _per_call_interface(adjacency, block, earlier))
            assert key in fresh.compiled.block_cache


def test_plan_steps_are_the_dependency_sets():
    for world in ("hexmap-r3-blocks8", "custom", "pipes-10x4"):
        adjacency, _, ruleset, partitioning = PLAN_WORLDS[world]()
        for order in partitioning.blocks + (tuple(range(adjacency.n_segments, 0, -1)),):
            steps, _ = order_plan(adjacency, ruleset, order)
            assert len(steps) == len(order)
            for k, deps in enumerate(steps, start=1):
                target, earlier = order[k - 1], set(order[: k - 1])
                want = {
                    s
                    for d in ruleset.compiled.pattern_directions
                    for s in adjacency.neighbors(target, d)
                    if s in earlier
                }
                assert deps == tuple(sorted(want))
                assert dependency_set(k, order, adjacency, ruleset) == frozenset(want)


def test_plan_cache_cap_stops_growth_not_output(monkeypatch):
    uc = replace(hexmap_usecase(3), partitioning=equal_blocks(37, 8))
    args = (uc.adjacency, uc.alphabet.n_values)
    cold = _samples(*args, Ruleset(uc.ruleset.rules), uc.partitioning, 11, 6)
    monkeypatch.setattr(quantum, "_PLAN_CACHE_CAP", 3)
    capped = Ruleset(uc.ruleset.rules)
    assert _samples(*args, capped, uc.partitioning, 11, 6) == cold
    assert list(capped.compiled.plans) == [(uc.adjacency, block) for block in uc.partitioning.blocks[:3]]


# sha256 of every load of every block of the instances RandomSource(2024) and
# RandomSource(7) draw, each block compiled under its frozen interface; every
# step of these blocks has no dependency, so each broadcasts its one load
BROADCAST_LOADS = {
    "platformer-10x10": (
        lambda: platformer_usecase(10, 10),
        "6263a92d79144a4b1547978114d6fc2233e995964b6d405e7068b04ecc11ea04",
    ),
    "voxels-4x4x4": (
        lambda: voxel_skyline_usecase(4, 4, 4),
        "3edba3f44df52b39e55551f92f15e5778069b8f3fb953b203ae89d9c1c9387d5",
    ),
}


@pytest.mark.parametrize("world", sorted(BROADCAST_LOADS))
def test_broadcast_steps_give_the_loads_and_state_of_simulate(world):
    make, expected = BROADCAST_LOADS[world]
    uc = make()
    n_values, blocks = uc.alphabet.n_values, uc.partitioning.blocks
    digest = hashlib.sha256()
    for seed in (2024, 7):
        instance = hwfc_generate(uc.adjacency, n_values, uc.ruleset, uc.partitioning, RandomSource(seed))
        for h, block in enumerate(blocks):
            assert not any(dependency_set(k, block, uc.adjacency, uc.ruleset) for k in range(1, len(block) + 1))
            earlier = {s: instance.mapping[s] for b in blocks[:h] for s in b}
            frozen = ContentInstance(_per_call_interface(uc.adjacency, block, earlier))
            circuit = build_circuit(uc.adjacency, n_values, uc.ruleset, block, frozen)
            for load in circuit.loads:
                digest.update(repr((load.step, load.controls, load.target, load.amplitudes)).encode())
            walked, simulated = circuit.state, simulate(circuit)
            assert np.array_equal(walked.indices, simulated.indices)
            assert np.array_equal(walked.amplitudes, simulated.amplitudes)
            assert np.array_equal(walked.probabilities, simulated.probabilities)
    assert digest.hexdigest() == expected
