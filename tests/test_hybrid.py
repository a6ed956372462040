import hashlib
from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    assert_walked_state_is_simulated,
    max_prob_deviation,
    simulate_loads,
    stated_cells,
    walk_cells,
)
from test_golden import QWFC_CIRCUITS

from qcollapse import (
    AdjacencyConfig,
    BudgetExceededError,
    CapacityError,
    ConflictError,
    ContentInstance,
    Partitioning,
    Pattern,
    RandomSource,
    Rule,
    Ruleset,
    build_circuit,
    equal_blocks,
    exact_distribution,
    hwfc_exact_distribution,
    hwfc_generate,
    decode_values,
    encode_values,
    validate_partitioning,
    with_restarts,
)
from qcollapse import framework, hybrid, model, quantum
from qcollapse.model import bits_per_value
from qcollapse.quantum import QubitLayout, SparseState, walk_steps
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


@pytest.mark.parametrize(
    "blocks, message",
    [
        (((1, 2), (2, 3)), "id 2 appears in more than one partition"),
        (((1, 2), (3, 9)), r"partition 2 references id 9 outside \[1,3\]"),
        (((1, 2),), r"ids not covered by any partition: \[3\]"),
    ],
    ids=["repeated", "outside", "uncovered"],
)
def test_hwfc_refuses_an_invalid_partitioning(blocks, message):
    uc = checkerboard_usecase(3, 1)
    with pytest.raises(ValueError, match=f"^{message}$"):
        hwfc_generate(uc.adjacency, 2, uc.ruleset, Partitioning(blocks), RandomSource(0))
    with pytest.raises(ValueError, match=f"^{message}$"):
        hwfc_exact_distribution(uc.adjacency, 2, uc.ruleset, Partitioning(blocks))


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
    joint = exact_distribution(simulate_loads(circuit), circuit.layout)
    split = hwfc_exact_distribution(uc.adjacency, 2, uc.ruleset, equal_blocks(4, 2))
    assert max_prob_deviation(joint.probs, split.probs) < 1e-12


def test_hwfc_factorizes_hexmap():
    uc = hexmap_usecase(1)
    circuit = build_circuit(uc.adjacency, 4, uc.ruleset, uc.order)
    joint = exact_distribution(simulate_loads(circuit), circuit.layout)
    split = hwfc_exact_distribution(uc.adjacency, 4, uc.ruleset, uc.partitioning)
    assert max_prob_deviation(joint.probs, split.probs) < 1e-12


def test_hwfc_budget(monkeypatch):
    uc = checkerboard_usecase(4, 4)
    monkeypatch.setattr(framework, "EXACT_BUDGET", 10)
    with pytest.raises(BudgetExceededError):
        hwfc_exact_distribution(uc.adjacency, 2, uc.ruleset, uc.partitioning)


def test_hwfc_exact_distribution_refuses_an_invalid_partitioning_as_generate_does(monkeypatch):
    """The partitioning is checked before the budget: blocks that repeat an
    id, 20 ids over 19 segments, get validate_partitioning's message from
    both entry points, not a budget refusal."""
    adj = grid2d_topology(19, 1).adjacency
    rs = Ruleset((Rule(1, 1.0, Pattern.of()), Rule(2, 1.0, Pattern.of())))
    overlapping = Partitioning((tuple(range(1, 11)), tuple(range(10, 20))))
    with pytest.raises(ValueError, match="^id 10 appears in more than one partition$"):
        hwfc_generate(adj, 2, rs, overlapping, RandomSource(0))
    with pytest.raises(ValueError, match="^id 10 appears in more than one partition$"):
        hwfc_exact_distribution(adj, 2, rs, overlapping)

    # a valid partitioning over the budget (3^19 instances) is refused
    # before any block is enumerated
    def refuse(*args):
        raise AssertionError("a block was enumerated")

    monkeypatch.setattr(hybrid, "_block_outcomes", refuse)
    with pytest.raises(BudgetExceededError, match="^3\\^19 candidate instances"):
        hwfc_exact_distribution(adj, 3, rs, equal_blocks(19, 2))


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
    filled = (len(comp.block_cache), comp.cache_cells)
    assert filled[0] > 0
    # the same draws again are served from the cache alone
    assert _samples(*args, uc.ruleset, uc.partitioning, 2024, 4) == warm
    assert (len(comp.block_cache), comp.cache_cells) == filled
    for seed in (2024, 7):
        cold = _samples(*args, Ruleset(uc.ruleset.rules), uc.partitioning, seed, 4)
        assert _samples(*args, uc.ruleset, uc.partitioning, seed, 4) == cold


def test_block_cache_keeps_adjacencies_and_alphabets_apart():
    from qcollapse import Pattern, Rule

    # Value 2 needs the right neighbour to be 1.  Segment 1's right
    # neighbour is 2 on the 2x2 grid and absent on the 1x4 column, so block
    # (2, 1) has a different table on each under the same empty interface;
    # W=2 and W=3 encode it differently.
    shared = Ruleset((Rule(1, 1.0, Pattern.of()), Rule(2, 3.0, Pattern.of((1, 1)))))
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
    # block (2, 1) walks differently on the two grids, so it has a shape id
    # on each; each first block is cached under its grid's id and each W
    first = {adjacency: hybrid._schedule(adjacency, n, shared, partitioning)[0].shape for adjacency, n in worlds}
    assert len(set(first.values())) == 2
    cache = shared.compiled.block_cache
    assert {key[:2] for key in cache if key[2] == ()} == {(first[adjacency], n) for adjacency, n in worlds}


def _relabelled(adjacency):
    """The adjacency with segment s renamed N + 1 - s."""
    n = adjacency.n_segments
    edges = tuple(frozenset((n + 1 - i, n + 1 - j) for i, j in es) for es in adjacency.edges)
    return AdjacencyConfig(n, adjacency.n_directions, edges)


def test_schedules_keep_adjacencies_and_blocks_apart(monkeypatch):
    # one ruleset in several partitionings on two adjacencies, interleaved:
    # instances on hexmap r3, where a block of 19 passes the support cap,
    # and exact distributions on hexmap r1
    worlds = (
        (3, (equal_blocks(37, 8), equal_blocks(37, 4), equal_blocks(37, 2)), False),
        (1, (equal_blocks(7, 3), equal_blocks(7, 2)), True),
    )

    def outputs(ruleset):
        for radius, partitionings, exact in worlds:
            adjacency = hexmap_usecase(radius).adjacency
            for adjacency in (adjacency, _relabelled(adjacency)) * 2:
                for partitioning in partitionings:
                    rs = ruleset or Ruleset(hexmap_usecase(3).ruleset.rules)
                    try:
                        if exact:
                            dist = hwfc_exact_distribution(adjacency, 4, rs, partitioning)
                            yield dist.segments, dist.probs
                        else:
                            yield _samples(adjacency, 4, rs, partitioning, 13, 4)
                    except CapacityError as exc:
                        yield str(exc)

    fresh = list(outputs(None))
    assert sum(isinstance(out, str) for out in fresh) == 4  # equal_blocks(37, 2) on each pass
    shared = hexmap_usecase(3).ruleset
    assert list(outputs(shared)) == fresh
    assert len(shared.compiled.schedules) == 10
    # a budget that the first schedule, its plans and shapes fill keeps no other
    probe = Ruleset(shared.rules)
    hybrid._schedule(hexmap_usecase(3).adjacency, 4, probe, worlds[0][1][0])
    monkeypatch.setattr(model, "_CACHE_CAP", probe.compiled.cache_cells)
    shared = Ruleset(shared.rules)
    assert list(outputs(shared)) == fresh
    assert len(shared.compiled.schedules) == 1


def test_block_cache_cap_stops_growth_not_output(monkeypatch):
    uc = replace(hexmap_usecase(3), partitioning=equal_blocks(37, 8))
    args = (uc.adjacency, uc.alphabet.n_values)
    cold = _samples(*args, uc.ruleset, uc.partitioning, 11, 6)
    cap = 3000
    monkeypatch.setattr(model, "_CACHE_CAP", cap)
    capped = Ruleset(uc.ruleset.rules)
    comp = capped.compiled
    assert _samples(*args, capped, uc.partitioning, 11, 6) == cold
    # a walked state counts its entries, a product block's factors W cells per segment
    assert 0 < stated_cells(comp)["block_cache"] <= comp.cache_cells <= cap
    assert comp.cache_cells == sum(stated_cells(comp).values())
    for seed in (12, 13):
        _samples(*args, capped, uc.partitioning, seed, 6)
        assert comp.cache_cells <= cap


def test_block_cache_counts_a_product_block_by_its_cells(monkeypatch):
    uc = platformer_usecase(10, 10)  # 20 product blocks of 5 segments, W = 8
    args = (uc.adjacency, uc.alphabet.n_values)
    cold = _samples(*args, Ruleset(uc.ruleset.rules), uc.partitioning, 11, 6)
    monkeypatch.setattr(model, "_CACHE_CAP", 1000)
    capped = Ruleset(uc.ruleset.rules)
    comp = capped.compiled
    assert _samples(*args, capped, uc.partitioning, 11, 6) == cold
    factors = list(comp.block_cache.values())
    assert all(len(f) == 5 and all(len(probs) == len(cum) == 8 for probs, cum in f) for f in factors)
    assert stated_cells(comp)["block_cache"] == 40 * len(factors)
    assert comp.cache_cells == sum(stated_cells(comp).values()) and 1000 - 40 < comp.cache_cells <= 1000


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
    # the first block is cached, the conflicting second one is not
    assert list(rs.compiled.block_cache) == [(hybrid._schedule(adj, 2, rs, equal_blocks(2, 2))[0].shape, 2, ())]


def test_hwfc_block_past_the_index_limit_names_its_partition(monkeypatch):
    from qcollapse import CapacityError

    def refuse(*args, **kwargs):
        raise AssertionError("a block past the index limit was compiled")

    monkeypatch.setattr(hybrid, "build_circuit", refuse)  # refused before any compile work
    uc = checkerboard_usecase(8, 8)
    with pytest.raises(CapacityError) as err:
        hwfc_generate(uc.adjacency, 2, uc.ruleset, equal_blocks(64, 1), RandomSource(0))
    assert str(err.value) == (
        "partition 1: 64 qubits exceed the limit of 63 for int64 basis indices"
    )


def test_hwfc_refuses_a_later_block_past_the_index_limit_before_any_draw():
    # the first block could be drawn; the second, of 64 one-bit segments, cannot
    adj = grid2d_topology(65, 1).adjacency
    rs = Ruleset((Rule(1, 1.0, Pattern.of()), Rule(2, 1.0, Pattern.of())))
    rng = RandomSource(3)
    with pytest.raises(CapacityError) as err:
        hwfc_generate(adj, 2, rs, Partitioning(((1,), tuple(range(2, 66)))), rng)
    assert str(err.value) == "partition 2: 64 qubits exceed the limit of 63 for int64 basis indices"
    assert rng.uniform() == RandomSource(3).uniform()


def test_schedules_are_kept_per_alphabet_size(monkeypatch):
    # one block of 40 segments: 40 qubits at W = 2, 80 at W = 4
    uc = checkerboard_usecase(8, 5)
    partitioning = Partitioning((uc.order,))
    compiled_w = []

    def recording(adjacency, n_values, *args, **kwargs):
        compiled_w.append(n_values)
        return build_circuit(adjacency, n_values, *args, **kwargs)

    monkeypatch.setattr(hybrid, "build_circuit", recording)
    shared = Ruleset(uc.ruleset.rules)
    for seed in range(3):
        assert _samples(uc.adjacency, 2, shared, partitioning, seed, 2) == _samples(
            uc.adjacency, 2, Ruleset(uc.ruleset.rules), partitioning, seed, 2
        )
        with pytest.raises(CapacityError, match="^partition 1: 80 qubits exceed the limit of 63"):
            hwfc_generate(uc.adjacency, 4, shared, partitioning, RandomSource(seed))
    assert 4 not in compiled_w
    assert list(shared.compiled.schedules) == [(uc.adjacency, 2, partitioning.blocks)]


@pytest.mark.parametrize("world", ["hexmap-r1", "several-directions"])
def test_a_warm_draw_resolves_nothing(world, monkeypatch):
    if world == "several-directions":
        adjacency, n_values, ruleset, partitioning = _several_directions_world()
    else:
        uc = hexmap_usecase(1)
        adjacency, n_values, ruleset, partitioning = uc.adjacency, 4, uc.ruleset, uc.partitioning

    def outputs():
        rng = RandomSource(9)
        instance = with_restarts(lambda: hwfc_generate(adjacency, n_values, ruleset, partitioning, rng), 20)
        dist = hwfc_exact_distribution(adjacency, n_values, ruleset, partitioning)
        return instance.entries, dist.segments, dist.probs

    cold = outputs()

    def refuse(*args, **kwargs):
        raise AssertionError("a warm draw resolved its partitioning again")

    for name in ("walk_steps", "_walk_shape", "validate_partitioning"):
        monkeypatch.setattr(hybrid, name, refuse)
    assert outputs() == cold


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
def test_block_states_equal_simulate(make):
    # every block walked for three instances, under its real frozen interface
    uc = make()
    n_values, blocks = uc.alphabet.n_values, uc.partitioning.blocks
    if all(block.product for block in hybrid._schedule(uc.adjacency, n_values, uc.ruleset, uc.partitioning)):
        # product blocks draw from their factors, so compile each one directly
        rng = RandomSource(2024)
        for _ in range(3):
            instance = hwfc_generate(uc.adjacency, n_values, uc.ruleset, uc.partitioning, rng)
            for h, block in enumerate(blocks):
                earlier = {s: instance.mapping[s] for b in blocks[:h] for s in b}
                frozen = ContentInstance(_per_call_interface(uc.adjacency, block, earlier))
                assert_walked_state_is_simulated(build_circuit(uc.adjacency, n_values, uc.ruleset, block, frozen))
        return
    fresh = Ruleset(uc.ruleset.rules)  # an empty block cache: every block walks
    _samples(uc.adjacency, n_values, fresh, uc.partitioning, 2024, 3)
    first = {}
    for block in hybrid._schedule(uc.adjacency, n_values, fresh, uc.partitioning):
        first.setdefault(block.shape, block)
    states = [(key, kept) for key, kept in fresh.compiled.block_cache.items() if isinstance(kept, SparseState)]
    assert len(states) >= len(blocks)
    # each cached state, resumed or compiled, is bit for bit the loads' state
    # of a fresh compile of a block of its shape under its interface values
    for (shape, _, values), state in states:
        block = first[shape]
        frozen = ContentInstance(dict(zip(block.placed, values)))
        want = simulate_loads(build_circuit(uc.adjacency, n_values, Ruleset(uc.ruleset.rules), block.order, frozen))
        for got, expected in ((state.indices, want.indices), (state.probabilities, want.probabilities)):
            assert got.dtype == expected.dtype and np.array_equal(got, expected)


# --------------------------------------------------------------------------
# dependency blocks: walks resumed from a kept prefix
# --------------------------------------------------------------------------


def _first_read_steps(adjacency, ruleset, block, interface):
    """Each interface segment's first step (0-based) whose target has it as
    a neighbour in a direction up to the ruleset's largest; unread ones are
    left out."""
    comp = ruleset.compiled
    first = {}
    for k, target in enumerate(block):
        for d in range(1, comp.max_direction + 1):
            for s in adjacency.neighbors(target, d):
                if s in interface:
                    first.setdefault(s, k)
    return first


def _walk_or_refusal(make, h, block, values):
    """A block's walked state as (indices, probabilities), or the text of
    its conflict or capacity refusal named after partition ``h``."""
    try:
        state = make(h, block, values)
    except (ConflictError, CapacityError) as exc:
        return str(exc) if str(exc).startswith("partition ") else f"partition {h}: {exc}"
    return state.indices, state.probabilities


def _same_walk(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(a, b))


def _resume_world(name):
    """(adjacency, the alphabet sizes to walk it at, ruleset, partitioning):
    its own W and a larger one whose values take one more bit."""
    if name == "several-directions":
        adjacency, n_values, ruleset, partitioning = _several_directions_dependent_world()
    else:
        adjacency, n_values, ruleset, partitioning = PLAN_WORLDS[name]()
    return adjacency, (n_values, (1 << bits_per_value(n_values)) + 1), ruleset, partitioning


@pytest.mark.parametrize(
    "world",
    ["pipes-10x4", "hexmap-r3-blocks8", "hexmap-r2", "several-directions", "platformer-10x10", "voxels-4x4x4"],
)
def test_resumed_walks_equal_fresh_compiles(world):
    adjacency, alphabets, rules, partitioning = _resume_world(world)
    shared = Ruleset(rules.rules)  # one cache across both alphabet sizes
    comp = shared.compiled
    pick = np.random.default_rng(17)
    resumed = compared = 0
    for n_values in alphabets:
        schedule = hybrid._schedule(adjacency, n_values, shared, partitioning)
        walked = [(h, b) for h, b in enumerate(schedule, start=1) if b.placed]
        assert walked

        def cached(h, block, values):
            return hybrid._block_outcomes(adjacency, n_values, shared, h, block, (block.shape, n_values, values))

        def fresh(h, block, values):
            frozen = ContentInstance(dict(zip(block.placed, values)))
            return build_circuit(adjacency, n_values, Ruleset(rules.rules), block.order, frozen).state

        def random_values(block):
            return tuple(pick.integers(1, n_values + 1, len(block.placed)).tolist())

        # warm: 50 walks of random blocks under random interface values
        for _ in range(50):
            h, block = walked[pick.integers(len(walked))]
            _walk_or_refusal(cached, h, block, random_values(block))
        # the interfaces of hwfc draws, and fresh random ones
        rng = RandomSource(23)
        drawn = []
        for _ in range(3):
            try:
                drawn.append(hwfc_generate(adjacency, n_values, shared, partitioning, rng).mapping)
            except (ConflictError, CapacityError):
                pass
        for h, block in walked:
            interfaces = {tuple(m[s] for s in block.placed) for m in drawn}
            interfaces.update(random_values(block) for _ in range(12))
            for values in sorted(interfaces):
                reads, n = block.reads, len(block.order)
                prefixes = [(block.shape, n_values, values[: reads[j - 1]], j) for j in range(1, n)]
                # a product block's walked state is kept beside its factors
                state = (block.shape, n_values, values) + (("walked",) if block.product else ())
                resumed += state not in comp.block_cache and any(
                    key in comp.block_cache for key in prefixes
                )
                got = _walk_or_refusal(cached, h, block, values)
                assert _same_walk(got, _walk_or_refusal(fresh, h, block, values)), (n_values, h, values)
                compared += 1
    assert resumed > compared // 10
    # the interface is listed in the order its segments are first read,
    # which on a hex disc is not always the sorted order
    orders = []
    for n_values in alphabets:
        for block in hybrid._schedule(adjacency, n_values, shared, partitioning):
            first = _first_read_steps(adjacency, shared, block.order, set(block.placed))
            want = sorted(block.placed, key=lambda s: (first.get(s, len(block.order)), s))
            assert list(block.placed) == want
            orders.append(list(block.placed) == sorted(block.placed))
    assert not world.startswith("hexmap") or not all(orders)


def test_a_budget_that_keeps_some_prefixes_changes_no_output(monkeypatch):
    uc = replace(hexmap_usecase(3), partitioning=equal_blocks(37, 8))
    args = (uc.adjacency, uc.alphabet.n_values)

    def outputs(ruleset):
        rng = RandomSource(31)
        out = []
        for _ in range(40):
            try:
                out.append(hwfc_generate(*args, ruleset, uc.partitioning, rng).entries)
            except ConflictError as exc:
                out.append(str(exc))
        return out, rng.uniform()

    def prefixes(comp):
        return [key for key in comp.block_cache if isinstance(key[-1], int)]

    unbounded = Ruleset(uc.ruleset.rules)
    cold = outputs(unbounded)
    kept = len(prefixes(unbounded.compiled))
    assert kept > 0
    monkeypatch.setattr(model, "_CACHE_CAP", unbounded.compiled.cache_cells // 2)
    capped = Ruleset(uc.ruleset.rules)
    assert outputs(capped) == cold
    comp = capped.compiled
    assert 0 < len(prefixes(comp)) < kept
    assert comp.cache_cells == sum(stated_cells(comp).values()) <= model._CACHE_CAP
    # the prefix rows are charged one cell per row
    rows = sum(len(comp.block_cache[key][0]) for key in prefixes(comp))
    states = sum(len(kept.indices) for kept in comp.block_cache.values() if isinstance(kept, SparseState))
    assert 0 < rows and stated_cells(comp)["block_cache"] == rows + states + sum(
        len(cum) for key, kept in comp.block_cache.items() if len(key) == 3 and not isinstance(kept, SparseState)
        for _, cum in kept
    )


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


def _boundary(adjacency, block):
    """The sorted segments outside ``block`` adjacent to it in any direction."""
    dirs = range(1, adjacency.n_directions + 1)
    near = {s for seg in block for d in dirs for s in adjacency.neighbors(seg, d)}
    return tuple(sorted(near.difference(block)))


def _custom_world():
    # segment 1 has three neighbours in direction 1 and 3 has itself in
    # direction 2; blocks list their segments out of id order
    edges = (
        frozenset({(1, 2), (1, 3), (1, 4), (5, 1), (6, 2), (6, 5)}),
        frozenset({(2, 5), (3, 5), (4, 6), (6, 1), (3, 3), (5, 6)}),
    )
    rs = Ruleset(
        (Rule(1, 1.0, Pattern.of()), Rule(2, 2.0, Pattern.of((1, 1))), Rule(3, 1.0, Pattern.of((2, 2))))
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
    schedule = hybrid._schedule(adjacency, n_values, ruleset, partitioning)
    for h, block in enumerate(blocks):
        interface = schedule[h].placed
        assert len(set(interface)) == len(interface) and not set(interface) & set(block)
        placed = [s for b in blocks[:h] for s in b]
        for trial in range(6):
            # every earlier block's segments first, then random parts of them
            kept = placed if trial == 0 else [s for s in placed if rng.random() < 0.5]
            values = {int(s): int(rng.integers(1, n_values + 1)) for s in kept}
            got = tuple(sorted((s, values[s]) for s in interface if s in values))
            assert got == _per_call_interface(adjacency, block, values)
    # every block walked by hwfc is cached under its shape and the values of
    # the per-call interface, listed in the schedule's order
    fresh = Ruleset(ruleset.rules)
    rng = RandomSource(5)
    for _ in range(3):
        instance = with_restarts(lambda: hwfc_generate(adjacency, n_values, fresh, partitioning, rng), 20)
        for h, block in enumerate(blocks):
            earlier = {s: instance.mapping[s] for b in blocks[:h] for s in b}
            interface = _per_call_interface(adjacency, block, earlier)
            scheduled = hybrid._schedule(adjacency, n_values, fresh, partitioning)[h]
            assert tuple(sorted(scheduled.placed)) == tuple(s for s, _ in interface)
            key = (scheduled.shape, n_values, tuple(earlier[s] for s in scheduled.placed))
            assert key in fresh.compiled.block_cache


def test_plan_steps_are_the_dependency_sets():
    for world in ("hexmap-r3-blocks8", "custom", "pipes-10x4"):
        adjacency, n_values, ruleset, partitioning = PLAN_WORLDS[world]()
        for order in partitioning.blocks + (tuple(range(adjacency.n_segments, 0, -1)),):
            steps = walk_steps(adjacency, ruleset.compiled, QubitLayout(tuple(sorted(order)), n_values), order)
            assert [step.target for step in steps] == list(order)
            for k, deps in enumerate((step.deps for step in steps), start=1):
                target, earlier = order[k - 1], set(order[: k - 1])
                want = {
                    s
                    for d in ruleset.compiled.pattern_directions
                    for s in adjacency.neighbors(target, d)
                    if s in earlier
                }
                assert deps == tuple(sorted(want))


def test_shape_id_cap_stops_growth_not_output(monkeypatch):
    uc = replace(hexmap_usecase(3), partitioning=equal_blocks(37, 8))
    args = (uc.adjacency, uc.alphabet.n_values)
    cold = _samples(*args, Ruleset(uc.ruleset.rules), uc.partitioning, 11, 6)
    # a budget that the first three blocks' shapes fill, as the schedule interns them
    probe = Ruleset(uc.ruleset.rules)
    schedule = hybrid._schedule(*args, probe, uc.partitioning)
    assert [block.shape for block in schedule[:3]] == [0, 1, 2]
    cap = sum(walk_cells(walk) for walk, shape in probe.compiled.shape_ids.items() if shape < 3)
    monkeypatch.setattr(model, "_CACHE_CAP", cap)
    capped = Ruleset(uc.ruleset.rules)
    assert _samples(*args, capped, uc.partitioning, 11, 6) == cold
    comp = capped.compiled
    assert sorted(comp.shape_ids.values()) == [0, 1, 2] and comp.cache_cells == cap
    assert [block.shape for block in hybrid._schedule(*args, capped, uc.partitioning)] == [0, 1, 2] + [None] * 5


# --------------------------------------------------------------------------
# block shapes
# --------------------------------------------------------------------------


def _without_outputs(comp, steps, placed):
    return tuple(step[:3] for step in quantum._walk_shape(comp, steps, placed))


def _without_positions(comp, steps, placed):
    shape = quantum._walk_shape(comp, steps, placed)
    return tuple((r, deps, tuple(cols for cols, _ in recipe), out) for r, deps, recipe, out in shape)


def _shape_disagreements(world, shape_of):
    """(walks that differ, walks compared) between blocks of ``world`` that
    ``shape_of(comp, walk steps, interface segments)`` groups together.

    Each block is taken under several interface segment sets: the one its
    schedule gives it, its whole ``_boundary``, random halves of it and each
    boundary segment alone.  Each group member is compiled fresh beside the
    group's first under equal interface values, drawn from hwfc instances
    and at random; two walks agree when both conflict or their states are
    equal."""
    adjacency, n_values, ruleset, partitioning = PLAN_WORLDS[world]()
    comp, blocks = ruleset.compiled, partitioning.blocks
    rng = RandomSource(5)
    instances = [
        with_restarts(lambda: hwfc_generate(adjacency, n_values, ruleset, partitioning, rng), 20).mapping
        for _ in range(3)
    ]
    pick = np.random.default_rng(7)
    groups = {}
    schedule = hybrid._schedule(adjacency, n_values, ruleset, partitioning)
    for block, scheduled in zip(blocks, schedule):
        boundary = _boundary(adjacency, block)
        interfaces = {scheduled.placed, boundary}
        interfaces.update(tuple(s for s in boundary if pick.random() < 0.5) for _ in range(3))
        interfaces.update((s,) for s in boundary)
        for placed in sorted(interfaces):
            key = (len(placed), shape_of(comp, scheduled.steps, placed))
            groups.setdefault(key, []).append((block, placed))

    def walk(block, placed, values):
        try:
            frozen = ContentInstance(dict(zip(placed, values)))
            return build_circuit(adjacency, n_values, ruleset, block, frozen).state
        except ConflictError:
            return None

    differ = compared = 0
    for (size, _), ((first, first_placed), *members) in groups.items():
        for block, placed in members:
            draws = {tuple(m[s] for s in p) for m in instances for p in (first_placed, placed)}
            draws.update(tuple(pick.integers(1, n_values + 1, size).tolist()) for _ in range(3))
            for values in sorted(draws):
                a, b = walk(first, first_placed, values), walk(block, placed, values)
                same = a is b is None or (
                    a is not None
                    and b is not None
                    and np.array_equal(a.indices, b.indices)
                    and np.array_equal(a.probabilities, b.probabilities)
                )
                differ += not same
                compared += 1
    return differ, compared


@pytest.mark.parametrize(
    "world", ["pipes-10x4", "platformer-10x10", "voxels-4x4x4", "hexmap-r3-blocks8", "custom"]
)
def test_blocks_of_one_shape_id_walk_equal_states(world):
    differ, compared = _shape_disagreements(world, quantum._walk_shape)
    assert differ == 0
    assert compared > 0 or world == "hexmap-r3-blocks8"  # its eight blocks are all of distinct shapes


@pytest.mark.parametrize(
    "world, shape_of",
    [("platformer-10x10", _without_outputs), ("custom", _without_positions)],
    ids=["platformer-without-factor-outputs", "custom-without-interface-positions"],
)
def test_a_shape_without_outputs_or_positions_joins_unequal_walks(world, shape_of):
    differ, compared = _shape_disagreements(world, shape_of)
    assert 0 < differ < compared


def test_equal_shapes_share_one_id_and_state():
    uc = pipes_usecase(10, 4)
    comp = uc.ruleset.compiled
    ids = []
    schedule = hybrid._schedule(uc.adjacency, uc.alphabet.n_values, uc.ruleset, uc.partitioning)
    for scheduled in schedule:
        ids.append(scheduled.shape)
        assert comp.shape_ids[quantum._walk_shape(comp, scheduled.steps, scheduled.placed)] == ids[-1]
    # the first column has no placed neighbour; columns 2-10 read theirs alike
    assert ids[0] != ids[1] and ids[1:] == [ids[1]] * 9
    _samples(uc.adjacency, uc.alphabet.n_values, uc.ruleset, uc.partitioning, 3, 20)
    assert len(comp.shape_ids) == 2
    assert {key[0] for key in comp.block_cache} == set(ids)


def test_a_product_block_schedule_charges_its_steps_once():
    # a product block keeps its walk steps on the schedule as a dependency
    # block does: its factors read their recipes on a miss and its walked
    # state resumes over them, and nothing else keeps a copy of them
    uc = platformer_usecase(10, 10)
    comp = uc.ruleset.compiled
    n_values = uc.alphabet.n_values
    schedule = hybrid._schedule(uc.adjacency, n_values, uc.ruleset, uc.partitioning)
    for block in schedule:
        assert block.product is True and block.shape is not None
        assert all(type(s) is int for s in block.order + block.placed + block.layout.segments)
        assert block.layout == QubitLayout(tuple(sorted(block.order)), n_values)
        assert [step.target for step in block.steps] == list(block.order)
        assert not any(step.deps or step.offsets or step.mask for step in block.steps)
    steps = [step for block in schedule for step in block.steps]
    # a segment each, and per step its recipe's cells and W = 8 lifted values
    assert stated_cells(comp)["schedules"] == 100 + walk_cells(steps) + 8 * 100
    assert comp.cache_cells == sum(stated_cells(comp).values())


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


def _broadcast_circuits(uc):
    """Every block's circuit of the instances RandomSource(2024) and
    RandomSource(7) draw, each compiled under its frozen interface."""
    n_values, blocks = uc.alphabet.n_values, uc.partitioning.blocks
    for seed in (2024, 7):
        instance = hwfc_generate(uc.adjacency, n_values, uc.ruleset, uc.partitioning, RandomSource(seed))
        for h, block in enumerate(blocks):
            earlier = {s: instance.mapping[s] for b in blocks[:h] for s in b}
            frozen = ContentInstance(_per_call_interface(uc.adjacency, block, earlier))
            yield block, build_circuit(uc.adjacency, n_values, uc.ruleset, block, frozen)


def _loads_digest(circuits) -> str:
    digest = hashlib.sha256()
    for circuit in circuits:
        for load in circuit.loads:
            digest.update(repr((load.step, load.controls, load.target, load.amplitudes)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("world", sorted(BROADCAST_LOADS))
def test_broadcast_steps_give_the_loads_and_state_of_simulate(world):
    make, expected = BROADCAST_LOADS[world]
    uc = make()
    circuits = []
    for _, circuit in _broadcast_circuits(uc):
        assert not any(table.deps for table in circuit.steps)
        assert_walked_state_is_simulated(circuit)
        circuits.append(circuit)
    assert _loads_digest(circuits) == expected


def test_hwfc_builds_no_loads(monkeypatch):
    def refuse(self):
        raise AssertionError("a ConditionalLoad was built")

    monkeypatch.setattr(quantum.ConditionalLoad, "__post_init__", refuse)
    # fresh rulesets, so every block compiles
    for uc in (pipes_usecase(10, 4), platformer_usecase(10, 10), voxel_skyline_usecase(4, 4, 4)):
        n_values = uc.alphabet.n_values
        for seed in range(3):
            rng = RandomSource(seed)
            instance = with_restarts(
                lambda: hwfc_generate(uc.adjacency, n_values, uc.ruleset, uc.partitioning, rng), 10
            )
            assert not uc.validator(instance)
    # compiled without a load, the programs still give their pinned loads on first read
    broadcast, golden = {}, {}
    for world, (make, _) in BROADCAST_LOADS.items():
        broadcast[world] = [circuit for _, circuit in _broadcast_circuits(make())]
    for world, (make, _) in QWFC_CIRCUITS.items():
        uc = make()
        golden[world] = build_circuit(uc.adjacency, uc.alphabet.n_values, uc.ruleset, uc.order)
    monkeypatch.undo()
    for world, circuits in broadcast.items():
        assert _loads_digest(circuits) == BROADCAST_LOADS[world][1]
    for world, circuit in golden.items():
        assert len(circuit.loads) == QWFC_CIRCUITS[world][1][0]


# --------------------------------------------------------------------------
# product blocks: the digit draw
# --------------------------------------------------------------------------


def _walked_draws(state, uniforms):
    cum = state.cumulative
    return state.indices[cum.searchsorted(uniforms * cum[-1], side="right")].tolist()


def _product_draw(factors, state, u, layout, n_values):
    """A product block's draw as ``hwfc_generate`` takes it, as (segment,
    value) pairs: the digit draw, or near a boundary the walked state's."""
    digits = hybrid._digit_draw(factors, u)
    if digits is None:
        return decode_values(int(state.indices[framework.draw_index(state.cumulative, u)]), layout, n_values)
    return tuple(zip(layout, digits))


def _scheduled_blocks(uc, instance):
    """(partition number, scheduled block, cache key) of each block of
    ``uc``'s partitioning, keyed on the interface values of ``instance``."""
    schedule = hybrid._schedule(uc.adjacency, uc.alphabet.n_values, uc.ruleset, uc.partitioning)
    for h, block in enumerate(schedule, start=1):
        yield h, block, (block.shape, uc.alphabet.n_values, tuple(instance.mapping[s] for s in block.placed))


@pytest.mark.parametrize("world", sorted(BROADCAST_LOADS))
def test_digit_draw_agrees_with_the_walked_draw_at_every_boundary(world):
    uc = BROADCAST_LOADS[world][0]()
    n_values, blocks = uc.alphabet.n_values, uc.partitioning.blocks
    instance = hwfc_generate(uc.adjacency, n_values, uc.ruleset, uc.partitioning, RandomSource(2024))
    pick = np.random.default_rng(11)
    deferred = 0
    for h, block, key in _scheduled_blocks(uc, instance):
        factors = hybrid._block_factors(uc.adjacency, n_values, uc.ruleset, h, block, key)
        state = hybrid._block_outcomes(uc.adjacency, n_values, uc.ruleset, h, block, key)
        layout = block.layout.segments
        decode = lambda index: decode_values(index, layout, n_values)
        # every uniform whose walked target lands on an entry of the table and
        # its float neighbours: each lies within the margin of a boundary
        bounds = state.cumulative / state.cumulative[-1]
        near = np.concatenate((bounds, np.nextafter(bounds, 0.0), np.nextafter(bounds, 1.0)))
        near = near[near < 1.0]
        for u, want in zip(near.tolist(), _walked_draws(state, near)):
            assert hybrid._digit_draw(factors, u) is None
            assert _product_draw(factors, state, u, layout, n_values) == decode(want)
        uniforms = pick.random(10_000 // len(blocks))  # 10,000 per world
        for u, want in zip(uniforms.tolist(), _walked_draws(state, uniforms)):
            assert _product_draw(factors, state, u, layout, n_values) == decode(want)
            deferred += hybrid._digit_draw(factors, u) is None
    assert deferred <= 10  # about 2 * 2^-30 per outcome of a block's support


def _several_directions_world():
    # block (4, 5, 6) reads the first block in both directions, up to three
    # interface segments in one direction, so a code can fold to -1
    edges = (
        frozenset({(4, 1), (4, 2), (5, 3), (6, 1), (6, 2), (6, 3), (1, 4)}),
        frozenset({(4, 3), (5, 1), (5, 2), (6, 2), (2, 6)}),
    )
    rs = Ruleset(
        (
            Rule(1, 1.0, Pattern.of()),
            Rule(2, 2.0, Pattern.of((1, 1))),
            Rule(3, 1.0, Pattern.of((2, 2))),
            Rule(3, 3.0, Pattern.of((1, 3), (2, 1))),
        )
    )
    return AdjacencyConfig(6, 2, edges), 3, rs, Partitioning(((1, 2, 3), (6, 4, 5)))


def _several_directions_dependent_world():
    # _several_directions_world's rules where block (4, 5, 6) depends on
    # itself: 5 reads 4 beside interface segment 2 in direction 1, and 6
    # reads 5 in direction 2 and three interface segments in direction 1
    edges = (
        frozenset({(4, 1), (5, 2), (5, 4), (6, 1), (6, 2), (6, 3)}),
        frozenset({(6, 5), (2, 6), (1, 4)}),
    )
    rules = _several_directions_world()[2]
    return AdjacencyConfig(6, 2, edges), 3, rules, Partitioning(((1, 2, 3), (4, 5, 6)))


@pytest.mark.parametrize("world", ["platformer-10x10", "voxels-4x4x4", "several-directions"])
def test_positional_fold_equals_the_fold_by_segment(world):
    if world == "several-directions":
        adjacency, n_values, ruleset, partitioning = _several_directions_world()
        firsts = [dict(zip((1, 2, 3), map(int, vals))) for vals in np.ndindex(3, 3, 3)]
        instances = [{**first, **{s: v + 1 for s, v in first.items()}} for first in firsts]
    else:
        uc = BROADCAST_LOADS[world][0]()
        adjacency, n_values, ruleset, partitioning = uc.adjacency, uc.alphabet.n_values, uc.ruleset, uc.partitioning
        instances = [
            hwfc_generate(adjacency, n_values, ruleset, partitioning, RandomSource(seed)).mapping
            for seed in range(5)
        ]
    comp = ruleset.compiled
    signatures = set()
    for instance in instances:
        for h, block in enumerate(hybrid._schedule(adjacency, n_values, ruleset, partitioning), start=1):
            assert block.product
            interface = tuple(instance[s] for s in block.placed)
            key = (block.shape, n_values, interface)
            factors = hybrid._block_factors(adjacency, n_values, ruleset, h, block, key)
            # each segment's factor, highest id first, is its entry under the
            # constraint signature of the interface values, folded by segment id
            fixed = dict(zip(block.placed, interface))
            for target, (probs, cum) in zip(block.layout.segments[::-1], factors):
                signature = model.constraint_signature(target, adjacency, fixed)[: comp.max_direction]
                entry = model.signature_entry(comp, signature, n_values, target)
                assert probs == entry[0].tolist() and cum is entry[2]
                signatures.add(signature)
    if world == "several-directions":
        assert any(-1 in sig for sig in signatures) and any(0 not in sig for sig in signatures)
        # hwfc draws each block as the walked state its compile folds by segment id
        for seed in range(20):
            rng, want = RandomSource(seed), {}
            for block in partitioning.blocks:
                frozen = ContentInstance({s: want[s] for s in _boundary(adjacency, block) if s in want})
                state = build_circuit(adjacency, n_values, ruleset, block, frozen).state
                drawn = int(state.indices[framework.draw_index(state.cumulative, rng.uniform())])
                want.update(decode_values(drawn, tuple(sorted(block)), n_values))
            assert hwfc_generate(adjacency, n_values, ruleset, partitioning, RandomSource(seed)).mapping == want


class _Uniforms(RandomSource):
    """A stream whose ``uniform`` gives the listed values in turn."""

    def __init__(self, *uniforms):
        super().__init__(0)
        self._given = iter(uniforms)

    def uniform(self):
        return next(self._given)


def test_digit_draw_on_a_boundary_falls_back_to_the_walked_draw(monkeypatch):
    # two free segments of four equal values: the roots are exactly 1/2, so
    # the walked table is exactly k/16 and each k/16 a joint boundary
    adj = grid2d_topology(2, 1).adjacency
    rs = Ruleset(tuple(Rule(v, 1.0, Pattern.of()) for v in range(1, 5)))
    state = build_circuit(adj, 4, rs, (1, 2)).state
    assert state.cumulative.tolist() == [k / 16 for k in range(1, 17)]
    walked = []
    real = hybrid._block_outcomes

    def recording(*args):
        walked.append(real(*args))
        return walked[-1]

    monkeypatch.setattr(hybrid, "_block_outcomes", recording)
    for u, falls_back in ((0.0, True), (0.25, True), (0.5, True), (0.53, False), (13 / 16, True), (0.9, False)):
        walked.clear()
        instance = hwfc_generate(adj, 4, rs, Partitioning(((1, 2),)), _Uniforms(u))
        assert len(walked) == falls_back
        assert [encode_values(instance.mapping, (1, 2), 4)] == _walked_draws(state, np.array([u]))


def _recorded_compiles(monkeypatch):
    """The (order, frozen) of every ``hybrid.build_circuit`` call from now on."""
    calls = []

    def recording(adjacency, n_values, ruleset, order, frozen=None):
        calls.append((tuple(order), frozen))
        return build_circuit(adjacency, n_values, ruleset, order, frozen)

    monkeypatch.setattr(hybrid, "build_circuit", recording)
    return calls


def _assert_only_blocks_without_an_interface_compile(calls, adjacency, n_values, ruleset, partitioning):
    schedule = hybrid._schedule(adjacency, n_values, ruleset, partitioning)
    assert calls and all(frozen == ContentInstance() for _, frozen in calls)
    assert {order for order, _ in calls} <= {block.order for block in schedule if not block.placed}


@pytest.mark.parametrize("world", sorted(BROADCAST_LOADS))
def test_product_draws_all_read_from_walked_states_change_nothing(world, monkeypatch):
    make = BROADCAST_LOADS[world][0]

    def outputs():
        uc = make()
        ruleset = Ruleset(uc.ruleset.rules)  # fresh: every block walks
        args = (uc.adjacency, uc.alphabet.n_values, ruleset, uc.partitioning)
        rng, out = RandomSource(41), []
        for _ in range(100):
            try:
                out.append(hwfc_generate(*args, rng).entries)
            except ConflictError as exc:
                out.append(str(exc))
        return (out, rng.uniform()), args

    want, _ = outputs()
    monkeypatch.setattr(hybrid, "_MARGIN", 1.0)  # no uniform lies far enough inside its outcome
    calls = _recorded_compiles(monkeypatch)
    got, args = outputs()
    assert got == want
    # every factors' key has its walked state beside it, resumed unless the
    # block has no interface
    cache = args[2].compiled.block_cache
    factors = [key for key, kept in cache.items() if len(key) == 3 and not isinstance(kept, SparseState)]
    assert factors and all(key + ("walked",) in cache for key in factors)
    _assert_only_blocks_without_an_interface_compile(calls, *args)


@pytest.mark.parametrize(
    "make",
    [
        lambda: platformer_usecase(3, 2),
        lambda: voxel_skyline_usecase(3, 3, 2),
        lambda: pipes_usecase(3, 2),
        lambda: replace(hexmap_usecase(1), partitioning=equal_blocks(7, 3)),
    ],
    ids=["platformer-3x2", "voxels-3x3x2", "pipes-3x2", "hexmap-r1-blocks3"],
)
def test_exact_distributions_compile_only_blocks_without_an_interface(make, monkeypatch):
    uc = make()
    args = (uc.adjacency, uc.alphabet.n_values, Ruleset(uc.ruleset.rules), uc.partitioning)
    calls = _recorded_compiles(monkeypatch)
    hwfc_exact_distribution(*args)
    _assert_only_blocks_without_an_interface_compile(calls, *args)


def _right_needs_two():
    # value 1 needs its right neighbour to be 2, which no rule gives: a
    # segment conflicts once its right neighbour is placed
    return Ruleset((Rule(1, 1.0, Pattern.of((1, 2))),))


@pytest.mark.parametrize("blocks", [((2,), (1,), (3,)), ((2,), (3, 1))], ids=["single", "block-order"])
def test_product_conflict_leaves_the_stream_after_one_uniform_per_drawn_block(blocks):
    adj = grid2d_topology(3, 1).adjacency
    rng = RandomSource(42)
    with pytest.raises(ConflictError) as err:
        hwfc_generate(adj, 2, _right_needs_two(), Partitioning(blocks), rng)
    assert str(err.value) == (
        f"partition 2: no admissible value for segment 1 (while compiling iteration {len(blocks[1])})"
    )
    # partition 1 drew one uniform; partition 2 conflicted before drawing,
    # though its segment 3 has an entry
    assert rng.uniform() == RandomSource(42).uniforms(2)[1]


def test_product_refusals_read_as_the_compile_gives_them():
    from qcollapse import CapacityError

    # block (5, 3, 1) under 2 = 4 = 1: segments 3 and 1 both conflict, and
    # the first in block order is named
    adj = grid2d_topology(5, 1).adjacency
    rs = _right_needs_two()
    with pytest.raises(ConflictError) as got:
        hwfc_generate(adj, 2, rs, Partitioning(((2, 4), (5, 3, 1))), RandomSource(0))
    with pytest.raises(ConflictError) as want:
        build_circuit(adj, 2, rs, (5, 3, 1), frozen=ContentInstance({2: 1, 4: 1}))
    assert str(got.value) == f"partition 2: {want.value}"
    assert (got.value.segment, got.value.content) == (want.value.segment, want.value.content) == (3, ContentInstance())
    # 21 free segments of two values pass the support cap at iteration 21
    adj = grid2d_topology(21, 1).adjacency
    rs = Ruleset((Rule(1, 1.0, Pattern.of()), Rule(2, 1.0, Pattern.of())))
    block = tuple(range(21, 0, -1))
    with pytest.raises(CapacityError) as got:
        hwfc_generate(adj, 2, rs, Partitioning((block,)), RandomSource(0))
    with pytest.raises(CapacityError) as want:
        build_circuit(adj, 2, rs, block)
    assert str(got.value) == f"partition 1: {want.value}"
    assert str(want.value).endswith("at iteration 21")
    # the index limit is checked first, and repeated ids refused as the compile does
    adj = grid2d_topology(64, 1).adjacency
    with pytest.raises(CapacityError, match="^partition 1: 64 qubits exceed the limit of 63"):
        hwfc_generate(adj, 2, rs, Partitioning((tuple(range(1, 65)),)), RandomSource(0))
    with pytest.raises(ValueError, match="^segment order must not repeat ids$"):
        hwfc_generate(adj, 2, rs, Partitioning(((1, 2, 1),)), RandomSource(0))


def _left_reading_world(width, n_values, needs_left_one=False):
    """A width x 1 chain whose rules read the left neighbour (direction 3),
    so a block of it has dependencies; with ``needs_left_one`` every value
    needs that neighbour to be 1, else any value follows any value."""
    lefts = (1,) if needs_left_one else range(1, n_values + 1)
    rules = tuple(Rule(v, 1.0, Pattern.of((3, a))) for v in range(1, n_values + 1) for a in lefts)
    return grid2d_topology(width, 1).adjacency, n_values, Ruleset(rules)


def _wide_read_world():
    # segment 15 reads segments 2-14 in direction 1; segment 2 reads segment 1
    edges = (frozenset((15, s) for s in range(2, 15)), frozenset({(2, 1)}))
    rules = (Rule(1, 1.0, Pattern.of()), Rule(2, 1.0, Pattern.of()), Rule(2, 1.0, Pattern.of((1, 1))))
    return AdjacencyConfig(15, 2, edges), 2, Ruleset(rules)


DEPENDENCY_REFUSALS = {
    # 16^5 rows after iteration 5, then 16 values each to gather
    "gather": (lambda: _left_reading_world(7, 16), "1048576 rows x 16 values at iteration 6 exceed the cap"),
    "loads": (_wide_read_world, "8192 control assignments at iteration 14 exceed the cap of 4096"),
    # after a first segment of 1, segment 3 conflicts under 2 = 2 and 2 = 3
    "conflict": (lambda: _left_reading_world(4, 3, True), "no admissible value for segment 3"),
    "support": (lambda: _left_reading_world(22, 2), "reachable support grew past 1048576 at iteration 21"),
}


@pytest.mark.parametrize("case", sorted(DEPENDENCY_REFUSALS))
def test_dependency_refusals_read_as_the_compile_gives_them(case):
    make, text = DEPENDENCY_REFUSALS[case]
    adjacency, n_values, ruleset = make()
    block = tuple(range(2, adjacency.n_segments + 1))
    assert not hybrid._schedule(adjacency, n_values, ruleset, Partitioning(((1,), block)))[1].product
    # a stream whose first uniform draws value 1 for segment 1
    seed = next(s for s in range(100) if RandomSource(s).uniform() < 1 / n_values)
    rng = RandomSource(seed)
    error = ConflictError if case == "conflict" else CapacityError
    with pytest.raises(error) as got:
        hwfc_generate(adjacency, n_values, ruleset, Partitioning(((1,), block)), rng)
    with pytest.raises(error) as want:
        build_circuit(adjacency, n_values, ruleset, block, frozen=ContentInstance({1: 1}))
    assert str(got.value) == f"partition 2: {want.value}" and text in str(want.value)
    if case == "conflict":  # the smallest conflicting control tuple is named
        assert got.value.content == want.value.content == ContentInstance({2: 2})
    # partition 1 drew one uniform; partition 2 refused before drawing
    assert rng.uniform() == RandomSource(seed).uniforms(2)[1]
