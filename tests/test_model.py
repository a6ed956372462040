import gc
import sys
import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from conftest import chain_adjacency, pattern_matches, stated_cells

from qcollapse import (
    Alphabet,
    ConflictError,
    ContentInstance,
    Distribution,
    FunctionalWeight,
    Partitioning,
    Pattern,
    RandomSource,
    Rule,
    Ruleset,
    Symbol,
    bits_per_value,
    build_circuit,
    equal_blocks,
    exact_distribution,
    hwfc_exact_distribution,
    hwfc_generate,
    grid2d_topology,
    grid3d_topology,
    hexgrid_topology,
    cwfc_generate,
    decode_values,
    encode_values,
    make_alphabet,
    make_factor,
    sample_shots,
    value_distribution,
    value_entropy,
)
from qcollapse import model
from qcollapse.quantum import order_plan, walked_state
from qcollapse.topology import hexgrid_coordinates
from qcollapse.usecases import (
    checkerboard_ruleset,
    checkerboard_usecase,
    hexmap_usecase,
    platformer_usecase,
    voxel_skyline_ruleset,
)


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
    adj = grid2d_topology(2, 2).adjacency
    assert adj.n_segments == 4 and adj.n_directions == 4
    assert adj.edges[0] == frozenset({(1, 2), (3, 4)})  # right
    assert adj.edges[1] == frozenset({(3, 1), (4, 2)})  # up
    assert adj.edges[2] == frozenset({(2, 1), (4, 3)})  # left
    assert adj.edges[3] == frozenset({(1, 3), (2, 4)})  # down
    assert adj.neighbors(1, 1) == (2,)
    assert adj.neighbors(1, 2) == ()  # open boundary
    assert adj.in_edges(1) == ((2, 3), (3, 2))  # 1 is left of 2 and up from 3


def test_grid3d_columns_layout():
    # 2 wide, 1 deep, 2 tall: ground layer ids 1,2; top layer 3,4
    adj = grid3d_topology(2, 1, 2).adjacency
    assert adj.n_segments == 4 and adj.n_directions == 2
    assert adj.edges[0] == frozenset({(1, 3), (2, 4)})  # above
    assert adj.edges[1] == frozenset({(3, 1), (4, 2)})  # below


def test_hexgrid_radius1_spiral_and_neighbors():
    coords = hexgrid_coordinates(1)
    assert coords == ((0, 0), (1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1))
    adj = hexgrid_topology(1).adjacency
    assert adj.n_segments == 7 and adj.n_directions == 6
    # center's neighbor in each CCW-from-east direction is ring id 2..7
    assert [adj.neighbors(1, d) for d in range(1, 7)] == [(2,), (3,), (4,), (5,), (6,), (7,)]
    # opposite directions pair up (d and d+3)
    for d in range(1, 4):
        assert adj.edges[d - 1] == frozenset((j, i) for i, j in adj.edges[d + 2])


@pytest.mark.parametrize("radius,n", [(0, 1), (1, 7), (2, 19), (3, 37)])
def test_hexgrid_size_formula(radius, n):
    assert hexgrid_topology(radius).adjacency.n_segments == n


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
    adj = grid2d_topology(2, 1).adjacency
    rs = Ruleset((Rule(1, 1.0, Pattern.of()), Rule(3, 1.0, Pattern.of())))
    with pytest.raises(ValueError, match="outside the alphabet"):
        value_distribution(1, adj, ContentInstance(), rs, 2)
    with pytest.raises(ValueError, match="outside the alphabet"):
        build_circuit(adj, 2, rs, (1, 2))
    with pytest.raises(ValueError, match="outside the alphabet"):
        cwfc_generate(adj, make_alphabet("a", "b"), rs, RandomSource(1))
    np.testing.assert_allclose(value_distribution(1, adj, ContentInstance(), rs, 3), [0.5, 0, 0.5])


def test_pattern_directions_start_at_one():
    for bad in (0, -2):
        with pytest.raises(ValueError, match=">= 1"):
            Pattern.of((bad, 1))


# Direction 3 on a D=2 adjacency; each call must name it, never fail on a
# neighbour lookup.
PAST_D = Ruleset((Rule(1, 1.0, Pattern.of()), Rule(2, 1.0, Pattern.of((3, 1)))))
PAST_D_CALLS = {
    "value_distribution": lambda adj: value_distribution(1, adj, ContentInstance(), PAST_D, 2),
    "build_circuit": lambda adj: build_circuit(adj, 2, PAST_D, (1, 2, 3, 4)),
    "cwfc_generate": lambda adj: cwfc_generate(adj, make_alphabet("a", "b"), PAST_D, RandomSource(1)),
    "hwfc_generate": lambda adj: hwfc_generate(adj, 2, PAST_D, equal_blocks(4, 2), RandomSource(1)),
    "order_plan": lambda adj: order_plan(adj, PAST_D, (1, 2, 3, 4)),
}


@pytest.mark.parametrize("call", sorted(PAST_D_CALLS))
def test_pattern_direction_past_d_rejected(call):
    with pytest.raises(ValueError, match=r"pattern direction 3 outside \[1,2\]"):
        PAST_D_CALLS[call](grid3d_topology(2, 1, 2).adjacency)


def _outcome(segment, adjacency, content, ruleset, n_values):
    try:
        probs = value_distribution(segment, adjacency, content, ruleset, n_values)
    except ConflictError:
        return "conflict"
    return probs.shape, probs.tobytes()


def _reference_outcome(segment, adjacency, content, ruleset, n_values):
    weights = np.zeros(n_values)
    for rule in ruleset.rules:
        if pattern_matches(segment, adjacency, content, rule.pattern):
            u = rule.weight
            weights[rule.value - 1] += u.fn(segment) if isinstance(u, FunctionalWeight) else u
    return "conflict" if weights.sum() <= 0 else weights / weights.sum()


@pytest.mark.parametrize(
    "rules",
    [
        voxel_skyline_ruleset(2).rules,  # direction 2 only, functional weights
        (Rule(1, 1.0, Pattern.of((2, 2))), Rule(2, 2.0, Pattern.of((1, 1), (2, 1)))),
    ],
    ids=["voxel-skyline", "constant"],
)
def test_one_compile_serves_every_direction_count(rules):
    shared = Ruleset(rules)
    worlds = [
        grid3d_topology(2, 1, 3).adjacency,  # D=2
        grid2d_topology(3, 2).adjacency,  # D=4
        hexgrid_topology(1).adjacency,  # D=6
    ]
    rng = np.random.default_rng(3)
    seen = set()
    for adjacency in worlds + worlds[::-1]:
        n = adjacency.n_segments
        for n_values in (2, 3):
            for _ in range(8):
                placed = rng.permutation(n)[: rng.integers(0, n)] + 1
                content = ContentInstance(
                    tuple((int(s), int(rng.integers(1, n_values + 1))) for s in placed)
                )
                for segment in range(1, n + 1):
                    got = _outcome(segment, adjacency, content, shared, n_values)
                    want = _outcome(segment, adjacency, content, Ruleset(rules), n_values)
                    assert got == want
                    ref = _reference_outcome(segment, adjacency, content, shared, n_values)
                    if got == "conflict" or isinstance(ref, str):
                        assert got == ref
                    else:
                        np.testing.assert_allclose(np.frombuffer(got[1]), ref, rtol=0, atol=1e-15)
                    seen.add(got == "conflict")
    assert seen == {True, False}


def test_content_instance():
    c = ContentInstance().add(3, 1).add(1, 2)
    assert c.mapping == {3: 1, 1: 2}
    assert c.mapping[3] == 1
    assert len(c) == 2 and len(c.add(2, 1)) == 3
    with pytest.raises(ValueError):
        c.add(3, 2)  # duplicate id


def test_content_instance_mapping_is_built_once_and_is_no_field():
    import dataclasses

    c = ContentInstance(((4, 2), (1, 1)))
    assert vars(c)["mapping"] == {4: 2, 1: 1}  # built at construction, a plain attribute
    assert not dataclasses.is_dataclass(ContentInstance) and list(vars(c)) == ["mapping"]
    same = ContentInstance(((4, 2), (1, 1)))
    assert c == same and hash(c) == hash(same) and repr(c) == "ContentInstance(entries=((4, 2), (1, 1)))"
    with pytest.raises(ValueError, match="distinct"):
        ContentInstance(((4, 2), (1, 1), (4, 2)))


def test_content_instance_from_pairs_a_dict_or_add_is_one_instance():
    pairs = ((4, 2), (1, 1), (2, 3))
    given = {4: 2, 1: 1, 2: 3}
    made = [ContentInstance(pairs), ContentInstance(given), ContentInstance().add(4, 2).add(1, 1).add(2, 3)]
    given[4] = 1
    given[7] = 1  # each instance copied its input
    for c in made:
        assert c.mapping == {4: 2, 1: 1, 2: 3} and c.entries == pairs and len(c) == 3
        assert c == made[0] and hash(c) == hash((pairs,))  # as the frozen dataclass hashed
        assert repr(c) == "ContentInstance(entries=((4, 2), (1, 1), (2, 3)))"
    assert made[0] != ContentInstance(((1, 1), (4, 2), (2, 3)))  # order counts
    assert made[0] != pairs
    with pytest.raises(AttributeError):
        made[0].mapping = {}
    with pytest.raises(AttributeError):
        del made[0].mapping


@pytest.mark.skipif(sys.version_info < (3, 11), reason="from CPython 3.11 attributes need no __dict__ object")
def test_content_instance_builds_no_attribute_dict():
    """An instance keeps its mapping without a per-instance __dict__ (~80 B
    an adopted instance under tracemalloc, ~145 B with one); ``entries``
    still caches on first read, and no attribute can be set or deleted."""
    mappings = [{1: 1, 2: 2} for _ in range(4000)]
    made = [None] * len(mappings)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for i, mapping in enumerate(mappings):
            made[i] = ContentInstance._adopt(mapping)
        per = (tracemalloc.get_traced_memory()[0] - base) / len(made)
    finally:
        tracemalloc.stop()
    assert per <= 112
    c = made[0]
    assert c.mapping is mappings[0] and c.entries is c.entries == ((1, 1), (2, 2))
    for name in ("mapping", "entries", "other"):
        with pytest.raises(FrozenInstanceError):
            setattr(c, name, ())
        with pytest.raises(FrozenInstanceError):
            delattr(c, name)
    assert c.mapping is mappings[0] and c.entries == ((1, 1), (2, 2))


def test_content_instance_add_checks_the_new_id():
    parent = ContentInstance(((4, 2), (1, 1)))
    child = parent.add(2, 3)
    assert child.entries == ((4, 2), (1, 1), (2, 3))
    assert child.mapping == dict(child.entries)
    assert parent.mapping == {4: 2, 1: 1}
    with pytest.raises(ValueError, match="distinct"):
        child.add(1, 2)
    with pytest.raises(ValueError, match="distinct"):
        ContentInstance().add(5, 1).add(5, 1)


def test_pattern_matches_semantics():
    adj = grid2d_topology(2, 1).adjacency  # ids 1,2 side by side
    p = Pattern.of((1, 2))  # right neighbor must carry value 2
    empty = ContentInstance()
    assert pattern_matches(1, adj, empty, p) == 1  # unplaced: no constraint
    assert pattern_matches(2, adj, empty, p) == 1  # missing neighbor: no constraint
    assert pattern_matches(1, adj, ContentInstance(((2, 2),)), p) == 1
    assert pattern_matches(1, adj, ContentInstance(((2, 1),)), p) == 0
    # frozen context constrains exactly like placed content
    assert pattern_matches(1, adj, empty, p, frozen=ContentInstance(((2, 1),))) == 0


def test_value_distribution_checkerboard():
    adj = grid2d_topology(2, 2).adjacency
    rs = checkerboard_ruleset()
    empty = ContentInstance()
    np.testing.assert_allclose(value_distribution(1, adj, empty, rs, 2), [0.5, 0.5])
    after = ContentInstance(((1, 1),))
    np.testing.assert_allclose(value_distribution(2, adj, after, rs, 2), [0.0, 1.0])
    with pytest.raises(ConflictError):
        # neighbors force both colors at once
        value_distribution(2, adj, ContentInstance(((1, 1), (4, 2))), rs, 2)


def test_value_distribution_weights():
    adj = grid2d_topology(1, 1).adjacency
    rs = Ruleset((Rule(1, 1.0, Pattern.of()), Rule(2, 3.0, Pattern.of())))
    np.testing.assert_allclose(value_distribution(1, adj, ContentInstance(), rs, 2), [0.25, 0.75])


def test_value_distribution_cache_keyed_on_alphabet_size():
    adj = grid2d_topology(1, 1).adjacency
    rs = Ruleset((Rule(1, 1.0, Pattern.of()), Rule(2, 3.0, Pattern.of())))
    np.testing.assert_allclose(value_distribution(1, adj, ContentInstance(), rs, 2), [0.25, 0.75])
    # same ruleset and signature, larger alphabet: the vector grows a zero
    np.testing.assert_allclose(value_distribution(1, adj, ContentInstance(), rs, 3), [0.25, 0.75, 0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_functional_factor_must_return_finite(bad):
    adj = grid2d_topology(1, 1).adjacency
    rs = Ruleset(
        (
            Rule(1, 1.0, Pattern.of()),
            Rule(2, FunctionalWeight("broken", (), lambda _seg: bad), Pattern.of()),
        )
    )
    with pytest.raises(ValueError, match="finite"):
        value_distribution(1, adj, ContentInstance(), rs, 2)


def test_weights_whose_sum_overflows_are_refused():
    # each weight is finite; the sum the value distribution divides by is not
    with pytest.raises(ValueError, match="constant rule weights sum to inf"):
        Ruleset((Rule(1, 1e308, Pattern.of()), Rule(2, 1e308, Pattern.of())))
    huge = make_factor("above_bottom_layer", u=1e308, layer_size=1)
    rs = Ruleset((Rule(1, 1e308, Pattern.of()), Rule(1, huge, Pattern.of())))
    adj = chain_adjacency(2)
    assert value_distribution(1, adj, ContentInstance(), rs, 1).tolist() == [1.0]
    for _ in range(2):  # the refused row is not kept
        with pytest.raises(ValueError, match="weights at segment 2 sum to inf"):
            value_distribution(2, adj, ContentInstance(), rs, 1)


def test_functional_factor_layers():
    # 2-wide, 3-tall column world: bottom layer is ids 1..2
    adj = grid3d_topology(2, 1, 3).adjacency
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


def test_distribution_fold_sums_each_encoding_in_order():
    # frontier entries as the oracle (frozensets) and hwfc (tuples) hold them
    masses = [(((2, 1), (1, 2)), 0.1), (frozenset({(1, 2), (2, 1)}), 0.2), (((1, 1), (2, 1)), 0.7)]
    dist = Distribution.fold((1, 2), 2, masses)
    assert dist.segments == (1, 2) and dist.n_values == 2
    assert dist.probs == {1: 0.1 + 0.2, 0: 0.7}
    assert list(dist.probs) == [1, 0]


def test_checkerboard_canonical_keys():
    # The two valid 3x3 colorings map to basis integers 170 and 341.
    segments = tuple(range(1, 10))
    start_black = {i: 1 if (i - 1) % 2 == 0 else 2 for i in segments}
    start_white = {i: 2 if (i - 1) % 2 == 0 else 1 for i in segments}
    assert encode_values(start_black, segments, 2) == 170
    assert encode_values(start_white, segments, 2) == 341


def test_distribution_cache_serves_hits_once_full(monkeypatch):
    monkeypatch.setattr(model, "_CACHE_CAP", 4)  # two entries of W = 2 cells
    adj = grid2d_topology(3, 3).adjacency
    rs = Ruleset(checkerboard_ruleset().rules)
    first = value_distribution(5, adj, ContentInstance(), rs, 2)
    value_distribution(2, adj, ContentInstance(((5, 1),)), rs, 2)
    cache = rs.compiled.dist_cache
    assert len(cache) == 2
    assert value_distribution(5, adj, ContentInstance(), rs, 2) is first
    new = value_distribution(2, adj, ContentInstance(((5, 2),)), rs, 2)
    np.testing.assert_array_equal(new, [1.0, 0.0])
    assert len(cache) == 2
    assert all(entry[0] is not new for entry in cache.values())


def _entropy_worlds():
    for uc in (checkerboard_usecase(4, 4), hexmap_usecase(2), platformer_usecase(4, 4)):
        yield uc.adjacency, uc.ruleset, uc.alphabet.n_values
    # a ruleset with zero-weight values, so 0 ln 0 is exercised
    rs = Ruleset((Rule(1, 1.0, Pattern.of()), Rule(3, 2.0, Pattern.of((1, 1)))))
    yield grid2d_topology(3, 3).adjacency, rs, 4


def test_value_entropy_is_the_vectors_entropy_bit_for_bit():
    rng = np.random.default_rng(3)
    for adj, rs, n_values in _entropy_worlds():
        n = adj.n_segments
        for _ in range(5):
            placed = rng.permutation(n)[: rng.integers(0, n)] + 1
            content = ContentInstance(tuple((int(s), int(rng.integers(1, n_values + 1))) for s in placed))
            for seg in range(1, n + 1):
                if seg in content.mapping:
                    continue
                try:
                    p = value_distribution(seg, adj, content, rs, n_values)
                except ConflictError:
                    with pytest.raises(ConflictError):
                        value_entropy(seg, adj, content, rs, n_values)
                    continue
                nz = p[p > 0.0]
                assert value_entropy(seg, adj, content, rs, n_values) == float(-(nz * np.log(nz)).sum())


def _pattern_reference(segment, adj, content, ruleset, n_values):
    weights = np.zeros(n_values)
    for rule in ruleset.rules:
        if pattern_matches(segment, adj, content, rule.pattern):
            u = rule.weight
            if isinstance(u, FunctionalWeight):
                u = u.fn(segment)
            weights[rule.value - 1] += u
    return weights / weights.sum()


def test_platformer_warm_cache_matches_pattern_reference():
    """Functional weights share the cache: every layer still gets its own
    vector once the cache is warm."""
    width = height = 10
    uc = platformer_usecase(width, height)
    n = uc.adjacency.n_segments
    instance = cwfc_generate(uc.adjacency, uc.alphabet, uc.ruleset, RandomSource(3))
    assert len(uc.ruleset.compiled.dist_cache) > 0
    layers = {
        "bottom": range(1, width + 1),
        "interior": range(width + 1, n - width + 1),
        "top": range(n - width + 1, n + 1),
    }
    for content in (ContentInstance(), ContentInstance(instance.entries[: n // 2])):
        for segments in layers.values():
            for seg in segments:
                if seg in content.mapping:
                    continue
                ref = _pattern_reference(seg, uc.adjacency, content, uc.ruleset, 8)
                got = value_distribution(seg, uc.adjacency, content, uc.ruleset, 8)
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-15)


def test_factor_runs_once_per_segment():
    adj = chain_adjacency(3)
    calls = []

    def counted(segment):
        calls.append(segment)
        return 2.0 if segment == 2 else 1.0

    rs = Ruleset(
        (
            Rule(1, FunctionalWeight("counted", (), counted), Pattern.of((1, 1))),
            Rule(2, 1.0, Pattern.of()),
        )
    )
    for content in (ContentInstance(), ContentInstance(((3, 1),)), ContentInstance(((3, 2),))):
        for _ in range(3):
            for seg in (1, 2):
                value_distribution(seg, adj, content, rs, 2)
                value_entropy(seg, adj, content, rs, 2)
    np.testing.assert_array_equal(value_distribution(2, adj, ContentInstance(((3, 1),)), rs, 2), [2 / 3, 1 / 3])
    np.testing.assert_array_equal(value_distribution(2, adj, ContentInstance(((3, 2),)), rs, 2), [0, 1])
    assert sorted(calls) == [1, 2]
    # a second ruleset with the same factor resolves its own rows
    Ruleset(rs.rules).compiled.segment_weights(1)
    assert sorted(calls) == [1, 1, 2]
    # segments whose factors give equal outputs share one weight row
    comp = rs.compiled
    assert comp.segment_weights(3)[1] is comp.segment_weights(1)[1]
    assert comp.segment_weights(2)[1] is not comp.segment_weights(1)[1]


def test_non_finite_factor_raises_on_a_cached_signature():
    adj = chain_adjacency(3)
    fn = lambda segment: float("nan") if segment == 2 else 1.0
    rs = Ruleset((Rule(1, FunctionalWeight("nan_at_two", (), fn), Pattern.of()), Rule(2, 1.0, Pattern.of())))
    np.testing.assert_array_equal(value_distribution(1, adj, ContentInstance(), rs, 2), [0.5, 0.5])
    np.testing.assert_array_equal(value_distribution(3, adj, ContentInstance(), rs, 2), [0.5, 0.5])
    for _ in range(2):
        with pytest.raises(ValueError, match="finite"):
            value_distribution(2, adj, ContentInstance(), rs, 2)


# --------------------------------------------------------------------------
# the cache budget
# --------------------------------------------------------------------------


def test_the_cache_budget_bounds_what_a_ruleset_keeps(monkeypatch):
    """One ruleset runs cwfc and builds whole-world plans over 20 distinct
    large adjacencies under a budget of 2^13 cells.  What its caches keep
    stays within the budget at ~300 B per cell, the most any kind costs
    (see CompiledRuleset), and its outputs are a fresh ruleset's."""
    cap = 1 << 13
    monkeypatch.setattr(model, "_CACHE_CAP", cap)
    alphabet = make_alphabet("black", "white")
    worlds = []
    for i in range(20):  # 576 to 1,032 segments: each table and plan fills over a third of the budget
        adjacency = grid2d_topology(24, 24 + i).adjacency
        order = tuple(range(1, adjacency.n_segments + 1))
        fresh = Ruleset(checkerboard_ruleset().rules)
        want = (cwfc_generate(adjacency, alphabet, fresh, RandomSource(i)), order_plan(adjacency, fresh, order))
        worlds.append((adjacency, order, want))
    shared = Ruleset(checkerboard_ruleset().rules)
    comp = shared.compiled
    del fresh
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for i, (adjacency, order, want) in enumerate(worlds):
            got = (cwfc_generate(adjacency, alphabet, shared, RandomSource(i)), order_plan(adjacency, shared, order))
            assert got == want
        del got
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert comp.plans and comp.cwfc_steps and 0 < comp.cache_cells <= cap
    assert kept <= 300 * cap


@pytest.mark.parametrize(
    "make, partitionings",
    [
        # product blocks (half-rows) and blocks with a dependency (columns)
        (lambda: platformer_usecase(2, 2), (equal_blocks(4, 2), Partitioning(((1, 3), (2, 4))))),
        (lambda: hexmap_usecase(1), (equal_blocks(7, 3), equal_blocks(7, 2))),
    ],
    ids=["platformer-2x2", "hexmap-r1"],
)
def test_every_cache_on_a_compiled_ruleset_is_charged(make, partitionings):
    """cwfc, qwfc, hwfc and hwfc's exact distribution on one ruleset:
    ``cache_cells`` is the sum of the cells every kept object states, and
    no other dict on the compiled ruleset grows but its weight rows."""
    uc = make()
    adjacency, n_values, rs = uc.adjacency, uc.alphabet.n_values, uc.ruleset
    for seed in range(5):
        cwfc_generate(adjacency, uc.alphabet, rs, RandomSource(seed))
    state = walked_state(build_circuit(adjacency, n_values, rs, uc.order))
    sample_shots(state, state.layout, 50, RandomSource(1))
    exact_distribution(state, state.layout)
    for partitioning in partitionings:
        hwfc_exact_distribution(adjacency, n_values, rs, partitioning)
        for seed in range(5):
            try:
                hwfc_generate(adjacency, n_values, rs, partitioning, RandomSource(seed))
            except ConflictError:
                pass
    comp = rs.compiled
    cells = stated_cells(comp)
    assert comp.cache_cells == sum(cells.values())
    grown = {name for name, value in vars(comp).items() if isinstance(value, dict) and value}
    assert grown - {"_segment_weights", "_rows"} == set(cells)
