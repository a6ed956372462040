import functools
import math
import re

import numpy as np
import pytest
from conftest import chain_adjacency, conflict_free_ruleset, entropy_report, reference_cwfc
from hypothesis import given, settings
from hypothesis import strategies as st

from qcollapse import (
    AdjacencyConfig,
    ConflictError,
    ContentInstance,
    Pattern,
    RandomSource,
    RestartsExhaustedError,
    Rule,
    Ruleset,
    grid2d_topology,
    grid3d_topology,
    cwfc_generate,
    hexgrid_topology,
    make_alphabet,
    make_factor,
    shannon_entropy,
    value_distribution,
)
from qcollapse import classic, model
from qcollapse.classic import Placement, draw_tie
from qcollapse.framework import draw_index
from qcollapse.model import CompiledRuleset, constraint_signature
from qcollapse.usecases import (
    checkerboard_ruleset,
    checkerboard_usecase,
    hexmap_usecase,
    pipes_usecase,
    platformer_usecase,
)


def test_shannon_entropy_values():
    adj = chain_adjacency(1)
    uniform4 = Ruleset(tuple(Rule(v, 1.0, Pattern.of()) for v in (1, 2, 3, 4)))
    assert abs(shannon_entropy(1, adj, ContentInstance(), uniform4, 4) - math.log(4)) < 1e-12
    single = Ruleset((Rule(2, 1.0, Pattern.of()),))
    assert shannon_entropy(1, adj, ContentInstance(), single, 4) == 0.0


def test_entropy_report_minimizers():
    adj = grid2d_topology(3, 3).adjacency
    rs = checkerboard_ruleset()
    # after placing the center, its four neighbors become deterministic
    content = ContentInstance(((5, 1),))
    report = entropy_report(adj, content, rs, 2)
    assert report.minimizers == (2, 4, 6, 8)
    assert 5 not in report.entropies
    assert all(report.entropies[i] > 0.5 for i in (1, 3, 7, 9))


def test_entropy_report_empty_when_complete():
    adj = chain_adjacency(1)
    rs = Ruleset((Rule(1, 1.0, Pattern.of()),))
    report = entropy_report(adj, ContentInstance(((1, 1),)), rs, 1)
    assert report.entropies == {} and report.minimizers == ()


def _two_neighbour_world():
    """Eight segments where direction 1 names the next two segments, so
    ``constraint_signature`` merges two placed values in one direction."""
    n = 8
    ahead = frozenset((i, j) for i in range(1, n + 1) for j in (i + 1, i + 2) if j <= n)
    behind = frozenset((i + 1, i) for i in range(1, n))
    adj = AdjacencyConfig(n, 2, (ahead, behind))
    rules = (
        Rule(1, 2.0, Pattern.of((1, 2))),
        Rule(2, 1.0, Pattern.of((1, 1), (2, 3))),
        Rule(3, 1.5, Pattern.of((2, 1))),
    )
    return adj, conflict_free_ruleset(rules, 3), 3


def _usecase_world(uc):
    return uc.adjacency, uc.ruleset, uc.alphabet.n_values


SELECTOR_WORLDS = {
    "checkerboard-3x3": lambda: _usecase_world(checkerboard_usecase(3, 3)),
    "hexmap-r3": lambda: _usecase_world(hexmap_usecase(3)),
    "pipes-6x4": lambda: _usecase_world(pipes_usecase(6, 4)),
    "checkerboard-6x6": lambda: _usecase_world(checkerboard_usecase(6, 6)),
    "platformer-6x6": lambda: _usecase_world(platformer_usecase(6, 6)),
    "two-neighbours": _two_neighbour_world,
}


def _fan_world(floor=0.2):
    """Ten segments where direction 1 names the next three segments, with
    values that disagree often, so placed neighbours merge to -1.  With
    ``floor=None`` no rule is floored, so attempts conflict often."""
    n = 10
    ahead = frozenset((i, j) for i in range(1, n + 1) for j in range(i + 1, i + 4) if j <= n)
    behind = frozenset((i + 1, i) for i in range(1, n))
    adj = AdjacencyConfig(n, 2, (ahead, behind))
    rules = (
        Rule(1, 1.0, Pattern.of((2, 2))),
        Rule(2, 1.0, Pattern.of((1, 1))),
        Rule(2, 0.5, Pattern.of((1, 3))),
        Rule(3, 2.0, Pattern.of((2, 1))),
    )
    return adj, conflict_free_ruleset(rules, 3, floor) if floor else Ruleset(rules), 3


def test_draw_tie_is_the_dense_categorical_draw():
    """Summing only the ties gives the id and the stream position that the
    dense vector uniform over them gives through ``categorical``."""
    masks = np.random.default_rng(17)
    for seed in range(400):
        n = int(masks.integers(1, 301))
        mask = masks.random(n) < masks.choice((0.01, 0.1, 0.5, 1.0))
        mask[masks.integers(n)] = True
        sparse, dense = RandomSource(seed), RandomSource(seed)
        got = draw_tie(np.flatnonzero(mask).tolist(), sparse._rng.random())
        assert got == dense.categorical(mask.astype(float) / np.count_nonzero(mask)), seed
        assert sparse._rng.bit_generator.state == dense._rng.bit_generator.state, seed


@pytest.mark.parametrize("c", [2, 3, 7, 64, 65, 2994, 65536])
def test_draw_tie_past_64_ties_is_the_table_draw(monkeypatch, c):
    """Among any c >= 2 ties, within 64 or past them, the index
    floor(u * total * c) is the table's draw: at every boundary uniform,
    its float neighbours and random uniforms.  The table, built only near
    a boundary, is memoised here to keep the test short; it is built the
    same way."""
    builds = []
    table = functools.cache(classic._uniform_cumulative)
    monkeypatch.setattr(classic, "_uniform_cumulative", lambda n: builds.append(n) or table(n))
    cum = table(c)
    ties = [3 * k + 1 for k in range(c)]  # any ascending ids

    def check(uniforms):
        for u in uniforms:
            assert draw_tie(ties, u) == ties[draw_index(cum, u)], (c, u.hex())

    check(np.random.default_rng(c).random(2000).tolist())
    assert len(builds) <= 1  # away from the boundaries only the total is built
    near = []
    for bound in cum:  # the smallest u with u * total >= bound, and its neighbours
        u = bound / cum[-1]
        near += [np.nextafter(u, 0.0), u, np.nextafter(u, 1.0), np.nextafter(np.nextafter(u, 1.0), 1.0)]
    check([float(u) for u in near if u < 1.0])  # a uniform is below 1
    assert len(builds) > 2 * c


def test_placement_codes_and_ties_match_a_fresh_report():
    """At every step of cwfc's trajectory the per-attempt constraint codes
    equal ``constraint_signature`` cut to the patterns' directions, the ties
    equal a from-scratch report's minimizers, and the drawn segment's entry
    is its value distribution; the trajectory is ``cwfc_generate``'s."""
    merged = 0
    for world, make in {**SELECTOR_WORLDS, "fan": _fan_world}.items():
        adj, rs, n_values = make()
        max_direction = rs.compiled.max_direction
        for seed in (9, 10):
            u = RandomSource(seed).uniforms(2 * adj.n_segments)
            state = Placement(adj, rs, n_values)
            for k in range(1, adj.n_segments + 1):
                ties = state.ties()
                content = state.content()
                for seg in range(1, adj.n_segments + 1):
                    expected = constraint_signature(seg, adj, content.mapping)[:max_direction]
                    assert tuple(state.codes[seg - 1]) == expected, (world, k, seg)
                    merged += -1 in expected
                report = entropy_report(adj, content, rs, n_values)
                assert tuple(ties) == report.minimizers, (world, k)
                for seg, h in report.entropies.items():
                    assert state.entries[seg - 1][1] == h, (world, k, seg)
                seg = draw_tie(ties, u[2 * k - 2])
                entry = state.entries[seg - 1]
                assert entry[0].tobytes() == value_distribution(seg, adj, content, rs, n_values).tobytes()
                assert np.array(entry[2]).tobytes() == np.cumsum(entry[0]).tobytes()  # what categorical sums
                state.run(u, 1)
                assert state.values[seg] == draw_index(entry[2], u[2 * k - 1]) + 1
                assert state.levels == sorted(state.groups), (world, k)
            alphabet = make_alphabet(*(f"v{v}" for v in range(1, n_values + 1)))
            assert state.content() == cwfc_generate(adj, alphabet, rs, RandomSource(seed)), world
    assert merged > 0  # some direction held two disagreeing placed values


def _run_shots(generate, adj, alphabet, rs, rng, shots, max_restarts):
    """Each shot's instance or exhaustion message, the restarts taken and
    the generator's state afterwards."""
    restarts, outcomes = [0], []

    def bump():
        restarts[0] += 1

    for _ in range(shots):
        try:
            outcomes.append(generate(adj, alphabet, rs, rng, max_restarts, bump))
        except RestartsExhaustedError as exc:
            outcomes.append(str(exc))
    return outcomes, restarts[0], rng._rng.bit_generator.state


def test_cwfc_batched_stream_is_the_dense_single_draw_stream():
    """An attempt's one batch of uniforms, with the unused ones given back
    on a conflict, moves the stream as the dense reference's two single
    draws per step do: same instances, restarts, exhaustion messages and
    generator state, over many conflicts."""
    adj, rs, n_values = _fan_world(floor=None)
    alphabet = make_alphabet(*(f"v{v}" for v in range(1, n_values + 1)))
    restarts = exhausted = 0
    for seed in range(200):
        got = _run_shots(cwfc_generate, adj, alphabet, rs, RandomSource(seed), 3, 20)
        assert got == _run_shots(reference_cwfc, adj, alphabet, rs, RandomSource(seed), 3, 20), seed
        restarts += got[1]
        exhausted += sum(isinstance(o, str) for o in got[0])
    assert restarts == 673 and exhausted == 0
    # with one restart allowed, shots run out of restarts as well
    for seed in range(50):
        got = _run_shots(cwfc_generate, adj, alphabet, rs, RandomSource(seed), 3, 1)
        assert got == _run_shots(reference_cwfc, adj, alphabet, rs, RandomSource(seed), 3, 1), seed
        exhausted += sum(isinstance(o, str) for o in got[0])
    assert exhausted == 34


@st.composite
def unfloored_worlds(draw):
    """A random ruleset without floor rules over grid2d 3x3 or hexgrid r1:
    each rule needs up to three neighbour values, so a placement changes
    several in-neighbours' codes and attempts conflict often.  Constant
    weights match the all-zero start, so no world conflicts before a draw."""
    adj = draw(st.sampled_from((grid2d_topology(3, 3).adjacency, hexgrid_topology(1).adjacency)))
    w = draw(st.integers(2, 3))
    rules = []
    for _ in range(draw(st.integers(1, 6))):
        directions = draw(st.sets(st.integers(1, adj.n_directions), min_size=1, max_size=3))
        pairs = tuple((d, draw(st.integers(1, w))) for d in sorted(directions))
        rules.append(Rule(draw(st.integers(1, w)), draw(st.floats(0.1, 5.0)), Pattern.of(*pairs)))
    return adj, w, Ruleset(tuple(rules))


@settings(max_examples=60, deadline=None)
@given(unfloored_worlds(), st.integers(0, 2**32 - 1))
def test_cwfc_matches_the_dense_reference_on_unfloored_rulesets(world, seed):
    """Same instances, restarts, exhaustion messages and generator state as
    the dense reference, through refreshes at several in-neighbours per
    placement and conflicts at any of them."""
    adj, w, rs = world
    got = _run_shots(cwfc_generate, adj, _alphabet(w), rs, RandomSource(seed), 3, 3)
    assert got == _run_shots(reference_cwfc, adj, _alphabet(w), Ruleset(rs.rules), RandomSource(seed), 3, 3)


def test_ties_reads_the_lowest_level_and_those_within_the_tolerance():
    """One level gives its own group; a second level exactly at the lowest
    plus the tolerance merges in ascending order; one a float past it does
    not, nor does a third level past the tolerance."""
    low = 0.6931471805599453
    edge = low + classic._ENTROPY_TIE_TOL
    past = float(np.nextafter(edge, 1.0))
    groups = {low: [4, 9]}
    assert classic._ties([low], groups) is groups[low]
    groups = {low: [4, 9], edge: [2, 7, 11]}
    assert classic._ties([low, edge], groups) == [2, 4, 7, 9, 11]
    groups = {low: [4, 9], edge: [2], past: [1]}
    assert classic._ties([low, edge, past], groups) == [2, 4, 9]
    groups = {low: [4, 9], past: [1]}
    assert classic._ties([low, past], groups) is groups[low]


def _no_restart():
    raise AssertionError("no restart expected")


def _alphabet(n_values):
    return make_alphabet(*(f"v{v}" for v in range(1, n_values + 1)))


@pytest.mark.parametrize("tables", [None, 1])
def test_step_tables_are_kept_per_adjacency_and_alphabet_size(monkeypatch, tables):
    """Two adjacencies of 16 segments at W = 2 and 3, interleaved on one
    ruleset, give a fresh ruleset's instances, with every table kept and
    with one kept (the rest built on every attempt)."""
    if tables is not None:  # 100 cells hold the first table's 64 and entries, not a second's 60 more
        monkeypatch.setattr(model, "_CACHE_CAP", 100)
    shared = checkerboard_ruleset()
    worlds = (grid2d_topology(4, 4).adjacency, grid2d_topology(8, 2).adjacency)
    for seed in range(4):
        for adj in worlds:
            for n_values in (2, 3):
                got = cwfc_generate(adj, _alphabet(n_values), shared, RandomSource(seed))
                fresh = cwfc_generate(adj, _alphabet(n_values), Ruleset(shared.rules), RandomSource(seed))
                assert got == fresh, (seed, adj, n_values)
    kept = shared.compiled.cwfc_steps
    assert len(kept) == (4 if tables is None else tables)
    for (adj, n_values), steps in kept.items():
        assert all(len(entry[0]) == n_values for entry in steps[2][0])


def test_a_start_conflict_is_refused_once():
    """Every rule weighted bottom_layer_only on a two-layer grid: the upper
    layer has no admissible value before any draw, so no start is kept and
    cwfc refuses the world once, naming segment 7, with no restart and no
    draw; a negative cap is still refused first."""
    adj = grid3d_topology(3, 2, 2).adjacency
    bottom = make_factor("bottom_layer_only", u=1.0, layer_size=6)
    rs = Ruleset((Rule(1, bottom, Pattern.of()), Rule(2, bottom, Pattern.of((2, 1)))))
    message = "no admissible value for segment 7 (before any draw, so every attempt conflicts)"
    for seed in range(3):
        for max_restarts in (0, 4, 100):
            rng = RandomSource(seed)
            with pytest.raises(ConflictError) as info:
                cwfc_generate(adj, _alphabet(2), rs, rng, max_restarts, _no_restart)
            assert str(info.value) == message and info.value.segment == 7
            assert info.value.content == ContentInstance()
            assert rng._rng.bit_generator.state == RandomSource(seed)._rng.bit_generator.state
        with pytest.raises(ValueError, match="max_restarts must be >= 0"):
            cwfc_generate(adj, _alphabet(2), rs, RandomSource(seed), -1)
    with pytest.raises(ConflictError, match=re.escape(message)):
        Placement(adj, rs, 2)
    assert rs.compiled.cwfc_steps[(adj, 2)][2] is None


def _start(steps):
    """A table's start as comparable values."""
    entries, groups = steps[2]
    return [(e[0].tobytes(), e[1], e[2]) for e in entries], list(groups.items())


def test_attempts_leave_the_kept_start_as_built():
    """An attempt works on copies: after 50 attempts the kept start equals
    one built on a fresh ruleset."""
    for world, make in {"fan": lambda: _fan_world(floor=None), "platformer": SELECTOR_WORLDS["platformer-6x6"]}.items():
        adj, rs, n_values = make()
        attempts, seed = [], 0
        while len(attempts) < 50:  # one per call and one per restart
            attempts.append(seed)
            try:
                cwfc_generate(adj, _alphabet(n_values), rs, RandomSource(seed), 5, lambda: attempts.append(seed))
            except RestartsExhaustedError:
                pass
            seed += 1
        fresh = classic._steps(adj, Ruleset(rs.rules).compiled, n_values)
        assert _start(rs.compiled.cwfc_steps[(adj, n_values)]) == _start(fresh), world


def test_a_warm_attempt_reads_no_adjacency(monkeypatch):
    """Once a world has run, the same seed gives the same instance without
    reading in-edges or factor outputs: the table and the cache hold them."""
    runs = []
    for uc in (platformer_usecase(6, 6), pipes_usecase(6, 4)):
        restarts = []
        rng = RandomSource(3)
        instance = cwfc_generate(uc.adjacency, uc.alphabet, uc.ruleset, rng, on_restart=lambda: restarts.append(1))
        assert not restarts  # a cached conflict is read through signature_entry
        runs.append((uc, instance))

    def refuse(*args):
        raise AssertionError("read on a warm attempt")

    monkeypatch.setattr(AdjacencyConfig, "in_edges", refuse)
    monkeypatch.setattr(CompiledRuleset, "segment_weights", refuse)
    for uc, instance in runs:
        assert cwfc_generate(uc.adjacency, uc.alphabet, uc.ruleset, RandomSource(3)) == instance


def test_shared_ruleset_cache_matches_fresh_ruleset():
    """One ruleset reused across segments, grid sizes and alphabet sizes gives
    the vectors a fresh ruleset gives, and entropy is read off them."""
    rules = (
        Rule(1, 1.0, Pattern.of()),
        Rule(2, 2.0, Pattern.of((1, 1))),
        Rule(1, 3.0, Pattern.of((2, 2), (3, 1))),
        Rule(2, 0.5, Pattern.of((4, 2), (1, 2))),
    )
    for shared in (Ruleset(rules), checkerboard_ruleset()):
        for adj in (grid2d_topology(3, 3).adjacency, grid2d_topology(4, 2).adjacency):
            n = adj.n_segments
            rng = np.random.default_rng(5)
            for _ in range(6):
                placed = rng.permutation(n)[: rng.integers(0, n)] + 1
                content = ContentInstance(tuple((int(s), int(rng.integers(1, 3))) for s in placed))
                for n_values in (2, 3):
                    for seg in range(1, n + 1):
                        if seg in content.mapping:
                            continue
                        try:
                            expected = value_distribution(seg, adj, content, Ruleset(shared.rules), n_values)
                        except ConflictError:
                            with pytest.raises(ConflictError):
                                value_distribution(seg, adj, content, shared, n_values)
                            continue
                        p = value_distribution(seg, adj, content, shared, n_values)
                        assert p.tobytes() == expected.tobytes()
                        nz = p[p > 0.0]
                        assert shannon_entropy(seg, adj, content, shared, n_values) == float(
                            -(nz * np.log(nz)).sum()
                        )


def test_cwfc_checkerboard_valid_and_deterministic():
    uc = checkerboard_usecase(3, 3)
    a = cwfc_generate(uc.adjacency, uc.alphabet, uc.ruleset, RandomSource(4))
    b = cwfc_generate(uc.adjacency, uc.alphabet, uc.ruleset, RandomSource(4))
    assert a == b
    assert uc.validator(a) == []


def test_cwfc_restarts_exhausted():
    # 1x2 world where the second placement always dead-ends
    adj = grid2d_topology(2, 1).adjacency
    from qcollapse import make_alphabet

    alphabet = make_alphabet("a", "b")
    rs = Ruleset((Rule(1, 1.0, Pattern.of((1, 2), (3, 2))),))  # value 2 has no rule
    restarts = 0

    def count():
        nonlocal restarts
        restarts += 1

    with pytest.raises(RestartsExhaustedError) as info:
        cwfc_generate(adj, alphabet, rs, RandomSource(0), max_restarts=5, on_restart=count)
    assert restarts == 5 and info.value.restarts == 5
    # the message names the last conflict
    assert isinstance(info.value.__cause__, ConflictError)
    assert str(info.value).startswith("still conflicting after 5 restarts: no admissible value for segment ")
