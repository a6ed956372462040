import math

import numpy as np
import pytest
from conftest import chain_adjacency, conflict_free_ruleset, entropy_report

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
    cwfc_generate,
    make_alphabet,
    shannon_entropy,
    value_distribution,
)
from qcollapse.classic import Placement, draw_tie
from qcollapse.model import constraint_signature
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


def _fan_world():
    """Ten segments where direction 1 names the next three segments, with
    values that disagree often, so placed neighbours merge to -1."""
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
    return adj, conflict_free_ruleset(rules, 3, floor=0.2), 3


def test_draw_tie_is_the_dense_categorical_draw():
    """Summing only the ties gives the id and the stream position that the
    dense vector uniform over them gives through ``categorical``."""
    masks = np.random.default_rng(17)
    for seed in range(400):
        n = int(masks.integers(1, 301))
        mask = masks.random(n) < masks.choice((0.01, 0.1, 0.5, 1.0))
        mask[masks.integers(n)] = True
        sparse, dense = RandomSource(seed), RandomSource(seed)
        got = draw_tie(np.flatnonzero(mask), sparse)
        assert got == dense.categorical(mask.astype(float) / np.count_nonzero(mask)), seed
        assert sparse._rng.bit_generator.state == dense._rng.bit_generator.state, seed


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
            rng = RandomSource(seed)
            state = Placement(adj, rs, n_values)
            for k in range(1, adj.n_segments + 1):
                ties = state.ties()
                content = state.content()
                for seg in range(1, adj.n_segments + 1):
                    expected = constraint_signature(seg, adj, content.mapping)[:max_direction]
                    assert tuple(state.codes[seg - 1]) == expected, (world, k, seg)
                    merged += -1 in expected
                report = entropy_report(adj, content, rs, n_values)
                assert tuple(ties + 1) == report.minimizers, (world, k)
                for seg, h in report.entropies.items():
                    assert state.entropies[seg - 1] == h, (world, k, seg)
                seg = draw_tie(ties, rng) + 1
                entry = state.entries[seg - 1]
                assert entry[0].tobytes() == value_distribution(seg, adj, content, rs, n_values).tobytes()
                assert entry[2].tobytes() == np.cumsum(entry[0]).tobytes()  # what categorical sums
                state.place(seg, rng.draw(entry[2]) + 1)
            alphabet = make_alphabet(*(f"v{v}" for v in range(1, n_values + 1)))
            assert state.content() == cwfc_generate(adj, alphabet, rs, RandomSource(seed)), world
    assert merged > 0  # some direction held two disagreeing placed values


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
