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
    EntropySelector,
    shannon_entropy,
    value_distribution,
)
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


def _uniform_over_minimizers(adj, content, ruleset, n_values) -> np.ndarray:
    mins = entropy_report(adj, content, ruleset, n_values).minimizers
    expected = np.zeros(adj.n_segments)
    expected[np.array(mins, dtype=int) - 1] = 1.0
    return expected / len(mins)


def test_entropy_selector_matches_fresh_report():
    """The incremental selector gives, bit for bit, the vector uniform over a
    from-scratch report's minimizers at every step, and starts over on
    content that does not extend what it saw."""
    for world, make in SELECTOR_WORLDS.items():
        adj, rs, n_values = make()
        rng = RandomSource(9)
        selector = EntropySelector(adj, rs, n_values)
        content = ContentInstance()
        for k in range(1, adj.n_segments + 1):
            probs = selector(k, content)
            expected = _uniform_over_minimizers(adj, content, rs, n_values)
            assert np.array_equal(probs, expected), (world, k)
            seg = rng.categorical(probs) + 1
            p = value_distribution(seg, adj, content, rs, n_values)
            content = content.add(seg, rng.categorical(p) + 1)
        # fresh trajectories after the selector saw unrelated content
        for other in (ContentInstance(), ContentInstance(content.entries[: len(content) // 2])):
            probs = selector(1, other)
            assert np.array_equal(probs, _uniform_over_minimizers(adj, other, rs, n_values)), world


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
