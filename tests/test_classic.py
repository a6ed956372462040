import math

import numpy as np
import pytest
from conftest import chain_adjacency

from qcollapse import (
    ConflictError,
    ContentInstance,
    Pattern,
    RandomSource,
    RestartsExhaustedError,
    Rule,
    Ruleset,
    build_grid2d,
    cwfc_generate,
    entropy_report,
    entropy_selector,
    shannon_entropy,
    value_distribution,
)
from qcollapse.usecases import checkerboard_ruleset, checkerboard_usecase


def test_shannon_entropy_values():
    adj = chain_adjacency(1)
    uniform4 = Ruleset(tuple(Rule(v, 1.0, Pattern.of()) for v in (1, 2, 3, 4)))
    assert abs(shannon_entropy(1, adj, ContentInstance(), uniform4, 4) - math.log(4)) < 1e-12
    single = Ruleset((Rule(2, 1.0, Pattern.of()),))
    assert shannon_entropy(1, adj, ContentInstance(), single, 4) == 0.0


def test_entropy_report_minimizers():
    adj = build_grid2d(3, 3)
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


def test_entropy_selector_matches_fresh_report():
    """The cached selector must agree with a from-scratch report each step."""
    uc = checkerboard_usecase(3, 3)
    rng = RandomSource(9)
    selector = entropy_selector(uc.adjacency, uc.ruleset, 2)
    content = ContentInstance()
    for k in range(1, 10):
        probs = selector(k, content)
        report = entropy_report(uc.adjacency, content, uc.ruleset, 2)
        expected = np.zeros(9)
        for i in report.minimizers:
            expected[i - 1] = 1.0 / len(report.minimizers)
        np.testing.assert_allclose(probs, expected, atol=1e-12)
        seg = int(np.nonzero(probs)[0][rng.categorical(probs[probs > 0])]) + 1
        content = content.add(seg, 1 if seg % 2 == 1 else 2)  # consistent coloring
    # fresh trajectory after the selector saw unrelated content
    probs = selector(1, ContentInstance())
    np.testing.assert_allclose(probs, np.full(9, 1.0 / 9))


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
        for adj in (build_grid2d(3, 3), build_grid2d(4, 2)):
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
    adj = build_grid2d(2, 1)
    from qcollapse import make_alphabet

    alphabet = make_alphabet("a", "b")
    rs = Ruleset((Rule(1, 1.0, Pattern.of((1, 2), (3, 2))),))  # value 2 has no rule
    restarts = 0

    def count():
        nonlocal restarts
        restarts += 1

    with pytest.raises(RestartsExhaustedError):
        cwfc_generate(adj, alphabet, rs, RandomSource(0), max_restarts=5, on_restart=count)
    assert restarts == 5
