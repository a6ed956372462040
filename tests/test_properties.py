"""Randomized invariants checked with hypothesis."""

import numpy as np
from conftest import (
    chain_adjacency,
    conflict_free_ruleset,
    max_prob_deviation,
    pattern_matches,
    simulate_gates,
    simulate_loads,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from qcollapse import (
    ContentInstance,
    Pattern,
    RandomSource,
    Rule,
    Ruleset,
    build_circuit,
    decode_values,
    encode_values,
    exact_distribution,
    exact_distribution_oracle,
    fixed_order_selector,
    lower_to_gates,
    ruleset_value_selector,
)

# Random chain-world rulesets: N segments in a line, patterns over the two
# chain directions, plus unconditional floor rules so no dead end exists.


@st.composite
def chain_setups(draw):
    n = draw(st.integers(2, 4))
    w = draw(st.integers(2, 4))
    n_rules = draw(st.integers(1, 6))
    rules = []
    for _ in range(n_rules):
        value = draw(st.integers(1, w))
        weight = draw(st.floats(0.1, 5.0, allow_nan=False))
        dirs = draw(st.sets(st.integers(1, 2), max_size=2))
        pairs = tuple((d, draw(st.integers(1, w))) for d in sorted(dirs))
        rules.append(Rule(value, weight, Pattern.of(*pairs)))
    ruleset = conflict_free_ruleset(rules, w, floor=0.05)
    order = tuple(draw(st.permutations(range(1, n + 1))))
    return n, w, ruleset, order


@settings(max_examples=60, deadline=None)
@given(chain_setups())
def test_circuit_matches_oracle(setup):
    n, w, ruleset, order = setup
    adj = chain_adjacency(n)
    circuit = build_circuit(adj, w, ruleset, order)
    dist = exact_distribution(simulate_loads(circuit), circuit.layout)
    oracle = exact_distribution_oracle(
        n, w, fixed_order_selector(order, n), ruleset_value_selector(adj, ruleset, w)
    )
    assert max_prob_deviation(dist.probs, oracle.probs) < 1e-10
    assert abs(dist.total_mass() - 1.0) < 1e-10


@settings(max_examples=30, deadline=None)
@given(chain_setups())
def test_gate_lowering_preserves_distribution(setup):
    n, w, ruleset, order = setup
    adj = chain_adjacency(n)
    circuit = build_circuit(adj, w, ruleset, order)
    psi = simulate_loads(circuit)
    psi_gate = simulate_gates(lower_to_gates(circuit))
    assert np.abs(np.abs(psi_gate) ** 2 - np.abs(psi) ** 2).max() < 1e-9


@settings(max_examples=60, deadline=None)
@given(chain_setups(), st.floats(0.1, 100.0))
def test_weight_scaling_invariance(setup, scale):
    """Multiplying every constant weight by one factor changes nothing."""
    n, w, ruleset, order = setup
    adj = chain_adjacency(n)
    scaled = Ruleset(tuple(Rule(r.value, r.weight * scale, r.pattern) for r in ruleset.rules))
    a = exact_distribution_oracle(
        n, w, fixed_order_selector(order, n), ruleset_value_selector(adj, ruleset, w)
    )
    b = exact_distribution_oracle(
        n, w, fixed_order_selector(order, n), ruleset_value_selector(adj, scaled, w)
    )
    assert max_prob_deviation(a.probs, b.probs) < 1e-10


@settings(max_examples=40, deadline=None)
@given(chain_setups(), st.randoms(use_true_random=False))
def test_rule_permutation_invariance(setup, pyrandom):
    n, w, ruleset, order = setup
    adj = chain_adjacency(n)
    shuffled = list(ruleset.rules)
    pyrandom.shuffle(shuffled)
    a = exact_distribution_oracle(
        n, w, fixed_order_selector(order, n), ruleset_value_selector(adj, ruleset, w)
    )
    b = exact_distribution_oracle(
        n,
        w,
        fixed_order_selector(order, n),
        ruleset_value_selector(adj, Ruleset(tuple(shuffled)), w),
    )
    assert max_prob_deviation(a.probs, b.probs) < 1e-10


@settings(max_examples=60, deadline=None)
@given(chain_setups(), st.integers(0, 10_000))
def test_pattern_match_monotone_under_removal(setup, seed):
    """If a pattern matches a partial content, it matches any prefix of it."""
    n, w, ruleset, order = setup
    adj = chain_adjacency(n)
    rng = np.random.default_rng(seed)
    entries = tuple(
        (int(s), int(rng.integers(1, w + 1))) for s in rng.permutation(n)[: rng.integers(0, n + 1)] + 1
    )
    content = ContentInstance(entries)
    for rule in ruleset.rules:
        if pattern_matches(1, adj, content, rule.pattern):
            for cut in range(len(entries)):
                assert pattern_matches(1, adj, ContentInstance(entries[:cut]), rule.pattern)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(1, 5),
            st.lists(st.integers(1, 5), min_size=n, max_size=n),
        )
    )
)
def test_encode_decode_roundtrip(args):
    n, w, raw = args
    values = {i + 1: 1 + (v - 1) % w for i, v in enumerate(raw)}
    segments = tuple(range(1, n + 1))
    key = encode_values(values, segments, w)
    assert dict(decode_values(key, segments, w)) == values


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6))
def test_categorical_is_deterministic_and_supported(seed, weights):
    probs = np.array(weights)
    a = [RandomSource(seed).categorical(probs) for _ in range(5)]
    b = [RandomSource(seed).categorical(probs) for _ in range(5)]
    assert a == b
    assert all(0 <= i < len(weights) for i in a)
