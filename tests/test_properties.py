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

from qcollapse.model import Distribution

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


def _frozenset_oracle(n_segments, n_values, identifier_selector, value_selector):
    """The oracle as it keyed its frontier before integer keys: one frozenset
    of (segment, value) pairs per partial instance."""
    frontier = {frozenset(): 1.0}
    for k in range(1, n_segments + 1):
        nxt = {}
        for state, mass in frontier.items():
            content = ContentInstance(tuple(sorted(state)))
            id_probs = np.asarray(identifier_selector(k, content), dtype=float)
            for seg0 in np.nonzero(id_probs > 0.0)[0]:
                segment = int(seg0) + 1
                value_probs = np.asarray(value_selector(k, segment, content), dtype=float)
                for v0 in np.nonzero(value_probs > 0.0)[0]:
                    child = state | {(segment, int(v0) + 1)}
                    nxt[child] = nxt.get(child, 0.0) + mass * id_probs[seg0] * value_probs[v0]
        frontier = nxt
    return Distribution.fold(tuple(range(1, n_segments + 1)), n_values, frontier.items())


@settings(max_examples=40, deadline=None)
@given(chain_setups(), st.integers(0, 5), st.booleans())
def test_oracle_is_the_frozenset_oracle_bit_for_bit(setup, wider, any_order):
    """Integer frontier keys change no sum and no merge order, at widths
    whose top value fills its bits (3, 7) and at ones that do not."""
    n, w, ruleset, order = setup
    w += wider  # the rules name values up to their own W; the rest is floor mass
    ruleset = conflict_free_ruleset(list(ruleset.rules), w, floor=0.05)
    adj = chain_adjacency(n)
    values = ruleset_value_selector(adj, ruleset, w)
    ids = fixed_order_selector(order, n)
    if any_order:  # every unplaced id, weighted by the values placed so far

        def ids(k, content):
            placed = content.mapping
            probs = np.array([0.0 if s in placed else 1.0 + s + sum(placed.values()) for s in range(1, n + 1)])
            return probs / probs.sum()

    got = exact_distribution_oracle(n, w, ids, values)
    want = _frozenset_oracle(n, w, ids, values)
    assert list(got.probs.items()) == list(want.probs.items())
