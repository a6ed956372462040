"""Shared helpers: an independent chain-rule enumerator and a pattern
indicator used as references for distribution checks, small ruleset
builders, and the terminal report of the acceptance criteria."""

from __future__ import annotations

# One line per acceptance criterion, filled in by test_acceptance.py and
# echoed after the run so the lines survive output capture.
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(acceptance_lines):
            terminalreporter.write_line(line)

from itertools import product

from qcollapse import (
    AdjacencyConfig,
    ContentInstance,
    Pattern,
    Rule,
    Ruleset,
    encode_values,
)


def reference_chain_distribution(adjacency, ruleset, n_values, order):
    """Exact distribution for a fixed order by plain recursive enumeration.

    Written without any package machinery beyond pattern matching, so it can
    cross-check both the circuit pipeline and the built-in oracle.
    """
    n = adjacency.n_segments
    probs: dict[int, float] = {}

    def weight(segment, placed, value):
        total = 0.0
        for rule in ruleset.rules:
            if rule.value != value:
                continue
            ok = True
            for d, req in rule.pattern.pairs:
                for s in adjacency.neighbors(segment, d):
                    if s in placed and placed[s] != req:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                u = rule.weight if isinstance(rule.weight, float) else rule.weight.fn(segment, placed)
                total += u
        return total

    def walk(k, placed, mass):
        if k > n:
            key = encode_values(placed, tuple(range(1, n + 1)), n_values)
            probs[key] = probs.get(key, 0.0) + mass
            return
        segment = order[k - 1]
        weights = [weight(segment, placed, v) for v in range(1, n_values + 1)]
        total = sum(weights)
        assert total > 0.0, f"reference enumeration hit a dead end at segment {segment}"
        for v, w in enumerate(weights, start=1):
            if w > 0.0:
                walk(k + 1, {**placed, segment: v}, mass * w / total)

    walk(1, {}, 1.0)
    return probs


def pattern_matches(segment, adjacency, content, pattern, frozen=None):
    """Pattern indicator: 1 iff every placed neighbor required by the pattern
    carries the required value.  Unplaced or missing neighbors never constrain.
    """
    placed = content.mapping
    extra = frozen.mapping if frozen is not None else None
    for d, v in pattern.pairs:
        for s in adjacency.neighbors(segment, d):
            actual = placed.get(s)
            if actual is None and extra is not None:
                actual = extra.get(s)
            if actual is not None and actual != v:
                return 0
    return 1


def chain_adjacency(n_segments):
    """1D chain with directions 1 (next) and 2 (previous)."""
    nxt = frozenset((i, i + 1) for i in range(1, n_segments))
    prv = frozenset((i + 1, i) for i in range(1, n_segments))
    return AdjacencyConfig(n_segments, 2, (nxt, prv))


def conflict_free_ruleset(rules, n_values, floor=1e-6):
    """Append a tiny unconditional rule per value so no dead end can occur."""
    extra = tuple(Rule(v, floor, Pattern.of()) for v in range(1, n_values + 1))
    return Ruleset(tuple(rules) + extra)


def max_prob_deviation(a: dict[int, float], b: dict[int, float]) -> float:
    keys = set(a) | set(b)
    return max(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys) if keys else 0.0
