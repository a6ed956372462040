"""Shared helpers: an independent chain-rule enumerator, a pattern
indicator, a load-by-load executor, a dense gate-level executor, an entropy
report and a dense single-draw cwfc used as references, small ruleset
builders, the walked-state check, the selector contract checker, and the
terminal report of the acceptance criteria."""

from __future__ import annotations

# One line per acceptance criterion, filled in by test_acceptance.py and
# echoed after the run so the lines survive output capture.
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(acceptance_lines):
            terminalreporter.write_line(line)

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from qcollapse import (
    AdjacencyConfig,
    CapacityError,
    ConflictError,
    ContentInstance,
    ContractError,
    Pattern,
    Rule,
    Ruleset,
    XGate,
    encode_values,
    exact_distribution_oracle,
    shannon_entropy,
    value_distribution,
    with_restarts,
)
from qcollapse.classic import _ENTROPY_TIE_TOL
from qcollapse.model import _CONFLICT
from qcollapse.quantum import INDEX_QUBIT_LIMIT, _SIM_NORM_TOL, SparseState, _sparse_state


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
                u = rule.weight if isinstance(rule.weight, float) else rule.weight.fn(segment)
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


def simulate_loads(circuit):
    """Execute the conditional loads from |0>; returns the final state.

    The loads act on the support only: basis indices and real amplitudes of
    the nonzero entries, which a load's controls match with one bitmask compare.
    ``build_circuit``'s ``DEFAULT_SUPPORT_CAP`` bounds its size; no 2^Q vector is
    written.

    Raises CapacityError above INDEX_QUBIT_LIMIT qubits and ContractError if
    a load finds its target group outside the ground state on a matched
    subspace (which signals a malformed circuit).
    """
    if circuit.n_qubits > INDEX_QUBIT_LIMIT:
        raise CapacityError(
            f"{circuit.n_qubits} qubits exceed the limit of {INDEX_QUBIT_LIMIT} for int64 basis indices"
        )
    layout = circuit.layout
    group = (1 << layout.bits_per_value) - 1
    idx = np.zeros(1, dtype=np.int64)
    amp = np.ones(1)

    for load in circuit.loads:
        cmask = cval = 0
        for seg, val in load.controls:
            off = layout.offsets[seg]
            cmask |= group << off
            cval |= ((val - 1) & group) << off
        matched = (idx & cmask) == cval
        t0 = layout.offsets[load.target]
        base_idx = idx[matched]
        base_amp = amp[matched]
        lifted = (base_idx & (group << t0)) != 0
        if lifted.any():
            if base_amp[lifted].max() > _SIM_NORM_TOL:
                raise ContractError(
                    f"target group of segment {load.target} not in the ground state "
                    f"on the control subspace at step {load.step}"
                )
            base_idx = base_idx[~lifted]
            base_amp = base_amp[~lifted]
        amplitudes = np.array(load.amplitudes)
        values = np.nonzero(amplitudes)[0]
        idx = np.concatenate(
            [idx[~matched], (base_idx[:, None] | (values << t0)[None, :]).ravel()]
        )
        amp = np.concatenate(
            [amp[~matched], (base_amp[:, None] * amplitudes[values][None, :]).ravel()]
        )

    return _sparse_state(layout, idx, amp)


def _split_selectors(bits, t0, width, n_qubits):
    """Boolean masks over the high/low index factors around a target block."""
    hi_dim = 1 << (n_qubits - t0 - width)
    lo_dim = 1 << t0
    hi_sel = np.ones(hi_dim, dtype=bool)
    lo_sel = np.ones(lo_dim, dtype=bool)
    for qubit, bit in bits:
        if qubit < t0:
            lo_sel &= ((np.arange(lo_dim) >> qubit) & 1) == bit
        else:
            hi_sel &= ((np.arange(hi_dim) >> (qubit - t0 - width)) & 1) == bit
    return np.nonzero(hi_sel)[0], np.nonzero(lo_sel)[0]


def simulate_gates(gatelist):
    """Reference executor for lowered gates (round-trip checks, small Q)."""
    n_qubits = gatelist.n_qubits
    psi = np.zeros(1 << n_qubits, dtype=np.complex128)
    psi[0] = 1.0
    for gate in gatelist.gates:
        if isinstance(gate, XGate):
            t = gate.qubit
            view = psi.reshape(1 << (n_qubits - t - 1), 2, 1 << t)
            view[:, [0, 1], :] = view[:, [1, 0], :]
        else:
            t = gate.target
            view = psi.reshape(1 << (n_qubits - t - 1), 2, 1 << t)
            hi_idx, lo_idx = _split_selectors(gate.controls, t, 1, n_qubits)
            if len(hi_idx) == 0 or len(lo_idx) == 0:
                continue
            sel = np.ix_(hi_idx, np.arange(2), lo_idx)
            block = view[sel]
            c = math.cos(gate.angle / 2.0)
            s = math.sin(gate.angle / 2.0)
            view[sel] = np.stack(
                [c * block[:, 0, :] - s * block[:, 1, :],
                 s * block[:, 0, :] + c * block[:, 1, :]],
                axis=1,
            )
    return psi


@dataclass(frozen=True)
class EntropyReport:
    entropies: dict[int, float]  # unplaced segment -> entropy in nats
    minimizers: tuple[int, ...]  # segments attaining the minimum


def entropy_report(adjacency, content, ruleset, n_values) -> EntropyReport:
    placed = content.mapping
    entropies = {
        i: shannon_entropy(i, adjacency, content, ruleset, n_values)
        for i in range(1, adjacency.n_segments + 1)
        if i not in placed
    }
    if not entropies:
        return EntropyReport({}, ())
    h_min = min(entropies.values())
    mins = tuple(i for i, h in sorted(entropies.items()) if h <= h_min + _ENTROPY_TIE_TOL)
    return EntropyReport(entropies, mins)


def reference_cwfc(adjacency, alphabet, ruleset, rng, max_restarts=100, on_restart=None):
    """cwfc as the paper states it, one dense draw at a time: each step
    reports every unplaced segment's entropy, draws a segment with
    ``rng.categorical`` uniformly over the minimizers, then its value from
    its ``value_distribution``."""
    n, n_values = adjacency.n_segments, alphabet.n_values

    def attempt():
        content = ContentInstance()
        for _ in range(n):
            minimizers = entropy_report(adjacency, content, ruleset, n_values).minimizers
            probs = np.zeros(n)
            probs[[i - 1 for i in minimizers]] = 1.0 / len(minimizers)
            segment = rng.categorical(probs) + 1
            values = value_distribution(segment, adjacency, content, ruleset, n_values)
            content = content.add(segment, rng.categorical(values) + 1)
        return content

    return with_restarts(attempt, max_restarts, on_restart)


def chain_adjacency(n_segments):
    """1D chain with directions 1 (next) and 2 (previous)."""
    nxt = frozenset((i, i + 1) for i in range(1, n_segments))
    prv = frozenset((i + 1, i) for i in range(1, n_segments))
    return AdjacencyConfig(n_segments, 2, (nxt, prv))


def conflict_free_ruleset(rules, n_values, floor=1e-6):
    """Append a tiny unconditional rule per value so no dead end can occur."""
    extra = tuple(Rule(v, floor, Pattern.of()) for v in range(1, n_values + 1))
    return Ruleset(tuple(rules) + extra)


def steps_cells(steps):
    """The cells of (dependencies, recipe) steps, an order plan's or a walk
    shape's: per step one, its dependencies, and per direction one plus the
    columns and neighbours or interface positions it lists."""
    return sum(1 + len(deps) + sum(1 + len(cols) + len(more) for cols, more in recipe) for deps, recipe in steps)


def plan_cells(plan):
    return steps_cells(zip(plan.deps, plan.recipes))


def walk_cells(walk):
    return steps_cells(step[1:3] for step in walk)


def _kept_walk_cells(walk):
    """The cells of a scheduled dependency block's walk: per step those of
    its (dependencies, recipe), its dependency offsets and its W lifted
    values."""
    return steps_cells((step.deps, step.recipe) for step in walk.steps) + sum(
        len(step.offsets) + len(step.lifted) for step in walk.steps
    )


def _block_cells(key, kept):
    """One cell per entry of a walked state or row of a kept walk prefix
    (keyed on its step), W per segment of a product block's factors."""
    if isinstance(kept, SparseState):
        return len(kept.indices)
    if isinstance(key[-1], int):
        return len(kept[0])
    return sum(len(cum) for _, cum in kept)


def stated_cells(comp):
    """The cells each of the seven caches on a compiled ruleset holds, as
    its kept objects state them; ``comp.cache_cells`` is their sum.  The
    block cache holds product blocks' factors, W cells per segment, walked
    states, one cell per entry (a dependency block's, and a product block's
    for a draw near a boundary or for ``hwfc_exact_distribution``), and the
    rows of dependency blocks' walk prefixes, one cell per row.  A schedule
    holds its blocks' segments and its dependency blocks' walks."""
    return {
        "dist_cache": sum(1 if entry is _CONFLICT else key[1] for key, entry in comp.dist_cache.items()),
        "circuits": sum(
            len(circuit.state.indices)
            + circuit.layout.n_values * sum(len(step.values) for step in circuit.steps)
            + circuit.layout.table_cells(len(circuit.state.indices))
            for circuit in comp.circuits.values()
        ),
        "block_cache": sum(_block_cells(key, kept) for key, kept in comp.block_cache.items()),
        "schedules": sum(
            len(block.order) + (_kept_walk_cells(block.walk) if block.walk else 0)
            for schedule in comp.schedules.values()
            for block in schedule
        ),
        "shape_ids": sum(map(walk_cells, comp.shape_ids)),
        "plans": sum(map(plan_cells, comp.plans.values())),
        "cwfc_steps": sum(len(edges) + sum(map(len, edges)) for edges, _, _ in comp.cwfc_steps.values()),
    }


def assert_walked_state_is_simulated(circuit):
    """The state the compile walked is ``simulate_loads``'s, bit for bit: the
    same layout, and indices and probabilities of the same dtypes and values."""
    walked, simulated = circuit.state, simulate_loads(circuit)
    assert walked.layout == simulated.layout
    for got, want in ((walked.indices, simulated.indices), (walked.probabilities, simulated.probabilities)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def max_prob_deviation(a: dict[int, float], b: dict[int, float]) -> float:
    keys = set(a) | set(b)
    return max(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys) if keys else 0.0


@dataclass(frozen=True)
class SelectorViolation:
    condition: str  # "S1" | "S2" | "V1" | "V2"
    iteration: int
    content: ContentInstance
    detail: str


def validate_selectors(
    n_segments: int,
    n_values: int,
    identifier_selector,
    value_selector,
) -> list[SelectorViolation]:
    """Exhaustively walk reachable branches and report contract violations.

    S1: mass on a placed id.  S2: no admissible unplaced id.  V1: mass outside
    the alphabet (wrong support length or negative entries).  V2: empty value
    support for a reachable (id, content) pair.

    Runs the oracle's walk with selectors that record each violation and hand
    the walk zero mass in its place, which ends that branch.
    """
    violations: list[SelectorViolation] = []

    def record(condition: str, k: int, content: ContentInstance, detail: str) -> np.ndarray:
        violations.append(SelectorViolation(condition, k, content, detail))
        return np.zeros(n_values)

    def checked_ids(k: int, content: ContentInstance) -> np.ndarray:
        id_probs = np.array(identifier_selector(k, content), dtype=float)
        for seg in content.mapping:
            if id_probs[seg - 1] > 0.0:
                record("S1", k, content, f"mass on placed id {seg}")
            id_probs[seg - 1] = 0.0
        if sum(id_probs) <= 0.0:
            record("S2", k, content, "no admissible unplaced id")
        return id_probs

    def checked_values(k: int, segment: int, content: ContentInstance) -> np.ndarray:
        try:
            value_probs = np.asarray(value_selector(k, segment, content), dtype=float)
        except ConflictError:
            return record("V2", k, content, f"conflict for id {segment}")
        if len(value_probs) != n_values or np.any(value_probs < 0.0):
            return record("V1", k, content, f"bad support for id {segment}")
        if value_probs.sum() <= 0.0:
            return record("V2", k, content, f"empty support for id {segment}")
        return value_probs

    exact_distribution_oracle(n_segments, n_values, checked_ids, checked_values)
    return violations
