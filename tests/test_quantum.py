import gc
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    assert_walked_state_is_simulated,
    chain_adjacency,
    conflict_free_ruleset,
    max_prob_deviation,
    reference_chain_distribution,
    simulate_gates,
    simulate_loads,
    stated_cells,
)
from test_golden import QWFC_CIRCUITS

from qcollapse import (
    AdjacencyConfig,
    CapacityError,
    CircuitProgram,
    ConditionalLoad,
    ConflictError,
    ContentInstance,
    ContractError,
    Pattern,
    QubitLayout,
    RandomSource,
    Rule,
    Ruleset,
    SparseState,
    bits_per_value,
    build_circuit,
    decode_values,
    grid2d_topology,
    encode_values,
    exact_distribution,
    export_qasm,
    lower_to_gates,
    sample_shots,
)
from qcollapse import model, quantum
from qcollapse.model import constraint_signature
from qcollapse.quantum import StepTable, walk_steps, walked_state
from qcollapse.usecases import checkerboard_ruleset, checkerboard_usecase

DATA = Path(__file__).parent / "data"


def test_layout_offsets_and_codec():
    layout = QubitLayout((1, 2, 3), 3)
    assert layout.bits_per_value == 2 and layout.n_qubits == 6
    assert layout.offsets == {1: 0, 2: 2, 3: 4}
    key = encode_values({1: 2, 2: 1, 3: 3}, layout.segments, layout.n_values)
    assert key == 1 | (0 << 2) | (2 << 4)
    assert dict(decode_values(key, layout.segments, layout.n_values)) == {1: 2, 2: 1, 3: 3}
    with pytest.raises(ValueError):
        QubitLayout((2, 1), 2)
    with pytest.raises(ValueError):
        QubitLayout((1, 1), 2)  # would map both entries to one group


def test_conditional_load_validation():
    with pytest.raises(ValueError):
        ConditionalLoad(1, (), 1, (0.5, 0.5))  # squared norm 0.5
    with pytest.raises(ValueError):
        ConditionalLoad(1, ((1, 1),), 1, (1.0,))  # self-control
    ConditionalLoad(1, (), 1, (math.sqrt(0.5), math.sqrt(0.5)))


# each amplitude is the square root of its probability: finite and >= 0
@pytest.mark.parametrize(
    "amplitudes, needle",
    [
        ((math.nan, 1.0), "finite"),
        ((1.0, math.nan), "finite"),
        ((math.inf, 0.0), "finite"),
        ((-math.sqrt(0.5), math.sqrt(0.5)), "nonnegative"),
        ((0.0, -1.0), "nonnegative"),
    ],
    ids=["nan", "nan-last", "inf", "negative", "negative-last"],
)
def test_conditional_load_refuses_amplitudes_that_are_not_square_roots(amplitudes, needle):
    with pytest.raises(ValueError, match=needle):
        ConditionalLoad(1, (), 1, amplitudes)


def test_dependency_set_uses_rule_directions():
    adj = grid2d_topology(2, 2).adjacency
    rs = checkerboard_ruleset()  # patterns use all four directions
    order = (1, 2, 3, 4)
    layout = QubitLayout(order, 2)
    steps = walk_steps(adj, rs.compiled, layout, order)
    assert steps[0].deps == () and steps[3].deps == (2, 3)
    # vertical-only rules ignore horizontal neighbors
    vert = Ruleset((Rule(1, 1.0, Pattern.of((2, 1))), Rule(2, 1.0, Pattern.of((4, 1)))))
    assert walk_steps(adj, vert.compiled, layout, order)[3].deps == (2,)


def test_build_circuit_checkerboard_2x2():
    adj = grid2d_topology(2, 2).adjacency
    circuit = build_circuit(adj, 2, checkerboard_ruleset(), (1, 2, 3, 4))
    # reachable loads: 1 + 2 + 2 + 2 (only consistent control assignments)
    assert [load.step for load in circuit.loads] == [1, 2, 2, 3, 3, 4, 4]
    first = circuit.loads[0]
    assert first.controls == () and first.amplitudes == pytest.approx(
        (math.sqrt(0.5), math.sqrt(0.5))
    )
    # every later load is deterministic given its controls
    for load in circuit.loads[1:]:
        assert sorted(load.amplitudes) == pytest.approx([0.0, 1.0])


def test_build_circuit_rejects_bad_orders():
    adj = grid2d_topology(2, 1).adjacency
    rs = checkerboard_ruleset()
    with pytest.raises(ValueError):
        build_circuit(adj, 2, rs, (1, 1))
    with pytest.raises(ValueError):
        build_circuit(adj, 2, rs, (1, 2), frozen=ContentInstance(((2, 1),)))


def test_build_circuit_conflict_during_compile():
    adj = chain_adjacency(2)
    rs = Ruleset((Rule(1, 1.0, Pattern.of((1, 2))),))  # dead end at segment 1
    with pytest.raises(ConflictError):
        build_circuit(adj, 1, rs, (2, 1))


def test_capacity_caps(monkeypatch):
    uc = checkerboard_usecase(3, 3)
    monkeypatch.setattr(quantum, "DEFAULT_LOAD_CAP", 1)
    with pytest.raises(CapacityError):
        build_circuit(uc.adjacency, 2, uc.ruleset, uc.order)
    monkeypatch.undo()
    # basis indices are int64: 64 qubits are past the limit
    wide = checkerboard_usecase(8, 8)
    circuit = build_circuit(wide.adjacency, 2, wide.ruleset, wide.order)
    with pytest.raises(CapacityError, match="limit of 63"):
        simulate_loads(circuit)
    # support cap: uniform unconstrained rules double the support each step
    adj = chain_adjacency(8)
    rs = conflict_free_ruleset((), 2)
    monkeypatch.setattr(quantum, "DEFAULT_SUPPORT_CAP", 16)
    with pytest.raises(CapacityError):
        build_circuit(adj, 2, rs, tuple(range(1, 9)))


def test_support_cap_counts_full_assignments(monkeypatch):
    # no rule names a direction, so the boundary stays empty while the
    # reachable full assignments double each step
    adj = chain_adjacency(8)
    rs = conflict_free_ruleset((), 2)
    monkeypatch.setattr(quantum, "DEFAULT_SUPPORT_CAP", 256)
    build_circuit(adj, 2, rs, tuple(range(1, 9)))
    monkeypatch.setattr(quantum, "DEFAULT_SUPPORT_CAP", 255)
    with pytest.raises(CapacityError, match="iteration 8"):  # a fresh ruleset: the first is cached
        build_circuit(adj, 2, Ruleset(rs.rules), tuple(range(1, 9)))


def test_simulate_matches_reference_distribution():
    adj = chain_adjacency(4)
    rs = conflict_free_ruleset(
        (
            Rule(1, 3.0, Pattern.of((2, 1))),
            Rule(2, 2.0, Pattern.of((2, 1))),
            Rule(3, 1.0, Pattern.of((2, 2), (1, 3))),
        ),
        3,
        floor=0.5,
    )
    order = (1, 2, 3, 4)
    circuit = build_circuit(adj, 3, rs, order)
    psi = simulate_loads(circuit)
    dist = exact_distribution(psi, circuit.layout)
    ref = reference_chain_distribution(adj, rs, 3, order)
    assert max_prob_deviation(dist.probs, ref) < 1e-12
    assert abs(dist.total_mass() - 1.0) < 1e-12


def test_exact_distribution_lists_the_whole_support():
    # the floor rules leave one outcome of mass ~1e-18, which shots can draw
    adj, order = chain_adjacency(3), (1, 2, 3)
    rs = conflict_free_ruleset((Rule(1, 1.0, Pattern.of()),), 2, floor=1e-6)
    circuit = build_circuit(adj, 2, rs, order)
    state = simulate_loads(circuit)
    dist = exact_distribution(state, circuit.layout)
    ref = reference_chain_distribution(adj, rs, 2, order)
    assert len(state.indices) == len(ref) == 8
    assert set(dist.probs) == set(ref) and min(dist.probs.values()) < 1e-15
    assert max_prob_deviation(dist.probs, ref) < 1e-12
    assert dist.total_mass() == math.fsum(state.probabilities)


def test_sparse_state_indices_and_dense_view():
    adj = chain_adjacency(4)
    rs = conflict_free_ruleset((Rule(1, 3.0, Pattern.of((2, 1))),), 3, floor=0.5)
    state = simulate_loads(build_circuit(adj, 3, rs, (3, 1, 4, 2)))
    assert state.indices.dtype == np.int64 and state.probabilities.dtype == np.float64
    assert len(state.indices) > 1 and (np.diff(state.indices) > 0).all()
    assert (state.probabilities > 0.0).all()
    # the dense view is real: each amplitude is the square root of its probability
    dense = np.zeros(1 << state.layout.n_qubits)
    for index, probability in zip(state.indices.tolist(), state.probabilities.tolist()):
        dense[index] = math.sqrt(probability)
    psi = np.asarray(state)
    assert psi.dtype == np.float64 and np.array_equal(psi, dense)
    assert np.count_nonzero(state) == len(state.indices)
    assert not any(array.flags.writeable for array in (state.indices, state.probabilities))
    # the draw table: computed once, read-only
    assert state.cumulative is state.cumulative
    assert np.array_equal(state.cumulative, np.cumsum(state.probabilities))
    assert not state.cumulative.flags.writeable


def test_sparse_state_wide_circuit_and_dense_cap():
    # 49 qubits, two outcomes: far past any dense vector
    uc = checkerboard_usecase(7, 7)
    circuit = build_circuit(uc.adjacency, 2, uc.ruleset, uc.order)
    assert circuit.n_qubits == 49
    state = simulate_loads(circuit)
    dist = exact_distribution(state, circuit.layout)
    assert len(dist.probs) == 2 and all(p == pytest.approx(0.5) for p in dist.probs.values())
    shots = sample_shots(state, circuit.layout, 50, RandomSource(4))
    assert {encode_values(s.mapping, circuit.layout.segments, 2) for s in shots} == set(dist.probs)
    with pytest.raises(CapacityError, match="dense view"):
        np.asarray(state)
    narrow = checkerboard_usecase(9, 3)  # 27 qubits, one past the dense cap
    with pytest.raises(CapacityError, match="dense view"):
        np.asarray(simulate_loads(build_circuit(narrow.adjacency, 2, narrow.ruleset, narrow.order)))


def test_simulate_out_of_order_segments():
    # a non-ascending generation order still lands on the canonical layout
    uc = checkerboard_usecase(3, 3)
    order = tuple(range(9, 0, -1))
    circuit = build_circuit(uc.adjacency, 2, uc.ruleset, order)
    dist = exact_distribution(simulate_loads(circuit), circuit.layout)
    assert set(dist.probs) == {170, 341}


# a step built by hand: one load of segment 1 in two values, evenly, without controls
EVEN_STEP = StepTable(1, 1, (), [[]], [()], [0], np.array([[math.sqrt(0.5), math.sqrt(0.5)]]))


def test_simulate_contract_violation():
    layout = QubitLayout((1,), 2)
    with pytest.raises(ContractError):
        # reloads a lifted group
        simulate_loads(CircuitProgram(layout, (EVEN_STEP, EVEN_STEP), None))


def test_frozen_context_conditions_circuit():
    adj = grid2d_topology(2, 1).adjacency
    rs = checkerboard_ruleset()
    circuit = build_circuit(adj, 2, rs, (2,), frozen=ContentInstance(((1, 1),)))
    dist = exact_distribution(simulate_loads(circuit), circuit.layout)
    assert dist.probs == pytest.approx({1: 1.0})  # forced to the other color


def test_sample_shots_deterministic_and_in_support():
    uc = checkerboard_usecase(3, 3)
    circuit = build_circuit(uc.adjacency, 2, uc.ruleset, uc.order)
    psi = simulate_loads(circuit)
    a = sample_shots(psi, circuit.layout, 25, RandomSource(2))
    b = sample_shots(psi, circuit.layout, 25, RandomSource(2))
    assert a == b
    for inst in a:
        assert encode_values(inst.mapping, circuit.layout.segments, 2) in (170, 341)
    with pytest.raises(ValueError):
        sample_shots(psi, circuit.layout, 0, RandomSource(2))


def test_sample_shots_rejects_keys_outside_the_alphabet():
    layout = QubitLayout((1,), 3)  # two qubits; basis 3 decodes to value 4
    state = SparseState(layout, np.array([3]), np.array([1.0]))
    with pytest.raises(ValueError, match="outside the alphabet"):
        sample_shots(state, layout, 1, RandomSource(0))


def _random_layout(rng, n_values):
    """A layout of ascending ids over W = ``n_values``, at most 63 qubits."""
    q = bits_per_value(n_values)
    n_segments = int(rng.integers(1, 63 // q + 1)) if q else int(rng.integers(1, 64))
    return QubitLayout(tuple(sorted(rng.choice(np.arange(1, 200), n_segments, replace=False).tolist())), n_values)


def _random_keys(rng, layout, count):
    values = rng.integers(1, layout.n_values + 1, size=(count, len(layout.segments))).tolist()
    return [encode_values(dict(zip(layout.segments, row)), layout.segments, layout.n_values) for row in values]


def _outside(layout, key) -> bool:
    try:
        decode_values(key, layout.segments, layout.n_values)
    except ValueError:
        return True
    return False


@pytest.mark.parametrize("n_values", [*range(1, 10), 1025, 1 << 20])
def test_decode_many_is_decode_values_per_key(n_values):
    """Layouts of 1 to 63 qubits, and past W = 1024 chunks of one segment
    of 11 and 20 qubits."""
    rng = np.random.default_rng(n_values)
    q, sizes = bits_per_value(n_values), set()
    per_chunk = max(10 // q, 1) if q else 0
    for _ in range(12):
        layout = _random_layout(rng, n_values)
        sizes.add(len(layout.segments) % per_chunk if per_chunk else 0)  # segments past whole chunks
        keys = _random_keys(rng, layout, 300)
        for _ in range(2):  # a fresh layout's tables, then filled ones
            got = layout.decode_many(np.array(keys, dtype=np.int64))
            assert [c.entries for c in got] == [decode_values(k, layout.segments, n_values) for k in keys]
            assert all(c.mapping == dict(c.entries) for c in got)
        if n_values & (n_values - 1):  # a value past W has a code: any random bits may decode outside
            raw = rng.integers(0, 1 << layout.n_qubits, size=50, dtype=np.int64).tolist()
            mixed = keys[:20] + raw
            bad = [k for k in mixed if _outside(layout, k)]
            if bad:
                with pytest.raises(ValueError, match=f"^basis key {bad[0]} decodes outside the alphabet$"):
                    layout.decode_many(np.array(mixed, dtype=np.int64))
    if per_chunk > 1:  # some layouts' segment counts are no multiple of a chunk's
        assert sizes - {0}


def test_decode_many_names_the_first_key_outside_in_input_order():
    layout = QubitLayout(tuple(range(1, 8)), 3)  # q = 2: chunks of segments 1-5 and 6-7
    inside = encode_values(dict.fromkeys(range(1, 8), 2), layout.segments, 3)
    late = inside | 3 << 12  # segment 7, in the second chunk, decodes to 4
    early = inside | 3  # segment 1, in the first chunk, decodes to 4
    for keys in ([inside, late, early], [late, early], [early, late]):
        with pytest.raises(ValueError, match=f"^basis key {keys[1 if keys[0] == inside else 0]} decodes"):
            layout.decode_many(np.array(keys, dtype=np.int64))
    assert [c.entries for c in layout.decode_many(np.array([inside]))] == [decode_values(inside, layout.segments, 3)]


def test_decoded_shots_share_no_mapping():
    layout = QubitLayout(tuple(range(1, 13)), 2)  # chunks of segments 1-10 and 11-12
    keys = np.array([0, 1 << 10, 1 << 11, 3 << 10, 1, 1 | 1 << 10], dtype=np.int64)  # chunk values repeat
    first = layout.decode_many(keys)
    want = [c.entries for c in first]
    first[0].mapping[1] = 2
    first[1].mapping[12] = 1
    assert [c.entries for c in first[2:]] == want[2:]
    assert [c.entries for c in layout.decode_many(keys)] == want
    # shots of a kept circuit: a write into one instance reaches no other, nor a later call
    uc = checkerboard_usecase(4, 4)
    circuit = build_circuit(uc.adjacency, 2, Ruleset(uc.ruleset.rules), uc.order)
    shots = sample_shots(circuit.state, circuit.layout, 50, RandomSource(5))
    distinct = list({id(c): c for c in shots}.values())
    assert len(distinct) == 2
    before = [dict(c.mapping) for c in distinct]
    distinct[0].mapping[1] = 3 - distinct[0].mapping[1]
    assert distinct[1].mapping == before[1]
    again = sample_shots(circuit.state, circuit.layout, 50, RandomSource(5))
    assert [c.mapping for c in again] == [before[distinct.index(c)] for c in shots]


def _table_bytes(layout, keys) -> int:
    """Bytes tracemalloc sees kept after ``layout.decode_many(keys)``."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        layout.decode_many(keys)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()


def test_decode_tables_stay_within_their_bound():
    """Every chunk value of a 63-qubit layout decoded: the tables, all that
    outlives the call, hold at most 450 B per value, 2^10 values a chunk,
    and no more than 320 B per cell ``table_cells`` charges."""
    layout = QubitLayout(tuple(range(1, 64)), 2)  # seven chunks: six of 10 segments, one of 3
    keys = np.arange(1 << 10, dtype=np.int64)
    keys = keys * sum(1 << low for low, *_ in layout._chunks)  # every chunk takes every value
    keys &= (1 << 63) - 1
    kept = _table_bytes(layout, keys)
    sizes = [len(table) for *_, table in layout._chunks]
    assert sizes == [1 << 10] * 6 + [1 << 3]
    assert kept <= 450 * sum(sizes) <= 450 * (1 << 10) * len(sizes)
    assert layout.table_cells(len(keys)) == 6 * 10 * (1 << 10) + 3 * (1 << 3)
    assert kept <= 320 * layout.table_cells(len(keys))
    # only drawn values fill a table
    fresh = QubitLayout(tuple(range(1, 64)), 2)
    fresh.decode_many(keys[:5])
    assert [len(table) for *_, table in fresh._chunks] == [5] * 6 + [5]


def test_decode_tables_past_w_1024_hold_one_pair_a_value():
    layout = QubitLayout((2, 5, 9), 1025)  # q = 11: a chunk per segment
    assert [segments for _, segments, *_ in layout._chunks] == [(2,), (5,), (9,)]
    keys = np.arange(1025, dtype=np.int64) * (1 | 1 << 11 | 1 << 22)  # every chunk takes every value
    kept = _table_bytes(layout, keys)
    assert [len(table) for *_, table in layout._chunks] == [1025] * 3
    assert layout.table_cells(len(keys)) == layout.table_cells(1 << 20) == 3 * 1025
    assert kept <= 320 * layout.table_cells(len(keys))
    with pytest.raises(ValueError, match="^basis key 1025 decodes outside the alphabet$"):
        layout.decode_many(np.array([1024, 1025], dtype=np.int64))


@pytest.mark.parametrize("n_values", [2, 3, 4])
def test_gate_lowering_round_trip(n_values):
    adj = chain_adjacency(3)
    rng = np.random.default_rng(n_values)
    rules = [
        Rule(
            int(rng.integers(1, n_values + 1)),
            float(rng.uniform(0.5, 3.0)),
            Pattern.of((2, int(rng.integers(1, n_values + 1)))),
        )
        for _ in range(6)
    ]
    rs = conflict_free_ruleset(rules, n_values, floor=0.1)
    circuit = build_circuit(adj, n_values, rs, (1, 2, 3))
    psi_ref = simulate_loads(circuit)
    psi_gate = simulate_gates(lower_to_gates(circuit))
    assert np.abs(np.abs(psi_gate) ** 2 - np.abs(psi_ref) ** 2).max() < 1e-9


def test_qasm_golden_file():
    uc = checkerboard_usecase(2, 2)
    circuit = build_circuit(uc.adjacency, 2, uc.ruleset, uc.order)
    text = export_qasm(lower_to_gates(circuit), circuit.layout)
    assert text == (DATA / "checkerboard_2x2.qasm").read_text(encoding="utf-8")


def test_qasm_structure():
    uc = checkerboard_usecase(2, 2)
    circuit = build_circuit(uc.adjacency, 2, uc.ruleset, uc.order)
    lines = export_qasm(lower_to_gates(circuit), circuit.layout).splitlines()
    assert lines[0] == "OPENQASM 3.0;"
    assert 'include "stdgates.inc";' in lines
    assert "qubit[4] q;" in lines and "bit[4] c;" in lines
    assert lines[-1] == "c = measure q;"
    assert sum("ry(" in ln for ln in lines) == len(
        [g for g in lower_to_gates(circuit).gates if not hasattr(g, "qubit")]
    )


# --------------------------------------------------------------------------
# the state the compile walks
# --------------------------------------------------------------------------


@pytest.mark.parametrize("world", sorted(QWFC_CIRCUITS))
def test_walked_state_equals_simulate(world):
    uc = QWFC_CIRCUITS[world][0]()
    assert_walked_state_is_simulated(
        build_circuit(uc.adjacency, uc.alphabet.n_values, uc.ruleset, uc.order)
    )


def _randomized_rulesets():
    """The 50 (segments, values, ruleset, order) of acceptance criterion 3."""
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        w = int(rng.choice([2, 3, 4]))
        rules = []
        for _ in range(int(rng.integers(1, 7))):
            dirs = [d for d in (1, 2) if rng.random() < 0.6]
            pattern = Pattern.of(*((d, int(rng.integers(1, w + 1))) for d in dirs))
            rules.append(Rule(int(rng.integers(1, w + 1)), float(rng.uniform(0.2, 4.0)), pattern))
        order = tuple(int(s) for s in rng.permutation(n) + 1)
        yield n, w, conflict_free_ruleset(rules, w, floor=0.05), order


def test_walked_state_equals_simulate_on_randomized_rulesets():
    for n, w, ruleset, order in _randomized_rulesets():
        assert_walked_state_is_simulated(build_circuit(chain_adjacency(n), w, ruleset, order))


def _assert_codes_are_signatures(circuit, adjacency, ruleset, frozen=None):
    """Each step's code row for each control assignment is
    ``constraint_signature`` of its target under that assignment (plus the
    frozen context), cut to the rules' last direction."""
    cut = ruleset.compiled.max_direction
    fixed = frozen.mapping if frozen is not None else None
    for table in circuit.steps:
        for vals, row in zip(table.values, table.rows, strict=True):
            placed = dict(zip(table.deps, vals, strict=True))
            assert table.signatures[row] == constraint_signature(table.target, adjacency, placed, fixed)[:cut]


def test_step_codes_are_constraint_signatures_on_randomized_rulesets():
    pick = np.random.default_rng(7)
    for n, w, ruleset, order in _randomized_rulesets():
        adjacency = chain_adjacency(n)
        _assert_codes_are_signatures(build_circuit(adjacency, w, ruleset, order), adjacency, ruleset)
        # the same ruleset with the order's first segments frozen
        cut = int(pick.integers(1, n))
        frozen = ContentInstance(tuple((s, int(pick.integers(1, w + 1))) for s in order[:cut]))
        circuit = build_circuit(adjacency, w, ruleset, order[cut:], frozen)
        _assert_codes_are_signatures(circuit, adjacency, ruleset, frozen)
        assert_walked_state_is_simulated(circuit)


def test_step_codes_where_neighbours_in_one_direction_disagree():
    # segments 1 and 2 are both segment 3's neighbours in direction 1
    adjacency = AdjacencyConfig(3, 1, (frozenset({(3, 1), (3, 2)}),))
    rules = (Rule(1, 2.0, Pattern.of((1, 1))), Rule(2, 3.0, Pattern.of((1, 2))))
    ruleset = conflict_free_ruleset(rules, 2)
    cases = [
        ((1, 2, 3), None, [(1,), (-1,), (-1,), (2,)]),  # both placed: (1,1) (2,1) (1,2) (2,2)
        ((2, 3), ContentInstance(((1, 1),)), [(1,), (-1,)]),  # one frozen, one placed
        ((3,), ContentInstance(((1, 1), (2, 2))), [(-1,)]),  # both frozen
    ]
    for order, frozen, codes in cases:
        circuit = build_circuit(adjacency, 2, ruleset, order, frozen)
        last = circuit.steps[-1]
        assert last.target == 3 and [last.signatures[r] for r in last.rows] == codes
        _assert_codes_are_signatures(circuit, adjacency, ruleset, frozen)
        assert_walked_state_is_simulated(circuit)


def test_a_bad_amplitude_row_fails_the_compile_and_builds_no_load(monkeypatch):
    def refuse(self):
        raise AssertionError("build_circuit built a ConditionalLoad")

    real = quantum.signature_entry

    def skewed(comp, signature, n_values, segment):
        entry = real(comp, signature, n_values, segment)
        # squared norm 1 + 4e-12: past the 1e-12 tolerance
        return None if entry is None else (entry[0] * (1.0 + 4e-12),) + entry[1:]

    monkeypatch.setattr(ConditionalLoad, "__post_init__", refuse)
    uc = checkerboard_usecase(3, 3)
    build_circuit(uc.adjacency, 2, uc.ruleset, uc.order)  # builds no load
    monkeypatch.setattr(quantum, "signature_entry", skewed)
    with pytest.raises(ValueError, match=r"finite with squared norm 1, got 1\.00000000000[34]"):
        build_circuit(uc.adjacency, 2, Ruleset(uc.ruleset.rules), uc.order)  # uncached


def test_no_walked_state_past_the_index_limit_or_by_hand():
    wide = checkerboard_usecase(8, 8)
    circuit = build_circuit(wide.adjacency, 2, wide.ruleset, wide.order)
    assert circuit.state is None
    # both names of the accessor, and the reference executor, refuse it with one message
    for read in (walked_state, quantum.simulate, simulate_loads):
        with pytest.raises(CapacityError) as err:
            read(circuit)
        assert str(err.value) == "64 qubits exceed the limit of 63 for int64 basis indices"
    load = ConditionalLoad(1, (), 1, (math.sqrt(0.5), math.sqrt(0.5)))
    by_hand = CircuitProgram(QubitLayout((1,), 2), (EVEN_STEP,), None)
    assert by_hand.loads == (load,)
    assert by_hand.state is None
    # the package does not execute a program built by hand; the reference does
    for read in (walked_state, quantum.simulate):
        with pytest.raises(ValueError, match="built by hand"):
            read(by_hand)
    state = simulate_loads(by_hand)
    assert state.indices.tolist() == [0, 1]
    assert state.probabilities.tolist() == pytest.approx([0.5, 0.5])


def test_simulate_is_the_walked_state():
    assert quantum.simulate is walked_state
    uc = checkerboard_usecase(3, 3)
    circuit = build_circuit(uc.adjacency, 2, uc.ruleset, uc.order)
    assert circuit.state is not None
    assert quantum.simulate(circuit) is circuit.state
    assert walked_state(circuit) is circuit.state


def test_compile_errors_name_their_iteration(monkeypatch):
    uc = checkerboard_usecase(3, 3)
    monkeypatch.setattr(quantum, "DEFAULT_LOAD_CAP", 1)
    with pytest.raises(CapacityError) as err:
        build_circuit(uc.adjacency, 2, uc.ruleset, uc.order)
    assert str(err.value) == "2 control assignments at iteration 2 exceed the cap of 1"
    monkeypatch.undo()
    adj = chain_adjacency(8)
    rs = conflict_free_ruleset((), 2)
    for cap, k in ((16, 5), (100, 7)):
        monkeypatch.setattr(quantum, "DEFAULT_SUPPORT_CAP", cap)
        with pytest.raises(CapacityError) as err:
            build_circuit(adj, 2, rs, tuple(range(1, 9)))
        assert str(err.value) == f"reachable support grew past {cap} at iteration {k}"
    monkeypatch.undo()
    # segment 2 needs equal neighbours: (1, 2) and (2, 1) both conflict, and
    # the first in sorted tuple order over (segment 1, segment 3) is named
    equal = Ruleset((Rule(1, 1.0, Pattern.of((1, 1), (2, 1))), Rule(2, 1.0, Pattern.of((1, 2), (2, 2)))))
    with pytest.raises(ConflictError) as err:
        build_circuit(chain_adjacency(3), 2, equal, (1, 3, 2))
    assert str(err.value) == "no admissible value for segment 2 (while compiling iteration 3)"
    assert err.value.content.entries == ((1, 1), (3, 2))


def test_a_dependent_step_is_refused_before_it_gathers(monkeypatch):
    # segment 2 copies segment 1 (direction 1) after segment 3 spread the
    # support to 64 x 64 rows, so the step would gather 4,096 rows x 256
    # values, 2^20 cells, while its output stays within the support cap
    adjacency = AdjacencyConfig(3, 1, (frozenset({(2, 1), (3, 2)}),))
    ruleset = Ruleset(tuple(Rule(v, 1.0, Pattern.of((1, v))) for v in range(1, 65)))
    monkeypatch.setattr(quantum, "DEFAULT_SUPPORT_CAP", 4096)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError) as err:
            build_circuit(adjacency, 256, ruleset, (1, 3, 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == "4096 rows x 256 values at iteration 3 exceed the cap of 16384 gathered cells"
    assert peak < 1 << 20  # the gather alone would hold 8 MiB of amplitudes


# --- the whole-world circuit cache ------------------------------------------


def _same_state(a: CircuitProgram, b: CircuitProgram) -> bool:
    return (
        a.layout == b.layout
        and np.array_equal(a.state.indices, b.state.indices)
        and np.array_equal(a.state.probabilities, b.state.probabilities)
    )


def test_a_repeated_circuit_is_the_kept_program():
    uc = checkerboard_usecase(3, 3)
    rs = Ruleset(uc.ruleset.rules)
    first = build_circuit(uc.adjacency, 2, rs, uc.order)
    assert build_circuit(uc.adjacency, 2, rs, uc.order) is first
    assert build_circuit(uc.adjacency, 2, rs, list(uc.order)) is first
    comp = rs.compiled
    assert list(comp.circuits) == [(uc.adjacency, tuple(uc.order), 2)]
    # its state's entries, W cells per load, and its decode tables' 9 pairs per entry
    assert len(first.state.indices) == 2
    assert stated_cells(comp)["circuits"] == 2 + 2 * len(first.loads) + 2 * 9
    assert comp.cache_cells == sum(stated_cells(comp).values())


def test_the_circuit_cache_keys_on_order_w_adjacency_and_ruleset():
    uc = checkerboard_usecase(3, 3)
    rs = Ruleset(uc.ruleset.rules)
    kept = build_circuit(uc.adjacency, 2, rs, uc.order)
    other = grid2d_topology(3, 2).adjacency
    variants = [
        (uc.adjacency, 2, rs, tuple(reversed(uc.order))),
        (uc.adjacency, 3, rs, uc.order),
        (other, 2, rs, tuple(range(1, 7))),
        (uc.adjacency, 2, Ruleset(uc.ruleset.rules), uc.order),
    ]
    for adjacency, n_values, ruleset, order in variants:
        circuit = build_circuit(adjacency, n_values, ruleset, order)
        assert circuit is not kept
        assert build_circuit(adjacency, n_values, ruleset, order) is circuit
        assert _same_state(circuit, build_circuit(adjacency, n_values, Ruleset(ruleset.rules), order))
    assert len(rs.compiled.circuits) == 4


def test_a_frozen_call_neither_reads_nor_fills_the_circuit_cache():
    uc = checkerboard_usecase(3, 3)
    rs = Ruleset(uc.ruleset.rules)
    comp = rs.compiled
    for frozen, order in ((ContentInstance(), uc.order), (ContentInstance({1: 1}), uc.order[1:])):
        assert build_circuit(uc.adjacency, 2, rs, order, frozen=frozen) is not build_circuit(
            uc.adjacency, 2, rs, order, frozen=frozen
        )
        assert comp.circuits == {} and comp.cache_cells == sum(stated_cells(comp).values())
    kept = build_circuit(uc.adjacency, 2, rs, uc.order)
    thawed = build_circuit(uc.adjacency, 2, rs, uc.order, frozen=ContentInstance())
    assert thawed is not kept and _same_state(thawed, kept)
    assert len(comp.circuits) == 1


def test_a_refused_circuit_is_not_kept(monkeypatch):
    equal = Ruleset((Rule(1, 1.0, Pattern.of((1, 1), (2, 1))), Rule(2, 1.0, Pattern.of((1, 2), (2, 2)))))
    messages = []
    for _ in range(2):
        with pytest.raises(ConflictError) as err:
            build_circuit(chain_adjacency(3), 2, equal, (1, 3, 2))
        messages.append(str(err.value))
    assert messages == ["no admissible value for segment 2 (while compiling iteration 3)"] * 2
    assert equal.compiled.circuits == {}
    rs = conflict_free_ruleset((), 2)
    monkeypatch.setattr(quantum, "DEFAULT_SUPPORT_CAP", 16)
    for _ in range(2):
        with pytest.raises(CapacityError, match="grew past 16 at iteration 5"):
            build_circuit(chain_adjacency(8), 2, rs, tuple(range(1, 9)))
    assert rs.compiled.circuits == {} and rs.compiled.cache_cells == sum(stated_cells(rs.compiled).values())


def test_a_circuit_without_a_walked_state_is_not_kept():
    wide = checkerboard_usecase(8, 8)
    rs = Ruleset(wide.ruleset.rules)
    circuit = build_circuit(wide.adjacency, 2, rs, wide.order)
    assert circuit.n_qubits == 64 and circuit.state is None
    assert rs.compiled.circuits == {}
    assert build_circuit(wide.adjacency, 2, rs, wide.order) is not circuit


def test_the_cell_cap_stops_the_circuit_cache_not_its_output(monkeypatch):
    # no rule names a direction: a chain of n segments walks all 2^n outcomes
    rs = conflict_free_ruleset((), 2)
    comp = rs.compiled
    chains = [(chain_adjacency(n), tuple(range(1, n + 1))) for n in (3, 4, 5, 2)]
    for adjacency, order in chains:  # a frozen compile keeps the plans and entries, not the circuit
        build_circuit(adjacency, 2, rs, order, frozen=ContentInstance())
    base = comp.cache_cells
    monkeypatch.setattr(model, "_CACHE_CAP", base + 126)
    kept = []
    for adjacency, order in chains:
        circuit = build_circuit(adjacency, 2, rs, order)
        assert _same_state(circuit, build_circuit(adjacency, 2, Ruleset(rs.rules), order))
        kept.append(build_circuit(adjacency, 2, rs, order) is circuit)
        assert comp.cache_cells - base == stated_cells(comp)["circuits"] <= 126
    # 8 + 16 entries, 3 + 4 loads of 2 cells and 8 x 3 + 16 x 4 table pairs fill the cap
    assert kept == [True, True, False, False]
    assert comp.cache_cells - base == 126


def test_exact_distribution_copies_the_kept_support():
    uc = QWFC_CIRCUITS["pipes-2x2"][0]()
    state = build_circuit(uc.adjacency, uc.alphabet.n_values, Ruleset(uc.ruleset.rules), uc.order).state
    first = exact_distribution(state, state.layout)
    want = dict(zip(state.indices.tolist(), state.probabilities.tolist()))
    assert list(first.probs.items()) == list(want.items()) == list(state.support.items())
    assert first.probs is not state.support
    first.probs.clear()
    second = exact_distribution(state, state.layout)
    assert second.probs is not first.probs and list(second.probs.items()) == list(want.items())


@pytest.mark.parametrize("name", sorted(QWFC_CIRCUITS))
def test_shots_from_a_kept_circuit_are_a_fresh_compiles(name):
    uc = QWFC_CIRCUITS[name][0]()
    args = (uc.adjacency, uc.alphabet.n_values)
    rs = Ruleset(uc.ruleset.rules)
    build_circuit(*args, rs, uc.order)
    kept = build_circuit(*args, rs, uc.order)
    assert rs.compiled.circuits[(uc.adjacency, tuple(uc.order), uc.alphabet.n_values)] is kept
    fresh = build_circuit(*args, Ruleset(uc.ruleset.rules), uc.order)
    shots = [sample_shots(c.state, c.layout, 1000, RandomSource(3002)) for c in (kept, fresh)]
    assert shots[0] == shots[1]
    assert exact_distribution(kept.state, kept.layout) == exact_distribution(fresh.state, fresh.layout)

