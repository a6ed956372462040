import math
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    chain_adjacency,
    conflict_free_ruleset,
    max_prob_deviation,
    reference_chain_distribution,
    simulate_gates,
)
from test_golden import QWFC_CIRCUITS

from qcollapse import (
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
    build_circuit,
    decode_values,
    grid2d_topology,
    dependency_set,
    encode_values,
    exact_distribution,
    export_qasm,
    lower_to_gates,
    sample_shots,
    simulate,
)
from qcollapse import quantum
from qcollapse.quantum import walked_state
from qcollapse.usecases import checkerboard_ruleset, checkerboard_usecase

DATA = Path(__file__).parent / "data"


def test_layout_offsets_and_codec():
    layout = QubitLayout((1, 2, 3), 3)
    assert layout.bits_per_value == 2 and layout.n_qubits == 6
    assert layout.group_offset(2) == 2
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


def test_dependency_set_uses_rule_directions():
    adj = grid2d_topology(2, 2).adjacency
    rs = checkerboard_ruleset()  # patterns use all four directions
    order = (1, 2, 3, 4)
    assert dependency_set(1, order, adj, rs) == frozenset()
    assert dependency_set(4, order, adj, rs) == frozenset({2, 3})
    # vertical-only rules ignore horizontal neighbors
    vert = Ruleset((Rule(1, 1.0, Pattern.of((2, 1))), Rule(2, 1.0, Pattern.of((4, 1)))))
    assert dependency_set(4, order, adj, vert) == frozenset({2})


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
        simulate(circuit)
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
    with pytest.raises(CapacityError, match="iteration 8"):
        build_circuit(adj, 2, rs, tuple(range(1, 9)))


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
    psi = simulate(circuit)
    dist = exact_distribution(psi, circuit.layout)
    ref = reference_chain_distribution(adj, rs, 3, order)
    assert max_prob_deviation(dist.probs, ref) < 1e-12
    assert abs(dist.total_mass() - 1.0) < 1e-12


def test_sparse_state_indices_and_dense_view():
    adj = chain_adjacency(4)
    rs = conflict_free_ruleset((Rule(1, 3.0, Pattern.of((2, 1))),), 3, floor=0.5)
    state = simulate(build_circuit(adj, 3, rs, (3, 1, 4, 2)))
    assert state.indices.dtype == np.int64 and state.amplitudes.dtype == np.complex128
    assert len(state.indices) > 1 and (np.diff(state.indices) > 0).all()
    assert np.array_equal(state.probabilities, np.abs(state.amplitudes) ** 2)
    dense = np.zeros(1 << state.layout.n_qubits, dtype=np.complex128)
    for index, amplitude in zip(state.indices.tolist(), state.amplitudes.tolist()):
        dense[index] = amplitude
    assert np.array_equal(np.asarray(state), dense)
    assert np.count_nonzero(state) == len(state.indices)
    assert not any(
        array.flags.writeable for array in (state.indices, state.amplitudes, state.probabilities)
    )
    # the draw table: computed once, read-only
    assert state.cumulative is state.cumulative
    assert np.array_equal(state.cumulative, np.cumsum(state.probabilities))
    assert not state.cumulative.flags.writeable


def test_sparse_state_wide_circuit_and_dense_cap():
    # 49 qubits, two outcomes: far past any dense vector
    uc = checkerboard_usecase(7, 7)
    circuit = build_circuit(uc.adjacency, 2, uc.ruleset, uc.order)
    assert circuit.n_qubits == 49
    state = simulate(circuit)
    dist = exact_distribution(state, circuit.layout)
    assert len(dist.probs) == 2 and all(p == pytest.approx(0.5) for p in dist.probs.values())
    shots = sample_shots(state, circuit.layout, 50, RandomSource(4))
    assert {encode_values(s.mapping, circuit.layout.segments, 2) for s in shots} == set(dist.probs)
    with pytest.raises(CapacityError, match="dense view"):
        np.asarray(state)
    narrow = checkerboard_usecase(9, 3)  # 27 qubits, one past the dense cap
    with pytest.raises(CapacityError, match="dense view"):
        np.asarray(simulate(build_circuit(narrow.adjacency, 2, narrow.ruleset, narrow.order)))


def test_simulate_out_of_order_segments():
    # a non-ascending generation order still lands on the canonical layout
    uc = checkerboard_usecase(3, 3)
    order = tuple(range(9, 0, -1))
    circuit = build_circuit(uc.adjacency, 2, uc.ruleset, order)
    dist = exact_distribution(simulate(circuit), circuit.layout)
    assert set(dist.probs) == {170, 341}


def test_simulate_contract_violation():
    layout = QubitLayout((1,), 2)
    load = ConditionalLoad(1, (), 1, (math.sqrt(0.5), math.sqrt(0.5)))
    with pytest.raises(ContractError):
        simulate(CircuitProgram(layout, (load, load)))  # reloads a lifted group


def test_frozen_context_conditions_circuit():
    adj = grid2d_topology(2, 1).adjacency
    rs = checkerboard_ruleset()
    circuit = build_circuit(adj, 2, rs, (2,), frozen=ContentInstance(((1, 1),)))
    dist = exact_distribution(simulate(circuit), circuit.layout)
    assert dist.probs == pytest.approx({1: 1.0})  # forced to the other color


def test_sample_shots_deterministic_and_in_support():
    uc = checkerboard_usecase(3, 3)
    circuit = build_circuit(uc.adjacency, 2, uc.ruleset, uc.order)
    psi = simulate(circuit)
    a = sample_shots(psi, circuit.layout, 25, RandomSource(2))
    b = sample_shots(psi, circuit.layout, 25, RandomSource(2))
    assert a == b
    for inst in a:
        assert encode_values(inst.mapping, circuit.layout.segments, 2) in (170, 341)
    with pytest.raises(ValueError):
        sample_shots(psi, circuit.layout, 0, RandomSource(2))


def test_sample_shots_rejects_keys_outside_the_alphabet():
    layout = QubitLayout((1,), 3)  # two qubits; basis 3 decodes to value 4
    state = SparseState(layout, np.array([3]), np.array([1.0 + 0j]), np.array([1.0]))
    with pytest.raises(ValueError, match="outside the alphabet"):
        sample_shots(state, layout, 1, RandomSource(0))


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
    psi_ref = simulate(circuit)
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


def _assert_walked_state_is_simulated(circuit):
    walked, simulated = circuit.state, simulate(circuit)
    assert walked.layout == simulated.layout
    for got, want in (
        (walked.indices, simulated.indices),
        (walked.amplitudes, simulated.amplitudes),
        (walked.probabilities, simulated.probabilities),
    ):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("world", sorted(QWFC_CIRCUITS))
def test_walked_state_equals_simulate(world):
    uc = QWFC_CIRCUITS[world][0]()
    _assert_walked_state_is_simulated(
        build_circuit(uc.adjacency, uc.alphabet.n_values, uc.ruleset, uc.order)
    )


def test_walked_state_equals_simulate_on_randomized_rulesets():
    # the 50 rulesets and orders of acceptance criterion 3
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
        ruleset = conflict_free_ruleset(rules, w, floor=0.05)
        _assert_walked_state_is_simulated(build_circuit(chain_adjacency(n), w, ruleset, order))


def test_no_walked_state_past_the_index_limit_or_by_hand():
    wide = checkerboard_usecase(8, 8)
    circuit = build_circuit(wide.adjacency, 2, wide.ruleset, wide.order)
    assert circuit.state is None
    # the accessor and the reference executor refuse it with one message
    for read in (walked_state, simulate):
        with pytest.raises(CapacityError) as err:
            read(circuit)
        assert str(err.value) == "64 qubits exceed the limit of 63 for int64 basis indices"
    small = checkerboard_usecase(3, 3)
    circuit = build_circuit(small.adjacency, 2, small.ruleset, small.order)
    assert walked_state(circuit) is circuit.state
    load = ConditionalLoad(1, (), 1, (math.sqrt(0.5), math.sqrt(0.5)))
    by_hand = CircuitProgram(QubitLayout((1,), 2), (load,))
    assert by_hand.state is None
    # a program built by hand is simulated
    walked, simulated = walked_state(by_hand), simulate(by_hand)
    assert np.array_equal(walked.indices, simulated.indices)
    assert np.array_equal(walked.amplitudes, simulated.amplitudes)


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
