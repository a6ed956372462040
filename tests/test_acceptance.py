"""End-to-end acceptance gate.

Each test covers one numbered acceptance criterion and prints a single
pass/fail line (to the unbuffered terminal stream, so the lines survive
pytest's output capture).
"""

import sys
import time
from itertools import product

import conftest

import numpy as np
import pytest
from conftest import max_prob_deviation, simulate_gates, simulate_loads

from qcollapse import (
    ContentInstance,
    RandomSource,
    build_circuit,
    cwfc_generate,
    decode_values,
    equal_blocks,
    exact_distribution,
    exact_distribution_oracle,
    fixed_order_selector,
    hwfc_exact_distribution,
    hwfc_generate,
    lower_to_gates,
    ruleset_value_selector,
    sample_shots,
)
from qcollapse import framework
from qcollapse.cli import main
from qcollapse.usecases import (
    checkerboard_usecase,
    generate_hexmap_ruleset,
    generate_pipes_ruleset,
    hexmap_usecase,
    pipes_compatible,
    pipes_usecase,
    platformer_usecase,
    voxel_skyline_usecase,
)
from conftest import chain_adjacency, conflict_free_ruleset
from qcollapse import Pattern, Rule


def _report(num: int, ok: bool, elapsed: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num} {status} ({elapsed:.2f}s): {detail}"
    print(line, file=sys.__stdout__, flush=True)
    conftest.acceptance_lines.append(line)


def test_criterion_1_checkerboard_exact_distribution():
    started = time.perf_counter()
    uc = checkerboard_usecase(3, 3)
    circuit = build_circuit(uc.adjacency, 2, uc.ruleset, uc.order)
    dist = exact_distribution(simulate_loads(circuit), circuit.layout)
    elapsed = time.perf_counter() - started
    ok = (
        set(dist.probs) == {170, 341}
        and abs(dist.probs[170] - 0.5) < 1e-12
        and abs(dist.probs[341] - 0.5) < 1e-12
        and elapsed < 1.0
    )
    _report(1, ok, elapsed, "checkerboard 3x3 circuit distribution is {170: 1/2, 341: 1/2}")
    assert ok


def test_criterion_2_rule_counts():
    started = time.perf_counter()
    pipes_brute = sum(
        all(
            pipes_compatible(center, nb, d)
            for d, nb in zip((1, 2, 3, 4), neighborhood)
        )
        for center in range(1, 9)
        for neighborhood in product(range(1, 9), repeat=4)
    )
    hex_brute = sum(
        all(abs(c - center) <= 1 for c in combo)
        for center in range(1, 5)
        for combo in product(range(1, 5), repeat=6)
    )
    n_pipes = len(generate_pipes_ruleset())
    n_hex = len(generate_hexmap_ruleset())
    elapsed = time.perf_counter() - started
    ok = (n_pipes, n_hex) == (pipes_brute, hex_brute) == (2048, 1586) and elapsed < 5.0
    _report(2, ok, elapsed, f"generated rule counts pipes={n_pipes} hexagon={n_hex} match brute force")
    assert ok


def test_criterion_3_randomized_circuit_vs_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    worst = 0.0
    while checked < 50:
        n = int(rng.integers(2, 5))
        w = int(rng.choice([2, 3, 4]))
        rules = []
        for _ in range(int(rng.integers(1, 7))):
            dirs = [d for d in (1, 2) if rng.random() < 0.6]
            pattern = Pattern.of(*((d, int(rng.integers(1, w + 1))) for d in dirs))
            rules.append(Rule(int(rng.integers(1, w + 1)), float(rng.uniform(0.2, 4.0)), pattern))
        ruleset = conflict_free_ruleset(rules, w, floor=0.05)
        order = tuple(int(s) for s in rng.permutation(n) + 1)
        adj = chain_adjacency(n)
        circuit = build_circuit(adj, w, ruleset, order)
        dist = exact_distribution(simulate_loads(circuit), circuit.layout)
        oracle = exact_distribution_oracle(
            n, w, fixed_order_selector(order, n), ruleset_value_selector(adj, ruleset, w)
        )
        worst = max(worst, max_prob_deviation(dist.probs, oracle.probs))
        checked += 1
    elapsed = time.perf_counter() - started
    ok = worst < 1e-10 and elapsed < 60.0
    _report(3, ok, elapsed, f"{checked} randomized rulesets, worst circuit-vs-oracle deviation {worst:.2e}")
    assert ok


def test_criterion_4_partitioned_factorization():
    started = time.perf_counter()
    uc = checkerboard_usecase(2, 2)
    circuit = build_circuit(uc.adjacency, 2, uc.ruleset, uc.order)
    joint = exact_distribution(simulate_loads(circuit), circuit.layout)
    split = hwfc_exact_distribution(uc.adjacency, 2, uc.ruleset, equal_blocks(4, 2))
    dev_checker = max_prob_deviation(joint.probs, split.probs)

    hx = hexmap_usecase(1)
    circuit = build_circuit(hx.adjacency, 4, hx.ruleset, hx.order)
    joint = exact_distribution(simulate_loads(circuit), circuit.layout)
    split = hwfc_exact_distribution(hx.adjacency, 4, hx.ruleset, hx.partitioning)
    dev_hex = max_prob_deviation(joint.probs, split.probs)

    elapsed = time.perf_counter() - started
    ok = dev_checker < 1e-12 and dev_hex < 1e-12
    _report(
        4,
        ok,
        elapsed,
        f"two-block factorization deviations: checkerboard {dev_checker:.2e}, hexagon {dev_hex:.2e}",
    )
    assert ok


def test_criterion_5_classical_sampling_frequencies():
    started = time.perf_counter()
    uc = checkerboard_usecase(3, 3)
    rng = RandomSource(42)
    counts: dict[int, int] = {}
    for _ in range(10_000):
        inst = cwfc_generate(uc.adjacency, uc.alphabet, uc.ruleset, rng)
        key = sum((v - 1) << (s - 1) for s, v in inst.entries)
        counts[key] = counts.get(key, 0) + 1
    elapsed = time.perf_counter() - started
    freqs = {k: c / 10_000 for k, c in counts.items()}
    ok = (
        set(freqs) == {170, 341}
        and all(abs(f - 0.5) <= 0.02 for f in freqs.values())
        and elapsed < 10.0
    )
    _report(5, ok, elapsed, f"10000 classical samples, frequencies {dict(sorted(freqs.items()))}")
    assert ok


def test_criterion_6_partitioned_use_case_validity():
    started = time.perf_counter()
    cases = (
        pipes_usecase(10, 4),
        platformer_usecase(10, 10),
        voxel_skyline_usecase(4, 4, 4),
    )
    violations = 0
    for uc in cases:
        rng = RandomSource(7)
        for _ in range(100):
            inst = hwfc_generate(
                uc.adjacency, uc.alphabet.n_values, uc.ruleset, uc.partitioning, rng
            )
            violations += len(uc.validator(inst))
    elapsed = time.perf_counter() - started
    ok = violations == 0 and elapsed < 600.0
    _report(
        6,
        ok,
        elapsed,
        f"100 partitioned samples per use case (pipes, platformer, voxels), {violations} validator violations",
    )
    assert ok


def test_criterion_7_gate_level_round_trip():
    started = time.perf_counter()
    corpus = (
        ("checkerboard 2x2", checkerboard_usecase(2, 2)),
        ("checkerboard 3x3", checkerboard_usecase(3, 3)),
        ("hexagon r=1", hexmap_usecase(1)),
        ("pipes 2x2", pipes_usecase(2, 2)),
        ("platformer 2x2", platformer_usecase(2, 2)),
        ("voxels 2x2x3", voxel_skyline_usecase(2, 2, 3)),
    )
    worst = 0.0
    for name, uc in corpus:
        circuit = build_circuit(uc.adjacency, uc.alphabet.n_values, uc.ruleset, uc.order)
        assert circuit.n_qubits <= 14, name
        psi = simulate_loads(circuit)
        psi_gate = simulate_gates(lower_to_gates(circuit))
        worst = max(worst, float(np.abs(np.abs(psi_gate) ** 2 - np.abs(psi) ** 2).max()))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-9
    _report(7, ok, elapsed, f"{len(corpus)} corpus circuits up to 14 qubits, worst gate deviation {worst:.2e}")
    assert ok


def test_criterion_8_deterministic_artifacts(tmp_path):
    started = time.perf_counter()
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "name: det\nseed: 99\nmode: hwfc\nshots: 5\n"
        "topology: {type: grid2d, width: 3, height: 3}\n"
        "rules: {generator: checkerboard}\n",
        encoding="utf-8",
    )
    digests = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["--config", str(cfg), "--out", str(out), "--exact-dist"]) == 0
        digests.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    elapsed = time.perf_counter() - started
    ok = digests[0] == digests[1] and len(digests[0]) >= 7
    _report(8, ok, elapsed, f"two identical runs produced {len(digests[0])} byte-identical artifacts")
    assert ok


def test_criterion_9_single_hexagon_distribution():
    started = time.perf_counter()
    uc = hexmap_usecase(0, 5.0)
    circuit = build_circuit(uc.adjacency, 4, uc.ruleset, (1,))
    dist = exact_distribution(simulate_loads(circuit), circuit.layout)
    expected = {0: 320 / 1842, 1: 729 / 1842, 2: 729 / 1842, 3: 64 / 1842}
    dev = max(abs(dist.probs.get(k, 0.0) - p) for k, p in expected.items())
    elapsed = time.perf_counter() - started
    ok = set(dist.probs) == set(expected) and dev < 1e-12
    _report(9, ok, elapsed, f"single-hexagon terrain distribution (320, 729, 729, 64)/1842, deviation {dev:.2e}")
    assert ok


QWFC_EXACT_WORLDS = (
    ("voxels 3x3x2", lambda: voxel_skyline_usecase(3, 3, 2)),
    ("voxels 2x2x5", lambda: voxel_skyline_usecase(2, 2, 5)),
    ("pipes 3x2", lambda: pipes_usecase(3, 2)),
    ("platformer 3x2", lambda: platformer_usecase(3, 2)),
)


@pytest.mark.parametrize("name,make", QWFC_EXACT_WORLDS, ids=[n for n, _ in QWFC_EXACT_WORLDS])
def test_sparse_state_sampling_matches_per_shot_decode(name, make):
    uc = make()
    circuit = build_circuit(uc.adjacency, uc.alphabet.n_values, uc.ruleset, uc.order)
    state = simulate_loads(circuit)
    assert np.count_nonzero(state) == len(state.indices)
    shots = sample_shots(state, circuit.layout, 1000, RandomSource(11))
    assert not any("entries" in vars(shot) for shot in shots)  # built on first read only
    drawn = RandomSource(11).draw(np.cumsum(state.probabilities), 1000)
    layout = circuit.layout
    assert shots == [
        ContentInstance(decode_values(int(state.indices[i]), layout.segments, layout.n_values))
        for i in drawn
    ]


def test_platformer_4x2_exact_distribution_matches_oracle(monkeypatch):
    uc = platformer_usecase(4, 2)
    n, w = uc.adjacency.n_segments, uc.alphabet.n_values
    circuit = build_circuit(uc.adjacency, w, uc.ruleset, uc.order)
    assert circuit.n_qubits == 24
    dist = exact_distribution(simulate_loads(circuit), circuit.layout)
    monkeypatch.setattr(framework, "EXACT_BUDGET", w**n)
    oracle = exact_distribution_oracle(
        n,
        w,
        fixed_order_selector(uc.order, n),
        ruleset_value_selector(uc.adjacency, uc.ruleset, w),
    )
    assert len(dist.probs) == 81
    assert max_prob_deviation(dist.probs, oracle.probs) < 1e-12
