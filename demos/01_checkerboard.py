"""Checkerboard: the smallest world where all three engines agree exactly.

Two rules say "be the opposite color of every neighbor".  On a 3x3 grid only
two complete colorings satisfy them, and each should come out with
probability one half.  This script shows that the circuit construction, the
partitioned variant and plain classical sampling all land on that answer.
"""

from qcollapse import (
    RandomSource,
    build_circuit,
    cwfc_generate,
    exact_distribution,
    hwfc_exact_distribution,
    render_ascii,
    sample_shots,
    simulate,
)
from qcollapse.usecases import checkerboard_usecase


def main():
    uc = checkerboard_usecase(3, 3)

    circuit = build_circuit(uc.adjacency, 2, uc.ruleset, uc.order)
    psi = simulate(circuit)
    dist = exact_distribution(psi, circuit.layout)
    print(f"circuit over {circuit.n_qubits} qubits, exact distribution:")
    for key, p in sorted(dist.probs.items()):
        print(f"  basis {key}: {p:.6f}")

    split = hwfc_exact_distribution(uc.adjacency, 2, uc.ruleset, uc.partitioning)
    print("\nrow-partitioned joint distribution (should match):")
    for key, p in sorted(split.probs.items()):
        print(f"  basis {key}: {p:.6f}")

    rng = RandomSource(0)
    print("\none measured sample:")
    print(render_ascii(sample_shots(psi, circuit.layout, 1, rng)[0], uc.alphabet, uc.topology))

    print("one classical minimum-entropy sample:")
    inst = cwfc_generate(uc.adjacency, uc.alphabet, uc.ruleset, rng)
    print(render_ascii(inst, uc.alphabet, uc.topology))


if __name__ == "__main__":
    main()
