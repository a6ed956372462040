"""Hexagon terrain: a weighted chain of biomes on a hex disc.

Four terrain types form a chain (water, sand, grass, rock); a cell may only
neighbor its own type or the adjacent chain types.  Water carries weight 5,
so maps skew wet.  Full 6-neighborhood rules give 2^6 + 3^6 + 3^6 + 2^6 =
1586 rules.

For a single free hexagon the exact distribution is
(2^6*5, 3^6, 3^6, 2^6) / 1842, which the circuit reproduces to machine
precision.  Larger discs are generated block by block, restarting on a
conflict.
"""

from dataclasses import replace

from qcollapse import (
    RandomSource,
    build_circuit,
    equal_blocks,
    exact_distribution,
    hwfc_generate,
    render_ascii,
    simulate,
    with_restarts,
)
from qcollapse.usecases import hexmap_usecase


def main():
    single = hexmap_usecase(0, u_blue=5.0)
    circuit = build_circuit(single.adjacency, 4, single.ruleset, (1,))
    dist = exact_distribution(simulate(circuit), circuit.layout)
    names = [single.alphabet.symbol(v).name for v in range(1, 5)]
    print("single-cell terrain distribution:")
    for key, p in sorted(dist.probs.items()):
        print(f"  {names[key]:<6} {p:.6f}  (= {p * 1842:.0f}/1842)")

    uc = replace(hexmap_usecase(4, u_blue=5.0), partitioning=equal_blocks(61, 13))
    rng = RandomSource(12)
    # a block with no admissible value restarts the disc with fresh draws
    inst = with_restarts(lambda: hwfc_generate(uc.adjacency, 4, uc.ruleset, uc.partitioning, rng), 100)
    print(f"\nradius-4 disc ({uc.adjacency.n_segments} cells, violations: {len(uc.validator(inst))})")
    print(render_ascii(inst, uc.alphabet, uc.topology))


if __name__ == "__main__":
    main()
