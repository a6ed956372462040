"""Platformer levels: fifteen authored rules over vertical adjacency.

The level is built bottom row first.  Ground fills the bottom row, grass and
mushrooms grow on it, trees stack from a trunk through middles to a top, and
floating blocks appear rarely (weight 0.1) with air above and below.  Rows
are generated half a row at a time as conditioned circuits.
"""

from qcollapse import RandomSource, hwfc_generate, render_ascii
from qcollapse.usecases import platformer_usecase


def main():
    uc = platformer_usecase(16, 10)
    print(f"{len(uc.ruleset)} rules, {uc.adjacency.n_segments} tiles, "
          f"{len(uc.partitioning.blocks)} partitions")
    rng = RandomSource(77)
    for i in range(2):
        inst = hwfc_generate(uc.adjacency, 8, uc.ruleset, uc.partitioning, rng)
        print(f"\nlevel {i} (violations: {len(uc.validator(inst))})")
        print(render_ascii(inst, uc.alphabet, uc.topology))


if __name__ == "__main__":
    main()
