"""Golden outputs: samples and circuits pinned to values recorded before the
circuit compiler and simulator were last rewritten.

Same config and seed must give the same outputs.  A change that moves any
value here changes what users get, and must say why and re-check the
sampling criteria before updating the numbers.
"""

import hashlib

import pytest

from qcollapse import (
    ConflictError,
    RandomSource,
    build_circuit,
    encode_values,
    exact_distribution,
    hwfc_generate,
    simulate,
)
from qcollapse.usecases import (
    checkerboard_usecase,
    hexmap_usecase,
    pipes_usecase,
    platformer_usecase,
    voxel_skyline_usecase,
)

HWFC_SEED = 2024

# canonical keys of three consecutive hwfc instances from RandomSource(HWFC_SEED)
HWFC_KEYS = {
    "pipes-10x4": (
        lambda: pipes_usecase(10, 4),
        [
            86076978847997096234795587135913300,
            476802802165001217952692616261601787,
            53716259707674764597154162811350089,
        ],
    ),
    "platformer-10x10": (
        lambda: platformer_usecase(10, 10),
        [
            1164020557905420620724819301855651965689146196760784556780977248479954628464069998700134400,
            1164020557905420620724826107662100108583953056533327681623668909369719788932921223259619328,
            1164020557905420621383942871028340327626425499212074290160805272554195664676495829187428352,
        ],
    ),
    "voxels-4x4x4": (
        lambda: voxel_skyline_usecase(4, 4, 4),
        [288234774399790339, 34966404844, 576469548531735569],
    ),
    "hexmap-r3": (
        lambda: hexmap_usecase(3, n_partitions=8),
        [6757651617570693933654, 1254451781903473251669, 12274769473244642253718],
    ),
}

# per qwfc circuit: (loads, qubits, support size, sha256 of the sorted support keys)
QWFC_CIRCUITS = {
    "checkerboard-3x3": (
        lambda: checkerboard_usecase(3, 3),
        (17, 9, 2, "e53bf471e6e624818faefbc50a37274d9b33f319d26f35d6d96f3cae4a5fdfeb"),
    ),
    "pipes-2x2": (
        lambda: pipes_usecase(2, 2),
        (81, 12, 256, "3504b1f75872b352d4bfec02168af85106d77505ff135c9a6807c01109ff2bd7"),
    ),
    "hexmap-r1": (
        lambda: hexmap_usecase(1),
        (71, 14, 526, "69f8bcf86a673c76210a0298006f7016ab29b8cbd8e5f8e9337e47a5e396ad51"),
    ),
    "platformer-3x2": (
        lambda: platformer_usecase(3, 2),
        (6, 18, 27, "86511104991c6646d3fdabeafdee0dc03dcee317a637171906a805b5c0740719"),
    ),
    "voxels-2x2x3": (
        lambda: voxel_skyline_usecase(2, 2, 3),
        (20, 12, 256, "a51efbcab2392d4bf860a4779f9b22336017adf1b50d4724163f0baa78458502"),
    ),
}


@pytest.mark.parametrize("world", sorted(HWFC_KEYS))
def test_hwfc_samples_golden(world):
    make, expected = HWFC_KEYS[world]
    uc = make()
    n_values = uc.alphabet.n_values
    segments = tuple(range(1, uc.adjacency.n_segments + 1))
    rng = RandomSource(HWFC_SEED)
    keys = []
    for _ in expected:
        try:
            instance = hwfc_generate(uc.adjacency, n_values, uc.ruleset, uc.partitioning, rng)
        except ConflictError:
            keys.append(None)
        else:
            keys.append(encode_values(instance.mapping, segments, n_values))
    assert keys == expected


@pytest.mark.parametrize("world", sorted(QWFC_CIRCUITS))
def test_qwfc_circuit_golden(world):
    make, expected = QWFC_CIRCUITS[world]
    uc = make()
    circuit = build_circuit(uc.adjacency, uc.alphabet.n_values, uc.ruleset, uc.order)
    support = sorted(exact_distribution(simulate(circuit), circuit.layout).probs)
    digest = hashlib.sha256(",".join(map(str, support)).encode()).hexdigest()
    assert (len(circuit.loads), circuit.n_qubits, len(support), digest) == expected
