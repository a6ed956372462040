"""Golden outputs: samples and circuits pinned to values recorded before the
code that produces them was last rewritten.

Same config and seed must give the same outputs.  A change that moves any
value here changes what users get, and must say why and re-check the
sampling criteria before updating the numbers.
"""

import hashlib

import pytest

from qcollapse import (
    ConflictError,
    RandomSource,
    RestartsExhaustedError,
    build_circuit,
    cwfc_generate,
    encode_values,
    exact_distribution,
    hwfc_generate,
    sample_shots,
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


SAMPLE_SEED = 2024

# sha256 of the canonical keys of three consecutive cwfc instances from
# RandomSource(SAMPLE_SEED)
CWFC_KEYS = {
    "hexmap-r6": (
        lambda: hexmap_usecase(6),
        "ee9feb156104946e572339b7af21a7c262b7ee5a7b84c5e4709d017840e78ad5",
    ),
    "pipes-20x8": (
        lambda: pipes_usecase(20, 8),
        "5f05e2b5e6ca9b8827ea41b89c5a7a1835b6a7d3ee4af308549c68a67a3ed9df",
    ),
    "checkerboard-16x16": (
        lambda: checkerboard_usecase(16, 16),
        "d1808667eb58ef873d0849061a937f8579101593a3b40e92e6f6363810aac0e0",
    ),
    "platformer-10x10": (
        lambda: platformer_usecase(10, 10),
        "60a6823313af648f374892705b3392f67ee641e3118a07a8566869b05dec5a83",
    ),
}

# sha256 of the canonical keys of the first 1,000 qwfc shots from
# RandomSource(SAMPLE_SEED)
SHOT_KEYS = {
    "voxels-3x3x2": (
        lambda: voxel_skyline_usecase(3, 3, 2),
        "ad6df77acc32cf4c0ba315ddae6153319d6a0146fe96c6885bea26d5d4a84cfe",
    ),
    "platformer-3x2": (
        lambda: platformer_usecase(3, 2),
        "448947c7599da4ce6a39494fbfad0b71e56f4a155fc808f1a7cf65d9b2b6ad6b",
    ),
}


def _digest(keys) -> str:
    return hashlib.sha256(",".join(map(str, keys)).encode()).hexdigest()


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


@pytest.mark.parametrize("world", sorted(CWFC_KEYS))
def test_cwfc_samples_golden(world):
    make, expected = CWFC_KEYS[world]
    uc = make()
    n_values = uc.alphabet.n_values
    segments = tuple(range(1, uc.adjacency.n_segments + 1))
    rng = RandomSource(SAMPLE_SEED)
    keys = []
    for _ in range(3):
        try:
            instance = cwfc_generate(uc.adjacency, uc.alphabet, uc.ruleset, rng)
        except RestartsExhaustedError:
            keys.append(None)
        else:
            keys.append(encode_values(instance.mapping, segments, n_values))
    assert _digest(keys) == expected


@pytest.mark.parametrize("world", sorted(SHOT_KEYS))
def test_qwfc_shots_golden(world):
    make, expected = SHOT_KEYS[world]
    uc = make()
    circuit = build_circuit(uc.adjacency, uc.alphabet.n_values, uc.ruleset, uc.order)
    shots = sample_shots(simulate(circuit), circuit.layout, 1000, RandomSource(SAMPLE_SEED))
    assert _digest(circuit.layout.encode(s.mapping) for s in shots) == expected
