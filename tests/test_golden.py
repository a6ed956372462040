"""Golden outputs: samples and circuits pinned to values recorded before the
code that produces them was last rewritten.

Same config and seed must give the same outputs.  A change that moves any
value here changes what users get, and must say why and re-check the
sampling criteria before updating the numbers.
"""

import hashlib
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import chain_adjacency, conflict_free_ruleset, simulate_loads

from qcollapse import (
    ConflictError,
    ContentInstance,
    Pattern,
    RandomSource,
    RestartsExhaustedError,
    Rule,
    build_circuit,
    cwfc_generate,
    encode_values,
    equal_blocks,
    exact_distribution,
    export_qasm,
    hwfc_generate,
    lower_to_gates,
    sample_shots,
    with_restarts,
)
from qcollapse.cli import main
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
        lambda: replace(hexmap_usecase(3), partitioning=equal_blocks(37, 8)),
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


# sha256 of export_qasm(lower_to_gates(build_circuit(...))): pins the order
# of the loads and their angles, which the circuit pins above do not see.
# Checkerboard 8x8 (64 qubits) compiles past the int64 basis-index limit,
# and pipes 10x4's second column compiles under a frozen first column.
QASM_DIGESTS = {
    "checkerboard-3x3": "f287cf089128fe520b3820409c9ebbbf45b3fe396a2134623f5efbd625ef9eaa",
    "hexmap-r1": "e9b936e23c99b7326cf720db0ea55d8e5151814d09118bd2d6e24e3cbd37884a",
    "pipes-2x2": "68c15d76b81d2f737e96414b533fbd5f8dd5637ca584fcbed5de2d8f314c3718",
    "platformer-3x2": "937e506cd319b138bc396ea69ea59cf7c41e9d50c68df1f518fedc9ac414dacd",
    "voxels-2x2x3": "9cc970f5344add5a7615c7f7ed58e47717c601f0ef4276da27722ddaa6b1453e",
    "checkerboard-8x8": "5ce83ad72ff0a053c2d4aa8071340c258f9594a4aeb528b602df3e4e95ec28da",
    "pipes-10x4-column-2": "b234da4cc09fcb5c84f534edd2b811baca04935f98658ae502589eac91183891",
}


def _qasm_circuit(world):
    if world in QWFC_CIRCUITS:
        uc = QWFC_CIRCUITS[world][0]()
        return build_circuit(uc.adjacency, uc.alphabet.n_values, uc.ruleset, uc.order)
    if world == "checkerboard-8x8":
        uc = checkerboard_usecase(8, 8)
        return build_circuit(uc.adjacency, 2, uc.ruleset, uc.order)
    uc = pipes_usecase(10, 4)
    column_1 = ContentInstance(((1, 5), (11, 6), (21, 4), (31, 6)))
    return build_circuit(uc.adjacency, 8, uc.ruleset, uc.partitioning.blocks[1], frozen=column_1)


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


def _chain_of_three_values():
    """An 11-segment chain over W = 3 (q = 2): each value follows any other
    one, weighted by both, plus a small floor; 177,147 outcomes."""
    rules = [Rule(v, float(u + 2 * v), Pattern.of((2, u))) for u in (1, 2, 3) for v in (1, 2, 3) if u != v]
    ruleset = conflict_free_ruleset(rules, 3, floor=0.1)
    return SimpleNamespace(
        adjacency=chain_adjacency(11), alphabet=SimpleNamespace(n_values=3), ruleset=ruleset, order=tuple(range(1, 12))
    )


# sha256 of the canonical keys of the first 1,000 qwfc shots from
# RandomSource(SAMPLE_SEED); the last three, recorded before shots were
# decoded from per-chunk tables, cover chunks of 3 segments at q = 3, of
# 5 at q = 2 (11 segments: 5, 5, 1) and of 10 at q = 1 (49 qubits: 10 x 4, 9)
SHOT_KEYS = {
    "voxels-3x3x2": (
        lambda: voxel_skyline_usecase(3, 3, 2),
        "ad6df77acc32cf4c0ba315ddae6153319d6a0146fe96c6885bea26d5d4a84cfe",
    ),
    "platformer-3x2": (
        lambda: platformer_usecase(3, 2),
        "448947c7599da4ce6a39494fbfad0b71e56f4a155fc808f1a7cf65d9b2b6ad6b",
    ),
    "pipes-3x3": (
        lambda: pipes_usecase(3, 3),
        "f07f50de79f32382e884693d52cb97f831e1d3f93039efa8d295774893e24eb6",
    ),
    "chain-11-w3": (
        _chain_of_three_values,
        "50aa93ecf694fb776529a0e03bed5c02be5970fb9e2e657c4ba8f1beb7f479de",
    ),
    "checkerboard-7x7": (
        lambda: checkerboard_usecase(7, 7),
        "410507e08f13028e14be21268d789bf33100d2a8586fcbd3069d3374bdca6ae5",
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


# sha256 of the canonical keys of one hwfc instance from each of
# RandomSource(0) .. RandomSource(19), each restarted on its own stream after
# a conflict: pins every block draw of the benchmark's hwfc worlds
HWFC_STREAM_DIGESTS = {
    "pipes-10x4": "8c7006faf16df081c13e315f63b694fe13bc6368d1706f0783b562047205708b",
    "platformer-10x10": "16c9883c820f07704fc0b03a7382c957e66133618ef5296aeed3eeffb4c4ad75",
    "voxels-4x4x4": "2297b16936bf4eac380d832dee64867b71b4af4b6e1124e0a73dfd5a111447c7",
    "hexmap-r3": "22a6b7a070bef4617b628594b718891f1d1b80226dadbbd12a51562f4fb291fd",
}


@pytest.mark.parametrize("world", sorted(HWFC_STREAM_DIGESTS))
def test_hwfc_stream_golden(world):
    uc = HWFC_KEYS[world][0]()
    n_values = uc.alphabet.n_values
    segments = tuple(range(1, uc.adjacency.n_segments + 1))
    keys = []
    for seed in range(20):
        rng = RandomSource(seed)
        instance = with_restarts(
            lambda: hwfc_generate(uc.adjacency, n_values, uc.ruleset, uc.partitioning, rng), 10
        )
        keys.append(encode_values(instance.mapping, segments, n_values))
    assert _digest(keys) == HWFC_STREAM_DIGESTS[world]


@pytest.mark.parametrize("world", sorted(QWFC_CIRCUITS))
def test_qwfc_circuit_golden(world):
    make, expected = QWFC_CIRCUITS[world]
    uc = make()
    circuit = build_circuit(uc.adjacency, uc.alphabet.n_values, uc.ruleset, uc.order)
    support = sorted(exact_distribution(simulate_loads(circuit), circuit.layout).probs)
    digest = hashlib.sha256(",".join(map(str, support)).encode()).hexdigest()
    assert (len(circuit.loads), circuit.n_qubits, len(support), digest) == expected



@pytest.mark.parametrize("world", sorted(QASM_DIGESTS))
def test_qasm_golden_digest(world):
    circuit = _qasm_circuit(world)
    text = export_qasm(lower_to_gates(circuit), circuit.layout)
    assert hashlib.sha256(text.encode()).hexdigest() == QASM_DIGESTS[world]

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
    shots = sample_shots(simulate_loads(circuit), circuit.layout, 1000, RandomSource(SAMPLE_SEED))
    layout = circuit.layout
    assert _digest(encode_values(s.mapping, layout.segments, layout.n_values) for s in shots) == expected


DEMO_CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"

# per demo config: (exit code, sha256 of the --out directory) as configured
# and with --exact-dist.  The hwfc demos exceed the exact enumeration's
# budget, so their second run exits 4 having written nothing.
NOTHING_WRITTEN = hashlib.sha256().hexdigest()
DEMO_ARTIFACTS = {
    "checkerboard.yaml": (
        (0, "ddc7445211d4bfda8ae26b373e2428fb1a2f201ed2da78810f37450533840fae"),
        (0, "9c85a4ea4e62594353add7237f1f061ba4b75fa4a8bd2e2fc6b7160dcadeed42"),
    ),
    "custom_stripes.yaml": (
        (0, "a2c86921eb1cd964d020044421d7587c60bff4b639f2ab53dd199a72ea2d629f"),
        (0, "a2c86921eb1cd964d020044421d7587c60bff4b639f2ab53dd199a72ea2d629f"),
    ),
    "hexmap.yaml": (
        (0, "00e123f11eebe88f5ed93752ed6ab51dbf98f847f37b5fa387d5d9ada85945f2"),
        (4, NOTHING_WRITTEN),
    ),
    "pipes.yaml": (
        (0, "b28dfad2f9cd5c673e9e847d8d76c8f589cbfffad17b653fe16c766ee62d6781"),
        (4, NOTHING_WRITTEN),
    ),
    "platformer.yaml": (
        (0, "5be1fecd581bcf3fc5f3300ec8a5bb7f34de5e24bbe22080173c6c481a2b81d0"),
        (4, NOTHING_WRITTEN),
    ),
    "voxel.yaml": (
        (0, "adc0f0cc2c4516a477ac7a8a8fb869f0416f723c1bd645b236fa7ac869a36914"),
        (4, NOTHING_WRITTEN),
    ),
}


def _out_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()) if out.exists() else ():
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("config", sorted(p.name for p in DEMO_CONFIGS.glob("*.yaml")))
def test_demo_artifacts_golden(tmp_path, capsys, config):
    got = []
    for extra in ([], ["--exact-dist"]):
        out = tmp_path / str(len(got))
        code = main(["--config", str(DEMO_CONFIGS / config), "--out", str(out), *extra])
        got.append((code, _out_digest(out)))
    capsys.readouterr()
    assert tuple(got) == DEMO_ARTIFACTS[config]


# per demo config: (exit code, sha256 of the --out directory) under
# --mode cwfc --shots 3, which pins the CLI's cwfc path for every config
DEMO_CWFC_ARTIFACTS = {
    "checkerboard.yaml": (0, "83719b710f7c9369bd0b0ecc69356be885beb776706ebdb1acf7f28e432296f3"),
    "custom_stripes.yaml": (0, "590a6ca2f563ff5daa744c20253b0e72117d545fbd88a416142e9b9eee982b26"),
    "hexmap.yaml": (0, "fb2aaf562eac75f825c6b3bb2c8932d5ba18bd57b4124e11e1b2b9ee7a6b4def"),
    "pipes.yaml": (0, "d28cfb181c935166c3a2bbf6002ea0a8b1b65771795271118c83b4645e8b1340"),
    "platformer.yaml": (0, "cad311cb265b93a8ac3fd38c4edcb7b4df79d3ca749ed9722a85c14931dbc7e9"),
    "voxel.yaml": (0, "ae4ad9828e729d264bd3cc480d0398ac417ba435497c7d88921bd9ba10f453ad"),
}


@pytest.mark.parametrize("config", sorted(p.name for p in DEMO_CONFIGS.glob("*.yaml")))
def test_demo_cwfc_artifacts_golden(tmp_path, capsys, config):
    out = tmp_path / "cwfc"
    code = main(["--config", str(DEMO_CONFIGS / config), "--out", str(out), "--mode", "cwfc", "--shots", "3"])
    capsys.readouterr()
    assert (code, _out_digest(out)) == DEMO_CWFC_ARTIFACTS[config]
