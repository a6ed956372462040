"""Pattern-based procedural content generation.

Three interchangeable engines over one rule formalism: classical
minimum-entropy collapse, an exact circuit construction executed on a
statevector simulator, and a partitioned hybrid of the two.  Ships with a
brute-force chain-rule oracle, five demonstration use cases, renderers and
an OpenQASM 3 exporter.
"""

from .classic import cwfc_generate, shannon_entropy
from .config import RunConfig, load_config, parse_config, serialize_config
from .errors import (
    BudgetExceededError,
    CapacityError,
    ConfigError,
    ConflictError,
    ContractError,
    GenerationError,
    RestartsExhaustedError,
    SelectorContractError,
)
from .framework import (
    RandomSource,
    SelectorViolation,
    exact_distribution_oracle,
    fixed_order_selector,
    generate,
    ruleset_value_selector,
    validate_selectors,
    with_restarts,
)
from .hybrid import (
    Partitioning,
    equal_blocks,
    hwfc_exact_distribution,
    hwfc_generate,
    validate_partitioning,
)
from .model import (
    AdjacencyConfig,
    Alphabet,
    ContentInstance,
    Distribution,
    FunctionalWeight,
    Pattern,
    Rule,
    Ruleset,
    Symbol,
    bits_per_value,
    decode_values,
    encode_values,
    make_alphabet,
    make_factor,
    value_distribution,
    value_entropy,
)
from .quantum import (
    CircuitProgram,
    ConditionalLoad,
    ControlledRY,
    GateList,
    QubitLayout,
    SparseState,
    XGate,
    build_circuit,
    dependency_set,
    exact_distribution,
    export_qasm,
    lower_to_gates,
    sample_shots,
    simulate,
)
from .render import FORMATS, render, render_ascii, render_ppm, render_structured, render_voxel_slices
from .topology import Topology, grid2d_topology, grid3d_topology, hexgrid_topology
from .usecases import (
    UseCase,
    checkerboard_usecase,
    generate_hexmap_ruleset,
    generate_pipes_ruleset,
    hexmap_usecase,
    pipes_usecase,
    platformer_ruleset,
    platformer_usecase,
    voxel_skyline_ruleset,
    voxel_skyline_usecase,
)

__version__ = "0.1.0"
