"""Circuit compilation and statevector simulation for order-driven generation.

A ruleset plus a fixed segment order compiles into an ordered list of
conditional probability loads: each load prepares one segment's qubit group
in the square roots of its value distribution, conditioned on a basis
assignment of previously prepared groups.  The built-in simulator executes
these loads exactly; a lowering pass turns them into X and multi-controlled
RY gates for export as OpenQASM 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, ConflictError, ContractError
from .framework import RandomSource
from .model import (
    AdjacencyConfig,
    ContentInstance,
    Distribution,
    Ruleset,
    bits_per_value,
    decode_values,
    encode_values,
    value_distribution,
)

_AMP_NORM_TOL = 1e-12
_SIM_NORM_TOL = 1e-9
_PROB_CUTOFF = 1e-15  # exact_distribution drops basis states at or below this

DEFAULT_QUBIT_CAP = 26  # ~1 GiB of complex128 amplitudes
DEFAULT_LOAD_CAP = 4096  # reachable control assignments per iteration
DEFAULT_SUPPORT_CAP = 1 << 20  # reachable partial assignments while compiling


@dataclass(frozen=True)
class QubitLayout:
    """Mapping from segment ids to qubit groups.

    Segments are kept in ascending order; the j-th segment's group occupies
    qubits j*q .. (j+1)*q-1 with the value stored little-endian as v-1.  For
    a full circuit over segments 1..N this reproduces the canonical integer
    encoding of complete instances.
    """

    segments: tuple[int, ...]
    n_values: int

    def __post_init__(self):
        if tuple(sorted(self.segments)) != self.segments:
            raise ValueError("layout segments must be ascending")

    @property
    def bits_per_value(self) -> int:
        return bits_per_value(self.n_values)

    @property
    def n_qubits(self) -> int:
        return len(self.segments) * self.bits_per_value

    @cached_property
    def _positions(self) -> dict[int, int]:
        return {seg: pos for pos, seg in enumerate(self.segments)}

    def group_offset(self, segment: int) -> int:
        """Index of the segment's least significant qubit."""
        return self._positions[segment] * self.bits_per_value

    def encode(self, values) -> int:
        return encode_values(values, self.segments, self.n_values)

    def decode(self, basis: int) -> ContentInstance:
        return ContentInstance(decode_values(basis, self.segments, self.n_values))


@dataclass(frozen=True)
class ConditionalLoad:
    """Prepare ``target``'s group in ``amplitudes`` where ``controls`` match.

    ``controls`` is a set of (segment id, required value) pairs over groups
    prepared in earlier iterations; ``amplitudes`` are the nonnegative square
    roots of the target's value distribution under that assignment.
    """

    step: int
    controls: tuple[tuple[int, int], ...]
    target: int
    amplitudes: tuple[float, ...]

    def __post_init__(self):
        if any(seg == self.target for seg, _ in self.controls):
            raise ValueError("load target cannot be one of its own controls")
        norm = math.fsum(a * a for a in self.amplitudes)
        if abs(norm - 1.0) > _AMP_NORM_TOL:
            raise ValueError(f"load amplitudes have squared norm {norm}, expected 1")


@dataclass(frozen=True)
class CircuitProgram:
    """Ordered conditional loads over a qubit layout."""

    layout: QubitLayout
    loads: tuple[ConditionalLoad, ...]

    @property
    def n_qubits(self) -> int:
        return self.layout.n_qubits


def dependency_set(
    k: int, order: tuple[int, ...], adjacency: AdjacencyConfig, ruleset: Ruleset
) -> frozenset[int]:
    """Already-ordered segments that can influence the k-th segment's value.

    Static over-approximation: any earlier segment adjacent to the target in
    a direction that appears in some rule pattern.
    """
    target = order[k - 1]
    dirs = ruleset._compiled(adjacency.n_directions).pattern_directions
    earlier = set(order[: k - 1])
    deps = set()
    for d in dirs:
        for s in adjacency.neighbors(target, d):
            if s in earlier:
                deps.add(s)
    return frozenset(deps)


def build_circuit(
    adjacency: AdjacencyConfig,
    n_values: int,
    ruleset: Ruleset,
    order: tuple[int, ...],
    frozen: ContentInstance | None = None,
    max_loads_per_step: int = DEFAULT_LOAD_CAP,
    max_support: int = DEFAULT_SUPPORT_CAP,
) -> CircuitProgram:
    """Compile (ruleset, adjacency, order) into conditional loads.

    Only control assignments reachable under forward support propagation get
    a load; unreachable assignments carry zero amplitude and can be skipped
    without changing the prepared state.  Frozen segments never receive
    qubits; they are folded into the classical pattern evaluation.

    The frontier holds assignments of the boundary only: the placed segments
    that some later step still names as a dependency.  Each boundary
    assignment carries the number of reachable full assignments that project
    onto it, and ``max_support`` caps the sum of those counts.
    """
    order = tuple(order)
    if len(set(order)) != len(order):
        raise ValueError("segment order must not repeat ids")
    if frozen is not None and set(order) & set(frozen.mapping):
        raise ValueError("segment order overlaps the frozen context")

    layout = QubitLayout(tuple(sorted(order)), n_values)
    step_deps = [
        sorted(dependency_set(k, order, adjacency, ruleset)) for k in range(1, len(order) + 1)
    ]
    last_use = {seg: k for k, deps in enumerate(step_deps, start=1) for seg in deps}
    loads: list[ConditionalLoad] = []
    boundary: tuple[int, ...] = ()
    frontier: dict[tuple[int, ...], int] = {(): 1}

    for k, (target, deps) in enumerate(zip(order, step_deps), start=1):
        position = {seg: pos for pos, seg in enumerate(boundary)}
        dep_pos = [position[s] for s in deps]
        assignments = sorted({tuple(a[p] for p in dep_pos) for a in frontier})
        if len(assignments) > max_loads_per_step:
            raise CapacityError(
                f"{len(assignments)} control assignments at iteration {k} "
                f"exceed the cap of {max_loads_per_step}"
            )
        support: dict[tuple[int, ...], tuple[int, ...]] = {}
        for assignment in assignments:
            context = ContentInstance(tuple(zip(deps, assignment)))
            try:
                probs = value_distribution(target, adjacency, context, ruleset, n_values, frozen)
            except ConflictError:
                raise ConflictError(target, context, f"while compiling iteration {k}") from None
            loads.append(
                ConditionalLoad(
                    step=k,
                    controls=tuple(zip(deps, assignment)),
                    target=target,
                    amplitudes=tuple(float(a) for a in np.sqrt(probs)),
                )
            )
            support[assignment] = tuple(int(v) + 1 for v in np.nonzero(probs > 0.0)[0])

        extended = boundary + (target,)
        keep = [p for p, seg in enumerate(extended) if last_use.get(seg, 0) > k]
        boundary = tuple(extended[p] for p in keep)
        reachable = 0
        projected: dict[tuple[int, ...], int] = {}
        for a, count in frontier.items():
            values = support[tuple(a[p] for p in dep_pos)]
            reachable += count * len(values)
            for v in values:
                key = tuple((a + (v,))[p] for p in keep)
                projected[key] = projected.get(key, 0) + count
        if reachable > max_support:
            raise CapacityError(
                f"reachable support grew past {max_support} at iteration {k}"
            )
        frontier = projected
    return CircuitProgram(layout, tuple(loads))


# --------------------------------------------------------------------------
# statevector execution
# --------------------------------------------------------------------------


def _control_qubits(load: ConditionalLoad, layout: QubitLayout) -> list[tuple[int, int]]:
    q = layout.bits_per_value
    bits = []
    for seg, val in load.controls:
        off = layout.group_offset(seg)
        for j in range(q):
            bits.append((off + j, (val - 1) >> j & 1))
    return bits


def _split_selectors(bits, t0, width, n_qubits):
    """Boolean masks over the high/low index factors around a target block."""
    hi_dim = 1 << (n_qubits - t0 - width)
    lo_dim = 1 << t0
    hi_sel = np.ones(hi_dim, dtype=bool)
    lo_sel = np.ones(lo_dim, dtype=bool)
    for qubit, bit in bits:
        if qubit < t0:
            lo_sel &= ((np.arange(lo_dim) >> qubit) & 1) == bit
        else:
            hi_sel &= ((np.arange(hi_dim) >> (qubit - t0 - width)) & 1) == bit
    return np.nonzero(hi_sel)[0], np.nonzero(lo_sel)[0]


def simulate(circuit: CircuitProgram, memory_cap_qubits: int = DEFAULT_QUBIT_CAP) -> np.ndarray:
    """Execute the conditional loads from |0>; returns the final statevector.

    The loads act on the support only: basis indices and amplitudes of the
    nonzero entries, which a load's controls match with one bitmask compare.
    The 2^Q statevector is written once, at the end.

    Raises CapacityError above the qubit cap and ContractError if a load
    finds its target group outside the ground state on a matched subspace
    (which signals a malformed circuit).
    """
    n_qubits = circuit.n_qubits
    if n_qubits > memory_cap_qubits:
        raise CapacityError(f"{n_qubits} qubits exceed the cap of {memory_cap_qubits}")
    layout = circuit.layout
    group = (1 << layout.bits_per_value) - 1
    idx = np.zeros(1, dtype=np.int64)
    amp = np.ones(1, dtype=np.complex128)

    for load in circuit.loads:
        cmask = cval = 0
        for seg, val in load.controls:
            off = layout.group_offset(seg)
            cmask |= group << off
            cval |= ((val - 1) & group) << off
        matched = (idx & cmask) == cval
        t0 = layout.group_offset(load.target)
        base_idx = idx[matched]
        base_amp = amp[matched]
        lifted = (base_idx & (group << t0)) != 0
        if lifted.any():
            if np.abs(base_amp[lifted]).max() > _SIM_NORM_TOL:
                raise ContractError(
                    f"target group of segment {load.target} not in the ground state "
                    f"on the control subspace at step {load.step}"
                )
            base_idx = base_idx[~lifted]
            base_amp = base_amp[~lifted]
        amplitudes = np.array(load.amplitudes)
        values = np.nonzero(amplitudes)[0]
        idx = np.concatenate(
            [idx[~matched], (base_idx[:, None] | (values << t0)[None, :]).ravel()]
        )
        amp = np.concatenate(
            [amp[~matched], (base_amp[:, None] * amplitudes[values][None, :]).ravel()]
        )

    norm = np.linalg.norm(amp)
    if abs(norm - 1.0) > _SIM_NORM_TOL:
        raise ContractError(f"statevector norm drifted to {norm}")
    psi = np.zeros(1 << n_qubits, dtype=np.complex128)
    psi[idx] = amp
    return psi


def exact_distribution(statevector: np.ndarray, layout: QubitLayout) -> Distribution:
    """Squared amplitudes as a distribution over basis integers."""
    probs = np.abs(statevector) ** 2
    keys = np.nonzero(probs > _PROB_CUTOFF)[0]
    return Distribution(
        layout.segments, layout.n_values, {int(i): float(probs[i]) for i in keys}
    )


def sample_shots(
    statevector: np.ndarray, layout: QubitLayout, shots: int, rng: RandomSource
) -> list[ContentInstance]:
    """Independent measurement samples, deterministic under a fixed seed."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = np.abs(statevector) ** 2
    support = np.nonzero(probs > 0.0)[0]
    weights = probs[support]
    return [layout.decode(int(b)) for b in support[rng.categorical(weights, shots)]]


# --------------------------------------------------------------------------
# gate-level lowering
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class XGate:
    qubit: int


@dataclass(frozen=True)
class ControlledRY:
    """RY on ``target`` conditioned on (qubit, polarity) pairs; may have none."""

    controls: tuple[tuple[int, int], ...]
    target: int
    angle: float


@dataclass(frozen=True)
class GateList:
    n_qubits: int
    gates: tuple


def lower_to_gates(circuit: CircuitProgram) -> GateList:
    """Lower each load to X-conjugated multi-controlled RY rotations.

    The target group is prepared by a binary tree of rotations, most
    significant bit first; subtree masses fix each angle via
    theta = 2*atan2(sqrt(right mass), sqrt(left mass)).
    """
    layout = circuit.layout
    q = layout.bits_per_value
    gates: list = []
    for load in circuit.loads:
        ctrl_bits = _control_qubits(load, layout)
        flips = [qubit for qubit, bit in ctrl_bits if bit == 0]
        base = tuple((qubit, 1) for qubit, _ in ctrl_bits)
        t0 = layout.group_offset(load.target)
        mass = np.zeros(1 << q)
        mass[: len(load.amplitudes)] = np.square(load.amplitudes)

        gates.extend(XGate(f) for f in flips)

        def descend(bit, lo, hi, prefix):
            if bit < 0:
                return
            mid = (lo + hi) // 2
            m0 = mass[lo:mid].sum()
            m1 = mass[mid:hi].sum()
            if m0 + m1 <= 0.0:
                return
            theta = 2.0 * math.atan2(math.sqrt(m1), math.sqrt(m0))
            if theta != 0.0:
                gates.append(ControlledRY(base + prefix, t0 + bit, theta))
            descend(bit - 1, lo, mid, prefix + ((t0 + bit, 0),))
            descend(bit - 1, mid, hi, prefix + ((t0 + bit, 1),))

        descend(q - 1, 0, 1 << q, ())
        gates.extend(XGate(f) for f in flips)
    return GateList(layout.n_qubits, tuple(gates))


def simulate_gates(gatelist: GateList) -> np.ndarray:
    """Reference executor for lowered gates (round-trip checks, small Q)."""
    n_qubits = gatelist.n_qubits
    psi = np.zeros(1 << n_qubits, dtype=np.complex128)
    psi[0] = 1.0
    for gate in gatelist.gates:
        if isinstance(gate, XGate):
            t = gate.qubit
            view = psi.reshape(1 << (n_qubits - t - 1), 2, 1 << t)
            view[:, [0, 1], :] = view[:, [1, 0], :]
        else:
            t = gate.target
            view = psi.reshape(1 << (n_qubits - t - 1), 2, 1 << t)
            hi_idx, lo_idx = _split_selectors(gate.controls, t, 1, n_qubits)
            if len(hi_idx) == 0 or len(lo_idx) == 0:
                continue
            sel = np.ix_(hi_idx, np.arange(2), lo_idx)
            block = view[sel]
            c = math.cos(gate.angle / 2.0)
            s = math.sin(gate.angle / 2.0)
            view[sel] = np.stack(
                [c * block[:, 0, :] - s * block[:, 1, :],
                 s * block[:, 0, :] + c * block[:, 1, :]],
                axis=1,
            )
    return psi


def export_qasm(gatelist: GateList, layout: QubitLayout) -> str:
    """OpenQASM 3 program for the lowered gates, with terminal measurement.

    Control polarities use ctrl/negctrl modifiers, which stdgates-compliant
    toolchains accept natively.
    """
    n = gatelist.n_qubits
    lines = [
        "OPENQASM 3.0;",
        'include "stdgates.inc";',
        f"// layout: segments={list(layout.segments)} bits_per_value={layout.bits_per_value}",
        f"qubit[{n}] q;",
        f"bit[{n}] c;",
    ]
    for gate in gatelist.gates:
        if isinstance(gate, XGate):
            lines.append(f"x q[{gate.qubit}];")
        else:
            mods = "".join(
                ("ctrl @ " if pol else "negctrl @ ") for _, pol in gate.controls
            )
            operands = [f"q[{qb}]" for qb, _ in gate.controls] + [f"q[{gate.target}]"]
            lines.append(f"{mods}ry({gate.angle!r}) {', '.join(operands)};")
    lines.append("c = measure q;")
    return "\n".join(lines) + "\n"
