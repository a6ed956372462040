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
from dataclasses import dataclass, field
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
    value_distribution,
)

_AMP_NORM_TOL = 1e-12
_SIM_NORM_TOL = 1e-9
_PROB_CUTOFF = 1e-15  # exact_distribution drops basis states at or below this

DEFAULT_QUBIT_CAP = 26  # ~1 GiB of complex128 amplitudes in a dense view
INDEX_QUBIT_LIMIT = 63  # basis indices are int64
DEFAULT_LOAD_CAP = 4096  # reachable control assignments per iteration
DEFAULT_SUPPORT_CAP = 1 << 20  # reachable partial assignments while compiling
_PLAN_CACHE_CAP = 1 << 12  # order plans kept per compiled ruleset


@dataclass(frozen=True)
class QubitLayout:
    """Mapping from segment ids to qubit groups.

    Segments are strictly ascending; the j-th segment's group occupies
    qubits j*q .. (j+1)*q-1 with the value stored little-endian as v-1.  For
    a full circuit over segments 1..N this reproduces the canonical integer
    encoding of complete instances.
    """

    segments: tuple[int, ...]
    n_values: int

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.segments, self.segments[1:])):
            raise ValueError("layout segments must be strictly ascending")

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

    def decode_many(self, keys: np.ndarray) -> list[ContentInstance]:
        """The instance each int64 basis key encodes, decoded with array shifts and masks."""
        q = self.bits_per_value
        shifts = np.arange(len(self.segments), dtype=np.int64) * q
        values = ((keys[:, None] >> shifts[None, :]) & ((1 << q) - 1)) + 1
        bad = (values > self.n_values).any(axis=1)
        if bad.any():
            raise ValueError(f"basis key {int(keys[bad][0])} decodes outside the alphabet")
        return [ContentInstance(tuple(zip(self.segments, row))) for row in values.tolist()]


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
    """Ordered conditional loads over a qubit layout.

    ``state`` is the state the loads prepare, as ``simulate`` returns it,
    when ``build_circuit`` walked it: None past INDEX_QUBIT_LIMIT qubits and
    for programs built by hand.  It takes no part in comparisons.
    """

    layout: QubitLayout
    loads: tuple[ConditionalLoad, ...]
    state: SparseState | None = field(default=None, compare=False)

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
    return frozenset(order_plan(adjacency, ruleset, tuple(order))[0][k - 1])


def order_plan(
    adjacency: AdjacencyConfig, ruleset: Ruleset, order: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Each step's ``dependency_set``, sorted, and the order's boundary: the
    sorted segments outside it adjacent to one of its segments in any
    direction.  Made once per (adjacency, order) and kept on the compiled
    ruleset, up to ``_PLAN_CACHE_CAP`` plans."""
    comp = ruleset.compiled
    key = (adjacency, order)
    plan = comp.plans.get(key)
    if plan is None:
        comp.check(adjacency.n_directions)
        step = {seg: k for k, seg in enumerate(order)}
        deps = []
        for k, target in enumerate(order):
            adjacent = {s for d in comp.pattern_directions for s in adjacency.neighbors(target, d)}
            deps.append(tuple(sorted(s for s in adjacent if step.get(s, k) < k)))
        dirs = range(1, adjacency.n_directions + 1)
        near = {s for seg in order for d in dirs for s in adjacency.neighbors(seg, d)}
        plan = tuple(deps), tuple(sorted(near.difference(order)))
        if len(comp.plans) < _PLAN_CACHE_CAP:
            comp.plans[key] = plan
    return plan


def build_circuit(
    adjacency: AdjacencyConfig,
    n_values: int,
    ruleset: Ruleset,
    order: tuple[int, ...],
    frozen: ContentInstance | None = None,
) -> CircuitProgram:
    """Compile (ruleset, adjacency, order) into conditional loads.

    Only control assignments reachable under forward support propagation get
    a load; unreachable assignments carry zero amplitude and can be skipped
    without changing the prepared state.  Frozen segments never receive
    qubits; they are folded into the classical pattern evaluation.

    The compile walks the reachable support in array form: one row per
    reachable partial assignment, its basis index in the layout and the real
    product of its amplitudes.  Each step masks the rows down to its
    ``order_plan`` dependency groups to find the control assignments, loads
    each one (in sorted tuple order) and expands every row by its load's
    nonzero amplitudes (a step with no dependency has one load, broadcast);
    ``DEFAULT_SUPPORT_CAP`` caps the row count.  The rows are the prepared
    state, returned as ``CircuitProgram.state``.  Past INDEX_QUBIT_LIMIT
    qubits the rows are Python ints and no state is kept.
    """
    order = tuple(order)
    if len(set(order)) != len(order):
        raise ValueError("segment order must not repeat ids")
    if frozen is not None and set(order) & set(frozen.mapping):
        raise ValueError("segment order overlaps the frozen context")

    layout = QubitLayout(tuple(sorted(order)), n_values)
    q = layout.bits_per_value
    group = (1 << q) - 1
    dtype = np.int64 if layout.n_qubits <= INDEX_QUBIT_LIMIT else object
    idx = np.zeros(1, dtype=dtype)
    amp = np.ones(1)
    loads: list[ConditionalLoad] = []

    steps, _ = order_plan(adjacency, ruleset, order)
    for k, (target, deps) in enumerate(zip(order, steps), start=1):
        offsets = [layout.group_offset(s) for s in deps]
        if deps:
            masked = idx & sum(group << o for o in offsets)
            ordered = np.sort(masked)
            keys = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
            row_load = np.searchsorted(keys, masked)
        else:  # one load, its row broadcast over the walk below
            keys, row_load = np.zeros(1, dtype=dtype), None
        if len(keys) > DEFAULT_LOAD_CAP:
            raise CapacityError(
                f"{len(keys)} control assignments at iteration {k} "
                f"exceed the cap of {DEFAULT_LOAD_CAP}"
            )
        controls = [
            tuple((seg, ((key >> o) & group) + 1) for seg, o in zip(deps, offsets))
            for key in keys.tolist()
        ]
        # loads (and the first conflict) go in sorted tuple order; the
        # table's rows follow keys
        by_tuple = sorted(range(len(keys)), key=controls.__getitem__)
        dists = [None] * len(keys)
        for i in by_tuple:
            context = ContentInstance(controls[i])
            try:
                dists[i] = value_distribution(target, adjacency, context, ruleset, n_values, frozen)
            except ConflictError:
                raise ConflictError(target, context, f"while compiling iteration {k}") from None
        table = np.sqrt(dists)
        amplitudes = table.tolist()
        loads.extend(ConditionalLoad(k, controls[i], target, tuple(amplitudes[i])) for i in by_tuple)

        # one output row per nonzero amplitude of the row's load
        branches = table > 0.0
        if row_load is not None:
            table, branches = table.take(row_load, axis=0), branches.take(row_load, axis=0)
        if np.count_nonzero(branches) * (len(idx) if row_load is None else 1) > DEFAULT_SUPPORT_CAP:
            raise CapacityError(f"reachable support grew past {DEFAULT_SUPPORT_CAP} at iteration {k}")
        lifted = np.arange(n_values, dtype=dtype) << layout.group_offset(target)
        if row_load is None:
            idx = (idx[:, None] | lifted[branches[0]]).ravel()
            amp = (amp[:, None] * table[0, branches[0]]).ravel()
        else:
            idx = (idx[:, None] | lifted)[branches]
            amp = (amp[:, None] * table)[branches]

    state = _sparse_state(layout, idx, amp) if dtype is np.int64 else None
    return CircuitProgram(layout, tuple(loads), state)


def walked_state(circuit: CircuitProgram) -> SparseState:
    """The state ``build_circuit`` walked, or ``simulate``'s if it kept none
    (programs built by hand; past INDEX_QUBIT_LIMIT qubits that raises)."""
    return simulate(circuit) if circuit.state is None else circuit.state


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


@dataclass(frozen=True, eq=False)
class SparseState:
    """A statevector by its support: strictly ascending int64 basis indices,
    their complex128 amplitudes and the squared magnitudes of those, every
    one positive.

    ``np.asarray(state)`` builds the dense 2^Q vector, for comparisons with
    dense reference executors; it refuses above ``DEFAULT_QUBIT_CAP`` qubits.
    """

    layout: QubitLayout
    indices: np.ndarray
    amplitudes: np.ndarray
    probabilities: np.ndarray

    def __array__(self, dtype=None, copy=None):
        n_qubits = self.layout.n_qubits
        if n_qubits > DEFAULT_QUBIT_CAP:
            raise CapacityError(
                f"a dense view of {n_qubits} qubits exceeds the cap of {DEFAULT_QUBIT_CAP}"
            )
        psi = np.zeros(1 << n_qubits, dtype=np.complex128)
        psi[self.indices] = self.amplitudes
        return psi if dtype is None else psi.astype(dtype)

    @cached_property
    def cumulative(self) -> np.ndarray:
        """Read-only ``np.cumsum(probabilities)``, computed once: ``RandomSource.draw``'s table."""
        cum = np.cumsum(self.probabilities)
        cum.setflags(write=False)
        return cum


def simulate(circuit: CircuitProgram) -> SparseState:
    """Execute the conditional loads from |0>; returns the final state.

    The loads act on the support only: basis indices and amplitudes of the
    nonzero entries, which a load's controls match with one bitmask compare.
    ``build_circuit``'s ``DEFAULT_SUPPORT_CAP`` bounds its size; no 2^Q vector is
    written.

    Raises CapacityError above INDEX_QUBIT_LIMIT qubits and ContractError if
    a load finds its target group outside the ground state on a matched
    subspace (which signals a malformed circuit).
    """
    if circuit.n_qubits > INDEX_QUBIT_LIMIT:
        raise CapacityError(
            f"{circuit.n_qubits} qubits exceed the limit of {INDEX_QUBIT_LIMIT} for int64 basis indices"
        )
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

    return _sparse_state(layout, idx, amp)


def _sparse_state(layout: QubitLayout, idx: np.ndarray, amp: np.ndarray) -> SparseState:
    """The state of int64 basis indices ``idx`` and real or complex amplitudes
    ``amp``, sorted by index, its arrays read-only; ContractError if its norm
    drifted."""
    order = np.argsort(idx)
    idx, amp = idx[order], amp[order]
    probs = np.abs(amp) ** 2
    # an amplitude whose square underflows carries no probability
    nonzero = probs > 0.0
    if not nonzero.all():
        idx, amp, probs = idx[nonzero], amp[nonzero], probs[nonzero]
    norm = probs.sum()
    if abs(norm - 1.0) > _SIM_NORM_TOL:
        raise ContractError(f"statevector squared norm drifted to {norm}")
    amp = amp.astype(np.complex128, copy=False)
    for array in (idx, amp, probs):
        array.setflags(write=False)
    return SparseState(layout, idx, amp, probs)


def exact_distribution(state: SparseState, layout: QubitLayout) -> Distribution:
    """Squared amplitudes as a distribution over basis integers."""
    probs = state.probabilities
    keep = probs > _PROB_CUTOFF
    return Distribution(
        layout.segments,
        layout.n_values,
        dict(zip(state.indices[keep].tolist(), probs[keep].tolist())),
    )


def sample_shots(
    state: SparseState, layout: QubitLayout, shots: int, rng: RandomSource
) -> list[ContentInstance]:
    """Independent measurement samples, deterministic under a fixed seed."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    drawn, inverse = np.unique(rng.draw(state.cumulative, shots), return_inverse=True)
    instances = layout.decode_many(state.indices[drawn])
    return [instances[i] for i in inverse.tolist()]


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
