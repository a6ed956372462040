"""Circuit compilation and the prepared state for order-driven generation.

A ruleset plus a fixed segment order compiles into an ordered list of
conditional probability loads: each load prepares one segment's qubit group
in the square roots of its value distribution, conditioned on a basis
assignment of previously prepared groups.  The compile walks the state these
loads prepare, exactly, and keeps it on the program with each step's loads
in table form; the ``ConditionalLoad`` objects are built only when read.  A
lowering pass turns the loads into X and multi-controlled RY gates for
export as OpenQASM 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Mapping, NamedTuple

import numpy as np

from .errors import CapacityError, ConflictError, ContractError
from .framework import RandomSource
from .model import (
    AdjacencyConfig,
    CompiledRuleset,
    ContentInstance,
    Distribution,
    Ruleset,
    _cache,
    bits_per_value,
    decode_values,
    signature_entry,
)

# Unused here; perfbench/layers.py wraps this name on this module.
from .model import value_distribution  # noqa: F401

_AMP_NORM_TOL = 1e-12
_SIM_NORM_TOL = 1e-9

DEFAULT_QUBIT_CAP = 26  # ~512 MiB of float64 amplitudes in a dense view
INDEX_QUBIT_LIMIT = 63  # basis indices are int64
DEFAULT_LOAD_CAP = 4096  # reachable control assignments per iteration
DEFAULT_SUPPORT_CAP = 1 << 20  # reachable partial assignments while compiling


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
    def offsets(self) -> dict[int, int]:
        """Each segment's least significant qubit index."""
        q = self.bits_per_value
        return {seg: pos * q for pos, seg in enumerate(self.segments)}

    @cached_property
    def _chunks(self) -> tuple[tuple[int, tuple[int, ...], np.ndarray, dict[int, dict[int, int]]], ...]:
        """Per chunk of consecutive segments: its least significant qubit,
        its segments, their shifts within the chunk, and a table from each
        chunk value decoded so far to its {segment: value} dict, which only
        drawn values fill.  A chunk spans at most 10 qubits, or one segment
        when a value takes more (W > 1024: a table then holds up to W
        entries), and the whole layout at q = 0.  ``table_cells`` bounds
        what the tables hold; ``build_circuit`` charges it to the cache
        budget of the circuit that keeps the layout."""
        q, segments = self.bits_per_value, self.segments
        size = max(10 // q, 1) if q else max(len(segments), 1)
        starts = range(0, len(segments), size) or (0,)  # an empty layout decodes as one empty chunk
        chunks = []
        for pos in starts:
            part = segments[pos : pos + size]
            chunks.append((pos * q, part, np.arange(len(part), dtype=np.int64) * q, {}))
        return tuple(chunks)

    def table_cells(self, support: int) -> int:
        """Pairs ``decode_many``'s tables can hold once keys from a support
        of ``support`` entries have been drawn: per chunk, min(support, W^k)
        dicts of k pairs, k its segments.  Measured under tracemalloc
        (CPython 3.11, 64-bit), a pair costs ~41 B in a dict of ten and
        ~310 B alone, with the dict's key and table slot: the seven tables
        of a 63-qubit W = 2 layout hold at most 2.6 MB."""
        return sum(
            min(support, self.n_values ** len(segments)) * len(segments) for _, segments, _, _ in self._chunks
        )

    def decode_many(self, keys: np.ndarray) -> list[ContentInstance]:
        """The instance each int64 basis key encodes: each key's chunk values,
        split with array shifts and masks, looked up in ``_chunks``' tables
        and merged into one fresh dict per key.  Raises ValueError, before
        any instance is made, naming the first key that decodes outside the
        alphabet."""
        q, n_values = self.bits_per_value, self.n_values
        parts = []
        for low, segments, shifts, table in self._chunks:
            codes = ((keys >> low) & ((1 << q * len(segments)) - 1)).tolist()
            try:
                parts.append(list(map(table.__getitem__, codes)))
            except KeyError:
                new = np.array(list(set(codes).difference(table)), dtype=np.int64)
                values = ((new[:, None] >> shifts) & ((1 << q) - 1)) + 1
                if (values > n_values).any():
                    for key in keys.tolist():  # raises at the first key outside, in input order
                        decode_values(key, self.segments, n_values)
                table.update(zip(new.tolist(), map(dict, map(zip, repeat(segments), values.tolist()))))
                parts.append(list(map(table.__getitem__, codes)))
        adopt = ContentInstance._adopt
        if len(parts) == 1:
            return [adopt(mapping.copy()) for mapping in parts[0]]
        mappings = [{**a, **b} for a, b in zip(parts[0], parts[1])]
        for part in parts[2:]:
            for mapping, more in zip(mappings, part):
                mapping.update(more)
        return list(map(adopt, mappings))


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
        _check_amplitudes(np.array((self.amplitudes,), dtype=float))


def _check_amplitudes(table: np.ndarray) -> None:
    """Raise ValueError unless every row of ``table`` is finite with squared
    norm 1 and nonnegative."""
    # negated compares, so that NaN fails them
    for norm in np.add.reduce(table * table, axis=1).tolist():
        if not abs(norm - 1.0) <= _AMP_NORM_TOL:
            raise ValueError(f"load amplitudes must be finite with squared norm 1, got {norm}")
    low = float(np.minimum.reduce(table, axis=None))
    if not low >= 0.0:
        raise ValueError(f"load amplitudes must be nonnegative, got {low}")


class StepTable(NamedTuple):
    """One compile step's loads as a table.

    ``values[i]`` lists the dependency values of the step's i-th reachable
    control assignment (ascending by basis key).  It loads row ``rows[i]``
    of ``amplitudes``: the roots of the distribution ``signature_entry``
    gives under ``signatures[rows[i]]``.
    """

    step: int
    target: int
    deps: tuple[int, ...]
    values: list[list[int]]
    signatures: list[tuple[int, ...]]
    rows: list[int]
    amplitudes: np.ndarray

    def loads(self) -> list[ConditionalLoad]:
        """The step's loads, in sorted control-tuple order."""
        controls = [tuple(zip(self.deps, vals)) for vals in self.values]
        table, rows = self.amplitudes.tolist(), self.rows
        return [
            ConditionalLoad(self.step, controls[i], self.target, tuple(table[rows[i]]))
            for i in sorted(range(len(controls)), key=controls.__getitem__)
        ]


@dataclass(frozen=True, eq=False)
class CircuitProgram:
    """Ordered conditional loads over a qubit layout.

    ``build_circuit`` keeps each step's loads as a ``StepTable``; ``loads``
    builds the ``ConditionalLoad``s from them on first read.

    ``state`` is the state the loads prepare, which ``build_circuit`` walks
    and ``walked_state`` returns: None past INDEX_QUBIT_LIMIT qubits and for
    programs built by hand, which the package does not execute.
    """

    layout: QubitLayout
    steps: tuple[StepTable, ...]
    state: SparseState | None

    @property
    def n_qubits(self) -> int:
        return self.layout.n_qubits

    @cached_property
    def loads(self) -> tuple[ConditionalLoad, ...]:
        return tuple(load for step in self.steps for load in step.loads())


def _cells(steps) -> int:
    """Cache cells of a walk's or a walk shape's (dependencies, recipe)
    steps: per step one, its dependencies, per direction one and its lists."""
    return sum(1 + len(deps) + sum(1 + len(a) + len(b) for a, b in recipe) for deps, recipe in steps)


def _walk_shape(comp: CompiledRuleset, steps: tuple[WalkStep, ...], placed: tuple[int, ...]) -> tuple:
    """What a walk over ``steps`` reads under frozen values at
    the interface segments ``placed``, per step: the target's rank in the layout,
    its dependencies' ranks, for each direction of its recipe the dependency
    columns and the interface positions folded there, and the target's
    factor outputs.  Orders of equal shapes walk equal states under equal
    interface values, W and ruleset."""
    rank = {s: r for r, s in enumerate(sorted(step.target for step in steps))}
    position = {s: i for i, s in enumerate(placed)}
    return tuple(
        (
            rank[step.target],
            tuple(rank[s] for s in step.deps),
            tuple((cols, tuple(position[s] for s in others if s in position)) for cols, others in step.recipe),
            comp.segment_weights(step.target)[0],
        )
        for step in steps
    )


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
    product of its amplitudes.  Each step (``walk_step``, which hwfc's
    resumed block walks run too) masks the rows down to its
    ``walk_steps`` dependency groups to find the control assignments, takes
    each one's constraint signature from its dependency values and the
    frozen neighbours over the step's recipe (see ``_signature_codes``), so
    no step reads the adjacency's neighbours, looks each distinct
    signature up once in ``signature_entry`` and expands every row by the
    nonzero roots of its assignment's distribution (a step with no
    dependency has one, broadcast); ``DEFAULT_SUPPORT_CAP`` caps the row
    count, and four times it the rows x W cells a step with dependencies
    gathers, checked before the step does any work.  The rows are the
    prepared state, returned as ``CircuitProgram.state``; the loads are kept
    as one ``StepTable`` per step.  Past INDEX_QUBIT_LIMIT qubits the rows
    are Python ints and no state is kept.

    Without ``frozen``, the program is prepared once per (adjacency, order,
    W) and kept on the compiled ruleset, while its state's entries, W cells
    per load and its layout's ``table_cells`` fit the cache budget: a
    repeated call returns it.  A program without a walked state, a conflict
    or a capacity refusal is not kept, so it compiles or raises again.  A
    call with ``frozen`` (each hwfc block, which keeps its own cache) always
    compiles.
    """
    order = tuple(order)
    comp = ruleset.compiled
    key = (adjacency, order, n_values)
    if frozen is None and key in comp.circuits:
        return comp.circuits[key]
    if len(set(order)) != len(order):
        raise ValueError("segment order must not repeat ids")
    fixed = frozen.mapping if frozen is not None else {}
    if not fixed.keys().isdisjoint(order):
        raise ValueError("segment order overlaps the frozen context")

    layout = QubitLayout(tuple(sorted(order)), n_values)
    idx = np.zeros(1, dtype=np.int64 if layout.n_qubits <= INDEX_QUBIT_LIMIT else object)
    amp = np.ones(1)
    tables: list[StepTable] = []

    for k, step in enumerate(walk_steps(adjacency, comp, layout, order), start=1):
        idx, amp, table = walk_step(comp, n_values, k, step, fixed, idx, amp)
        tables.append(table)

    state = _sparse_state(layout, idx, amp) if idx.dtype == np.int64 else None
    circuit = CircuitProgram(layout, tuple(tables), state)
    if frozen is None and state is not None:
        support, loads = len(state.indices), n_values * sum(len(t.values) for t in tables)
        _cache(comp, comp.circuits, key, circuit, support + loads + layout.table_cells(support))
    return circuit


class WalkStep(NamedTuple):
    """What one step of a compile's walk reads: its target; ``deps``, the
    sorted earlier segments adjacent to it in a direction some rule pattern
    uses (a static over-approximation of what can influence its value);
    ``recipe``, for each direction up to the ruleset's largest, the columns
    of ``deps`` adjacent there and the neighbours outside the order, which
    only frozen values can fill; the dependencies' offsets in the layout
    and the mask of their groups; and the target's alphabet as basis-index
    bits at its offset (v - 1 for value v)."""

    target: int
    deps: tuple[int, ...]
    recipe: tuple
    offsets: tuple[int, ...]
    mask: int
    lifted: np.ndarray


def walk_steps(
    adjacency: AdjacencyConfig, comp: CompiledRuleset, layout: QubitLayout, order: tuple[int, ...]
) -> tuple[WalkStep, ...]:
    """The steps of ``order``'s walk over ``layout``, in one pass over the
    adjacency, after ``comp.check``; past INDEX_QUBIT_LIMIT qubits the
    lifted alphabets hold Python ints."""
    comp.check(adjacency.n_directions, layout.n_values)
    group = (1 << layout.bits_per_value) - 1
    offset = layout.offsets
    dtype = np.int64 if layout.n_qubits <= INDEX_QUBIT_LIMIT else object
    alphabet = np.arange(layout.n_values, dtype=dtype)
    position = {seg: k for k, seg in enumerate(order)}
    steps = []
    for k, target in enumerate(order):
        adjacent = {s for d in comp.pattern_directions for s in adjacency.neighbors(target, d)}
        deps = tuple(sorted(s for s in adjacent if position.get(s, k) < k))
        column = {s: c for c, s in enumerate(deps)}
        recipe = []
        for d in range(1, comp.max_direction + 1):
            near = adjacency.neighbors(target, d)
            cols = tuple(column[s] for s in near if s in column)
            recipe.append((cols, tuple(s for s in near if s not in position)))
        offsets = tuple(offset[s] for s in deps)
        mask = sum(group << o for o in offsets)
        steps.append(WalkStep(target, deps, tuple(recipe), offsets, mask, alphabet << offset[target]))
    return tuple(steps)


def walk_step(
    comp: CompiledRuleset,
    n_values: int,
    k: int,
    step: WalkStep,
    fixed: Mapping[int, int],
    idx: np.ndarray,
    amp: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, StepTable]:
    """Iteration ``k`` of ``build_circuit``'s walk, from the rows ``idx`` and
    ``amp`` before it: the rows after it and its loads.  ``fixed`` holds the
    frozen neighbour values its recipe folds.  Every refusal of the compile
    is raised here: the gather and load caps, the smallest conflicting
    control tuple, the amplitude checks and the support cap."""
    target, deps = step.target, step.deps
    if deps:
        # the gather below holds rows x W cells; four per row of the
        # support cap let a world of up to four values gather at full support
        if len(idx) * n_values > 4 * DEFAULT_SUPPORT_CAP:
            raise CapacityError(
                f"{len(idx)} rows x {n_values} values at iteration {k} "
                f"exceed the cap of {4 * DEFAULT_SUPPORT_CAP} gathered cells"
            )
        masked = idx & step.mask
        ordered = np.sort(masked)
        keys = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
        if len(keys) > DEFAULT_LOAD_CAP:
            raise CapacityError(
                f"{len(keys)} control assignments at iteration {k} "
                f"exceed the cap of {DEFAULT_LOAD_CAP}"
            )
        group = (1 << bits_per_value(n_values)) - 1
        values = [[((key >> o) & group) + 1 for o in step.offsets] for key in keys.tolist()]
    else:
        values = [[]]  # one control assignment, broadcast over the walk below
    signatures, rows = _signature_codes(step.recipe, fixed, values)
    entries = [signature_entry(comp, sig, n_values, target) for sig in signatures]
    if None in entries:
        # name the first conflicting control tuple in sorted order
        controls = min(tuple(zip(deps, vals)) for vals, r in zip(values, rows) if entries[r] is None)
        raise _conflict(target, controls, k)
    table = np.sqrt([entry[0] for entry in entries])
    _check_amplitudes(table)
    loads = StepTable(k, target, deps, values, signatures, rows, table)

    if deps:  # one output row per nonzero root of the row's assignment
        table = table.take(np.array(rows).take(np.searchsorted(keys, masked)), axis=0)
        branches = table > 0.0
        _check_support(np.count_nonzero(branches), k)
        idx = (idx[:, None] | step.lifted)[branches]
        amp = (amp[:, None] * table)[branches]
    else:  # every row by the one distribution's nonzero roots
        roots = table[0]
        nonzero = roots.nonzero()[0]
        _check_support(len(nonzero) * len(idx), k)
        idx = (idx[:, None] | step.lifted[nonzero]).ravel()
        amp = (amp[:, None] * roots[nonzero]).ravel()
    return idx, amp, loads


def _check_support(rows: int, k: int) -> None:
    """Refuse step ``k`` once its reachable partial assignments pass
    ``DEFAULT_SUPPORT_CAP``."""
    if rows > DEFAULT_SUPPORT_CAP:
        raise CapacityError(f"reachable support grew past {DEFAULT_SUPPORT_CAP} at iteration {k}")


def _conflict(target: int, controls: tuple[tuple[int, int], ...], k: int) -> ConflictError:
    """The compile's refusal at iteration ``k``: ``target`` has no admissible
    value under the control tuple ``controls``."""
    return ConflictError(target, ContentInstance(controls), f"while compiling iteration {k}")


def _fixed_codes(recipe: tuple, fixed: Mapping[int, int]) -> list[int]:
    """Each direction's code of a step's target under the ``fixed``
    neighbour values alone, over the step's ``WalkStep`` recipe (see
    ``_signature_codes``)."""
    codes = []
    for _, others in recipe:
        code = 0
        for s in others:
            v = fixed.get(s)
            if v is not None:
                code = v if code in (0, v) else -1
        codes.append(code)
    return codes


def _signature_codes(
    recipe: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...],
    fixed: Mapping[int, int],
    values: list[list[int]],
) -> tuple[list[tuple[int, ...]], list[int]]:
    """The distinct constraint signatures of a step's target under each list
    of dependency ``values`` plus the ``fixed`` neighbour values, over the
    step's ``WalkStep`` recipe, and the index of each list's signature
    among them.

    A direction's code is 0 when no neighbour value is known there, v when
    every known value is v and -1 otherwise, as ``constraint_signature``
    gives it.  The fixed neighbours are folded once per direction
    (``_fixed_codes``); each list then folds in the values of the dependency
    columns adjacent there.
    """
    base = list(zip(_fixed_codes(recipe, fixed), (cols for cols, _ in recipe)))
    index: dict[tuple[int, ...], int] = {}
    rows = []
    for vals in values:
        signature = []
        for code, cols in base:
            for c in cols:
                v = vals[c]
                code = v if code in (0, v) else -1
            signature.append(code)
        rows.append(index.setdefault(tuple(signature), len(index)))
    return list(index), rows


def walked_state(circuit: CircuitProgram) -> SparseState:
    """The state ``build_circuit`` walked: ``circuit.state``.  Raises
    CapacityError past INDEX_QUBIT_LIMIT qubits, where the compile keeps no
    state, and ValueError for a program built by hand, whose loads the
    package does not execute."""
    if circuit.state is not None:
        return circuit.state
    _check_index_qubits(circuit.n_qubits)
    raise ValueError("a circuit program built by hand carries no walked state")


def _check_index_qubits(n_qubits: int) -> None:
    """Raise CapacityError past INDEX_QUBIT_LIMIT qubits, where basis indices
    leave int64."""
    if n_qubits > INDEX_QUBIT_LIMIT:
        raise CapacityError(
            f"{n_qubits} qubits exceed the limit of {INDEX_QUBIT_LIMIT} for int64 basis indices"
        )


# walked_state under the name perfbench traces and the demo scripts call.
simulate = walked_state


# --------------------------------------------------------------------------
# the prepared state
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SparseState:
    """A statevector by its support: strictly ascending int64 basis indices
    and their probabilities, every one positive.  Every load's amplitudes
    are nonnegative reals, so each amplitude is the square root of its
    probability and is not stored.

    ``np.asarray(state)`` builds the dense real 2^Q vector, for comparisons
    with dense reference executors; it refuses above ``DEFAULT_QUBIT_CAP``.
    """

    layout: QubitLayout
    indices: np.ndarray
    probabilities: np.ndarray

    @cached_property
    def support(self) -> dict[int, float]:
        """Each basis index's probability, ascending, built once; callers
        that hand it out copy it (see ``exact_distribution``)."""
        return dict(zip(self.indices.tolist(), self.probabilities.tolist()))

    def __array__(self, dtype=None, copy=None):
        n_qubits = self.layout.n_qubits
        if n_qubits > DEFAULT_QUBIT_CAP:
            raise CapacityError(
                f"a dense view of {n_qubits} qubits exceeds the cap of {DEFAULT_QUBIT_CAP}"
            )
        psi = np.zeros(1 << n_qubits)
        psi[self.indices] = np.sqrt(self.probabilities)
        return psi if dtype is None else psi.astype(dtype)

    @cached_property
    def cumulative(self) -> np.ndarray:
        """Read-only ``np.cumsum(probabilities)``, computed once: ``RandomSource.draw``'s table."""
        cum = np.cumsum(self.probabilities)
        cum.setflags(write=False)
        return cum


def _sparse_state(layout: QubitLayout, idx: np.ndarray, amp: np.ndarray) -> SparseState:
    """The state of int64 basis indices ``idx`` and their nonnegative real
    amplitudes ``amp``: sorted by index, squared, read-only; ContractError if
    its norm drifted."""
    order = np.argsort(idx)
    idx, probs = idx[order], amp[order] ** 2
    # an amplitude whose square underflows carries no probability
    nonzero = probs > 0.0
    if not nonzero.all():
        idx, probs = idx[nonzero], probs[nonzero]
    norm = probs.sum()
    if abs(norm - 1.0) > _SIM_NORM_TOL:
        raise ContractError(f"statevector squared norm drifted to {norm}")
    idx.setflags(write=False)
    probs.setflags(write=False)
    return SparseState(layout, idx, probs)


def exact_distribution(state: SparseState, layout: QubitLayout) -> Distribution:
    """The state's whole support as a distribution over basis integers, in a
    fresh dict copied from the state's ``support``."""
    return Distribution(layout.segments, layout.n_values, state.support.copy())


def sample_shots(
    state: SparseState, layout: QubitLayout, shots: int, rng: RandomSource
) -> list[ContentInstance]:
    """Independent measurement samples, deterministic under a fixed seed.
    Equal shots of one call are one ``ContentInstance`` object; distinct
    shots, and the shots of later calls, share nothing."""
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


def _control_qubits(load: ConditionalLoad, layout: QubitLayout) -> list[tuple[int, int]]:
    q = layout.bits_per_value
    bits = []
    for seg, val in load.controls:
        off = layout.offsets[seg]
        for j in range(q):
            bits.append((off + j, (val - 1) >> j & 1))
    return bits


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
        t0 = layout.offsets[load.target]
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
