"""Partitioned generation: run the circuit simulator per partition with the
previously sampled partitions frozen as classical constraints, then join."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .errors import CapacityError, ConflictError
from .framework import RandomSource, _check_budget
from .model import AdjacencyConfig, ContentInstance, Distribution, Ruleset, decode_values
from .quantum import SparseState, build_circuit, exact_distribution, order_plan, walked_state

# Unused here; perfbench/layers.py wraps these names on this module.
from .quantum import sample_shots, simulate  # noqa: F401

_BLOCK_CACHE_CAP = 1 << 20  # state entries per compiled ruleset (40 B with its cumulative, ~40 MB)


@dataclass(frozen=True)
class Partitioning:
    """Ordered partition blocks; each block is its own segment order."""

    blocks: tuple[tuple[int, ...], ...]


def equal_blocks(n_segments: int, n_partitions: int) -> Partitioning:
    """Split ids 1..N into contiguous near-equal blocks (earlier blocks get
    the remainder when H does not divide N)."""
    if not (1 <= n_partitions <= n_segments):
        raise ValueError(f"need 1 <= partitions <= {n_segments}")
    size, rest = divmod(n_segments, n_partitions)
    blocks = []
    start = 1
    for h in range(n_partitions):
        stop = start + size + (1 if h < rest else 0)
        blocks.append(tuple(range(start, stop)))
        start = stop
    return Partitioning(tuple(blocks))


def column_blocks(width: int, height: int, groups: int) -> Partitioning:
    """Split a row-major width x height grid into ``groups`` blocks of whole
    columns, left to right; each block lists its columns in turn, cells top
    to bottom."""
    if not 1 <= groups <= width or width % groups:
        raise ValueError(f"{groups} column groups do not divide width {width}")
    per = width // groups
    return Partitioning(
        tuple(
            tuple(x + 1 + y * width for x in range(g * per, (g + 1) * per) for y in range(height))
            for g in range(groups)
        )
    )


def validate_partitioning(partitioning: Partitioning, n_segments: int) -> list[str]:
    """Check disjoint cover of [1, N]; returns violation messages (empty = ok)."""
    violations = []
    seen: set[int] = set()
    for h, block in enumerate(partitioning.blocks, start=1):
        if not block:
            violations.append(f"partition {h} is empty")
        for seg in block:
            if not (1 <= seg <= n_segments):
                violations.append(f"partition {h} references id {seg} outside [1,{n_segments}]")
            elif seg in seen:
                violations.append(f"id {seg} appears in more than one partition")
            seen.add(seg)
    missing = set(range(1, n_segments + 1)) - seen
    if missing:
        violations.append(f"ids not covered by any partition: {sorted(missing)}")
    return violations


def _block_outcomes(
    adjacency: AdjacencyConfig,
    n_values: int,
    ruleset: Ruleset,
    h: int,
    block: tuple[int, ...],
    values: Mapping[int, int],
) -> SparseState:
    """Partition ``h``'s state given the earlier blocks' ``values``.

    The block's state reads earlier blocks only through its interface, the
    placed segments of its boundary (all that ``constraint_signature``
    reads; see ``order_plan``), so the circuit is compiled on the
    interface alone and the state it walked is cached on the compiled
    ruleset under that key; no second pass simulates the loads.  Conflicts
    are not cached: they raise again on every call, named after partition
    ``h``.
    """
    _, boundary = order_plan(adjacency, ruleset, block)
    interface = tuple((s, values[s]) for s in boundary if s in values)
    comp = ruleset.compiled
    key = (adjacency, n_values, block, interface)
    state = comp.block_cache.get(key)
    if state is not None:
        return state
    try:
        circuit = build_circuit(adjacency, n_values, ruleset, block, frozen=ContentInstance(interface))
        state = walked_state(circuit)
    except (ConflictError, CapacityError) as exc:
        exc.args = (f"partition {h}: {exc.args[0]}",) + exc.args[1:]
        raise
    if comp.block_cache_entries + len(state.indices) <= _BLOCK_CACHE_CAP:
        comp.block_cache[key] = state
        comp.block_cache_entries += len(state.indices)
    return state


def hwfc_generate(
    adjacency: AdjacencyConfig,
    n_values: int,
    ruleset: Ruleset,
    partitioning: Partitioning,
    rng: RandomSource,
) -> ContentInstance:
    """One joint instance: per partition, draw one outcome of its circuit.

    Each partition's circuit conditions classically on all earlier outcomes,
    so the joint distribution is the product of per-partition conditionals.
    """
    values: dict[int, int] = {}
    for h, block in enumerate(partitioning.blocks, start=1):
        state = _block_outcomes(adjacency, n_values, ruleset, h, block, values)
        drawn = int(state.indices[rng.draw(state.cumulative, 1)[0]])
        values.update(decode_values(drawn, state.layout.segments, n_values))
    return ContentInstance(tuple(values.items()))


def hwfc_exact_distribution(
    adjacency: AdjacencyConfig,
    n_values: int,
    ruleset: Ruleset,
    partitioning: Partitioning,
) -> Distribution:
    """Exact joint distribution by enumerating every prior-partition outcome,
    conditioned on no conflict as restarts draw it: a prior whose next block
    conflicts drops its mass and the rest is renormalised (if any was
    dropped).  Raises the last conflict if every prior conflicts."""
    _check_budget(sum(len(b) for b in partitioning.blocks), n_values)
    outcomes: dict[tuple[tuple[int, int], ...], float] = {(): 1.0}
    conflict = None
    for h, block in enumerate(partitioning.blocks, start=1):
        nxt: dict[tuple[tuple[int, int], ...], float] = {}
        for prior, mass in outcomes.items():
            try:
                state = _block_outcomes(adjacency, n_values, ruleset, h, block, dict(prior))
            except ConflictError as exc:
                conflict = exc
                continue
            # blocks partition the segments, so each joint is reached once
            for basis, p in exact_distribution(state, state.layout).probs.items():
                nxt[prior + decode_values(basis, state.layout.segments, n_values)] = mass * p
        if not nxt:
            raise conflict
        outcomes = nxt
    if conflict is not None:
        kept = math.fsum(outcomes.values())
        outcomes = {joint: mass / kept for joint, mass in outcomes.items()}

    segments = tuple(sorted(seg for block in partitioning.blocks for seg in block))
    return Distribution.fold(segments, n_values, outcomes.items())
