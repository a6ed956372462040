"""Partitioned generation: run the circuit simulator per partition with the
previously sampled partitions frozen as classical constraints, then join."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceededError, CapacityError, ConflictError
from .framework import RandomSource
from .model import AdjacencyConfig, ContentInstance, Distribution, Ruleset, encode_values
from .quantum import build_circuit, exact_distribution, sample_shots, simulate


@dataclass(frozen=True)
class Partitioning:
    """Ordered partition blocks; each block is its own segment order."""

    blocks: tuple[tuple[int, ...], ...]

    @property
    def n_partitions(self) -> int:
        return len(self.blocks)


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


def hwfc_generate(
    adjacency: AdjacencyConfig,
    n_values: int,
    ruleset: Ruleset,
    partitioning: Partitioning,
    rng: RandomSource,
) -> ContentInstance:
    """One joint instance: per partition, compile, simulate, draw one shot.

    Each partition's circuit conditions classically on all earlier outcomes,
    so the joint distribution is the product of per-partition conditionals.
    """
    frozen = ContentInstance()
    for h, block in enumerate(partitioning.blocks, start=1):
        try:
            circuit = build_circuit(adjacency, n_values, ruleset, block, frozen=frozen)
            psi = simulate(circuit)
        except (ConflictError, CapacityError) as exc:
            exc.args = (f"partition {h}: {exc.args[0]}",) + exc.args[1:]
            raise
        frozen = frozen.union(sample_shots(psi, circuit.layout, 1, rng)[0])
    return frozen


def hwfc_exact_distribution(
    adjacency: AdjacencyConfig,
    n_values: int,
    ruleset: Ruleset,
    partitioning: Partitioning,
    budget: float = 1e6,
) -> Distribution:
    """Exact joint distribution by enumerating every prior-partition outcome."""
    n_segments = sum(len(b) for b in partitioning.blocks)
    if n_values ** n_segments > budget:
        raise BudgetExceededError(
            f"{n_values}^{n_segments} joint instances exceed the budget of {budget:g}"
        )
    outcomes: dict[tuple[tuple[int, int], ...], float] = {(): 1.0}
    for block in partitioning.blocks:
        nxt: dict[tuple[tuple[int, int], ...], float] = {}
        for prior, mass in outcomes.items():
            frozen = ContentInstance(prior)
            circuit = build_circuit(adjacency, n_values, ruleset, block, frozen=frozen)
            psi = simulate(circuit)
            part = exact_distribution(psi, circuit.layout)
            for key, p in part.probs.items():
                joint = prior + part.decode(key).entries
                nxt[joint] = nxt.get(joint, 0.0) + mass * p
        outcomes = nxt

    segments = tuple(sorted(seg for block in partitioning.blocks for seg in block))
    probs: dict[int, float] = {}
    for entries, mass in outcomes.items():
        key = encode_values(dict(entries), segments, n_values)
        probs[key] = probs.get(key, 0.0) + mass
    return Distribution(segments, n_values, probs)
