"""Partitioned generation: run the circuit simulator per partition with the
previously sampled partitions frozen as classical constraints, then join."""

from __future__ import annotations

import math
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Mapping

from .errors import CapacityError, ConflictError
from .framework import RandomSource, _check_budget, draw_index
from .model import AdjacencyConfig, ContentInstance, Distribution, Ruleset, bits_per_value, decode_values
from .quantum import SparseState, _check_index_qubits, _product_entries, _shape_id, build_circuit, order_plan
from .quantum import walked_state

# Unused here; perfbench/layers.py wraps these names on this module.
from .quantum import exact_distribution, sample_shots, simulate  # noqa: F401

# cells per compiled ruleset: a walked state's entries (24 B each with its
# cumulative, ~24 MB at the cap), W per segment of a product block's factors
_BLOCK_CACHE_CAP = 1 << 20
_MARGIN = 2.0**-30  # see _digit_draw


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


def _block_key(
    adjacency: AdjacencyConfig, n_values: int, ruleset: Ruleset, block: tuple[int, ...], values: Mapping[int, int]
) -> tuple:
    """The block's ``order_plan``, its interface (the placed segments of its
    boundary, all that ``constraint_signature`` reads) and its cache key:
    (shape id, W, interface values), shared by blocks of one shape (see
    ``quantum._shape_id``)."""
    plan = order_plan(adjacency, ruleset, block)
    placed = tuple(s for s in plan.boundary if s in values)
    interface = tuple(values[s] for s in placed)
    return plan, placed, (_shape_id(ruleset.compiled, plan, block, placed), n_values, interface)


def _cache(comp, key: tuple, value, cells: int):
    """``value``, kept under ``key`` if the shape has an id and its cells fit."""
    if key[0] is not None and comp.block_cache_entries + cells <= _BLOCK_CACHE_CAP:
        comp.block_cache[key] = value
        comp.block_cache_entries += cells
    return value


@contextmanager
def _named(h: int):
    """Prefix ``partition h:`` to a conflict or capacity refusal raised inside."""
    try:
        yield
    except (ConflictError, CapacityError) as exc:
        exc.args = (f"partition {h}: {exc.args[0]}",) + exc.args[1:]
        raise


def _block_outcomes(
    adjacency: AdjacencyConfig, n_values: int, ruleset: Ruleset, h: int, block: tuple[int, ...], found: tuple
) -> SparseState:
    """Partition ``h``'s walked state, given what ``_block_key`` found for it.

    The circuit is compiled on the interface alone, and the state it walked
    is cached under the block's key (with ``"walked"`` appended for a
    product block, whose key holds its factors): blocks of one shape share
    a state, whose ``layout`` is that of the block that compiled it.  Its
    loads are never read, so none is built.  Conflicts are not cached: they
    raise again on every call, named after partition ``h``.
    """
    plan, placed, key = found
    if not any(plan.deps):
        key += ("walked",)
    comp = ruleset.compiled
    state = comp.block_cache.get(key)
    if state is None:
        with _named(h):
            _check_index_qubits(len(block) * bits_per_value(n_values))  # before any compile work
            frozen = ContentInstance(dict(zip(placed, key[2])))
            state = walked_state(build_circuit(adjacency, n_values, ruleset, block, frozen=frozen))
        _cache(comp, key, state, len(state.indices))
    return state


def _block_factors(
    adjacency: AdjacencyConfig, n_values: int, ruleset: Ruleset, h: int, block: tuple[int, ...], found: tuple
) -> tuple:
    """The factors of a product block, one whose plan gives no step a
    dependency: for each segment, highest id first, the probabilities and
    cumulative of its entry (see ``quantum._product_entries``, which refuses
    as the block's compile would); cached under the block's key as W cells
    per segment."""
    _, placed, key = found
    comp = ruleset.compiled
    factors = comp.block_cache.get(key)
    if factors is None:
        with _named(h):
            _check_index_qubits(len(block) * bits_per_value(n_values))  # before any other work
            entries = _product_entries(adjacency, n_values, ruleset, block, dict(zip(placed, key[2])))
        factors = tuple((entries[s][0].tolist(), entries[s][2]) for s in sorted(block, reverse=True))
        _cache(comp, key, factors, n_values * len(block))
    return factors


def _digit_draw(factors: tuple, u: float, q: int) -> int | None:
    """The basis index that ``draw_index(state.cumulative, u)`` gives on the
    product block's walked state, decoded from its ``factors`` (``q`` bits
    per value); None if ``u`` lies within ``_MARGIN`` of the decoded
    outcome's interval ends, where only the walked state can tell.

    Walked indices ascend as the digits do from the highest segment down.
    Each digit is a ``bisect_right`` in its segment's cumulative, and [lo,
    lo + width) then narrows to that value's share.  Only the last interval
    is checked: if ``u`` lies well inside it, no digit was misread.

    The margin.  Let P(x) be the exact mass of outcome x under the product
    of the factors' probabilities and F(x) the mass below it, N <= 63 the
    segments and e = 2^-53.  The support cap allows at most 2^20 outcomes,
    so at most 2^20 + N nonzero probabilities over all factors, and each of
    these lies within (2^21 + 8N) e of the exact value:
    - the walked ends of x, cum[k-1] and cum[k], of F(x) and F(x) + P(x):
      an entry is (prod fl(sqrt p))^2 (4N roundings), and the sequential
      ``cumsum`` of at most 2^20 entries adds at most 2^20 e;
    - the walked target ``u * cum[-1]``, of u: cum[-1] is as near the
      product's total, and each factor sums to 1 within one rounding per
      nonzero term;
    - lo and lo + width, of F(x) and F(x) + P(x): per level a width (N
      roundings) times a factor cumulative (one per nonzero term), where
      F also carries the totals of the lower factors.
    Together, with the comparisons, that is under 2^-30.4 < ``_MARGIN`` =
    2^-30, so the walked draw lands on x whenever this one returns it.  An
    outcome narrower than twice the margin, one whose square underflowed
    included, always falls back.
    """
    lo, width, drawn = 0.0, 1.0, 0
    for probs, cum in factors:
        v = bisect_right(cum, (u - lo) / width)
        if v == len(cum):
            return None
        if v:
            lo += width * cum[v - 1]
        width *= probs[v]
        if width < 2 * _MARGIN:
            return None
        drawn = drawn << q | v
    return drawn if lo + _MARGIN <= u < lo + width - _MARGIN else None


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
    A product block (see ``_block_factors``) takes its one uniform once no
    segment conflicts and decodes it from its factors, or near a boundary
    draws its walked state with it (see ``_digit_draw``): every outcome is
    the walked state's draw, bit for bit, on the same stream.
    """
    values: dict[int, int] = {}
    q = bits_per_value(n_values)
    for h, block in enumerate(partitioning.blocks, start=1):
        found = _block_key(adjacency, n_values, ruleset, block, values)
        if any(found[0].deps):
            state = _block_outcomes(adjacency, n_values, ruleset, h, block, found)
            drawn = int(state.indices[rng.draw(state.cumulative, 1)[0]])
        else:
            factors = _block_factors(adjacency, n_values, ruleset, h, block, found)
            u = rng.uniform()
            drawn = _digit_draw(factors, u, q)
            if drawn is None:
                state = _block_outcomes(adjacency, n_values, ruleset, h, block, found)
                drawn = int(state.indices[draw_index(state.cumulative, u)])
        # the block's own layout: a shared state keeps its first block's
        values.update(decode_values(drawn, tuple(sorted(block)), n_values))
    return ContentInstance(values)


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
        layout = tuple(sorted(block))
        nxt: dict[tuple[tuple[int, int], ...], float] = {}
        for prior, mass in outcomes.items():
            try:
                found = _block_key(adjacency, n_values, ruleset, block, dict(prior))
                state = _block_outcomes(adjacency, n_values, ruleset, h, block, found)
            except ConflictError as exc:
                conflict = exc
                continue
            # blocks partition the segments, so each joint is reached once
            for basis, p in zip(state.indices.tolist(), state.probabilities.tolist()):
                nxt[prior + decode_values(basis, layout, n_values)] = mass * p
        if not nxt:
            raise conflict
        outcomes = nxt
    if conflict is not None:
        kept = math.fsum(outcomes.values())
        outcomes = {joint: mass / kept for joint, mass in outcomes.items()}

    segments = tuple(sorted(seg for block in partitioning.blocks for seg in block))
    return Distribution.fold(segments, n_values, outcomes.items())
