"""Partitioned generation: run the circuit simulator per partition with the
previously sampled partitions frozen as classical constraints, then join."""

from __future__ import annotations

import math
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, ConflictError
from .framework import RandomSource, _check_budget, draw_index
from .model import AdjacencyConfig, ContentInstance, Distribution, Ruleset, _cache, bits_per_value, decode_values
from .model import signature_entry
from .quantum import QubitLayout, SparseState, WalkStep, _cells, _check_index_qubits, _check_support, _conflict
from .quantum import _fixed_codes, _sparse_state, _walk_shape, build_circuit, order_plan, walk_step, walk_steps
from .quantum import walked_state

# Unused here; perfbench/layers.py wraps these names on this module.
from .quantum import exact_distribution, sample_shots, simulate  # noqa: F401

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


class _Walk(NamedTuple):
    """What resuming a dependency block's walk reads, kept on its schedule."""

    layout: QubitLayout
    steps: tuple[WalkStep, ...]
    reads: tuple[int, ...]  # per step, the interface values it and the steps before it read


class _Block(NamedTuple):
    """One block of a partitioning as ``_schedule`` resolves it."""

    order: tuple[int, ...]
    placed: tuple[int, ...]  # the interface, in the order the block's steps first read it
    shape: int | None
    layout: tuple[int, ...]
    walk: _Walk | None  # None for a product block: its plan gives no step a dependency

    @property
    def product(self) -> bool:
        return self.walk is None


def _schedule(
    adjacency: AdjacencyConfig, n_values: int, ruleset: Ruleset, partitioning: Partitioning
) -> tuple[_Block, ...]:
    """The partitioning's blocks, resolved and checked once per (adjacency,
    W, blocks) and kept on the compiled ruleset.  A block's interface is
    the earlier-block segments adjacent to it in any direction, ordered by
    the first step whose recipe reads each (then by id; unread ones last),
    so the values that steps 1..j read are a prefix of the interface
    values.  Its shape id interns its ``quantum._walk_shape`` on the
    compiled ruleset (None where the cache budget cannot keep a new one).
    A dependency block keeps its ``_Walk``: its layout, its
    ``quantum.walk_steps`` and per step the length of that prefix; a
    product block is one whose plan gives no step a dependency.
    Before any draw, raises ValueError for an invalid partitioning (a
    repeated id in one block as the compile does, else
    ``validate_partitioning``'s first message) or a ruleset that does not
    fit the adjacency and W, and ``_check_blocks``' CapacityError.
    """
    comp = ruleset.compiled
    key = (adjacency, n_values, partitioning.blocks)
    schedule = comp.schedules.get(key)
    if schedule is None:
        if any(len(set(block)) != len(block) for block in partitioning.blocks):
            raise ValueError("segment order must not repeat ids")
        problems = validate_partitioning(partitioning, adjacency.n_segments)
        if problems:
            raise ValueError(problems[0])
        comp.check(adjacency.n_directions, n_values)
        _check_blocks(partitioning, n_values)
        dirs = range(1, adjacency.n_directions + 1)
        schedule, earlier, cells = [], set(), sum(map(len, partitioning.blocks))
        for block in partitioning.blocks:
            plan = order_plan(adjacency, ruleset, block)
            near = {s for seg in block for d in dirs for s in adjacency.neighbors(seg, d)}
            placed, reads = _first_reads(plan, near & earlier)
            shape = _walk_shape(comp, plan, block, placed)
            if shape not in comp.shape_ids:
                _cache(comp, comp.shape_ids, shape, len(comp.shape_ids), _cells(step[1:3] for step in shape))
            layout, walk = tuple(sorted(block)), None
            if any(plan.deps):
                qubits = QubitLayout(layout, n_values)
                steps = walk_steps(qubits, block, plan)
                walk = _Walk(qubits, steps, reads)
                # per step its recipe's cells, its dependency offsets and W lifted values
                cells += _cells((step.deps, step.recipe) for step in steps)
                cells += sum(len(step.offsets) + len(step.lifted) for step in steps)
            schedule.append(_Block(block, placed, comp.shape_ids.get(shape), layout, walk))
            earlier.update(block)
        schedule = _cache(comp, comp.schedules, key, tuple(schedule), cells)
    return schedule


def _first_reads(plan, interface: set[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The ``interface`` segments in the order the plan's recipes first read
    them (then by id, unread ones last), and per step how many of them it
    and the steps before it read."""
    first: dict[int, int] = {}
    for k, recipe in enumerate(plan.recipes):
        for _, others in recipe:
            for s in interface.intersection(others):
                first.setdefault(s, k)
    n = len(plan.recipes)
    placed = tuple(sorted(interface, key=lambda s: (first.get(s, n), s)))
    return placed, tuple(sum(f <= k for f in first.values()) for k in range(n))


def _check_blocks(partitioning: Partitioning, n_values: int) -> None:
    """Raise CapacityError, named after its partition, for the first block
    whose circuit at W values passes the int64 basis indices."""
    q = bits_per_value(n_values)
    for h, block in enumerate(partitioning.blocks, start=1):
        with _named(h):
            _check_index_qubits(len(block) * q)


def _check_first_blocks(
    adjacency: AdjacencyConfig, n_values: int, ruleset: Ruleset, partitioning: Partitioning
) -> None:
    """Refuse, before any draw, what would refuse every attempt of
    ``hwfc_generate``: what ``_schedule`` refuses, then a block with an
    empty interface that conflicts or passes a cap, since its refusal reads
    no draw.  Builds, and keeps within the cell budget, what each such
    block draws from."""
    for h, block in enumerate(_schedule(adjacency, n_values, ruleset, partitioning), start=1):
        if not block.placed:
            build = _block_factors if block.product else _block_outcomes
            build(adjacency, n_values, ruleset, h, block, (block.shape, n_values, ()))


@contextmanager
def _named(h: int):
    """Prefix ``partition h:`` to a conflict or capacity refusal raised inside."""
    try:
        yield
    except (ConflictError, CapacityError) as exc:
        exc.args = (f"partition {h}: {exc.args[0]}",) + exc.args[1:]
        raise


def _block_outcomes(
    adjacency: AdjacencyConfig, n_values: int, ruleset: Ruleset, h: int, block: _Block, key: tuple
) -> SparseState:
    """Partition ``h``'s walked state under its cache ``key``.

    The state is walked on the interface alone and cached under the block's
    key (with ``"walked"`` appended for a product block, whose key holds its
    factors): blocks of one shape share a state, whose ``layout`` is that of
    the block that walked it.  A dependency block with an interface resumes
    its walk from the longest prefix kept (``_resume``); a block without
    one, and a product block, compile it with ``build_circuit``, whose loads
    are never read, so none is built.  Conflicts are not cached: they raise
    again on every call, named after partition ``h``.
    """
    if block.product:
        key += ("walked",)
    comp = ruleset.compiled
    state = comp.block_cache.get(key)
    if state is None:
        with _named(h):
            if block.product or not block.placed:
                frozen = ContentInstance(dict(zip(block.placed, key[2])))
                state = walked_state(build_circuit(adjacency, n_values, ruleset, block.order, frozen=frozen))
            else:
                state = _resume(comp, n_values, block, key)
        if key[0] is not None:  # the shape has an id
            _cache(comp, comp.block_cache, key, state, len(state.indices))
    return state


def _resume(comp, n_values: int, block: _Block, key: tuple) -> SparseState:
    """The walked state of dependency block ``block`` under ``key``, walked
    with ``quantum.walk_step`` from the longest prefix of its steps kept.

    The rows after step j read only the shape, W and the first
    ``reads[j]`` interface values, so they are kept in the block cache under
    (shape id, W, those values, j), one cell per row, within the cell
    budget: a later miss of any block of the shape that agrees on those
    values starts at step j + 1.  Steps are probed from the last but one
    down; the last step's rows are the state itself.  A step that refuses
    keeps nothing, and the steps before it stay kept."""
    shape, _, values = key
    walk, cache = block.walk, comp.block_cache
    n = len(walk.steps)
    for j in range(n - 1, 0, -1):
        rows = cache.get((shape, n_values, values[: walk.reads[j - 1]], j))
        if rows is not None:
            break
    else:
        j, rows = 0, (np.zeros(1, dtype=np.int64), np.ones(1))
    idx, amp = rows
    fixed = dict(zip(block.placed, values))
    for k in range(j + 1, n + 1):
        idx, amp, _ = walk_step(comp, n_values, k, walk.steps[k - 1], fixed, idx, amp)
        if k < n and shape is not None:
            _cache(comp, cache, (shape, n_values, values[: walk.reads[k - 1]], k), (idx, amp), len(idx))
    return _sparse_state(walk.layout, idx, amp)


def _block_factors(
    adjacency: AdjacencyConfig, n_values: int, ruleset: Ruleset, h: int, block: _Block, key: tuple
) -> tuple:
    """The factors of a product block under its cache ``key``: for each
    segment, highest id first, the probabilities and cumulative of the
    entry that its step of the block's compile reads, the signature folded
    from the interface values over the plan's recipe (``_fixed_codes``).
    Refuses as the compile does, with its conflict and support-cap texts at
    the same iteration.  Cached under the key as W cells per segment."""
    comp = ruleset.compiled
    factors = comp.block_cache.get(key)
    if factors is None:
        fixed, entries, rows = dict(zip(block.placed, key[2])), {}, 1
        with _named(h):
            steps = zip(block.order, order_plan(adjacency, ruleset, block.order).recipes)
            for k, (target, recipe) in enumerate(steps, start=1):
                entry = signature_entry(comp, tuple(_fixed_codes(recipe, fixed)), n_values, target)
                if entry is None:
                    raise _conflict(target, (), k)
                probs = entry[0].tolist()
                entries[target] = probs, entry[2]
                rows *= len(probs) - probs.count(0.0)
                _check_support(rows, k)
        factors = tuple(map(entries.__getitem__, reversed(block.layout)))
        if key[0] is not None:
            _cache(comp, comp.block_cache, key, factors, n_values * len(block.order))
    return factors


def _digit_draw(factors: tuple, u: float) -> list[int] | None:
    """The values, in layout order, of the outcome that
    ``draw_index(state.cumulative, u)`` gives on the product block's walked
    state, decoded from its ``factors``; None if ``u`` lies within
    ``_MARGIN`` of the outcome's interval ends, where only the walked state
    can tell.

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
    lo, width, digits = 0.0, 1.0, []
    for probs, cum in factors:
        v = bisect_right(cum, (u - lo) / width)
        if v == len(cum):
            return None
        if v:
            lo += width * cum[v - 1]
        width *= probs[v]
        if width < 2 * _MARGIN:
            return None
        digits.append(v + 1)
    return digits[::-1] if lo + _MARGIN <= u < lo + width - _MARGIN else None


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
    The partitioning is resolved once (``_schedule`` refuses an invalid
    one, or one that cannot be drawn at W, before any draw), so a block
    reads only its interface values.  A product block (see
    ``_block_factors``) takes its one uniform once no segment conflicts and
    decodes its values from its factors, or near a boundary draws its walked
    state with it (see ``_digit_draw``): every outcome is the walked state's
    draw, bit for bit, on the same stream.
    """
    values: dict[int, int] = {}
    for h, block in enumerate(_schedule(adjacency, n_values, ruleset, partitioning), start=1):
        key = (block.shape, n_values, tuple([values[s] for s in block.placed]))
        product = block.walk is None  # the field, not the property: this loop is hot
        if product:
            factors = _block_factors(adjacency, n_values, ruleset, h, block, key)
            u = rng.uniform()
            digits = _digit_draw(factors, u)
            if digits is not None:
                values.update(zip(block.layout, digits))
                continue
        state = _block_outcomes(adjacency, n_values, ruleset, h, block, key)
        drawn = draw_index(state.cumulative, u if product else rng.uniform())
        # the block's own layout: a shared state keeps its first block's
        values.update(decode_values(int(state.indices[drawn]), block.layout, n_values))
    return ContentInstance._adopt(values)


def hwfc_exact_distribution(
    adjacency: AdjacencyConfig,
    n_values: int,
    ruleset: Ruleset,
    partitioning: Partitioning,
) -> Distribution:
    """Exact joint distribution by enumerating every prior-partition outcome,
    conditioned on no conflict as restarts draw it: a prior whose next block
    conflicts drops its mass and the rest is renormalised (if any was
    dropped).  Raises the last conflict if every prior conflicts.  Refuses
    an invalid partitioning as ``hwfc_generate`` does, then a valid one
    past the budget of W^N instances, before any enumeration."""
    schedule = _schedule(adjacency, n_values, ruleset, partitioning)
    _check_budget(adjacency.n_segments, n_values)
    outcomes: dict[tuple[tuple[int, int], ...], float] = {(): 1.0}
    conflict = None
    for h, block in enumerate(schedule, start=1):
        nxt: dict[tuple[tuple[int, int], ...], float] = {}
        for prior, mass in outcomes.items():
            values = dict(prior)
            key = (block.shape, n_values, tuple([values[s] for s in block.placed]))
            try:
                state = _block_outcomes(adjacency, n_values, ruleset, h, block, key)
            except ConflictError as exc:
                conflict = exc
                continue
            # blocks partition the segments, so each joint is reached once
            for basis, p in zip(state.indices.tolist(), state.probabilities.tolist()):
                nxt[prior + decode_values(basis, block.layout, n_values)] = mass * p
        if not nxt:
            raise conflict
        outcomes = nxt
    if conflict is not None:
        kept = math.fsum(outcomes.values())
        outcomes = {joint: mass / kept for joint, mass in outcomes.items()}

    segments = tuple(sorted(seg for block in partitioning.blocks for seg in block))
    return Distribution.fold(segments, n_values, outcomes.items())
