"""Classical wave function collapse: minimum-entropy segment selection with
pattern-based value selection and restart-on-conflict."""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import chain

import numpy as np

from .errors import ConflictError
from .framework import RandomSource, draw_index, with_restarts
from .framework import generate  # noqa: F401  (perfbench traces this name)
from .model import (
    _CONFLICT,
    AdjacencyConfig,
    Alphabet,
    CompiledRuleset,
    ContentInstance,
    Ruleset,
    signature_entry,
    value_distribution,  # noqa: F401  (perfbench traces this name)
    value_entropy,
)
from .quantum import _PLAN_CACHE_CAP

_ENTROPY_TIE_TOL = 1e-12

# value_entropy under the name perfbench traces; cwfc reads entropies off
# its placement state instead.
shannon_entropy = value_entropy


def _steps(adjacency: AdjacencyConfig, comp: CompiledRuleset, n_values: int) -> tuple:
    """What every cwfc attempt on (adjacency, W) reads, built once and kept
    on the compiled ruleset, up to ``_PLAN_CACHE_CAP`` tables.  Per segment
    id (index id - 1): its in-edges as 0-based (row, column) pairs into
    ``Placement.codes``, cut to the last direction a pattern names, and its
    factor outputs, the third part of its ``dist_cache`` key.  Then the
    start: the entries and entropy groups that an attempt's first refresh of
    every segment, in ascending id order, gives; None when a segment
    conflicts there, and the outputs stop at that segment, the last such an
    attempt reads."""
    key = (adjacency, n_values)
    steps = comp.cwfc_steps.get(key)
    if steps is None:
        m, segments = comp.max_direction, range(1, adjacency.n_segments + 1)
        edges = tuple(tuple((i - 1, d - 1) for i, d in adjacency.in_edges(seg) if d <= m) for seg in segments)
        zeros = (0,) * m
        outputs, entries, groups = [], [], {}
        start = (entries, groups)
        for seg in segments:
            entry = signature_entry(comp, zeros, n_values, seg)
            outputs.append(comp.segment_weights(seg)[0])
            if entry is None:
                start = None
                break
            entries.append(entry)
            groups.setdefault(entry[1], []).append(seg)
        steps = (edges, tuple(outputs), start)
        if len(comp.cwfc_steps) < _PLAN_CACHE_CAP:
            comp.cwfc_steps[key] = steps
    return steps


class Placement:
    """One cwfc attempt's mutable state.

    ``codes[i-1][d-1]`` is segment i's constraint in direction d, as
    ``constraint_signature`` gives it: 0 = no placed neighbor, -1 = placed
    neighbors disagree, otherwise their common value.  A placement updates
    only the codes of its in-neighbors and marks the unplaced ones whose
    code changed stale; ``ties`` refreshes their distribution entries, in
    ascending id order, before it reads the minimum.  ``groups`` maps each
    entropy (an entry's ``[1]``) to the ascending ids of the unplaced
    segments that have it, so a step reads as many groups as there are
    distinct entropies, not every segment.  Placed segments belong to no
    group.  An attempt starts from copies of its ``_steps`` start, or with
    every segment stale when a segment conflicts there.
    """

    def __init__(self, adjacency: AdjacencyConfig, ruleset: Ruleset, n_values: int):
        comp = ruleset.compiled
        comp.check(adjacency.n_directions, n_values)
        n = adjacency.n_segments
        self.comp, self.n_values = comp, n_values
        self.edges, self.outputs, start = _steps(adjacency, comp, n_values)
        self.codes = [[0] * comp.max_direction for _ in range(n)]
        self.values: dict[int, int] = {}  # placed segment -> value, in placement order
        if start is None:
            self.entries: list[tuple | None] = [None] * n  # each segment's signature_entry, None until refreshed
            self.groups: dict[float, list[int]] = {}
            self.stale = set(range(1, n + 1))
        else:
            entries, groups = start
            self.entries = entries.copy()
            self.groups = {entropy: ids.copy() for entropy, ids in groups.items()}
            self.stale = set()

    def ties(self) -> list[int]:
        """Ascending ids of the minimum-entropy segments, those within
        ``_ENTROPY_TIE_TOL`` of it included.  Raises ConflictError naming
        the lowest stale segment with no admissible value.  The list may be
        the state's own: read it before the next ``place``.  A refresh reads
        ``signature_entry``'s cache key itself and calls it only on a miss
        or a conflict."""
        entries, groups, codes = self.entries, self.groups, self.codes
        comp, n_values, outputs = self.comp, self.n_values, self.outputs
        cache = comp.dist_cache
        for seg in sorted(self.stale):
            signature = tuple(codes[seg - 1])
            entry = cache.get((signature, n_values, outputs[seg - 1]))
            if entry is None or entry is _CONFLICT:
                entry = signature_entry(comp, signature, n_values, seg)
                if entry is None:
                    raise ConflictError(seg, self.content())
            old = entries[seg - 1]
            entries[seg - 1] = entry
            if old is None or entry[1] != old[1]:
                if old is not None:
                    self._leave_group(seg, old[1])
                insort(groups.setdefault(entry[1], []), seg)
        self.stale.clear()
        low = min(groups) + _ENTROPY_TIE_TOL
        near = [ids for e, ids in groups.items() if e <= low]
        return near[0] if len(near) == 1 else sorted(chain.from_iterable(near))

    def _leave_group(self, segment: int, entropy: float) -> None:
        ids = self.groups[entropy]
        if len(ids) == 1:
            del self.groups[entropy]
        else:
            del ids[bisect_left(ids, segment)]

    def place(self, segment: int, value: int) -> None:
        self.values[segment] = value
        self._leave_group(segment, self.entries[segment - 1][1])
        self.stale.discard(segment)
        codes = self.codes
        for row, column in self.edges[segment - 1]:
            constraint = codes[row]
            code = constraint[column]
            if code != value and code != -1:
                constraint[column] = value if code == 0 else -1
                if row + 1 not in self.values:
                    self.stale.add(row + 1)

    def content(self) -> ContentInstance:
        return ContentInstance(self.values)


def _uniform_cumulative(c: int) -> tuple[float, ...]:
    """Cumulative table of ``c`` equal masses ``1 / c``, summed as numpy does."""
    return tuple(np.full(c, 1.0 / c).cumsum().tolist())


# Made once for tie counts up to 64, which cover over 99% of the draws on the
# benchmark's cwfc worlds.  On a 2-vCPU VM a lookup takes ~0.1 us and building
# a table ~4 us: built on every draw, tables took ~18% of a cwfc-worlds request.
_UNIFORM_CUMULATIVE = {c: _uniform_cumulative(c) for c in range(1, 65)}


# Totals of the tables past 64 ties, by tie count: one float per count drawn.
_UNIFORM_TOTAL: dict[int, float] = {}


def draw_tie(ties: list[int], u: float) -> int:
    """One of ``ties``, uniformly, with the uniform ``u``: the draw
    ``rng.categorical`` makes on the dense vector uniform over them, summed
    over the ties alone.  A dense cumulative stays flat across zeros, so
    both land on the same id.

    Past 64 ties the index is floor(t*c), t = u * total, unless t*c lies
    within c*c*2^-52 of an integer; only then is the table built.  Every
    partial sum of the table is below 2, so each of its c roundings errs by
    at most 2^-53 and fl(1/c) by at most 2^-53/c: entry k lies within
    c*2^-53 of (k+1)/c.  fl(t*c) lies within c*2^-52 of t*c, so outside the
    margin t lies farther than c*2^-53 from every k/c (c >= 2), and
    ``draw_index`` on the table lands on floor(t*c) too."""
    c = len(ties)
    cum = _UNIFORM_CUMULATIVE.get(c)
    if cum is None:
        total = _UNIFORM_TOTAL.get(c)
        if total is None:
            total = _UNIFORM_TOTAL[c] = _uniform_cumulative(c)[-1]
        x = u * total * c
        k = int(x)
        margin = c * c * 2.0**-52
        if margin < x - k < 1.0 - margin:
            return ties[k]
        cum = _uniform_cumulative(c)
    return ties[draw_index(cum, u)]


def cwfc_generate(
    adjacency: AdjacencyConfig,
    alphabet: Alphabet,
    ruleset: Ruleset,
    rng: RandomSource,
    max_restarts: int = 100,
    on_restart=None,
) -> ContentInstance:
    """Entropy-driven generation with restart-from-scratch on conflicts,
    through ``with_restarts``: a conflict discards the partial content and
    starts over with fresh draws.

    Each step draws a segment uniformly among the minimum-entropy ones, then
    its value from its pattern-based value distribution.  An attempt takes
    its 2N uniforms in one batch and gives back the ones a conflict leaves
    unused, so the stream moves as two single draws per step would move it.
    """
    n_values = alphabet.n_values
    n = adjacency.n_segments

    def attempt() -> ContentInstance:
        state = Placement(adjacency, ruleset, n_values)
        u = rng.uniforms(2 * n)
        try:
            for k in range(0, 2 * n, 2):
                segment = draw_tie(state.ties(), u[k])
                state.place(segment, draw_index(state.entries[segment - 1][2], u[k + 1]) + 1)
        except ConflictError:  # only ties raises it, before step k's draws
            rng.give_back(2 * n - k)
            raise
        return state.content()

    return with_restarts(attempt, max_restarts, on_restart)
