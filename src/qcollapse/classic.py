"""Classical wave function collapse: minimum-entropy segment selection with
pattern-based value selection and restart-on-conflict."""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
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
    _cache,
    value_entropy,
)

_ENTROPY_TIE_TOL = 1e-12

# value_entropy under the name perfbench traces; cwfc reads entropies off
# its placement state instead.
shannon_entropy = value_entropy


def _steps(adjacency: AdjacencyConfig, comp: CompiledRuleset, n_values: int) -> tuple:
    """What every cwfc attempt on (adjacency, W) reads, built once and kept
    on the compiled ruleset.  Per segment id (index id - 1): its in-edges as
    0-based (row, column) pairs into ``Placement.codes``, cut to the last
    direction a pattern names, and its factor outputs, the third part of its
    ``dist_cache`` key.  Then the start: every segment's entry under no
    placed neighbor, and the entropy groups of those entries; None when a
    segment conflicts there, and the outputs stop at the first such
    segment, which ``_start`` names."""
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
        steps = _cache(comp, comp.cwfc_steps, key, (edges, tuple(outputs), start), len(edges) + sum(map(len, edges)))
    return steps


def _start(adjacency: AdjacencyConfig, ruleset: Ruleset, n_values: int) -> tuple:
    """The compiled ruleset, checked against the adjacency and W, and its
    ``_steps`` table.  Raises ConflictError, naming the segment, where the
    table keeps no start: that conflict reads no draw, so every attempt
    meets it."""
    comp = ruleset.compiled
    comp.check(adjacency.n_directions, n_values)
    steps = _steps(adjacency, comp, n_values)
    if steps[2] is None:
        raise ConflictError(len(steps[1]), ContentInstance(), "before any draw, so every attempt conflicts")
    return comp, steps


class Placement:
    """One cwfc attempt's mutable state.

    ``codes[i-1][d-1]`` is segment i's constraint in direction d, as
    ``constraint_signature`` gives it: 0 = no placed neighbor, -1 = placed
    neighbors disagree, otherwise their common value.  A placement updates
    only the codes of its in-neighbors and refreshes the distribution entry
    of each unplaced one whose code it changed, at once.  ``groups`` maps
    each entropy (an entry's ``[1]``) to the ascending ids of the unplaced
    segments that have it, and ``levels`` lists its keys in ascending order,
    so a step reads the lowest entropies first and no other group.  Placed
    segments belong to no group.  An attempt starts from copies of its
    ``_steps`` start; where a segment conflicts there, building the state
    raises ConflictError, before any draw.
    """

    def __init__(self, adjacency: AdjacencyConfig, ruleset: Ruleset, n_values: int):
        comp, (self.edges, self.outputs, (entries, groups)) = _start(adjacency, ruleset, n_values)
        self.comp, self.n_values = comp, n_values
        self.codes = [[0] * comp.max_direction for _ in range(adjacency.n_segments)]
        self.values: dict[int, int] = {}  # placed segment -> value, in placement order
        self.entries: list[tuple] = entries.copy()  # each segment's signature_entry
        self.groups: dict[float, list[int]] = {entropy: ids.copy() for entropy, ids in groups.items()}
        self.levels = sorted(groups)

    def ties(self) -> list[int]:
        """Ascending ids of the minimum-entropy segments, those within
        ``_ENTROPY_TIE_TOL`` of it included: the ties the next step of
        ``run`` draws among.  The list may be the state's own: read it
        before the next ``run``."""
        return _ties(self.levels, self.groups)

    def run(self, u: list[float], steps: int) -> None:
        """Make ``steps`` more placements.  Placement k of the attempt
        (0-based) draws its segment among the ties with ``u[2k]`` and its
        value from the segment's entry with ``u[2k + 1]``.  Raises
        ConflictError, after the failing placement's two draws, naming the
        lowest in-neighbor that placement leaves with no admissible value.
        A refresh reads ``signature_entry``'s cache key itself and calls it
        only on a miss or a conflict."""
        entries, groups, levels, codes, values = self.entries, self.groups, self.levels, self.codes, self.values
        comp, n_values, edges, outputs = self.comp, self.n_values, self.edges, self.outputs
        cache = comp.dist_cache
        first = 2 * len(values)
        for k in range(first, first + 2 * steps, 2):
            segment = draw_tie(_ties(levels, groups), u[k])
            entry = entries[segment - 1]
            value = values[segment] = draw_index(entry[2], u[k + 1]) + 1
            _leave(levels, groups, segment, entry[1])
            conflict = 0
            for row, column in edges[segment - 1]:
                constraint = codes[row]
                code = constraint[column]
                if code == value or code == -1:
                    continue
                constraint[column] = value if code == 0 else -1
                seg = row + 1
                if seg in values:
                    continue
                signature = tuple(constraint)
                new = cache.get((signature, n_values, outputs[row]))
                if new is None or new is _CONFLICT:
                    new = signature_entry(comp, signature, n_values, seg)
                    if new is None:
                        if not conflict or seg < conflict:
                            conflict = seg
                        continue
                old = entries[row][1]
                entries[row] = new
                entropy = new[1]
                if entropy != old:
                    _leave(levels, groups, seg, old)
                    ids = groups.get(entropy)
                    if ids is None:
                        groups[entropy] = [seg]
                        insort(levels, entropy)
                    else:
                        insort(ids, seg)
            if conflict:
                raise ConflictError(conflict, self.content())

    def content(self) -> ContentInstance:
        return ContentInstance(self.values)


def _ties(levels: list[float], groups: dict[float, list[int]]) -> list[int]:
    """The group at ``levels[0]``, or the ascending merge of every group
    within ``_ENTROPY_TIE_TOL`` of it."""
    low = levels[0]
    if len(levels) == 1 or levels[1] > low + _ENTROPY_TIE_TOL:
        return groups[low]
    near = levels[: bisect_right(levels, low + _ENTROPY_TIE_TOL)]
    return sorted(chain.from_iterable(groups[entropy] for entropy in near))


def _leave(levels: list[float], groups: dict[float, list[int]], segment: int, entropy: float) -> None:
    """Take ``segment`` out of its entropy group; an emptied group and its
    level go."""
    ids = groups[entropy]
    if len(ids) == 1:
        del groups[entropy]
        del levels[bisect_left(levels, entropy)]
    else:
        del ids[bisect_left(ids, segment)]


def _uniform_cumulative(c: int) -> tuple[float, ...]:
    """Cumulative table of ``c`` equal masses ``1 / c``, summed as numpy does."""
    return tuple(np.full(c, 1.0 / c).cumsum().tolist())


# Totals of the tables, by tie count: one float per count drawn.
_UNIFORM_TOTAL: dict[int, float] = {}


def draw_tie(ties: list[int], u: float) -> int:
    """One of ``ties``, uniformly, with the uniform ``u``: the draw
    ``rng.categorical`` makes on the dense vector uniform over them, summed
    over the ties alone.  A dense cumulative stays flat across zeros, so
    both land on the same id.

    A lone tie is the draw.  Among c >= 2 the index is floor(t*c), t =
    u * total, unless t*c lies within c*c*2^-52 of an integer; only then is
    the table built.  Every partial sum of the table is below 2, so each of
    its c roundings errs by at most 2^-53 and fl(1/c) by at most 2^-53/c:
    entry k lies within c*2^-53 of (k+1)/c.  fl(t*c) lies within c*2^-52 of
    t*c, so outside the margin t lies farther than c*2^-53 from every k/c
    (c >= 2), and ``draw_index`` on the table lands on floor(t*c) too."""
    c = len(ties)
    if c == 1:
        return ties[0]
    total = _UNIFORM_TOTAL.get(c)
    if total is None:
        total = _UNIFORM_TOTAL[c] = _uniform_cumulative(c)[-1]
    x = u * total * c
    k = int(x)
    margin = c * c * 2.0**-52
    if margin < x - k < 1.0 - margin:
        return ties[k]
    return ties[draw_index(_uniform_cumulative(c), u)]


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
    starts over with fresh draws.  A world that conflicts before any draw
    is refused once, with ConflictError, after ``with_restarts`` refuses a
    negative cap: no attempt, restart or draw is made.

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
            state.run(u, n)
        except ConflictError:  # after the failing placement's two draws
            rng.give_back(2 * n - 2 * len(state.values))
            raise
        return ContentInstance._adopt(state.values)

    if max_restarts >= 0:  # a negative cap is with_restarts' ValueError
        _start(adjacency, ruleset, n_values)
    return with_restarts(attempt, max_restarts, on_restart)
