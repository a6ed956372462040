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
    AdjacencyConfig,
    Alphabet,
    ContentInstance,
    Ruleset,
    signature_entry,
    value_distribution,  # noqa: F401  (perfbench traces this name)
    value_entropy,
)

_ENTROPY_TIE_TOL = 1e-12

# value_entropy under the name perfbench traces; cwfc reads entropies off
# its placement state instead.
shannon_entropy = value_entropy


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
    group.
    """

    def __init__(self, adjacency: AdjacencyConfig, ruleset: Ruleset, n_values: int):
        comp = ruleset.compiled
        comp.check(adjacency.n_directions, n_values)
        n = adjacency.n_segments
        self.adjacency, self.comp, self.n_values = adjacency, comp, n_values
        self.codes = [[0] * comp.max_direction for _ in range(n)]
        self.groups: dict[float, list[int]] = {}
        self.entries: list[tuple | None] = [None] * n  # each segment's signature_entry, None until refreshed
        self.stale = set(range(1, n + 1))
        self.values: dict[int, int] = {}  # placed segment -> value, in placement order

    def ties(self) -> list[int]:
        """Ascending ids of the minimum-entropy segments, those within
        ``_ENTROPY_TIE_TOL`` of it included.  Raises ConflictError naming
        the lowest stale segment with no admissible value.  The list may be
        the state's own: read it before the next ``place``."""
        entries, groups = self.entries, self.groups
        for seg in sorted(self.stale):
            entry = signature_entry(self.comp, tuple(self.codes[seg - 1]), self.n_values, seg)
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
        max_direction = self.comp.max_direction
        for i, d in self.adjacency.in_edges(segment):
            if d > max_direction:
                continue  # past the last direction a pattern names
            row = self.codes[i - 1]
            code = row[d - 1]
            if code != value and code != -1:
                row[d - 1] = value if code == 0 else -1
                if i not in self.values:
                    self.stale.add(i)

    def content(self) -> ContentInstance:
        return ContentInstance(self.values)


def _uniform_cumulative(c: int) -> tuple[float, ...]:
    """Cumulative table of ``c`` equal masses ``1 / c``, summed as numpy does."""
    return tuple(np.full(c, 1.0 / c).cumsum().tolist())


# Made once for tie counts up to 64, which cover over 99% of the draws on the
# benchmark's cwfc worlds.  On a 2-vCPU VM a lookup takes ~0.1 us and building
# a table ~4 us: built on every draw, tables took ~18% of a cwfc-worlds request.
_UNIFORM_CUMULATIVE = {c: _uniform_cumulative(c) for c in range(1, 65)}


def draw_tie(ties: list[int], u: float) -> int:
    """One of ``ties``, uniformly, with the uniform ``u``: the draw
    ``rng.categorical`` makes on the dense vector uniform over them, summed
    over the ties alone.  A dense cumulative stays flat across zeros, so
    both land on the same id."""
    c = len(ties)
    cum = _UNIFORM_CUMULATIVE[c] if c in _UNIFORM_CUMULATIVE else _uniform_cumulative(c)
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
