"""Classical wave function collapse: minimum-entropy segment selection with
pattern-based value selection and restart-on-conflict."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConflictError
from .framework import RandomSource, with_restarts
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
    code changed stale; ``ties`` refreshes their distribution entries and
    entropies, in ascending id order, before it reads the minimum.  Placed
    segments have entropy +inf.
    """

    def __init__(self, adjacency: AdjacencyConfig, ruleset: Ruleset, n_values: int):
        comp = ruleset.compiled
        comp.check(adjacency.n_directions, n_values)
        n = adjacency.n_segments
        self.adjacency, self.comp, self.n_values = adjacency, comp, n_values
        self.codes = [[0] * comp.max_direction for _ in range(n)]
        self.entropies = np.zeros(n)
        self.entries: list[tuple | None] = [None] * n  # each segment's current signature_entry
        self.stale = set(range(1, n + 1))
        self.values: dict[int, int] = {}  # placed segment -> value, in placement order

    def ties(self) -> np.ndarray:
        """Ascending 0-based ids of the minimum-entropy segments.  Raises
        ConflictError naming the lowest stale segment with no admissible
        value."""
        h = self.entropies
        for seg in sorted(self.stale):
            entry = signature_entry(self.comp, tuple(self.codes[seg - 1]), self.n_values, seg)
            if entry is None:
                raise ConflictError(seg, self.content())
            self.entries[seg - 1] = entry
            h[seg - 1] = entry[1]
        self.stale.clear()
        return (h <= h.min() + _ENTROPY_TIE_TOL).nonzero()[0]

    def place(self, segment: int, value: int) -> None:
        self.values[segment] = value
        self.entropies[segment - 1] = math.inf
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
        return ContentInstance(tuple(self.values.items()))


def _uniform_cumulative(c: int) -> np.ndarray:
    """Read-only cumulative table of ``c`` equal masses ``1 / c``."""
    cum = np.full(c, 1.0 / c).cumsum()
    cum.setflags(write=False)
    return cum


# Made once for tie counts up to 64, which cover over 99% of the draws on the
# benchmark's cwfc worlds.  On a 2-vCPU VM a lookup takes ~0.1 us and building
# a table ~4 us: built on every draw, tables took ~18% of a cwfc-worlds request.
_UNIFORM_CUMULATIVE = {c: _uniform_cumulative(c) for c in range(1, 65)}


def draw_tie(ties: np.ndarray, rng: RandomSource) -> int:
    """One of ``ties``, uniformly: the draw ``rng.categorical`` makes on the
    dense vector uniform over them, summed over the ties alone.  A dense
    cumulative stays flat across zeros, so both land on the same id and
    leave ``rng`` at the same position."""
    c = len(ties)
    cum = _UNIFORM_CUMULATIVE[c] if c in _UNIFORM_CUMULATIVE else _uniform_cumulative(c)
    return int(ties[rng.draw(cum)])


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
    its value from its pattern-based value distribution.
    """
    n_values = alphabet.n_values

    def attempt() -> ContentInstance:
        state = Placement(adjacency, ruleset, n_values)
        for _ in range(adjacency.n_segments):
            segment = draw_tie(state.ties(), rng) + 1
            state.place(segment, rng.draw(state.entries[segment - 1][2]) + 1)
        return state.content()

    return with_restarts(attempt, max_restarts, on_restart)
