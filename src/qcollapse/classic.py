"""Classical wave function collapse: minimum-entropy segment selection with
pattern-based value selection and restart-on-conflict."""

from __future__ import annotations

import math

import numpy as np

from .framework import RandomSource, generate, ruleset_value_selector, with_restarts
from .model import (
    AdjacencyConfig,
    Alphabet,
    ContentInstance,
    Ruleset,
    value_distribution,  # noqa: F401  (perfbench traces this name)
    value_entropy,
)

_ENTROPY_TIE_TOL = 1e-12


def shannon_entropy(
    segment: int,
    adjacency: AdjacencyConfig,
    content: ContentInstance,
    ruleset: Ruleset,
    n_values: int,
) -> float:
    """Entropy in nats of the segment's value distribution (0 ln 0 := 0).

    Read off the distribution cache through ``value_entropy``: the entry
    that holds a vector holds its entropy too, computed once when the entry
    was filled.
    """
    return value_entropy(segment, adjacency, content, ruleset, n_values)


class EntropySelector:
    """Identifier selector: uniform over the minimum-entropy segments.

    Keeps one entropy per segment in an array, +inf once the segment is
    placed.  Each call recomputes, in ascending id order, only the segments
    that newly placed values influence (``AdjacencyConfig.influenced_by``),
    so a step costs what it changed.  Content that does not extend what the
    selector saw last starts it over.
    """

    def __init__(self, adjacency: AdjacencyConfig, ruleset: Ruleset, n_values: int):
        self.adjacency = adjacency
        self.ruleset = ruleset
        self.n_values = n_values
        self._reset()

    def _reset(self) -> None:
        n = self.adjacency.n_segments
        self._h = np.zeros(n)
        self._stale = set(range(1, n + 1))
        self._seen: tuple[tuple[int, int], ...] = ()

    def _sync(self, content: ContentInstance) -> None:
        entries = content.entries
        n = len(self._seen)
        if entries[:n] != self._seen:
            self._reset()
            n = 0
        placed = content.mapping
        for seg, _ in entries[n:]:
            self._h[seg - 1] = math.inf
            self._stale.discard(seg)
            self._stale.update(o for o in self.adjacency.influenced_by(seg) if o not in placed)
        self._seen = entries

    def __call__(self, k: int, content: ContentInstance) -> np.ndarray:
        self._sync(content)
        h = self._h
        for i in sorted(self._stale):
            h[i - 1] = shannon_entropy(i, self.adjacency, content, self.ruleset, self.n_values)
        self._stale.clear()
        h_min = h.min()
        if h_min == math.inf:
            return np.zeros(len(h))
        mins = h <= h_min + _ENTROPY_TIE_TOL
        return mins.astype(float) / np.count_nonzero(mins)


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
    """
    n_values = alphabet.n_values
    value_sel = ruleset_value_selector(adjacency, ruleset, n_values)
    return with_restarts(
        lambda: generate(
            adjacency.n_segments, EntropySelector(adjacency, ruleset, n_values), value_sel, rng
        ),
        max_restarts,
        on_restart,
    )
