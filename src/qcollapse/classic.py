"""Classical wave function collapse: minimum-entropy segment selection with
pattern-based value selection and restart-on-conflict."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConflictError, RestartsExhaustedError
from .framework import RandomSource, generate, ruleset_value_selector
from .model import (
    AdjacencyConfig,
    Alphabet,
    ContentInstance,
    Ruleset,
    value_distribution,
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

    Read off ``value_distribution``'s cached vector: with constant weights
    the signature and W fix the distribution, so they fix its entropy too.
    """
    p = value_distribution(segment, adjacency, content, ruleset, n_values)
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


@dataclass(frozen=True)
class EntropyReport:
    entropies: dict[int, float]  # unplaced segment -> entropy in nats
    minimizers: tuple[int, ...]  # segments attaining the minimum


def entropy_report(
    adjacency: AdjacencyConfig, content: ContentInstance, ruleset: Ruleset, n_values: int
) -> EntropyReport:
    placed = content.mapping
    entropies = {
        i: shannon_entropy(i, adjacency, content, ruleset, n_values)
        for i in range(1, adjacency.n_segments + 1)
        if i not in placed
    }
    if not entropies:
        return EntropyReport({}, ())
    h_min = min(entropies.values())
    mins = tuple(i for i, h in sorted(entropies.items()) if h <= h_min + _ENTROPY_TIE_TOL)
    return EntropyReport(entropies, mins)


class EntropySelector:
    """Identifier selector: uniform over the minimum-entropy segments.

    Caches per-segment entropies between calls and recomputes only segments
    affected by newly placed values, so repeated sampling stays cheap.
    """

    def __init__(self, adjacency: AdjacencyConfig, ruleset: Ruleset, n_values: int):
        self.adjacency = adjacency
        self.ruleset = ruleset
        self.n_values = n_values
        self._cache: dict[int, float] = {}
        self._seen: tuple[tuple[int, int], ...] = ()

    def _sync(self, content: ContentInstance) -> None:
        entries = content.entries
        n = len(self._seen)
        if entries[:n] != self._seen:
            self._cache.clear()
            self._seen = ()
            n = 0
        for seg, _ in entries[n:]:
            self._cache.pop(seg, None)
            for other in self.adjacency.influenced_by(seg):
                self._cache.pop(other, None)
        self._seen = entries

    def __call__(self, k: int, content: ContentInstance) -> np.ndarray:
        self._sync(content)
        placed = content.mapping
        h_min = math.inf
        for i in range(1, self.adjacency.n_segments + 1):
            if i in placed:
                continue
            h = self._cache.get(i)
            if h is None:
                h = shannon_entropy(i, self.adjacency, content, self.ruleset, self.n_values)
                self._cache[i] = h
            if h < h_min:
                h_min = h
        probs = np.zeros(self.adjacency.n_segments)
        for i, h in self._cache.items():
            if i not in placed and h <= h_min + _ENTROPY_TIE_TOL:
                probs[i - 1] = 1.0
        total = probs.sum()
        if total > 0.0:
            probs /= total
        return probs


def cwfc_generate(
    adjacency: AdjacencyConfig,
    alphabet: Alphabet,
    ruleset: Ruleset,
    rng: RandomSource,
    max_restarts: int = 100,
    on_restart=None,
) -> ContentInstance:
    """Entropy-driven generation with restart-from-scratch on conflicts.

    A conflict discards the partial content and starts over with fresh draws;
    ``on_restart`` (if given) is called once per restart actually taken.
    Raises RestartsExhaustedError after ``max_restarts`` restarts all hit a
    conflict again.
    """
    n_values = alphabet.n_values
    value_sel = ruleset_value_selector(adjacency, ruleset, n_values)
    for attempt in range(max_restarts + 1):
        id_sel = EntropySelector(adjacency, ruleset, n_values)
        try:
            return generate(adjacency.n_segments, id_sel, value_sel, rng)
        except ConflictError:
            if attempt == max_restarts:
                raise RestartsExhaustedError(max_restarts) from None
            if on_restart is not None:
                on_restart()
    raise AssertionError("unreachable")
