"""Generic probabilistic iterative generation: draw an identifier, draw a
value, append; repeated until the content is complete.

Selectors are plain callables:

* identifier selector: ``(k, content) -> probs`` of shape (N,)
* value selector: ``(k, segment, content) -> probs`` of shape (W,)

Both receive the partial content produced so far and must follow the usual
contracts (no mass on placed ids, at least one admissible id/value).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, ConflictError, ContractError, RestartsExhaustedError
from .errors import SelectorContractError
from .model import ContentInstance, Distribution, Ruleset, AdjacencyConfig, value_distribution


class RandomSource:
    """Seedable deterministic stream with a categorical-draw primitive."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)

    def categorical(self, probs: np.ndarray) -> int:
        """One ``draw`` from the cumulative sum of ``probs``."""
        return self.draw(np.cumsum(probs))

    def draw(self, cum: np.ndarray, draws: int | None = None) -> int | np.ndarray:
        """Inverse-CDF draw of a 0-based index from the cumulative table ``cum``,
        ties ascending; with ``draws``, an array of that many indices, equal to
        as many single draws.  Raises ContractError on an empty table or a
        total mass that is not finite and positive."""
        if cum.size == 0:
            raise ContractError("categorical draw from an empty table")
        total = cum[-1]
        if not (math.isfinite(total) and total > 0.0):
            raise ContractError(f"categorical draw needs a finite positive total mass, got {total}")
        u = self._rng.random(draws) * total
        idx = cum.searchsorted(u, side="right")
        return int(idx) if draws is None else idx


def fixed_order_selector(order: tuple[int, ...], n_segments: int):
    """Identifier selector that walks a predefined segment order."""
    order = tuple(order)

    def select(k: int, content: ContentInstance) -> np.ndarray:
        probs = np.zeros(n_segments)
        probs[order[k - 1] - 1] = 1.0
        return probs

    return select


def ruleset_value_selector(adjacency: AdjacencyConfig, ruleset: Ruleset, n_values: int):
    """Value selector backed by the pattern-based value distribution."""

    def select(k: int, segment: int, content: ContentInstance) -> np.ndarray:
        return value_distribution(segment, adjacency, content, ruleset, n_values)

    return select


def generate(
    n_segments: int,
    identifier_selector,
    value_selector,
    rng: RandomSource,
) -> ContentInstance:
    """Run the three-step iteration until ``n_segments`` entries are placed.

    Propagates ConflictError from the value selector; raises
    SelectorContractError if the identifier distribution puts mass on an
    already-placed id.
    """
    content = ContentInstance()
    placed = np.empty(n_segments, dtype=np.intp)  # 0-based ids, in placement order
    for k in range(1, n_segments + 1):
        id_probs = np.asarray(identifier_selector(k, content), dtype=float)
        if (id_probs[placed[: k - 1]] > 0.0).any():
            seg = next(s for s in content.mapping if id_probs[s - 1] > 0.0)
            raise SelectorContractError(
                f"identifier distribution puts mass on placed id {seg} at k={k}"
            )
        total = id_probs.sum()
        if total <= 0.0:
            raise SelectorContractError(f"identifier distribution empty at k={k}")
        segment = rng.categorical(id_probs) + 1
        value_probs = np.asarray(value_selector(k, segment, content), dtype=float)
        if value_probs.sum() <= 0.0:
            raise ConflictError(segment, content, "value selector returned empty support")
        value = rng.categorical(value_probs) + 1
        content = content.add(segment, value)
        placed[k - 1] = segment - 1
    return content


def with_restarts(attempt, max_restarts: int, on_restart=None):
    """``attempt()``, called again from scratch after each ConflictError.

    Every call draws on from wherever the previous one stopped in its random
    stream, so a restart makes fresh draws.  ``on_restart`` (if given) is
    called once per restart actually taken.  Any other error propagates at
    once.  Raises RestartsExhaustedError, naming the last conflict, after
    ``max_restarts`` restarts all hit a conflict again.
    """
    for restart in range(max_restarts + 1):
        try:
            return attempt()
        except ConflictError as exc:
            if restart == max_restarts:
                raise RestartsExhaustedError(max_restarts, exc) from exc
            if on_restart is not None:
                on_restart()
    raise AssertionError("unreachable")


# --------------------------------------------------------------------------
# exact enumeration
# --------------------------------------------------------------------------


EXACT_BUDGET = 1e6  # cap on the candidate instances an exact enumeration may visit


def _check_budget(n_segments: int, n_values: int) -> None:
    if n_values ** n_segments > EXACT_BUDGET:
        raise BudgetExceededError(
            f"{n_values}^{n_segments} candidate instances exceed the budget of {EXACT_BUDGET:g}"
        )


def exact_distribution_oracle(
    n_segments: int,
    n_values: int,
    identifier_selector,
    value_selector,
) -> Distribution:
    """Exact chain-rule distribution over complete instances.

    Walks every reachable (partial content, iteration) branch breadth-first,
    merging branches that reach the same set of placed pairs, so the sum over
    selection orders is accumulated without enumerating permutations.
    """
    _check_budget(n_segments, n_values)
    frontier: dict[frozenset[tuple[int, int]], float] = {frozenset(): 1.0}
    for k in range(1, n_segments + 1):
        nxt: dict[frozenset[tuple[int, int]], float] = {}
        for state, mass in frontier.items():
            content = ContentInstance(tuple(sorted(state)))
            id_probs = np.asarray(identifier_selector(k, content), dtype=float)
            for seg0 in np.nonzero(id_probs > 0.0)[0]:
                segment = int(seg0) + 1
                value_probs = np.asarray(value_selector(k, segment, content), dtype=float)
                for v0 in np.nonzero(value_probs > 0.0)[0]:
                    child = state | {(segment, int(v0) + 1)}
                    nxt[child] = nxt.get(child, 0.0) + mass * id_probs[seg0] * value_probs[v0]
        frontier = nxt
    return Distribution.fold(tuple(range(1, n_segments + 1)), n_values, frontier.items())


@dataclass(frozen=True)
class SelectorViolation:
    condition: str  # "S1" | "S2" | "V1" | "V2"
    iteration: int
    content: ContentInstance
    detail: str


def validate_selectors(
    n_segments: int,
    n_values: int,
    identifier_selector,
    value_selector,
) -> list[SelectorViolation]:
    """Exhaustively walk reachable branches and report contract violations.

    S1: mass on a placed id.  S2: no admissible unplaced id.  V1: mass outside
    the alphabet (wrong support length or negative entries).  V2: empty value
    support for a reachable (id, content) pair.

    Runs the oracle's walk with selectors that record each violation and hand
    the walk zero mass in its place, which ends that branch.
    """
    violations: list[SelectorViolation] = []

    def record(condition: str, k: int, content: ContentInstance, detail: str) -> np.ndarray:
        violations.append(SelectorViolation(condition, k, content, detail))
        return np.zeros(n_values)

    def checked_ids(k: int, content: ContentInstance) -> np.ndarray:
        id_probs = np.array(identifier_selector(k, content), dtype=float)
        for seg in content.mapping:
            if id_probs[seg - 1] > 0.0:
                record("S1", k, content, f"mass on placed id {seg}")
            id_probs[seg - 1] = 0.0
        if sum(id_probs) <= 0.0:
            record("S2", k, content, "no admissible unplaced id")
        return id_probs

    def checked_values(k: int, segment: int, content: ContentInstance) -> np.ndarray:
        try:
            value_probs = np.asarray(value_selector(k, segment, content), dtype=float)
        except ConflictError:
            return record("V2", k, content, f"conflict for id {segment}")
        if len(value_probs) != n_values or np.any(value_probs < 0.0):
            return record("V1", k, content, f"bad support for id {segment}")
        if value_probs.sum() <= 0.0:
            return record("V2", k, content, f"empty support for id {segment}")
        return value_probs

    exact_distribution_oracle(n_segments, n_values, checked_ids, checked_values)
    return violations
