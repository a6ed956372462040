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
from bisect import bisect_right

import numpy as np

from .errors import BudgetExceededError, ConflictError, ContractError, RestartsExhaustedError
from .errors import SelectorContractError
from .model import ContentInstance, Distribution, Ruleset, AdjacencyConfig, value_distribution


class RandomSource:
    """Seedable deterministic stream with a categorical-draw primitive."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self._batch = None  # (bit generator state before, n) of the last uniforms batch

    def categorical(self, probs: np.ndarray) -> int:
        """One ``draw`` from the cumulative sum of ``probs``."""
        return self.draw(np.cumsum(probs))

    def draw(self, cum: np.ndarray, draws: int | None = None) -> int | np.ndarray:
        """Inverse-CDF draw of a 0-based index from the cumulative table ``cum``,
        ties ascending; with ``draws``, an array of that many indices, equal to
        as many single draws.  Raises ContractError on an empty table or a
        total mass that is not finite and positive."""
        u = self._rng.random(draws) * _total(cum)
        idx = cum.searchsorted(u, side="right")
        return int(idx) if draws is None else idx

    def uniform(self) -> float:
        """The next uniform of the stream: the one a single ``draw`` takes."""
        return self._rng.random()

    def uniforms(self, n: int) -> list[float]:
        """The next ``n`` uniforms of the stream, as the uniforms ``n`` single
        draws would take; ``give_back`` returns the unused ones."""
        self._batch = (self._rng.bit_generator.state, n)
        return self._rng.random(n).tolist()

    def give_back(self, k: int) -> None:
        """Return the last ``k`` uniforms of the last ``uniforms`` batch to the
        stream: it then stands where ``n - k`` single draws leave it.  Raises
        ValueError before any batch or unless 0 <= k <= n."""
        if self._batch is None:
            raise ValueError("give_back before any uniforms batch")
        state, n = self._batch
        if not 0 <= k <= n:
            raise ValueError(f"give_back({k}) outside [0, {n}] for a batch of {n} uniforms")
        bit_generator = self._rng.bit_generator
        bit_generator.state = state
        bit_generator.advance(n - k)  # PCG64 spends one step per double


def _total(cum) -> float:
    """``cum[-1]``, checked: ContractError on an empty table or a total mass
    that is not finite and positive."""
    if len(cum) == 0:
        raise ContractError("categorical draw from an empty table")
    total = cum[-1]
    if not 0.0 < total < math.inf:
        raise ContractError(f"categorical draw needs a finite positive total mass, got {total}")
    return total


def draw_index(cum: tuple[float, ...], u: float) -> int:
    """``RandomSource.draw`` from a cumulative table of floats, with the
    uniform ``u`` it would take: ``bisect_right`` lands where
    ``searchsorted(side="right")`` does, bit for bit.  Raises as ``draw``."""
    return bisect_right(cum, u * _total(cum))


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
    ``max_restarts`` restarts all hit a conflict again, and ValueError on a
    negative ``max_restarts``.
    """
    if max_restarts < 0:
        raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
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
