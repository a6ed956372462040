"""In-memory span tracing around the public functions of qcollapse.

The tracer replaces a module attribute (``qcollapse.hybrid.build_circuit``,
``qcollapse.classic.value_distribution``, ...) with a wrapper that records a
span -- name, start, end, parent, error -- around every call, and restores
the original afterwards.  Each name is wrapped where its caller looks it up,
so a function imported into several modules is wrapped once per module.
Nothing inside ``src/`` is changed.

Spans stay in memory until :meth:`Tracer.summary` folds them into per-name
totals.  A span's self time is its duration minus the part of its interval
covered by its child spans.
"""

from __future__ import annotations

import functools
import time

# Span record fields; spans are kept as small lists to bound memory.
NAME, START, END, PARENT, ERROR = range(5)

COUNTERS_SPAN = "trace.counters"


class Tracer:
    """Records nested spans and counters for one traced phase."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.keysets: dict[str, set] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording ----------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int, error: str | None = None) -> None:
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][NAME]!r} closed out of order")
        span = self.spans[index]
        span[END] = self.clock()
        span[ERROR] = error

    def traced(self, fn, name: str, after=None):
        """``fn`` wrapped in a span; ``after(tracer, args, kwargs, result)``
        runs in its own counters span (``result`` is None when ``fn`` raised)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(index, type(exc).__name__)
                if after is not None:
                    tracer._count(after, args, kwargs, None)
                raise
            tracer.close(index)
            if after is not None:
                tracer._count(after, args, kwargs, result)
            return result

        return wrapper

    def _count(self, after, args, kwargs, result) -> None:
        index = self.open(COUNTERS_SPAN)
        try:
            after(self, args, kwargs, result)
        finally:
            self.close(index)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.traced(original, name, after))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- counters ----------------------------------------------------------

    def add(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def high(self, name: str, value: float) -> None:
        if name not in self.maxima or value > self.maxima[name]:
            self.maxima[name] = value

    def seen(self, name: str, key) -> bool:
        """Record ``key`` under ``name``; True if it was recorded before."""
        keys = self.keysets.setdefault(name, set())
        if key in keys:
            return True
        keys.add(key)
        return False

    # -- aggregation -------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, inclusive and self time, errors; parent->child call
        counts; counters, maxima and distinct-key counts.  Mergeable across
        processes with :func:`merge`."""
        if self._stack:
            raise RuntimeError("summary taken while spans are still open")
        return {
            "spans": span_totals(self.spans),
            "edges": edge_counts(self.spans),
            "counters": {
                **self.counters,
                **{f"{name}.distinct": len(keys) for name, keys in self.keysets.items()},
            },
            "maxima": dict(self.maxima),
        }


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the part of it its children cover.

    Children of one span never overlap each other (one thread, nested
    calls), so their clipped durations add up to the covered part.
    """
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent is None:
            continue
        p = spans[parent]
        covered = min(span[END], p[END]) - max(span[START], p[START])
        if covered > 0:
            own[parent] -= covered
    return own


def counter_time_inside(spans: list[list]) -> list[float]:
    """Time each span spent in counter spans anywhere below it."""
    inside = [0.0] * len(spans)
    for span in spans:
        if span[NAME] != COUNTERS_SPAN:
            continue
        duration = span[END] - span[START]
        parent = span[PARENT]
        while parent is not None:
            inside[parent] += duration
            parent = spans[parent][PARENT]
    return inside


def span_totals(spans: list[list]) -> dict[str, dict]:
    """Per name: calls, inclusive time without the counters taken below the
    span (``total_s``), self time (``self_s``) and error counts by type."""
    totals: dict[str, dict] = {}
    for span, own, counted in zip(spans, self_times(spans), counter_time_inside(spans)):
        entry = totals.setdefault(
            span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": {}}
        )
        entry["calls"] += 1
        entry["total_s"] += span[END] - span[START] - counted
        entry["self_s"] += own
        if span[ERROR] is not None:
            entry["errors"][span[ERROR]] = entry["errors"].get(span[ERROR], 0) + 1
    return totals


def edge_counts(spans: list[list]) -> dict[str, int]:
    """Calls of each child name under each parent name, as ``parent>child``."""
    edges: dict[str, int] = {}
    for span in spans:
        if span[PARENT] is not None:
            key = f"{spans[span[PARENT]][NAME]}>{span[NAME]}"
            edges[key] = edges.get(key, 0) + 1
    return edges


def empty_summary() -> dict:
    return {"spans": {}, "edges": {}, "counters": {}, "maxima": {}}


def merge(total: dict, part: dict) -> dict:
    """Add ``part`` into ``total`` (both as returned by Tracer.summary)."""
    for name, entry in part["spans"].items():
        into = total["spans"].setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": {}}
        )
        into["calls"] += entry["calls"]
        into["total_s"] += entry["total_s"]
        into["self_s"] += entry["self_s"]
        for err, n in entry["errors"].items():
            into["errors"][err] = into["errors"].get(err, 0) + n
    for key in ("edges", "counters"):
        for name, value in part[key].items():
            total[key][name] = total[key].get(name, 0) + value
    for name, value in part["maxima"].items():
        total["maxima"][name] = max(total["maxima"].get(name, value), value)
    return total
