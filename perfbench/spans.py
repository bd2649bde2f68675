"""In-memory span recording and per-layer self-time accounting.

A span is one call into a layer: name, start, end, parent span and the
request/invocation id it belongs to, plus optional integer counts taken
from the call's return value (pivots, rows, sweeps, ...).  Spans are kept
in a list and written out once, when the traced process ends.

Parents are tracked per thread, so a span opened on the serve event loop
never adopts a span running on an executor thread.  A layer's *self time*
is the summed duration of its spans minus the part of each span that its
child spans cover; self times of all layers plus ``unattributed`` add up
to the traced wall time.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Any, Callable, Iterable

#: Span names that mark structure but are not layers of their own; their
#: self time is reported as ``unattributed``.
MARKERS = ("cli.main", "sweep")


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self, rid: str) -> None:
        self.rid = rid
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        """True when a span called ``name`` is open on this thread."""
        return any(span["name"] == name for span in self._stack())

    def begin(self, name: str, rid: str | None = None) -> dict[str, Any]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "rid": rid or (parent["rid"] if parent else self.rid),
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: dict[str, Any]) -> None:
        span["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[[tuple, dict], str],
        counts: Callable[[Any], dict[str, int]] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper that records one span per call.

        ``name`` is the span name or a function of the call's arguments;
        ``counts`` maps the return value to integer counts on the span.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            label = name(args, kwargs) if callable(name) else name
            span = self.begin(label)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(span)
            if counts is not None:
                span.update(counts(result))
            return result

        setattr(owner, attr, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"rid": self.rid, "spans": self.spans}, handle)


def load(paths: Iterable[str]) -> list[dict[str, Any]]:
    """Spans of several traced processes; ids are made unique per file."""
    spans: list[dict[str, Any]] = []
    for index, path in enumerate(paths):
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        for span in data["spans"]:
            if span["end"] is None:
                continue
            span = dict(span)
            span["id"] = (index, span["id"])
            if span["parent"] is not None:
                span["parent"] = (index, span["parent"])
            spans.append(span)
    return spans


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def layer_table(spans: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Per span name: self seconds, calls and summed counts.

    ``calls`` counts the outermost span of each nested run of one name
    (``parse_file`` calling ``parse_circuit`` is one parse).
    """
    by_id = {span["id"]: span for span in spans}
    children: dict[Any, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] in by_id:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    table: dict[str, dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span["name"], {"self_s": 0.0, "calls": 0.0})
        duration = span["end"] - span["start"]
        row["self_s"] += duration - _covered(
            span["start"], span["end"], children.get(span["id"], [])
        )
        parent = by_id.get(span["parent"])
        if parent is None or parent["name"] != span["name"]:
            row["calls"] += 1
        for key, value in span.items():
            if key.startswith("n_"):
                row[key] = row.get(key, 0.0) + value
    return table


def durations(spans: list[dict[str, Any]], name: str) -> list[float]:
    """Inclusive durations of every span called ``name``."""
    return [s["end"] - s["start"] for s in spans if s["name"] == name]
