"""Trace exporters: Chrome-trace/Perfetto JSON and Prometheus text (repro.obs).

The on-disk trace written by ``--trace FILE`` is a standard Chrome Trace
Event file -- loadable directly in Perfetto (ui.perfetto.dev) or
``chrome://tracing`` -- with one extra top-level key, ``"repro"``, that
preserves the full hierarchical span dicts (both formats tolerate unknown
top-level keys).  ``repro trace summarize`` reads the ``"repro"`` key back
for lossless round-trips and falls back to ``traceEvents`` for foreign
files.

:func:`prometheus_text` flattens a span forest into Prometheus exposition
format (per-span-name totals, counter totals, event counts) for scraping
or diffing between runs.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator

#: Version of the ``"repro"`` sidecar block inside trace files.
TRACE_VERSION = 1


# ----------------------------------------------------------------------
# Span-dict walking helpers (exporters work on plain dicts so they can
# consume both live Span.to_dict() output and reloaded files).
# ----------------------------------------------------------------------
def walk(spans: Iterable[dict]) -> Iterator[dict]:
    """Every span dict in the forest, depth-first."""
    for span in spans:
        yield span
        yield from walk(span.get("children") or [])


def walk_with_ancestors(
    spans: Iterable[dict], ancestors: tuple = ()
) -> Iterator[tuple[dict, tuple]]:
    for span in spans:
        yield span, ancestors
        yield from walk_with_ancestors(
            span.get("children") or [], ancestors + (span,)
        )


# ----------------------------------------------------------------------
# Chrome trace / Perfetto
# ----------------------------------------------------------------------
def chrome_trace(spans: list[dict], run_id: str | None = None) -> dict:
    """A Chrome Trace Event document for a span forest.

    Spans become complete ("X") events on a per-process track; span events
    become instant ("i") events at their recorded timestamps.
    """
    trace_events: list[dict] = []
    for span in walk(spans):
        pid = int(span.get("pid", 0))
        args = dict(span.get("attrs") or {})
        for counter, value in (span.get("counters") or {}).items():
            args[f"counter.{counter}"] = value
        trace_events.append(
            {
                "name": span.get("name", "?"),
                "ph": "X",
                "ts": float(span.get("t0", 0.0)) * 1e6,
                "dur": float(span.get("dur", 0.0)) * 1e6,
                "pid": pid,
                "tid": pid,
                "cat": "repro",
                "args": args,
            }
        )
        for event in span.get("events") or []:
            # Placement uses the wall-clock "ts" stamp (cross-process
            # alignment); the monotonic "mono" stamp is for interval
            # arithmetic only and stays out of the rendered args.
            eargs = {
                k: v
                for k, v in event.items()
                if k not in ("name", "ts", "mono")
            }
            trace_events.append(
                {
                    "name": event.get("name", "event"),
                    "ph": "i",
                    "ts": float(event.get("ts", span.get("t0", 0.0))) * 1e6,
                    "pid": pid,
                    "tid": pid,
                    "cat": "repro",
                    "s": "t",
                    "args": eargs,
                }
            )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "repro": {"version": TRACE_VERSION, "run_id": run_id, "spans": spans},
    }


def write_chrome_trace(
    path: str, spans: list[dict], run_id: str | None = None
) -> str:
    """Write the Chrome-trace file for a span forest; returns the path."""
    document = chrome_trace(spans, run_id=run_id)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, default=str)
    return path


def load_trace(path: str) -> tuple[str | None, list[dict]]:
    """Read a trace file back as ``(run_id, span forest)``.

    Files written by :func:`write_chrome_trace` round-trip exactly through
    the ``"repro"`` sidecar; foreign Chrome traces degrade to a flat list
    of root spans rebuilt from their "X" events.
    """
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: not a trace file")
    sidecar = data.get("repro")
    if isinstance(sidecar, dict) and "spans" in sidecar:
        return sidecar.get("run_id"), list(sidecar["spans"])
    spans = [
        {
            "name": ev.get("name", "?"),
            "t0": float(ev.get("ts", 0.0)) / 1e6,
            "dur": float(ev.get("dur", 0.0)) / 1e6,
            "pid": int(ev.get("pid", 0)),
            "attrs": dict(ev.get("args") or {}),
            "counters": {},
            "events": [],
            "children": [],
        }
        for ev in data.get("traceEvents", [])
        if ev.get("ph") == "X"
    ]
    return None, spans


# ----------------------------------------------------------------------
# Prometheus-style text dump
# ----------------------------------------------------------------------
def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def prometheus_text(spans: list[dict], extra: dict | None = None) -> str:
    """Flatten a span forest into Prometheus exposition-format text.

    Emits, per span name: total seconds and occurrence count; per
    (span, counter): counter totals; per (span, event name): event counts.
    ``extra`` appends scalar gauges verbatim (e.g. EngineReport fields).
    """
    seconds: dict[str, float] = {}
    counts: dict[str, int] = {}
    counters: dict[tuple[str, str], float] = {}
    event_counts: dict[tuple[str, str], int] = {}
    for span in walk(spans):
        name = span.get("name", "?")
        seconds[name] = seconds.get(name, 0.0) + float(span.get("dur", 0.0))
        counts[name] = counts.get(name, 0) + 1
        for counter, value in (span.get("counters") or {}).items():
            key = (name, counter)
            counters[key] = counters.get(key, 0.0) + float(value)
        for event in span.get("events") or []:
            key = (name, event.get("name", "event"))
            event_counts[key] = event_counts.get(key, 0) + 1

    lines = [
        "# HELP repro_span_seconds_total Total wall seconds per span name.",
        "# TYPE repro_span_seconds_total counter",
    ]
    for name in sorted(seconds):
        lines.append(
            f'repro_span_seconds_total{{name="{_escape(name)}"}} '
            f"{seconds[name]:.9f}"
        )
    lines += [
        "# HELP repro_span_total Number of spans per span name.",
        "# TYPE repro_span_total counter",
    ]
    for name in sorted(counts):
        lines.append(f'repro_span_total{{name="{_escape(name)}"}} {counts[name]}')
    if counters:
        lines += [
            "# HELP repro_span_counter_total Span counter totals.",
            "# TYPE repro_span_counter_total counter",
        ]
        for name, counter in sorted(counters):
            lines.append(
                f'repro_span_counter_total{{name="{_escape(name)}",'
                f'counter="{_escape(counter)}"}} {counters[(name, counter)]:g}'
            )
    if event_counts:
        lines += [
            "# HELP repro_span_events_total Event counts per span name.",
            "# TYPE repro_span_events_total counter",
        ]
        for name, event in sorted(event_counts):
            lines.append(
                f'repro_span_events_total{{name="{_escape(name)}",'
                f'event="{_escape(event)}"}} {event_counts[(name, event)]}'
            )
    for key in sorted(extra or {}):
        lines.append(f"repro_{key} {(extra or {})[key]:g}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Top-down summary (the `repro trace summarize` renderer)
# ----------------------------------------------------------------------
def _merge_children(spans: list[dict]) -> dict[str, dict]:
    """Aggregate sibling spans by name: {name: {dur, count, children}}."""
    merged: dict[str, dict] = {}
    for span in spans:
        name = span.get("name", "?")
        slot = merged.setdefault(name, {"dur": 0.0, "count": 0, "spans": []})
        slot["dur"] += float(span.get("dur", 0.0))
        slot["count"] += 1
        slot["spans"].extend(span.get("children") or [])
    return merged


def _breakdown_lines(
    spans: list[dict], total: float, depth: int, lines: list[str]
) -> None:
    merged = _merge_children(spans)
    for name in sorted(merged, key=lambda n: -merged[n]["dur"]):
        slot = merged[name]
        share = 100.0 * slot["dur"] / total if total > 0 else 0.0
        label = "  " * depth + name
        lines.append(
            f"  {label:<42} {1000.0 * slot['dur']:>10.2f} ms "
            f"{share:>6.1f}%  x{slot['count']}"
        )
        if depth < 6:
            _breakdown_lines(slot["spans"], total, depth + 1, lines)


def _nearest_label(span: dict, ancestors: tuple) -> str:
    for candidate in (span,) + tuple(reversed(ancestors)):
        label = (candidate.get("attrs") or {}).get("label")
        if label:
            return str(label)
    return ""


def summarize(spans: list[dict], run_id: str | None = None) -> str:
    """A top-down time breakdown plus a convergence table for a span forest."""
    all_spans = list(walk(spans))
    total = sum(float(s.get("dur", 0.0)) for s in spans)
    pids = sorted({int(s.get("pid", 0)) for s in all_spans})
    header = (
        f"trace: {len(all_spans)} spans, "
        f"{sum(len(s.get('events') or []) for s in all_spans)} events, "
        f"{len(pids)} process{'es' if len(pids) != 1 else ''}, "
        f"total {1000.0 * total:.2f} ms"
    )
    if run_id:
        header = f"run {run_id}\n" + header
    lines = [header, "", "time breakdown (top-down):"]
    _breakdown_lines(spans, total, 0, lines)

    # Convergence table: one row per LP solve and per slide.
    lp_rows: list[tuple[str, str, str, str]] = []
    slide_rows: list[tuple[str, str, str, str]] = []
    for span, ancestors in walk_with_ancestors(spans):
        attrs = span.get("attrs") or {}
        label = _nearest_label(span, ancestors)
        if span.get("name") == "lp_solve":
            pivots = sum(
                1 for e in span.get("events") or [] if e.get("name") == "pivot"
            ) or attrs.get("pivots", "")
            lp_rows.append(
                (
                    label,
                    str(attrs.get("backend", "")),
                    str(pivots),
                    f"{1000.0 * float(span.get('dur', 0.0)):.2f}",
                )
            )
        elif span.get("name") == "slide":
            slide_rows.append(
                (
                    label,
                    str(attrs.get("method", "")),
                    str(attrs.get("sweeps", "")),
                    f"{attrs.get('residual', '')}",
                )
            )
    if lp_rows:
        lines += ["", "lp solves:"]
        lines += _table(["label", "backend", "pivots", "ms"], lp_rows)
    if slide_rows:
        lines += ["", "slide convergence:"]
        lines += _table(["label", "method", "sweeps", "residual"], slide_rows)
    return "\n".join(lines)


def _table(columns: list[str], rows: list[tuple]) -> list[str]:
    widths = [
        max(len(col), *(len(str(row[i])) for row in rows))
        for i, col in enumerate(columns)
    ]
    out = [
        "  " + "  ".join(col.ljust(w) for col, w in zip(columns, widths)),
        "  " + "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        out.append(
            "  " + "  ".join(str(v).ljust(w) for v, w in zip(row, widths))
        )
    return out
