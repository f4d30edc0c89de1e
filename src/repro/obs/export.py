"""Exporters: Chrome trace-event JSON and metrics dumps.

``chrome_trace`` produces the JSON Object Format of the Trace Event
specification — load the file in ``chrome://tracing`` or
https://ui.perfetto.dev to see gate crossings, scheduler quanta, and
allocator traffic laid out on the simulated timeline, one track per
simulated thread.

``validate_chrome_trace`` is the schema checker the test-suite (and any
pipeline consuming traces) uses: required keys per phase, balanced
begin/end pairs per track, monotonic timestamps.
"""

from __future__ import annotations

import json
import pathlib

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

#: Single simulated machine == single "process" in the trace.
TRACE_PID = 1

#: Event phases the exporter emits / the validator accepts.
_PHASES = {"B", "E", "X", "i", "I", "C", "M"}


def chrome_trace(tracer: Tracer) -> dict:
    """Render a tracer's events as a Chrome trace-event JSON object.

    Timestamps convert from simulated ns to the format's µs.  Spans
    still open (threads killed mid-crossing) are closed at the current
    clock so every ``B`` has its ``E``.  When the tracer's ring has
    wrapped, an ``E`` whose ``B`` fell off the ring is skipped, and
    only open spans whose ``B`` is still retained are closed.
    """
    events: list[dict] = []
    for tid, name in sorted(tracer.track_names.items()):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": tid,
                "args": {"name": name},
            }
        )
    # Retained, still-unmatched ``B`` events per track.
    depth: dict[int, int] = {}
    for event in tracer.events:
        phase = event["ph"]
        if phase == "B":
            depth[event["tid"]] = depth.get(event["tid"], 0) + 1
        elif phase == "E":
            if not depth.get(event["tid"]):
                continue
            depth[event["tid"]] -= 1
        event["pid"] = TRACE_PID
        event["ts"] /= 1e3
        if "dur" in event:
            event["dur"] /= 1e3
        events.append(event)
    # Balance any spans left open (e.g. threads destroyed while parked
    # inside a gate: the gate's exit never runs, by design).  Spans on
    # a track nest, so the retained ``B`` events are its innermost ones.
    now_us = tracer.now_ns / 1e3
    for tid, name, cat in reversed(tracer.open_spans()):
        if not depth.get(tid):
            continue
        depth[tid] -= 1
        events.append(
            {
                "name": name,
                "cat": cat,
                "ph": "E",
                "ts": now_us,
                "pid": TRACE_PID,
                "tid": tid,
                "args": {"auto_closed": True},
            }
        )
    # Complete (X) events are recorded at their *end* time with an
    # earlier ts; a stable sort puts every event in timestamp order
    # without reordering same-ts begin/end pairs.
    events.sort(key=lambda event: event.get("ts", float("-inf")))
    return {"traceEvents": events, "displayTimeUnit": "ns"}


def write_chrome_trace(tracer: Tracer, path: str | pathlib.Path) -> pathlib.Path:
    """Serialise :func:`chrome_trace` to ``path``; returns the path."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(chrome_trace(tracer)))
    return path


def validate_chrome_trace(data: dict) -> list[str]:
    """Schema-check a trace object; returns a list of problems (empty = valid)."""
    errors: list[str] = []
    if not isinstance(data, dict) or "traceEvents" not in data:
        return ["top level must be an object with a traceEvents list"]
    events = data["traceEvents"]
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    stacks: dict[int, list[str]] = {}
    last_ts: dict[int, float] = {}
    for index, event in enumerate(events):
        where = f"event {index}"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _PHASES:
            errors.append(f"{where}: bad phase {phase!r}")
            continue
        if not isinstance(event.get("name"), str):
            errors.append(f"{where}: missing name")
        if "pid" not in event or "tid" not in event:
            errors.append(f"{where}: missing pid/tid")
            continue
        if phase == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            errors.append(f"{where}: missing ts")
            continue
        tid = event["tid"]
        if ts < last_ts.get(tid, 0.0):
            errors.append(f"{where}: ts moves backwards on track {tid}")
        last_ts[tid] = ts
        if phase == "B":
            stacks.setdefault(tid, []).append(event.get("name", ""))
        elif phase == "E":
            stack = stacks.get(tid)
            if not stack:
                errors.append(f"{where}: E without matching B on track {tid}")
            else:
                stack.pop()
        elif phase == "X":
            duration = event.get("dur")
            if not isinstance(duration, (int, float)) or duration < 0:
                errors.append(f"{where}: X event needs a non-negative dur")
    for tid, stack in stacks.items():
        if stack:
            errors.append(f"track {tid}: {len(stack)} unclosed span(s): {stack}")
    return errors


def metrics_json(metrics: MetricsRegistry, clock_ns: float | None = None) -> dict:
    """A registry snapshot, optionally stamped with the simulated clock."""
    snapshot = metrics.snapshot()
    if clock_ns is not None:
        snapshot["clock_ns"] = clock_ns
    return snapshot


def write_metrics_json(
    metrics: MetricsRegistry,
    path: str | pathlib.Path,
    clock_ns: float | None = None,
) -> pathlib.Path:
    """Serialise :func:`metrics_json` to ``path``; returns the path."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(metrics_json(metrics, clock_ns), indent=2))
    return path
