"""Chrome-trace export: schema round-trip on real workload runs."""

import json

import pytest

from repro import BuildConfig, build_image
from repro.apps import make_set_payloads, run_iperf, run_redis_phase, start_redis
from repro.obs import (
    chrome_trace,
    metrics_json,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_json,
)
from repro.obs.tracer import SCHED_TRACK

LIBS = ["libc", "netstack", "iperf"]
ISOLATED = [["netstack"], ["sched", "alloc", "libc", "iperf"]]


@pytest.fixture(scope="module")
def traced_run():
    image = build_image(
        BuildConfig(libraries=LIBS, compartments=ISOLATED, backend="mpk-shared")
    )
    image.enable_tracing()
    run_iperf(image, 1024, 1 << 17)
    return image


def test_trace_round_trips_and_validates(traced_run, tmp_path):
    path = write_chrome_trace(traced_run.obs.tracer, tmp_path / "trace.json")
    data = json.loads(path.read_text())
    assert validate_chrome_trace(data) == []
    assert data["traceEvents"], "a traced run must produce events"


def test_trace_covers_every_boundary_edge(traced_run):
    """Every edge in the crossing report shows up as gate spans."""
    data = chrome_trace(traced_run.obs.tracer)
    gate_span_prefixes = {
        event["name"].rsplit(".", 1)[0]
        for event in data["traceEvents"]
        if event.get("cat") == "gate" and event["ph"] in ("B", "X")
    }
    boundary_edges = [
        (caller, callee)
        for caller, callee, kind, _ in traced_run.crossing_report()
        if kind != "direct"
    ]
    assert boundary_edges, "isolated config must have boundary edges"
    for caller, callee in boundary_edges:
        assert f"{caller}->{callee}" in gate_span_prefixes


def test_trace_has_thread_and_scheduler_tracks(traced_run):
    data = chrome_trace(traced_run.obs.tracer)
    names = {
        event["args"]["name"]
        for event in data["traceEvents"]
        if event["ph"] == "M" and event["name"] == "thread_name"
    }
    assert {"host", "scheduler", "netstack-rx"} <= names
    sched_slices = [
        event
        for event in data["traceEvents"]
        if event.get("tid") == SCHED_TRACK and event["ph"] == "X"
    ]
    assert sched_slices, "scheduler quanta must appear on their own track"
    assert all(event.get("cat") == "sched" for event in sched_slices)


def test_trace_includes_alloc_and_net_spans(traced_run):
    categories = {
        event.get("cat")
        for event in chrome_trace(traced_run.obs.tracer)["traceEvents"]
    }
    assert {"gate", "sched", "alloc", "net"} <= categories


def test_events_sorted_by_timestamp(traced_run):
    events = chrome_trace(traced_run.obs.tracer)["traceEvents"]
    stamps = [event["ts"] for event in events if "ts" in event]
    assert stamps == sorted(stamps)


def test_validator_flags_broken_traces():
    assert validate_chrome_trace([]) != []
    assert validate_chrome_trace({"traceEvents": 3}) != []
    bad_phase = {"traceEvents": [{"name": "x", "ph": "Z", "pid": 1, "tid": 1}]}
    assert any("bad phase" in e for e in validate_chrome_trace(bad_phase))
    unbalanced = {
        "traceEvents": [
            {"name": "a", "ph": "B", "ts": 1.0, "pid": 1, "tid": 1},
        ]
    }
    assert any("unclosed" in e for e in validate_chrome_trace(unbalanced))
    backwards = {
        "traceEvents": [
            {"name": "a", "ph": "i", "ts": 5.0, "pid": 1, "tid": 1},
            {"name": "b", "ph": "i", "ts": 1.0, "pid": 1, "tid": 1},
        ]
    }
    assert any("backwards" in e for e in validate_chrome_trace(backwards))


def test_tracing_does_not_change_simulated_time():
    """The acceptance criterion: identical simulated results with the
    tracer on and off."""

    def run(traced: bool):
        image = build_image(
            BuildConfig(
                libraries=LIBS, compartments=ISOLATED, backend="mpk-shared"
            )
        )
        if traced:
            image.enable_tracing()
        result = run_iperf(image, 512, 1 << 16)
        return image.clock_ns, result.elapsed_ns, dict(image.machine.cpu.stats)

    assert run(False) == run(True)


def test_metrics_json_export(traced_run, tmp_path):
    path = write_metrics_json(
        traced_run.obs.metrics, tmp_path / "metrics.json", clock_ns=123.0
    )
    data = json.loads(path.read_text())
    assert data["clock_ns"] == 123.0
    assert data["counters"]["gate_crossings"] > 0
    assert metrics_json(traced_run.obs.metrics)["edges"]


def test_killed_thread_spans_auto_close(tmp_path):
    """A thread destroyed while parked in a gate leaves open spans;
    the exporter balances them so the JSON still validates."""
    image = build_image(
        BuildConfig(libraries=LIBS, compartments=ISOLATED, backend="mpk-shared")
    )
    image.enable_tracing()
    run_iperf(image, 1024, 1 << 15)
    # Kill everything without shutdown: the rx thread is parked inside
    # its blocking gate chain.
    image.scheduler.kill_all()
    data = chrome_trace(image.obs.tracer)
    assert validate_chrome_trace(data) == []
    auto = [
        event
        for event in data["traceEvents"]
        if event.get("args", {}).get("auto_closed")
    ]
    if image.obs.tracer.open_spans():  # pragma: no cover - depends on timing
        assert auto


def test_killed_thread_gate_spans_closed_by_gate(tmp_path):
    """Regression: destroying a thread parked in a blocking gate chain
    must close the gate spans at the gate (GeneratorExit path), not
    lean on the exporter's auto-close fallback."""
    image = build_image(
        BuildConfig(libraries=LIBS, compartments=ISOLATED, backend="mpk-shared")
    )
    image.enable_tracing()
    run_iperf(image, 1024, 1 << 15)
    # The rx thread is parked inside netstack->sched blocking gates.
    image.scheduler.kill_all()
    tracer = image.obs.tracer
    assert [
        span for span in tracer.open_spans() if span[2] == "gate"
    ] == [], "gates must end their spans when the generator is closed"
    data = chrome_trace(tracer)
    assert validate_chrome_trace(data) == []
    gate_events = [
        event
        for event in data["traceEvents"]
        if event.get("cat") == "gate" and event["ph"] in ("B", "E")
    ]
    begins = sum(1 for event in gate_events if event["ph"] == "B")
    ends = sum(1 for event in gate_events if event["ph"] == "E")
    assert begins == ends
    assert not any(
        event.get("args", {}).get("auto_closed")
        for event in data["traceEvents"]
        if event.get("cat") == "gate"
    )
    # The crossing counter agrees with the number of gate spans begun.
    crossings = sum(
        count for _, _, kind, count in image.crossing_report() if kind != "direct"
    )
    gate_slices = sum(
        1
        for event in data["traceEvents"]
        if event.get("cat") == "gate" and event["ph"] in ("B", "X")
    )
    assert gate_slices == crossings


def _redis_trace(capacity: int | None = None):
    image = build_image(
        BuildConfig(
            libraries=["libc", "netstack", "redis"],
            compartments=[["netstack"], ["sched"], ["alloc", "libc", "redis"]],
            backend="mpk-switched",
        )
    )
    tracer = image.enable_tracing()
    if capacity is not None:
        tracer.set_capacity(capacity)
    start_redis(image)
    run_redis_phase(image, make_set_payloads(24, 16), window=4)
    return tracer


def test_flight_recorder_keeps_the_newest_events():
    """A 16-event ring on a short redis run keeps exactly the last 16
    events of the unbounded run and still exports a valid trace."""
    full = _redis_trace()
    ring = _redis_trace(capacity=16)
    total = len(full.events)
    assert full.dropped == 0 and total > 16
    assert len(ring.events) == 16
    assert ring.dropped == total - 16
    assert ring.events == full.events[-16:]
    assert validate_chrome_trace(chrome_trace(ring)) == []
