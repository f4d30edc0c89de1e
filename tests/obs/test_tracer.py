"""Tracer semantics: spans, tracks, and the disabled no-op guarantee."""

import pytest

from repro.obs import chrome_trace, validate_chrome_trace
from repro.obs.tracer import DEFAULT_CAPACITY, HOST_TRACK, SCHED_TRACK, Tracer


def make_tracer(start=0.0, capacity=DEFAULT_CAPACITY):
    clock = {"now": start}
    tracer = Tracer(clock=lambda: clock["now"], capacity=capacity)
    return tracer, clock


def test_disabled_tracer_records_nothing():
    tracer, clock = make_tracer()
    tracer.begin("a", "cat")
    tracer.end()
    tracer.complete("b", "cat", 0.0)
    tracer.instant("c", "cat")
    tracer.counter("d", {"v": 1})
    with tracer.span("e", "cat"):
        pass
    assert tracer.events == []
    assert tracer.open_spans() == []


def test_begin_end_nesting_on_one_track():
    tracer, clock = make_tracer()
    tracer.enable()
    tracer.begin("outer", "gate")
    clock["now"] = 10.0
    tracer.begin("inner", "gate")
    clock["now"] = 20.0
    tracer.end()
    clock["now"] = 30.0
    tracer.end()
    phases = [(e["name"], e["ph"], e["ts"]) for e in tracer.events]
    assert phases == [
        ("outer", "B", 0.0),
        ("inner", "B", 10.0),
        ("inner", "E", 20.0),
        ("outer", "E", 30.0),
    ]
    assert tracer.open_spans() == []


def test_end_without_begin_raises():
    tracer, _ = make_tracer()
    tracer.enable()
    with pytest.raises(RuntimeError):
        tracer.end()


def test_spans_survive_track_interleaving():
    """The invoke_gen pattern: a span opened on thread A's track stays
    open while thread B runs and closes correctly after A resumes."""
    tracer, clock = make_tracer()
    tracer.enable()
    tracer.set_track(2, "thread-a")
    tracer.begin("a.blocking", "gate")
    # A blocks; scheduler switches to B.
    clock["now"] = 5.0
    tracer.set_track(3, "thread-b")
    tracer.begin("b.work", "gate")
    clock["now"] = 8.0
    tracer.end()
    # Back to A, which unblocks and returns from its gate.
    clock["now"] = 12.0
    tracer.set_track(2)
    assert tracer.open_spans() == [(2, "a.blocking", "gate")]
    tracer.end()
    assert tracer.open_spans() == []
    by_track = {}
    for event in tracer.events:
        by_track.setdefault(event["tid"], []).append(event["ph"])
    assert by_track == {2: ["B", "E"], 3: ["B", "E"]}
    assert tracer.track_names[2] == "thread-a"


def test_complete_and_instant_events():
    tracer, clock = make_tracer()
    tracer.enable()
    clock["now"] = 100.0
    tracer.complete("malloc", "alloc", 40.0, bytes=64)
    tracer.instant("wrpkru", "mpk", value=3)
    x, i = tracer.events
    assert x["ph"] == "X" and x["ts"] == 40.0 and x["dur"] == 60.0
    assert x["args"] == {"bytes": 64}
    assert i["ph"] == "i" and i["ts"] == 100.0


def test_span_context_manager_closes_on_error():
    tracer, _ = make_tracer()
    tracer.enable()
    with pytest.raises(ValueError):
        with tracer.span("risky", "test"):
            raise ValueError("boom")
    assert [e["ph"] for e in tracer.events] == ["B", "E"]
    assert tracer.open_spans() == []


def test_clear_resets_state():
    tracer, _ = make_tracer()
    tracer.enable()
    tracer.set_track(7, "t")
    tracer.begin("a", "cat")
    tracer.clear()
    assert tracer.events == []
    assert tracer.open_spans() == []
    assert tracer.current_track == HOST_TRACK
    assert SCHED_TRACK in tracer.track_names


def test_events_view_is_read_only_and_list_like():
    tracer, clock = make_tracer()
    tracer.enable()
    tracer.begin("a", "gate", kind="mpk-shared")
    clock["now"] = 4.0
    tracer.counter("depth", {"v": 2})
    tracer.end()
    expected = [
        {"name": "a", "cat": "gate", "ph": "B", "ts": 0.0, "tid": HOST_TRACK,
         "args": {"kind": "mpk-shared"}},
        {"name": "depth", "ph": "C", "ts": 4.0, "tid": HOST_TRACK, "args": {"v": 2}},
        {"name": "a", "cat": "gate", "ph": "E", "ts": 4.0, "tid": HOST_TRACK},
    ]
    assert len(tracer.events) == 3
    assert tracer.events == expected
    assert tracer.events[-1] == expected[-1]
    assert tracer.events[:2] == expected[:2]
    # Every read builds fresh dicts: mutating one changes nothing.
    tracer.events[0]["args"]["kind"] = "other"
    assert tracer.events[0]["args"] == {"kind": "mpk-shared"}
    with pytest.raises(AttributeError):
        tracer.events = []


def test_ring_keeps_newest_and_counts_dropped():
    tracer, clock = make_tracer(capacity=4)
    tracer.enable()
    for step in range(10):
        clock["now"] = float(step)
        tracer.instant(f"e{step}", "test")
    assert [e["name"] for e in tracer.events] == ["e6", "e7", "e8", "e9"]
    assert tracer.dropped == 6
    tracer.clear()
    assert len(tracer.events) == 0 and tracer.dropped == 0
    with pytest.raises(ValueError):
        Tracer(clock=lambda: 0.0, capacity=0)


def test_wrapped_ring_exports_a_valid_trace():
    """An E whose B fell off the ring is skipped; open spans whose B
    is retained are still auto-closed, the others are not."""
    tracer, clock = make_tracer(capacity=5)
    tracer.enable()
    tracer.begin("outer", "gate")  # dropped, and never closed
    tracer.begin("early", "gate")  # dropped; its E is retained
    for step in range(1, 4):
        clock["now"] = float(step)
        tracer.instant(f"i{step}", "test")
    tracer.end()  # closes "early"
    tracer.begin("inner", "gate")  # retained, left open
    assert tracer.dropped == 2
    data = chrome_trace(tracer)
    assert validate_chrome_trace(data) == []
    spans = [(e["name"], e["ph"]) for e in data["traceEvents"] if e.get("cat") == "gate"]
    assert spans == [("inner", "B"), ("inner", "E")]
    assert data["traceEvents"][-1]["args"] == {"auto_closed": True}
