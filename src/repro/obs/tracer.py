"""The span tracer: Chrome-trace-shaped events on the simulated clock.

Timestamps come from the simulated CPU clock, so a trace is a faithful
picture of *simulated* time — where gate crossings, scheduler quanta,
and allocator calls land relative to each other — not of host time.
Recording never charges the clock, and every hook is guarded by the
tracer's :attr:`Tracer.recording` flag, so a disabled tracer is a
no-op and an enabled one changes no simulated timing either.

Tracks: each simulated thread gets its own track (Chrome ``tid``), so
spans opened by a thread before it blocks close correctly after it
resumes — other threads' events land on other tracks in between.  Track
``HOST_TRACK`` carries host-side/boot activity; ``SCHED_TRACK`` carries
the scheduler's per-quantum slices.

Storage is a bounded flight recorder: each event is one compact tuple
record ``(ph, name, cat, ts, tid, args[, dur])`` in a ring of
``capacity`` entries.  Once the ring is full the oldest record falls
off and :attr:`Tracer.dropped` counts it.  :attr:`Tracer.events` turns
records into Chrome-shaped dicts only when someone iterates it.
"""

from __future__ import annotations

import collections
import contextlib
from typing import Callable, Iterator

#: Track for host-side activity (boot, harness calls).
HOST_TRACK = 0
#: Track for scheduler quantum slices (kept clear of thread tids).
SCHED_TRACK = 1_000_000
#: Default ring size: larger than any test or benchmark run records, so
#: nothing is dropped unless a caller asks for a smaller recorder.
DEFAULT_CAPACITY = 1 << 17


class _CallableClock:
    """Presents a zero-arg clock callable as the CPU's clock fields."""

    __slots__ = ("_clock",)

    _pending_ns = 0.0

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    @property
    def _clock_ns(self) -> float:
        return self._clock()


def _event(record: tuple) -> dict:
    """One compact record as a Chrome-shaped event dict (fresh copy)."""
    ph, name, cat, ts, tid, args = record[:6]
    if ph == "C":
        return {"name": name, "ph": "C", "ts": ts, "tid": tid, "args": dict(args)}
    if ph == "X":
        event = {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": record[6], "tid": tid}
    elif ph == "i":
        event = {"name": name, "cat": cat, "ph": "i", "s": "t", "ts": ts, "tid": tid}
    else:
        event = {"name": name, "cat": cat, "ph": ph, "ts": ts, "tid": tid}
    if args:
        event["args"] = dict(args)
    return event


class TraceEvents:
    """Read-only view of a tracer's ring as Chrome-shaped event dicts.

    ``len()`` is O(1) and builds nothing; iterating or indexing builds
    a fresh dict per event.  Compares equal to a list of the same
    dicts.
    """

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer

    def __len__(self) -> int:
        return len(self._tracer._ring)

    def __iter__(self) -> Iterator[dict]:
        return map(_event, self._tracer._ring)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        return _event(self._tracer._ring[index])

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, TraceEvents)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<TraceEvents {len(self)} of {self._tracer.capacity}>"


class Tracer:
    """Records trace events against a simulated-nanosecond clock.

    Construct with ``cpu=`` (a machine's CPU, whose clock fields are
    read directly) or ``clock=`` (any zero-arg callable).  Events keep
    ``ts``/``dur`` in simulated **nanoseconds**; the exporter converts
    to the microseconds the format specifies.

    The last ``capacity`` records are kept; :attr:`dropped` counts the
    older ones that fell off the ring, and :meth:`clear` resets both.
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        *,
        cpu=None,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if (clock is None) == (cpu is None):
            raise ValueError("Tracer needs exactly one of clock= or cpu=")
        #: Object with ``_clock_ns``/``_pending_ns``: the CPU itself, or
        #: an adapter over a clock callable.
        self._cpu = cpu if cpu is not None else _CallableClock(clock)
        #: Read-only mirror of :attr:`enabled` for hot hooks (a plain
        #: attribute read, no property call).  Toggle via ``enabled``.
        self.recording = False
        #: Optional zero-arg hook fired whenever :attr:`enabled` flips.
        #: The machine's :class:`~repro.obs.Observability` points it at
        #: the refresh of its gate crossing plans' observer hooks.
        self._on_toggle: Callable[[], None] | None = None
        self._ring: collections.deque = collections.deque()
        self.set_capacity(capacity)
        #: Records ever appended since the last clear (ring + dropped).
        self._recorded = 0
        self._events = TraceEvents(self)
        #: Shared ``{"value": pkru}`` args of wrpkru instants, per value.
        self._pkru_args: dict[int, dict] = {}
        self.track_names: dict[int, str] = {
            HOST_TRACK: "host",
            SCHED_TRACK: "scheduler",
        }
        self._track = HOST_TRACK
        #: Per-track stack of open (name, cat) spans.
        self._open: dict[int, list[tuple[str, str]]] = {}

    # --- lifecycle ---------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self.recording

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self.recording = bool(value)
        if self._on_toggle is not None:
            self._on_toggle()

    def enable(self) -> "Tracer":
        self.enabled = True
        return self

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        """Drop all recorded events, the drop count and open spans."""
        self._ring.clear()
        self._recorded = 0
        self._open.clear()
        self._track = HOST_TRACK

    def set_capacity(self, capacity: int) -> None:
        """Resize the ring; records beyond the newest ``capacity`` drop."""
        if capacity < 1:
            raise ValueError(f"Tracer capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._ring = collections.deque(self._ring, maxlen=capacity)

    @property
    def events(self) -> TraceEvents:
        """The retained events, oldest first (a read-only view)."""
        return self._events

    @property
    def dropped(self) -> int:
        """Events that fell off the ring since the last :meth:`clear`."""
        return self._recorded - len(self._ring)

    @property
    def now_ns(self) -> float:
        """Current simulated time."""
        cpu = self._cpu
        return cpu._clock_ns + cpu._pending_ns

    # --- tracks -----------------------------------------------------------

    def set_track(self, tid: int, name: str | None = None) -> None:
        """Route subsequent events to track ``tid`` (a simulated thread)."""
        if not self.recording:
            return
        self._track = tid
        if name is not None:
            self.track_names[tid] = name

    @property
    def current_track(self) -> int:
        return self._track

    # --- events -----------------------------------------------------------

    def begin(self, name: str, cat: str, track: int | None = None, **args) -> None:
        """Open a span on the (current) track."""
        if not self.recording:
            return
        tid = self._track if track is None else track
        self._open.setdefault(tid, []).append((name, cat))
        cpu = self._cpu
        self._recorded += 1
        self._ring.append(("B", name, cat, cpu._clock_ns + cpu._pending_ns, tid, args))

    def end(self, track: int | None = None, **args) -> None:
        """Close the most recent open span on the (current) track."""
        if not self.recording:
            return
        tid = self._track if track is None else track
        stack = self._open.get(tid)
        if not stack:
            raise RuntimeError(f"tracer: end() with no open span on track {tid}")
        name, cat = stack.pop()
        cpu = self._cpu
        self._recorded += 1
        self._ring.append(("E", name, cat, cpu._clock_ns + cpu._pending_ns, tid, args))

    def complete(
        self,
        name: str,
        cat: str,
        start_ns: float,
        track: int | None = None,
        **args,
    ) -> None:
        """Record a finished span from ``start_ns`` to now (phase X)."""
        if not self.recording:
            return
        tid = self._track if track is None else track
        cpu = self._cpu
        dur = max(0.0, cpu._clock_ns + cpu._pending_ns - start_ns)
        self._recorded += 1
        self._ring.append(("X", name, cat, start_ns, tid, args, dur))

    def instant(self, name: str, cat: str, track: int | None = None, **args) -> None:
        """Record a point-in-time event."""
        if not self.recording:
            return
        tid = self._track if track is None else track
        cpu = self._cpu
        self._recorded += 1
        self._ring.append(("i", name, cat, cpu._clock_ns + cpu._pending_ns, tid, args))

    def counter(self, name: str, values: dict[str, float], track: int | None = None) -> None:
        """Record a counter sample (rendered as a stacked area track)."""
        if not self.recording:
            return
        tid = self._track if track is None else track
        cpu = self._cpu
        self._recorded += 1
        self._ring.append(
            ("C", name, None, cpu._clock_ns + cpu._pending_ns, tid, dict(values))
        )

    @contextlib.contextmanager
    def span(self, name: str, cat: str, **args) -> Iterator[None]:
        """Context manager sugar around :meth:`begin`/:meth:`end`."""
        if not self.recording:
            yield
            return
        self.begin(name, cat, **args)
        try:
            yield
        finally:
            self.end()

    # --- crossing-plan hooks ---------------------------------------------------
    # Lean forms of begin/instant for the gate crossing plan, which only
    # holds the tracer while it records: the current track and prebuilt
    # args shared between records (the events view copies them), so a
    # hook allocates nothing but its record.

    def span_begin(self, name: str, cat: str, args: dict) -> None:
        """:meth:`begin` on the current track with a prebuilt ``args``."""
        tid = self._track
        stack = self._open.get(tid)
        if stack is None:
            stack = self._open[tid] = []
        stack.append((name, cat))
        cpu = self._cpu
        self._recorded += 1
        self._ring.append(("B", name, cat, cpu._clock_ns + cpu._pending_ns, tid, args))

    def wrpkru(self, value: int) -> None:
        """The ``wrpkru`` instant (category ``mpk``) of one PKRU write."""
        args = self._pkru_args.get(value)
        if args is None:
            args = self._pkru_args[value] = {"value": value}
        cpu = self._cpu
        self._recorded += 1
        self._ring.append(
            ("i", "wrpkru", "mpk", cpu._clock_ns + cpu._pending_ns, self._track, args)
        )

    # --- introspection ------------------------------------------------------

    def open_spans(self) -> list[tuple[int, str, str]]:
        """Spans begun but not yet ended, innermost last per track.

        Gates close their spans even when a thread is destroyed while
        parked inside them (``GeneratorExit`` unwinds every
        ``invoke_gen`` frame), so after a clean kill this should be
        empty.  The exporter still auto-closes any stragglers at export
        time so the JSON stays balanced regardless.
        """
        return [
            (tid, name, cat)
            for tid, stack in self._open.items()
            for name, cat in stack
        ]
