"""repro.obs — compartment-aware tracing and metrics.

The observability layer the isolation explorer reports through: a span
:class:`~repro.obs.tracer.Tracer` driven by the simulated clock (gate
crossings, scheduler quanta, allocator calls, netstack batches) and a
:class:`~repro.obs.metrics.MetricsRegistry` (counters, gauges,
simulated-time histograms, caller→callee crossing edges), with
exporters for Chrome trace-event JSON and machine-readable metrics.

Every :class:`~repro.machine.machine.Machine` owns an
:class:`Observability` instance as ``machine.obs``.  The tracer starts
disabled; recording never charges the simulated clock, so enabling it
changes no measured timing and disabling it is a pure no-op.

Observing never changes the code path.  Gate crossings always take
their compiled crossing plan; the gate span, the MPK ``wrpkru``
instants and the per-edge latency sample are hooks the plan resolves
on every observability toggle (see :class:`Observability`).  The
tracer is a bounded flight recorder: compact tuple records in a ring
of ``capacity`` events (default ``1 << 17``), with ``dropped`` counting
what fell off; ``tracer.events`` builds Chrome-shaped dicts only when
iterated.

Quick start::

    image = build_image(config)
    image.machine.obs.tracer.enable()
    run_iperf(image, 1024, 1 << 18)
    write_chrome_trace(image.machine.obs.tracer, "trace.json")
"""

from __future__ import annotations

from repro.obs.export import (
    chrome_trace,
    metrics_json,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_json,
)
from repro.obs.metrics import (
    EdgeStats,
    Gauge,
    Histogram,
    MetricsRegistry,
    exploration_metrics,
)
from repro.obs.profile import (
    ProfileCapture,
    ProfileError,
    WorkloadProfile,
    capture_profile,
)
from repro.obs.tracer import HOST_TRACK, SCHED_TRACK, TraceEvents, Tracer

__all__ = [
    "EdgeStats",
    "Gauge",
    "HOST_TRACK",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "ProfileCapture",
    "ProfileError",
    "SCHED_TRACK",
    "TraceEvents",
    "Tracer",
    "WorkloadProfile",
    "capture_profile",
    "chrome_trace",
    "exploration_metrics",
    "metrics_json",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_metrics_json",
]


class Observability:
    """One machine's tracer + metrics, bundled for easy wiring.

    The registry is shared with the CPU (``cpu.metrics``) so counters
    bumped anywhere in the simulation are visible here; the tracer reads
    the CPU's simulated clock fields directly.
    """

    def __init__(self, cpu) -> None:
        self.metrics: MetricsRegistry = cpu.metrics
        self.tracer = Tracer(cpu=cpu)
        # Give the CPU its hook point (wrpkru instants, etc.).
        cpu.tracer = self.tracer
        #: Gate crossing plans of this machine.  Every observer toggle
        #: (tracer, edge-latency recording) re-resolves each plan's
        #: hooks at once, so a crossing reads always-current hooks
        #: without checking any observer state per call.
        self.plans: list = []
        self.tracer._on_toggle = self._refresh_plans
        self.metrics._on_obs_toggle = self._refresh_plans

    def _refresh_plans(self) -> None:
        for plan in self.plans:
            plan.refresh()
