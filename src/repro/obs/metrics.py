"""The metrics registry: counters, gauges, histograms, crossing edges.

One registry per simulated CPU.  It subsumes the ad-hoc statistics the
reproduction grew organically — the CPU's flat ``stats`` dict *is* the
registry's counter table (``cpu.bump`` writes through
:meth:`MetricsRegistry.inc`), and every gate's per-edge crossing count
lives in an :class:`EdgeStats` keyed by the caller→callee edge — so the
crossing heat-matrix the paper's Fig. 5 diagnosis needs falls out of
:meth:`MetricsRegistry.crossing_matrix` without any extra
instrumentation.

Histograms record simulated-time (or size) observations and summarise
them with the same nearest-rank percentiles the benchmark suite uses.
Everything here is host-side bookkeeping: no method ever charges the
simulated clock, so metrics can stay always-on without perturbing
measured timings.
"""

from __future__ import annotations

import dataclasses

from repro.perf.meter import percentile


@dataclasses.dataclass
class Gauge:
    """A last-value-wins metric (queue depths, heap usage)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Observation series with nearest-rank percentile summaries."""

    __slots__ = ("name", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.values: list[float] = []

    def observe(self, value: float) -> None:
        self.values.append(float(value))

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return sum(self.values)

    @property
    def mean(self) -> float:
        return self.total / len(self.values) if self.values else 0.0

    def percentile(self, fraction: float) -> float:
        return percentile(self.values, fraction)

    def summary(self) -> dict[str, float]:
        """Count/min/max/mean plus p50/p90/p99."""
        if not self.values:
            return {"count": 0}
        return {
            "count": len(self.values),
            "sum": self.total,
            "min": min(self.values),
            "max": max(self.values),
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
        }


@dataclasses.dataclass
class EdgeStats:
    """Per caller→callee channel accounting (one per linked edge)."""

    caller: str
    callee: str
    kind: str
    crossings: int = 0


class MetricsRegistry:
    """All metrics of one simulated machine, behind one API.

    - :attr:`counters` is a plain dict so the CPU can expose it as its
      legacy ``stats`` attribute;
    - gauges and histograms are created on first use;
    - edges are registered by gates at link time and keyed by
      ``(caller, callee, kind)`` so replicated channels of different
      kinds never alias.
    """

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        #: Optional zero-arg hook invoked before any counter read
        #: (:meth:`counter`, :meth:`snapshot`).  The CPU points it at
        #: its ``flush_accounting`` so deferred memory-op deltas are
        #: folded in before anyone observes the table.
        self._pre_read: "Callable[[], None] | None" = None
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._edges: dict[tuple[str, str, str], EdgeStats] = {}
        #: When set, boundary gates record each crossing's simulated
        #: duration into the per-edge latency histogram (see
        #: :meth:`edge_latency`).  Off by default: the observations are
        #: host-side only (never charge the clock), but appending one
        #: float per crossing is not free host time, so only profiling
        #: sessions (:mod:`repro.obs.profile`) pay for it.
        self._record_edge_latency = False
        #: Optional zero-arg hook fired when :attr:`record_edge_latency`
        #: flips — the machine's Observability points it at the
        #: refresh of its gate crossing plans (exploration registries
        #: leave it unset).
        self._on_obs_toggle: "Callable[[], None] | None" = None

    @property
    def record_edge_latency(self) -> bool:
        return self._record_edge_latency

    @record_edge_latency.setter
    def record_edge_latency(self, value: bool) -> None:
        self._record_edge_latency = bool(value)
        if self._on_obs_toggle is not None:
            self._on_obs_toggle()

    # --- counters ----------------------------------------------------------

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Increment a named counter (the ``cpu.bump`` write path)."""
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def counter(self, name: str) -> float:
        """Current value of a counter (0 when never bumped)."""
        if self._pre_read is not None:
            self._pre_read()
        return self.counters.get(name, 0.0)

    def counter_values(self) -> dict[str, float]:
        """The counter table with deferred deltas folded in.

        The live dict (copy it to keep a snapshot).  Read counters here
        or through :meth:`counter`: the raw :attr:`counters` lags by
        the memory ops since the CPU last folded them in.
        """
        if self._pre_read is not None:
            self._pre_read()
        return self.counters

    # --- gauges / histograms ----------------------------------------------

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        return histogram

    # --- edges -----------------------------------------------------------

    def edge(self, caller: str, callee: str, kind: str) -> EdgeStats:
        """The shared accounting record for one channel edge."""
        key = (caller, callee, kind)
        edge = self._edges.get(key)
        if edge is None:
            edge = self._edges[key] = EdgeStats(caller, callee, kind)
        return edge

    def edge_counts(self) -> dict[tuple[str, str, str], int]:
        """Raw crossing counts keyed by (caller, callee, kind).

        Includes zero-crossing edges (every registered channel), so a
        profiling session can snapshot a baseline and compute exact
        deltas even for edges that were already hot before it started.
        """
        return {key: edge.crossings for key, edge in self._edges.items()}

    def edge_latency(self, caller: str, callee: str) -> Histogram:
        """Per-edge crossing-latency histogram (simulated ns).

        Lives in the ordinary histogram table under
        ``gate.latency_ns:caller->callee`` so snapshots and profile
        artifacts pick it up without extra plumbing.  All channel kinds
        on the edge share one histogram — matching
        :meth:`crossing_matrix`'s caller→callee granularity.
        """
        return self.histogram(self.edge_latency_name(caller, callee))

    @staticmethod
    def edge_latency_name(caller: str, callee: str) -> str:
        """Histogram name of one edge's crossing latencies."""
        return f"gate.latency_ns:{caller}->{callee}"

    def edges_report(self) -> list[dict]:
        """Used edges as dict rows, busiest first.

        Fully deterministic: ties on the crossing count break by
        (caller, callee, kind), never by registration order, so two
        runs of the same workload emit byte-identical reports and
        profile JSONs diff cleanly.
        """
        rows = [
            {
                "caller": edge.caller,
                "callee": edge.callee,
                "kind": edge.kind,
                "crossings": edge.crossings,
            }
            for edge in self._edges.values()
            if edge.crossings
        ]
        rows.sort(
            key=lambda row: (
                -row["crossings"],
                row["caller"],
                row["callee"],
                row["kind"],
            )
        )
        return rows

    def crossing_matrix(self) -> dict[str, dict[str, int]]:
        """caller → callee → crossings (all channel kinds summed).

        Rows and columns are emitted in sorted order, so the matrix —
        and anything serialised from it — is stable across runs
        regardless of channel registration order.
        """
        totals: dict[tuple[str, str], int] = {}
        for edge in self._edges.values():
            if not edge.crossings:
                continue
            key = (edge.caller, edge.callee)
            totals[key] = totals.get(key, 0) + edge.crossings
        matrix: dict[str, dict[str, int]] = {}
        for caller, callee in sorted(totals):
            matrix.setdefault(caller, {})[callee] = totals[(caller, callee)]
        return matrix

    # --- export / lifecycle -----------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready copy of everything the registry holds."""
        return {
            "counters": dict(self.counter_values()),
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: h.summary() for name, h in sorted(self._histograms.items())
            },
            "edges": self.edges_report(),
            "crossing_matrix": self.crossing_matrix(),
        }

    def reset(self) -> None:
        """Clear every metric (edges keep their identity, zeroed)."""
        self.counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        for edge in self._edges.values():
            edge.crossings = 0


#: Process-wide registry for the design-space exploration pipeline.
#: Unlike the per-machine registries (one per simulated CPU), the
#: explorer, the coloring memo, and the persistent perf cache run on
#: the *host* across many candidate images, so their bookkeeping —
#: cache hits/misses, image-build counts, per-phase host timings —
#: lives in one shared registry that reports and benchmarks can
#: snapshot after a run.
_EXPLORATION = MetricsRegistry()


def exploration_metrics() -> MetricsRegistry:
    """The shared exploration-pipeline registry (see note above)."""
    return _EXPLORATION
