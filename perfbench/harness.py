"""Run one workload in this process and print its result as JSON.

Started by ``run.py`` in a fresh interpreter per workload::

    python3 perfbench/harness.py --workload redis-mpk --seed 1 --seconds 10 --trace 0

The untraced mode (``--trace 0``) repeats rounds (set-up, measured
phase, checks) until ``--seconds`` have passed and reports medians of
the host times.  The traced mode (``--trace 1``) spends part of the
time on untraced rounds and the rest on rounds under ``cProfile``,
with per-compartment simulated time attribution switched on, and
reports per-layer host self time and simulated counts per operation.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import cProfile
import collections
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

from repro.perf.meter import percentile

from calibration import CALIBRATION_REF_S, SETUP_ELASTICITY, Calibration, Stopwatch
from layers import LAYERS, OTHER, self_time_by_layer
from workloads import WORKLOADS, RedisMpk

#: Fewest rounds per run: medians need samples.
MIN_ROUNDS = 3
#: Share of a traced run's time spent on untraced rounds.
UNTRACED_SHARE = 0.4
#: Largest gap allowed between the traced phase's host time and the
#: sum of its per-layer self times.
ATTRIBUTION_TOLERANCE = 0.05
#: Compartment role -> libraries that give a compartment that role,
#: checked in this order (the app's compartment is "app" even when it
#: also holds the scheduler).
ROLES = (
    ("app", ("redis", "iperf")),
    ("netstack", ("netstack",)),
    ("storage", ("kv", "blk")),
    ("sched", ("sched",)),
)


class CheckFailed(Exception):
    """A correctness or determinism check did not hold."""


class PumpCounter:
    """Counts ``ClusterClient.pump`` calls, requests scanned and dispatched."""

    def __init__(self, client) -> None:
        self.calls = self.scanned = self.dispatched = 0
        pump = client.pump

        def counted() -> int:
            self.calls += 1
            self.scanned += len(client.pending)
            dispatched = pump()
            self.dispatched += dispatched
            return dispatched

        client.pump = counted


def telemetry(images) -> collections.Counter:
    """Public counters of every machine, summed."""
    total: collections.Counter = collections.Counter()
    for image in images:
        snapshot = image.metrics_snapshot()
        total.update(snapshot["counters"])
        total["clock_ns"] += snapshot["clock_ns"]
        fastpath = image.machine.fastpath_stats()
        total["tlb_hits"] += fastpath["tlb_hits"]
        total["tlb_misses"] += fastpath["tlb_misses"]
        total["plan_hits"] += fastpath["gateplan"]["plan_hits"]
        total["trace_events"] += len(image.machine.obs.tracer.events)
        # Every channel invocation, same-compartment calls included:
        # the population crossing plans serve.
        total["channel_calls"] += sum(edge["crossings"] for edge in snapshot["edges"])
    return total


def lag_values(image) -> list[float]:
    """The machine's replication-lag samples (empty unless it is a primary)."""
    return image.machine.obs.metrics.histogram("repl.lag_ns").values


def role_of(compartment: str) -> str:
    libraries = compartment.split("+")
    for role, members in ROLES:
        if any(lib in libraries for lib in members):
            return role
    raise CheckFailed(f"compartment {compartment!r} has no known role")


class Round:
    """One set-up plus one measured phase, timed and checked."""

    def __init__(self, workload, inputs, calibration, *, traced=None, audit=False) -> None:
        gc.collect()
        loop_before = calibration.time()
        setup_profile, run_profile = traced or (None, None)
        start = time.perf_counter()
        if setup_profile:
            setup_profile.enable()
        state = workload.setup(inputs)
        if setup_profile:
            setup_profile.disable()
        self.setup_s = time.perf_counter() - start
        images = workload.images(state)
        counters_before = telemetry(images)
        lags_before = [len(lag_values(image)) for image in images]
        pump = None
        if traced:
            for image in images:
                image.machine.cpu.attribute_time = True
            if "client" in state:
                pump = PumpCounter(state["client"])
        watch = Stopwatch(calibration, run_profile)
        watch.start()
        phase = workload.measure(state, inputs, watch.lap)
        watch.stop()
        self.run_s = watch.host_s
        #: The measured phase's host seconds on the reference host.
        self.run_ref_s = watch.ref_s
        self.setup_ref_s = self.setup_s * (CALIBRATION_REF_S / loop_before) ** SETUP_ELASTICITY
        self.phase = phase
        self.sim = phase.sim()
        delta = telemetry(images)
        delta.subtract(counters_before)
        lags = [
            lag for image, skip in zip(images, lags_before) for lag in lag_values(image)[skip:]
        ]
        self.counts = self._per_op(delta, phase.ops, lags, state.get("client"))
        if traced:
            self.pump_counts = self._pump_counts(pump, phase.ops)
            self.busy_ms = self._busy_ms(images, delta["clock_ns"])
        self.failed = workload.check(state, inputs, phase)
        if audit and hasattr(workload, "audit"):
            self.failed += workload.audit(state)

    @staticmethod
    def _per_op(delta, ops, lags, client) -> dict[str, float]:
        lookups = delta["tlb_hits"] + delta["tlb_misses"]
        mallocs = sum(v for k, v in delta.items() if k.startswith("malloc:"))
        return {
            "gates.crossings_per_op": delta["gate_crossings"] / ops,
            "gates.plan_hit_ratio": delta["plan_hits"] / delta["channel_calls"]
            if delta["channel_calls"]
            else 0.0,
            "machine.tlb_hit_ratio": delta["tlb_hits"] / lookups if lookups else 0.0,
            "machine.mem_ops_per_op": (delta["loads"] + delta["stores"]) / ops,
            "sched.switches_per_op": delta["ctx_switches"] / ops,
            "net.rx_pkts_per_op": delta["nic_rx"] / ops,
            "alloc.mallocs_per_op": mallocs / ops,
            "kv.appends_per_op": delta["kv.appends"] / ops,
            "blk.flushes_per_op": delta["blk.flushes"] / ops,
            "cluster.moved": float(client.moved) if client else 0.0,
            "cluster.retried": float(client.retried) if client else 0.0,
            "repl.lag_p99_us": percentile(lags, 0.99) / 1e3,
            "obs.trace_events_per_op": delta["trace_events"] / ops,
        }

    @staticmethod
    def _pump_counts(pump, ops) -> dict[str, float]:
        if pump is None:
            return {"cluster.pump_calls_per_op": 0.0, "cluster.dispatch_ratio": 0.0}
        return {
            "cluster.pump_calls_per_op": pump.calls / ops,
            "cluster.dispatch_ratio": pump.dispatched / pump.scanned if pump.scanned else 0.0,
        }

    @staticmethod
    def _busy_ms(images, advance_ns) -> dict[str, float]:
        busy = {f"sim.{role}.busy_ms": 0.0 for role, _ in ROLES}
        for image in images:
            for name, ns in image.machine.cpu.domain_time_ns.items():
                busy[f"sim.{role_of(name)}.busy_ms"] += ns / 1e6
        # Whole simulated nanoseconds: the float sums differ in their
        # last bits only.
        busy["sim.idle_ms"] = round(advance_ns - sum(busy.values()) * 1e6) / 1e6
        return busy


def _rounds(workload, inputs, calibration, until, minimum, **kwargs) -> list[Round]:
    rounds = [Round(workload, inputs, calibration, audit=kwargs.pop("audit", False), **kwargs)]
    while len(rounds) < minimum or time.perf_counter() < until:
        rounds.append(Round(workload, inputs, calibration, **kwargs))
    return rounds


def _same_sim(rounds: list[Round], what: str) -> None:
    """Every round must reproduce the first round's simulated results."""
    first = rounds[0]
    for other in rounds[1:]:
        if other.sim != first.sim:
            raise CheckFailed(f"{what}: simulated results differ: {first.sim} vs {other.sim}")
        if other.counts != first.counts:
            raise CheckFailed(f"{what}: simulated counts differ: {first.counts} vs {other.counts}")


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    inputs = workload.inputs(seed)
    calibration = Calibration()
    start = time.perf_counter()
    checks = ["rounds reproduce the first round's simulated results"]
    plain_budget = seconds * (UNTRACED_SHARE if trace else 1.0)
    plain = _rounds(workload, inputs, calibration, start + plain_budget, 2 if trace else MIN_ROUNDS, audit=True)
    _same_sim(plain, "untraced rounds")
    checked = list(plain)
    if getattr(workload, "tracer", False):
        reference = Round(RedisMpk(), inputs, calibration)
        if reference.sim != plain[0].sim:
            raise CheckFailed(
                f"tracing changed simulated results: {reference.sim} vs {plain[0].sim}"
            )
        checks.append("simulated results equal redis-mpk's (tracing is free in simulated time)")
        checked.append(reference)
    result = {"workload": name, "seed": seed, "rounds": len(plain), "sim": plain[0].sim}
    if not trace:
        result["host"] = {
            "setup_s": statistics.median(r.setup_ref_s for r in plain),
            "host_ops_s": statistics.median(r.phase.ops / r.run_ref_s for r in plain),
            "host_mib_s": statistics.median(r.phase.payload_bytes / 2**20 / r.run_ref_s for r in plain),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result["wall"] = {
            "setup_s": statistics.median(r.setup_s for r in plain),
            "host_ops_s": statistics.median(r.phase.ops / r.run_s for r in plain),
            "time_factor": statistics.median(r.run_s / r.run_ref_s for r in plain),
        }
    else:
        setup_profile, run_profile = cProfile.Profile(), cProfile.Profile()
        traced = _rounds(
            workload, inputs, calibration, start + seconds, 2, traced=(setup_profile, run_profile)
        )
        _same_sim(traced, "traced rounds")
        if traced[0].sim != plain[0].sim:
            raise CheckFailed(
                f"tracing changed simulated results: {plain[0].sim} vs {traced[0].sim}"
            )
        checks.append("traced rounds reproduce the untraced simulated results")
        self_s = self_time_by_layer(run_profile)
        traced_s = sum(r.run_s for r in traced)
        attributed = sum(self_s.values())
        if abs(attributed - traced_s) > ATTRIBUTION_TOLERANCE * traced_s:
            raise CheckFailed(
                f"layer self times sum to {attributed:.4f} s, traced phases took {traced_s:.4f} s"
            )
        checks.append(f"layer self times sum to {attributed / traced_s:.1%} of the traced phases")
        # Per round, in reference-host seconds.
        per_round = sum(r.run_ref_s for r in traced) / traced_s / len(traced)
        setup_per_round = sum(r.setup_ref_s for r in traced) / sum(r.setup_s for r in traced) / len(traced)
        setup_self = self_time_by_layer(setup_profile)
        layer = {f"{part}.self_s": self_s[part] * per_round for part in LAYERS}
        layer["host.other_s"] = self_s[OTHER] * per_round
        layer["trace.overhead_x"] = statistics.median(
            r.run_ref_s for r in traced
        ) / statistics.median(r.run_ref_s for r in plain)
        layer["setup.machine.mem.self_s"] = setup_self["machine.mem"] * setup_per_round
        layer["setup.core.self_s"] = setup_self["core"] * setup_per_round
        layer.update(plain[0].counts)
        # ``pump`` is counted, and compartment time attributed, only
        # in traced rounds.
        layer.update(traced[0].pump_counts)
        layer.update(traced[0].busy_ms)
        result["layer"] = layer
        result["traced_rounds"] = len(traced)
        checked += traced
    result["failed"] = sum(r.failed for r in checked)
    result["attempted"] = sum(r.phase.ops for r in checked)
    result["checks"] = checks
    return result


def pin_to_current_cpu() -> None:
    """Keep the process, and so the calibration loop and the rounds,
    on one CPU: the host's CPUs drift in speed independently."""
    try:
        with open("/proc/self/stat") as stat:
            cpu = int(stat.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError, AttributeError):
        pass  # Not Linux, or not allowed: run unpinned.


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_to_current_cpu()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception as error:  # any failure of the run is reported, not hidden
        traceback.print_exc()
        print(json.dumps({"workload": args.workload, "error": f"{type(error).__name__}: {error}"}))
        return 1
    print(json.dumps(result))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
