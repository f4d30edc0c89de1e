"""Differential property suite for the crossing-plan fast path.

The plan-compiled fast path (``REPRO_GATEPLAN=1``, the default) must be
*bit-identical* to the original per-call gate path in every simulated
quantity — clock, counters, edge records — because it issues the exact
same charge/counter-write sequence, merely precomputed.  These tests
drive randomized operation traces (sync invokes, faulting invokes,
batched queue submissions, observability toggles mid-trace) through
both paths and diff the full machine state, at channel level across the
four boundary backends and at image level across the six isolation
profiles the benchmarks use (including SH-hardened ones), with tracing
both off and on.  Observed traces must also agree event for event: the
Chrome trace and every per-edge latency sample.
"""

from __future__ import annotations

import random

import pytest

from repro import BuildConfig, build_image
from repro.apps import run_named_workload
from repro.gates import GateOptions, make_channel
from repro.gates.registry import GATE_KINDS
from repro.libos.compartment import Compartment
from repro.libos.library import Linker, MicroLibrary, export, export_blocking
from repro.machine.capabilities import base_capabilities
from repro.machine.faults import CompartmentFailure, GateError, InjectedFault
from repro.machine.machine import Machine
from repro.machine.mpk import pkru_for_keys
from repro.obs import chrome_trace

BACKENDS = ["mpk-shared", "mpk-switched", "vm-rpc", "cheri"]

#: The six isolation profiles of the acceptance matrix: four hardware
#: backends plus the two SH-hardened deployments.
PROFILES = [
    ("mpk-shared", {}),
    ("mpk-switched", {}),
    ("vm-rpc", {}),
    ("cheri", {}),
    ("mpk-shared", {"netstack": ("asan",)}),  # sh-asan
    ("mpk-shared", {"netstack": ("dfi",)}),  # sh-dfi
]


class SvcLibrary(MicroLibrary):
    NAME = "svc"
    SPEC = "[Memory access] Read(Own); Write(Own)"
    CAP_GRANTS = {"touch": ((0, -64),)}

    def on_install(self):
        self.buf = self.alloc_static(256)

    @export
    def poke(self, offset, data):
        self.machine.store(self.buf + offset, data)
        return self.machine.load(self.buf + offset, len(data))

    @export
    def echo(self, *args):
        return args

    @export
    def touch(self, addr):
        return addr

    @export
    def boom(self, contained=False):
        if contained:
            # A containable crash: the gate translates it per the
            # callee compartment's failure policy.
            raise InjectedFault("gate-crash", "boom")
        raise ValueError("boom")

    @export
    def record_free(self, value):
        return value

    @export
    def flip_tracer(self):
        tracer = self.machine.obs.tracer
        tracer.enabled = not tracer.enabled

    @export_blocking
    def sleepy(self):
        yield
        return "done"


class CallerLibrary(MicroLibrary):
    NAME = "caller"
    SPEC = "[Memory access] Read(Own); Write(Own)"

    def on_install(self):
        self.buf = self.alloc_static(256)


def make_world(backend: str, gateplan: bool):
    machine = Machine(gateplan=gateplan)
    linker = Linker()
    comp_a = Compartment(0, "svc-comp", machine)
    comp_b = Compartment(1, "caller-comp", machine)
    if backend == "vm-rpc":
        domain_a = machine.new_vm_domain("svc")
        comp_a.vm_domain = domain_a
        comp_a.address_space = domain_a.space
        domain_b = machine.new_vm_domain("caller")
        comp_b.vm_domain = domain_b
        comp_b.address_space = domain_b.space
    else:
        space = machine.new_address_space("main")
        comp_a.address_space = space
        comp_a.pkey = 1
        comp_a.pkru_value = pkru_for_keys(writable=[1, 14])
        comp_b.address_space = space
        comp_b.pkey = 2
        comp_b.pkru_value = pkru_for_keys(writable=[2, 14])
    if backend == "cheri":
        comp_a.capabilities = base_capabilities(comp_a, [])
        comp_b.capabilities = base_capabilities(comp_b, [])
    service = SvcLibrary()
    caller = CallerLibrary()
    service.install(machine, comp_a, linker)
    caller.install(machine, comp_b, linker)
    return machine, service, caller


def enter_caller(machine, caller):
    # Push AFTER channels exist: queue-channel construction grants the
    # group-heap pkey to the compartment, and contexts snapshot PKRU.
    machine.cpu.push_context(caller.compartment.make_context("caller"))


def observed(machine) -> tuple:
    """What the observers saw: the Chrome trace and every latency sample."""
    metrics = machine.cpu.metrics
    latencies = {
        name: metrics.histogram(name).values
        for name in metrics.snapshot()["histograms"]
        if name.startswith("gate.latency_ns:")
    }
    return chrome_trace(machine.obs.tracer), latencies


def completions(queued) -> list:
    return [
        (c.ticket, c.fn, c.value, type(c.error).__name__ if c.error else None)
        for c in queued.poll()
    ]


def run_trace(backend: str, gateplan: bool, seed: int, toggle_obs: bool):
    """One seeded randomized trace; returns (results, machine state)."""
    machine, service, caller = make_world(backend, gateplan)
    sync = make_channel(backend, machine, caller, service)
    queued = make_channel(
        f"queue:{backend}",
        machine,
        caller,
        service,
        options=GateOptions(queue_batch=4, queue_depth=16),
    )
    enter_caller(machine, caller)
    rng = random.Random(seed)
    results = []
    cpu = machine.cpu
    for step in range(60):
        # An uncharged stretch: memory ops still count, the clock and
        # the time attribution stand still.
        cpu.charging = not 20 <= step < 30
        op = rng.randrange(9)
        if op == 7:
            data = rng.randbytes(rng.randrange(1, 24))
            results.append(sync.invoke("poke", (rng.randrange(128), data)))
        elif op == 8:
            # Caller-side memory traffic, left pending into a crossing.
            machine.store(caller.buf + rng.randrange(128), rng.randbytes(16))
        elif op == 0:
            args = tuple(rng.randrange(100) for _ in range(rng.randrange(4)))
            results.append(sync.invoke("echo", args))
        elif op == 1:
            results.append(sync.invoke("touch", (rng.randrange(1 << 20),)))
        elif op == 2:
            try:
                sync.invoke("boom", ())
            except ValueError as exc:
                results.append(str(exc))
        elif op == 3:
            results.append(queued.submit("record_free", rng.randrange(50)))
        elif op == 4:
            results.append(queued.flush())
        elif op == 5:
            results.append(completions(queued))
        elif op == 6 and toggle_obs:
            # Mid-trace observability flips: the plan re-resolves its
            # observer hooks on every toggle, and observed crossings
            # must produce the same simulated numbers, the same events
            # and the same per-domain time as the slow path.
            flip = rng.randrange(3)
            if flip == 0:
                machine.obs.tracer.enabled = not machine.obs.tracer.enabled
            elif flip == 1:
                metrics = machine.cpu.metrics
                metrics.record_edge_latency = not metrics.record_edge_latency
            else:
                cpu.attribute_time = not cpu.attribute_time
    machine.obs.tracer.enabled = False
    queued.flush()
    results.append(completions(queued))
    snap = machine.cpu.snapshot()
    counters = dict(machine.cpu.metrics.counters)
    domain_time = {name: ns.hex() for name, ns in cpu.domain_time_ns.items()}
    return (
        results,
        snap,
        counters,
        service.machine.cpu.clock_ns,
        observed(machine),
        domain_time,
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("toggle_obs", [False, True])
@pytest.mark.parametrize("seed", [1, 7])
def test_randomized_traces_bit_identical(backend, toggle_obs, seed):
    """Fast vs slow path: same results, clock, counters, events and
    per-domain time attribution."""
    fast = run_trace(backend, True, seed, toggle_obs)
    slow = run_trace(backend, False, seed, toggle_obs)
    assert fast[0] == slow[0]  # returned values / errors / completions
    assert fast[1] == slow[1]  # cpu snapshot (clock + machine stats)
    assert fast[2] == slow[2]  # metrics counters
    assert fast[3] == slow[3]  # final clock
    assert fast[4] == slow[4]  # chrome trace + edge-latency samples
    assert fast[5] == slow[5]  # per-domain simulated time, as float.hex
    assert fast[5] or not toggle_obs


def run_observed_trace(backend: str, gateplan: bool, seed: int):
    """A seeded trace observed from start to finish.

    The tracer and edge-latency recording stay on throughout; the
    callee restarts after a short backoff, so contained crashes (sync
    and mid-batch), fail-fast crossings and restarts all land in the
    trace next to the gate spans and ``wrpkru`` instants.
    """
    machine, service, caller = make_world(backend, gateplan)
    service.compartment.failure_policy = "restart-with-backoff"
    service.compartment.restart_backoff_ns = 400.0
    machine.obs.tracer.enable()
    machine.cpu.metrics.record_edge_latency = True
    sync = make_channel(backend, machine, caller, service)
    queued = make_channel(
        f"queue:{backend}",
        machine,
        caller,
        service,
        options=GateOptions(queue_batch=3, queue_depth=16),
    )
    enter_caller(machine, caller)
    rng = random.Random(seed)
    results = []
    for _ in range(80):
        op = rng.randrange(7)
        try:
            if op == 0:
                args = tuple(rng.randrange(100) for _ in range(rng.randrange(4)))
                results.append(sync.invoke("echo", args))
            elif op == 1:
                results.append(sync.invoke("touch", (rng.randrange(1 << 20),)))
            elif op == 2:
                sync.invoke("boom", (True,))
            elif op == 3:
                results.append(queued.submit("record_free", rng.randrange(50)))
            elif op == 4:
                results.append(queued.submit("boom", rng.randrange(4) == 0))
            elif op == 5:
                results.append(queued.flush())
            else:
                results.append(completions(queued))
        except CompartmentFailure as failure:
            results.append(("failed", failure.compartment))
    snap = machine.cpu.snapshot()
    return results, snap, observed(machine)


@pytest.mark.parametrize("backend", BACKENDS)
def test_observed_traces_identical(backend):
    """Always-on observers: both paths record the same events."""
    fast = run_observed_trace(backend, True, 3)
    slow = run_observed_trace(backend, False, 3)
    trace, latencies = fast[2]
    names = {event["name"] for event in trace["traceEvents"]}
    assert any(name.startswith("contained:") for name in names)
    assert any(name.startswith("restart:") for name in names)
    assert any(".batch[" in name for name in names)
    assert latencies and all(latencies.values())
    assert fast == slow


@pytest.mark.parametrize("backend", BACKENDS)
def test_tracer_toggled_inside_a_handler(backend):
    """A handler that turns the tracer on or off mid-crossing: both
    paths record the same events (the exit ``wrpkru`` instant follows
    the tracer's state at the exit, the span only the entry's)."""
    traces = []
    for gateplan in (True, False):
        machine, service, caller = make_world(backend, gateplan)
        channel = make_channel(backend, machine, caller, service)
        enter_caller(machine, caller)
        for _ in range(3):
            channel.invoke("flip_tracer", ())
            channel.invoke("echo", (1,))
        machine.obs.tracer.enabled = False
        traces.append(observed(machine))
    assert traces[0] == traces[1]
    assert traces[0][0]["traceEvents"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_blocking_exports_identical_on_both_paths(backend):
    """A plain invoke of a blocking export fails identically."""
    errors = []
    for gateplan in (True, False):
        machine, service, caller = make_world(backend, gateplan)
        channel = make_channel(backend, machine, caller, service)
        enter_caller(machine, caller)
        with pytest.raises(GateError) as excinfo:
            channel.invoke("sleepy", ())
        errors.append(str(excinfo.value))
    assert errors[0] == errors[1]


OBSERVERS = {
    "none": lambda machine: None,
    "tracer": lambda machine: machine.obs.tracer.enable(),
    "latency": lambda machine: setattr(
        machine.cpu.metrics, "record_edge_latency", True
    ),
    "attribution": lambda machine: setattr(machine.cpu, "attribute_time", True),
}
OBSERVERS["all"] = lambda machine: [
    OBSERVERS[name](machine) for name in ("tracer", "latency", "attribution")
]


@pytest.mark.parametrize("backend", BACKENDS)
def test_observed_crossings_stay_on_the_plan(backend, monkeypatch):
    """One path: with any observer on, sync and batched crossings take
    the plan exactly as often as unobserved ones, and the reference
    enter/exit hooks never run."""

    def reference_hook(*args):
        raise AssertionError("crossing left the plan")

    def plan_hits(observe) -> tuple:
        machine, service, caller = make_world(backend, True)
        sync = make_channel(backend, machine, caller, service)
        queued = make_channel(
            f"queue:{backend}",
            machine,
            caller,
            service,
            options=GateOptions(queue_batch=3, queue_depth=16),
        )
        enter_caller(machine, caller)
        observe(machine)
        for value in range(12):
            sync.invoke("echo", (value,))
            queued.submit("record_free", value)
        queued.flush()
        return sync._plan.hits, queued.inner._plan.hits

    for name in ("_enter", "_exit", "_per_op_enter"):
        monkeypatch.setattr(GATE_KINDS[backend], name, reference_hook)
    hits = {name: plan_hits(observe) for name, observe in OBSERVERS.items()}
    assert hits["none"] == (12, 4)
    assert set(hits.values()) == {hits["none"]}


def test_plan_refreshes_on_observability_epoch_bump():
    """Observers are plan hooks: toggling one refreshes the plan once,
    and observed crossings keep taking the plan."""
    machine, service, caller = make_world("mpk-shared", True)
    channel = make_channel("mpk-shared", machine, caller, service)
    enter_caller(machine, caller)
    channel.invoke("echo", (1,))
    plan = channel._plan
    assert plan is not None and plan.hits == 1
    assert plan.tracer is None and plan.latency is None
    refreshes = plan.refreshes
    machine.obs.tracer.enabled = True
    assert plan.refreshes == refreshes + 1
    assert plan.tracer is machine.obs.tracer
    channel.invoke("echo", (2,))
    channel.invoke("echo", (3,))
    assert plan.hits == 3
    assert plan.refreshes == refreshes + 1
    machine.cpu.metrics.record_edge_latency = True
    assert plan.refreshes == refreshes + 2
    assert plan.latency == "gate.latency_ns:caller->svc"
    channel.invoke("echo", (4,))
    assert plan.hits == 4
    machine.obs.tracer.enabled = False
    machine.cpu.metrics.record_edge_latency = False
    assert plan.refreshes == refreshes + 4
    assert plan.tracer is None and plan.latency is None
    channel.invoke("echo", (5,))
    assert plan.hits == 5
    spans = [e for e in machine.obs.tracer.events if e["cat"] == "gate"]
    assert [(e["name"], e["ph"]) for e in spans] == [
        ("caller->svc.echo", phase) for phase in "BEBEBE"
    ]
    assert len(machine.cpu.metrics.edge_latency("caller", "svc").values) == 1
    stats = machine.fastpath_stats()["gateplan"]
    assert stats["enabled"] and stats["plans"] >= 1
    assert stats["plan_hits"] >= plan.hits


def test_gateplan_disabled_registers_no_plans():
    machine, service, caller = make_world("mpk-shared", False)
    channel = make_channel("mpk-shared", machine, caller, service)
    enter_caller(machine, caller)
    channel.invoke("echo", (1,))
    assert channel._plan is None
    stats = machine.fastpath_stats()["gateplan"]
    assert not stats["enabled"] and stats["plans"] == 0


def _redis_config(backend: str, hardening: dict) -> BuildConfig:
    return BuildConfig(
        libraries=["libc", "netstack", "vfs", "redis"],
        compartments=[["netstack"], ["vfs"], ["sched", "alloc", "libc", "redis"]],
        backend=backend,
        hardening=dict(hardening),
    )


def _run_profile(backend, hardening, monkeypatch, gateplan: bool):
    monkeypatch.setenv("REPRO_GATEPLAN", "1" if gateplan else "0")
    image = build_image(_redis_config(backend, hardening))
    summary, numbers = run_named_workload(
        image, "redis", {"sets": 24, "gets": 60, "window": 4}
    )
    machine = image.machine
    return numbers, machine.cpu.snapshot(), dict(machine.cpu.metrics.counters)


@pytest.mark.parametrize("backend,hardening", PROFILES)
def test_image_level_simulation_identical(backend, hardening, monkeypatch):
    """End-to-end redis run: six profiles, fast vs slow, identical."""
    fast = _run_profile(backend, hardening, monkeypatch, True)
    slow = _run_profile(backend, hardening, monkeypatch, False)
    assert fast[0] == slow[0]
    assert fast[1] == slow[1]
    assert fast[2] == slow[2]
