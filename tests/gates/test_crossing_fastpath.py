"""Golden suite for gate crossings: randomized traces, observed runs
and image-level simulations, pinned bit for bit.

Every crossing runs from its channel's compiled crossing plan.  These
tests drive randomized operation traces (sync invokes, faulting
invokes, batched queue submissions, observability toggles mid-trace) at
channel level across the four boundary backends, and whole images
across the six isolation profiles the benchmarks use (including
SH-hardened ones) plus a deployment with a batched queue edge.  Each
run is compared with ``crossing_traces_golden.json``, recorded from the
per-call reference derivation of every crossing that the plans
replaced: results, clock, counters, per-domain time as ``float.hex``,
and digests of the Chrome trace and every per-edge latency sample.

Regenerate (only for an intended change to crossing accounting)::

    PYTHONPATH=src python tests/gates/test_crossing_fastpath.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random

import pytest

from repro import BuildConfig, build_image
from repro.apps import run_iperf, run_named_workload
from repro.gates import GateOptions, make_channel
from repro.libos.compartment import Compartment
from repro.libos.library import Linker, MicroLibrary, export, export_blocking
from repro.machine.capabilities import base_capabilities
from repro.machine.faults import CompartmentFailure, GateError, InjectedFault
from repro.machine.machine import Machine
from repro.machine.mpk import pkru_for_keys
from repro.obs import chrome_trace

GOLDEN = pathlib.Path(__file__).with_name("crossing_traces_golden.json")

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
PROFILE_IDS = [
    "mpk-shared", "mpk-switched", "vm-rpc", "cheri", "sh-asan", "sh-dfi",
]


def golden(section: str, cell: str):
    return json.loads(GOLDEN.read_text())[section][cell]


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


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


def make_world(backend: str):
    machine = Machine()
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


def pin_observed(machine) -> dict:
    """The observers' record: a digest plus readable sizes."""
    trace, latencies = observed(machine)
    return {
        "digest": digest((trace, latencies)),
        "trace_events": len(trace["traceEvents"]),
        "latency_samples": {
            name: len(values) for name, values in sorted(latencies.items())
        },
    }


def completions(queued) -> list:
    return [
        (c.ticket, c.fn, c.value, type(c.error).__name__ if c.error else None)
        for c in queued.poll()
    ]


def run_trace(backend: str, seed: int, toggle_obs: bool) -> dict:
    """One seeded randomized trace; returns its pinned machine state."""
    machine, service, caller = make_world(backend)
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
            # observer hooks on every toggle, and observing a crossing
            # changes none of its simulated numbers.
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
    return {
        "results": digest(results),
        "snapshot": machine.cpu.snapshot(),
        "counters": machine.cpu.metrics.counter_values(),
        "clock_ns": cpu.clock_ns.hex(),
        "observed": pin_observed(machine),
        "domain_time_ns": {
            name: ns.hex() for name, ns in sorted(cpu.domain_time_ns.items())
        },
    }


def trace_cell(backend: str, toggle_obs: bool, seed: int) -> str:
    return f"{seed}-{toggle_obs}-{backend}"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("toggle_obs", [False, True])
@pytest.mark.parametrize("seed", [1, 7])
def test_randomized_traces_bit_identical(backend, toggle_obs, seed):
    """Same results, clock, counters, events and per-domain time
    attribution as the recorded reference."""
    pinned = run_trace(backend, seed, toggle_obs)
    assert pinned["domain_time_ns"] or not toggle_obs
    cell = trace_cell(backend, toggle_obs, seed)
    assert json.loads(json.dumps(pinned)) == golden("randomized", cell)


def run_observed_trace(backend: str, seed: int):
    """A seeded trace observed from start to finish.

    The tracer and edge-latency recording stay on throughout; the
    callee restarts after a short backoff, so contained crashes (sync
    and mid-batch), fail-fast crossings and restarts all land in the
    trace next to the gate spans and ``wrpkru`` instants.
    """
    machine, service, caller = make_world(backend)
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
    trace, latencies = observed(machine)
    names = {event["name"] for event in trace["traceEvents"]}
    assert any(name.startswith("contained:") for name in names)
    assert any(name.startswith("restart:") for name in names)
    assert any(".batch[" in name for name in names)
    assert latencies and all(latencies.values())
    return {
        "results": digest(results),
        "snapshot": machine.cpu.snapshot(),
        "observed": pin_observed(machine),
    }


@pytest.mark.parametrize("backend", BACKENDS)
def test_observed_traces_identical(backend):
    """Always-on observers record the reference's events."""
    pinned = run_observed_trace(backend, 3)
    assert json.loads(json.dumps(pinned)) == golden("observed", backend)


def run_tracer_toggles(backend: str) -> dict:
    machine, service, caller = make_world(backend)
    channel = make_channel(backend, machine, caller, service)
    enter_caller(machine, caller)
    for _ in range(3):
        channel.invoke("flip_tracer", ())
        channel.invoke("echo", (1,))
    machine.obs.tracer.enabled = False
    assert observed(machine)[0]["traceEvents"]
    return pin_observed(machine)


@pytest.mark.parametrize("backend", BACKENDS)
def test_tracer_toggled_inside_a_handler(backend):
    """A handler that turns the tracer on or off mid-crossing records
    the reference's events (the exit ``wrpkru`` instant follows the
    tracer's state at the exit, the span only the entry's)."""
    assert run_tracer_toggles(backend) == golden("tracer_toggled", backend)


def blocking_export_error(backend: str) -> str:
    machine, service, caller = make_world(backend)
    channel = make_channel(backend, machine, caller, service)
    enter_caller(machine, caller)
    with pytest.raises(GateError) as excinfo:
        channel.invoke("sleepy", ())
    return str(excinfo.value)


@pytest.mark.parametrize("backend", BACKENDS)
def test_blocking_exports_identical_on_both_paths(backend):
    """A plain invoke of a blocking export fails with the recorded
    error, on sync and blocking crossings alike."""
    assert blocking_export_error(backend) == golden("blocking_errors", backend)


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


def drive(gen):
    """Run a blocking crossing that needs no scheduler to completion."""
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


@pytest.mark.parametrize("backend", BACKENDS)
def test_observed_crossings_stay_on_the_plan(backend):
    """One path: with any observer on, sync, blocking and batched
    crossings all take the plan, exactly as often as unobserved ones."""

    def plan_hits(observe) -> tuple:
        machine, service, caller = make_world(backend)
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
            assert drive(sync.invoke_gen("sleepy", ())) == "done"
            queued.submit("record_free", value)
        queued.flush()
        assert drive(queued.invoke_gen("sleepy", ())) == "done"
        for channel in (sync, queued.inner):
            assert channel._plan.hits == channel.crossings
        return sync._plan.hits, queued.inner._plan.hits

    hits = {name: plan_hits(observe) for name, observe in OBSERVERS.items()}
    assert hits["none"] == (24, 5)
    assert set(hits.values()) == {hits["none"]}


@pytest.mark.parametrize("backend", BACKENDS)
def test_parked_blocking_context_is_not_reused(backend):
    """Sync crossings on a gate never take the context of a blocking
    crossing parked inside the callee on another thread's stack."""
    machine, service, caller = make_world(backend)
    channel = make_channel(backend, machine, caller, service)
    enter_caller(machine, caller)
    cpu = machine.cpu
    channel.invoke("echo", (0,))  # leaves a context in the pool
    parked_call = channel.invoke_gen("sleepy", ())
    next(parked_call)  # suspended inside the callee
    parked = cpu.current
    # The parked thread's stack is saved; another thread runs.
    saved = cpu.swap_context_stack([caller.compartment.make_context("other")])
    for value in range(3):
        channel.invoke("touch", (value,))
        assert channel._ctx_pool is not parked
    assert parked.label.endswith("svc.sleepy")
    cpu.swap_context_stack(saved)
    assert cpu.current is parked
    assert drive(parked_call) == "done"
    assert cpu.current.label == "caller"


def test_plan_refreshes_on_observability_epoch_bump():
    """Observers are plan hooks: toggling one refreshes the plan once,
    and observed crossings keep taking the plan."""
    machine, service, caller = make_world("mpk-shared")
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
    assert stats["plans"] >= 1
    assert stats["plan_hits"] >= plan.hits


def _redis_config(backend: str, hardening: dict) -> BuildConfig:
    return BuildConfig(
        libraries=["libc", "netstack", "vfs", "redis"],
        compartments=[["netstack"], ["vfs"], ["sched", "alloc", "libc", "redis"]],
        backend=backend,
        hardening=dict(hardening),
    )


def run_profile(backend: str, hardening: dict):
    """End-to-end redis run; returns (numbers, snapshot, counters, image)."""
    image = build_image(_redis_config(backend, hardening))
    summary, numbers = run_named_workload(
        image, "redis", {"sets": 24, "gets": 60, "window": 4}
    )
    cpu = image.machine.cpu
    return numbers, cpu.snapshot(), cpu.metrics.counter_values(), image


@pytest.mark.parametrize("backend,hardening", PROFILES)
def test_image_level_simulation_identical(backend, hardening):
    """End-to-end redis run on six profiles: the recorded numbers."""
    numbers, snapshot, counters, _ = run_profile(backend, hardening)
    cell = PROFILE_IDS[PROFILES.index((backend, hardening))]
    pinned = {"numbers": numbers, "snapshot": snapshot, "counters": counters}
    assert json.loads(json.dumps(pinned)) == golden("image", cell)


def queue_deployment():
    """iperf on mpk-shared with a batched queue edge into the netstack
    (completions delivered by wakeups); returns (result, image)."""
    image = build_image(
        BuildConfig(
            libraries=["libc", "netstack", "iperf"],
            compartments=[["netstack"], ["sched", "alloc", "libc", "iperf"]],
            backend="mpk-shared",
            queue_edges={"iperf->netstack": "batch:8"},
        )
    )
    return run_iperf(image, 4096, 1 << 17), image


def run_queue_deployment() -> dict:
    result, image = queue_deployment()
    cpu = image.machine.cpu
    return {
        "numbers": {
            "throughput_mbps": result.throughput_mbps,
            "elapsed_ns": result.elapsed_ns,
        },
        "snapshot": cpu.snapshot(),
        "counters": cpu.metrics.counter_values(),
    }


def test_queue_deployment_matches_golden():
    pinned = run_queue_deployment()
    assert json.loads(json.dumps(pinned)) == golden("queue_deployment", "iperf")


def assert_every_crossing_took_the_plan(machine) -> None:
    plan_hits = machine.fastpath_stats()["gateplan"]["plan_hits"]
    crossings = sum(machine.cpu.metrics.edge_counts().values())
    assert crossings and plan_hits == crossings


@pytest.mark.parametrize("backend,hardening", PROFILES)
def test_every_crossing_takes_the_plan(backend, hardening):
    """Whole redis images (blocking semaphore and socket calls
    included): every edge crossing is a plan hit."""
    *_, image = run_profile(backend, hardening)
    assert_every_crossing_took_the_plan(image.machine)


def test_every_queue_deployment_crossing_takes_the_plan():
    _, image = queue_deployment()
    assert_every_crossing_took_the_plan(image.machine)


def record() -> dict:
    return {
        "randomized": {
            trace_cell(backend, toggle_obs, seed): run_trace(
                backend, seed, toggle_obs
            )
            for seed in (1, 7)
            for toggle_obs in (False, True)
            for backend in BACKENDS
        },
        "observed": {backend: run_observed_trace(backend, 3) for backend in BACKENDS},
        "tracer_toggled": {backend: run_tracer_toggles(backend) for backend in BACKENDS},
        "blocking_errors": {
            backend: blocking_export_error(backend) for backend in BACKENDS
        },
        "image": {
            cell: dict(
                zip(("numbers", "snapshot", "counters"), run_profile(*profile)[:3])
            )
            for cell, profile in zip(PROFILE_IDS, PROFILES)
        },
        "queue_deployment": {"iperf": run_queue_deployment()},
    }


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
