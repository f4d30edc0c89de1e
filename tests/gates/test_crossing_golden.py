"""Accounting golden: every crossing kind's simulated totals, pinned.

Pins the absolute numbers of every channel kind's crossings, so a
change to the CPU's accounting or to a backend's crossing plan shows
up here.  For each channel kind one seeded mix of crossings runs with time attribution on: plain and multi-argument
calls, capability-granting calls, callee-side loads and stores, caller
memory traffic left pending across a crossing, a raising callee, a
``charging=False`` segment and (for the queue kind) batched
submissions.  ``crossing_golden.json`` holds the final clock and every
per-domain time as ``float.hex``, every counter and every edge's
crossing count.

Its ``blocking`` section pins blocking crossings (``invoke_gen``) the
same way, for every kind plus a guarded and a queue wrapper: scheduler
threads park inside the callee on a semaphore and are woken, crash
inside a blocking call (contained, then restarted after a backoff), are
destroyed while parked in the callee, and make sync calls on the same
channel while others are parked — with the tracer, edge-latency
samples and time attribution on.  Besides the accounting it pins a
digest of the tracer events, the spans left open (none) and the number
of latency samples per edge.

Regenerate (only for an intended accounting change)::

    PYTHONPATH=src python tests/gates/test_crossing_golden.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random

import pytest

from repro.gates import GateOptions, make_channel
from repro.libos.compartment import Compartment
from repro.libos.library import Linker, MicroLibrary, export, export_blocking
from repro.libos.sched.base import YIELD, Block, WaitQueue
from repro.libos.sched.coop import CoopScheduler
from repro.machine.capabilities import base_capabilities
from repro.machine.faults import CompartmentFailure, InjectedFault
from repro.machine.machine import Machine
from repro.machine.mpk import pkru_for_keys

GOLDEN = pathlib.Path(__file__).with_name("crossing_golden.json")
KINDS = (
    "direct",
    "profile",
    "mpk-shared",
    "mpk-switched",
    "cheri",
    "vm-rpc",
    "queue:mpk-shared",
)
BLOCKING_KINDS = (
    "direct",
    "profile",
    "mpk-shared",
    "mpk-switched",
    "cheri",
    "vm-rpc",
    "guarded:mpk-shared",
    "queue:mpk-shared",
)
SEED = 5
STEPS = 240
THREADS = 5
THREAD_STEPS = 30


class Store(MicroLibrary):
    NAME = "store"
    SPEC = "[Memory access] Read(Own); Write(Own)"
    CAP_GRANTS = {"touch": ((0, -64),), "copy": ((0, 1),)}
    #: Checked by the guarded channel (a charge per contract).
    API_CONTRACTS = {
        "down": [(lambda args: 0 <= args[0] < 256, "offset inside the buffer")],
        "nap": [(lambda args: args[0] < 3, "at most two rounds")],
    }

    def on_install(self) -> None:
        self.buf = self.alloc_static(4096)

    @export
    def echo(self, *args):
        return len(args)

    @export
    def put(self, offset, data):
        self.machine.store(self.buf + offset, data)
        return len(data)

    @export
    def get(self, offset, size):
        return self.machine.load(self.buf + offset, size)

    @export
    def touch(self, addr):
        return addr

    @export
    def copy(self, addr, size):
        return size

    @export
    def boom(self):
        raise ValueError("boom")

    # --- blocking exports (a semaphore living in the callee) ---------------

    def attach(self, scheduler) -> None:
        self.scheduler = scheduler
        self.tokens = 0
        self.waitq = WaitQueue("store-sem")
        self.never = WaitQueue("store-never")

    @export_blocking
    def down(self, offset):
        """P: park until a token is available, then take it."""
        self.machine.store(self.buf + offset, b"down")
        while self.tokens == 0:
            yield Block(self.waitq)
        self.tokens -= 1
        return self.machine.load(self.buf + offset, 4)

    @export
    def up(self):
        """V: add a token and wake one parked ``down``."""
        self.tokens += 1
        self.scheduler.wake_one(self.waitq)

    @export_blocking
    def nap(self, rounds):
        for _ in range(rounds):
            yield YIELD
        return rounds

    @export_blocking
    def crash(self, park):
        if park:
            yield YIELD
        raise InjectedFault("gate-crash", "crash")

    @export_blocking
    def hang(self):
        yield Block(self.never)


class Client(MicroLibrary):
    NAME = "client"
    SPEC = "[Memory access] Read(Own); Write(Own)"

    def on_install(self) -> None:
        self.buf = self.alloc_static(4096)


def make_world(kind: str):
    """Two libraries wired by one channel of ``kind``, caller entered;
    returns (machine, client, channel, store)."""
    backend = kind.split(":", 1)[-1]
    machine = Machine()
    linker = Linker()
    store_comp = Compartment(0, "store-comp", machine)
    client_comp = store_comp
    if backend != "direct":
        client_comp = Compartment(1, "client-comp", machine)
    if backend == "vm-rpc":
        for comp in (store_comp, client_comp):
            comp.vm_domain = machine.new_vm_domain(comp.name)
            comp.address_space = comp.vm_domain.space
    else:
        space = machine.new_address_space("main")
        store_comp.address_space = space
        store_comp.pkey = 1
        store_comp.pkru_value = pkru_for_keys(writable=[1, 14])
        if client_comp is not store_comp:
            client_comp.address_space = space
            client_comp.pkey = 2
            client_comp.pkru_value = pkru_for_keys(writable=[2, 14])
    store, client = Store(), Client()
    store.install(machine, store_comp, linker)
    client.install(machine, client_comp, linker)
    if backend == "cheri":
        store_comp.capabilities = base_capabilities(store_comp, [])
        client_comp.capabilities = base_capabilities(client_comp, [])
    options = None
    if kind.startswith("queue:"):
        options = GateOptions(queue_batch=4, queue_depth=16)
    elif kind.startswith("guarded:"):
        options = GateOptions(api_guards=True)
    channel = make_channel(
        kind.removeprefix("guarded:"), machine, client, store, options=options
    )
    machine.cpu.push_context(client_comp.make_context("client"))
    machine.cpu.attribute_time = True
    return machine, client, channel, store


def run_mix(kind: str, seed: int = SEED) -> dict:
    """One seeded crossing mix; returns the pinned accounting."""
    machine, client, channel, _ = make_world(kind)
    cpu = machine.cpu
    queued = kind.startswith("queue:")
    rng = random.Random(seed)
    for step in range(STEPS):
        if step == STEPS // 3:
            cpu.charging = False
        elif step == STEPS // 2:
            cpu.charging = True
        op = rng.randrange(10)
        if op == 0:
            machine.store(client.buf + rng.randrange(64), rng.randbytes(16))
        elif op == 1:
            machine.load(client.buf + rng.randrange(64), rng.randrange(1, 24))
        elif op == 2:
            channel.invoke("echo", tuple(range(rng.randrange(5))))
        elif op == 3:
            data = rng.randbytes(rng.randrange(1, 40))
            channel.invoke("put", (rng.randrange(256), data))
        elif op == 4:
            channel.invoke("get", (rng.randrange(256), rng.randrange(1, 40)))
        elif op == 5:
            channel.invoke("touch", (client.buf + rng.randrange(64),))
        elif op == 6:
            channel.invoke("copy", (client.buf, rng.randrange(1, 128)))
        elif op == 7:
            with pytest.raises(ValueError):
                channel.invoke("boom", ())
        elif queued and op == 8:
            channel.submit("put", rng.randrange(256), rng.randbytes(8))
        elif queued:
            channel.flush()
            channel.poll()
    if queued:
        channel.flush()
        channel.poll()
    return accounting(machine)


def accounting(machine) -> dict:
    cpu = machine.cpu
    return {
        "clock_ns": cpu.clock_ns.hex(),
        "counters": dict(sorted(cpu.stats.items())),
        "domain_time_ns": {
            name: value.hex() for name, value in sorted(cpu.domain_time_ns.items())
        },
        "edges": {
            f"{caller}->{callee}:{edge_kind}": crossings
            for (caller, callee, edge_kind), crossings in sorted(
                cpu.metrics.edge_counts().items()
            )
        },
    }


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def run_blocking_mix(kind: str, seed: int = SEED) -> dict:
    """Scheduler threads mixing blocking and sync crossings on one
    channel, fully observed; returns the pinned accounting."""
    machine, client, channel, store = make_world(kind)
    client_comp = client.compartment
    store.compartment.failure_policy = "restart-with-backoff"
    store.compartment.restart_backoff_ns = 50.0
    scheduler = CoopScheduler()
    scheduler.install(machine, client_comp, Linker())
    store.attach(scheduler)
    machine.obs.tracer.enable()
    machine.cpu.metrics.record_edge_latency = True
    log = []
    crashes = [1, 0, 1]  # crash budget: parked (1) or not (0) before

    def body(index: int):
        rng = random.Random(seed * 100 + index)
        if index == 0:
            # Parks in the callee for good: destroyed at the end.
            yield from channel.invoke_gen("hang", ())
        for _ in range(THREAD_STEPS):
            op = rng.randrange(16)
            try:
                if op < 3:
                    log.append(channel.invoke("echo", tuple(range(rng.randrange(4)))))
                elif op < 5:
                    data = rng.randbytes(rng.randrange(1, 24))
                    log.append(channel.invoke("put", (rng.randrange(256), data)))
                elif op == 5:
                    log.append(channel.submit("put", rng.randrange(256), b"q"))
                elif op < 8:
                    log.append((yield from channel.invoke_gen("down", (rng.randrange(256),))))
                elif op < 11:
                    log.append(channel.invoke("up", ()))
                elif op < 14:
                    log.append((yield from channel.invoke_gen("nap", (rng.randrange(3),))))
                elif op == 14 and crashes:
                    yield from channel.invoke_gen("crash", (crashes.pop(),))
                else:
                    log.append([c.ticket for c in channel.poll()])
                    yield YIELD
            except (CompartmentFailure, InjectedFault) as exc:
                log.append((type(exc).__name__, str(exc)))

    for index in range(THREADS):
        scheduler.spawn(f"t{index}", lambda index=index: body(index), client_comp)
    scheduler.run()
    parked = sorted(scheduler.blocked_threads, key=lambda thread: thread.tid)
    for thread in parked:
        scheduler.kill_thread(thread)
    try:
        channel.flush()
        log.append([c.ticket for c in channel.poll()])
        log.append(channel.invoke("echo", (1, 2)))
    except CompartmentFailure as exc:
        log.append(str(exc))
    tracer = machine.obs.tracer
    metrics = machine.cpu.metrics
    pinned = accounting(machine)
    pinned.update({
        "killed": [thread.name for thread in parked],
        "results": digest(log),
        "trace_events": len(tracer.events),
        "trace_digest": digest(list(tracer.events)),
        "open_spans": len(tracer.open_spans()),
        "latency_samples": {
            name: len(metrics.histogram(name).values)
            for name in sorted(metrics.snapshot()["histograms"])
            if name.startswith("gate.latency_ns:")
        },
    })
    return pinned


@pytest.mark.parametrize("kind", KINDS)
def test_crossing_accounting_matches_golden(kind):
    assert run_mix(kind) == json.loads(GOLDEN.read_text())[kind]


@pytest.mark.parametrize("kind", BLOCKING_KINDS)
def test_blocking_crossings_match_golden(kind):
    pinned = run_blocking_mix(kind)
    assert pinned["killed"] and pinned["open_spans"] == 0
    assert pinned == json.loads(GOLDEN.read_text())["blocking"][kind]


if __name__ == "__main__":
    golden = {kind: run_mix(kind) for kind in KINDS}
    golden["blocking"] = {kind: run_blocking_mix(kind) for kind in BLOCKING_KINDS}
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
