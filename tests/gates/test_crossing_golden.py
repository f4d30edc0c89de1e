"""Accounting golden: every crossing kind's simulated totals, pinned.

The differential suite (``test_crossing_fastpath``) compares the
crossing-plan path with the reference path, so a change to the CPU's
accounting that moves both paths in step passes it.  This golden pins
the absolute numbers instead.  For each channel kind one seeded mix of
crossings runs with time attribution on: plain and multi-argument
calls, capability-granting calls, callee-side loads and stores, caller
memory traffic left pending across a crossing, a raising callee, a
``charging=False`` segment and (for the queue kind) batched
submissions.  ``crossing_golden.json`` holds the final clock and every
per-domain time as ``float.hex``, every counter and every edge's
crossing count.

Regenerate (only for an intended accounting change)::

    PYTHONPATH=src python tests/gates/test_crossing_golden.py
"""

from __future__ import annotations

import json
import pathlib
import random

import pytest

from repro.gates import GateOptions, make_channel
from repro.libos.compartment import Compartment
from repro.libos.library import Linker, MicroLibrary, export
from repro.machine.capabilities import base_capabilities
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
SEED = 5
STEPS = 240


class Store(MicroLibrary):
    NAME = "store"
    SPEC = "[Memory access] Read(Own); Write(Own)"
    CAP_GRANTS = {"touch": ((0, -64),), "copy": ((0, 1),)}

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


class Client(MicroLibrary):
    NAME = "client"
    SPEC = "[Memory access] Read(Own); Write(Own)"

    def on_install(self) -> None:
        self.buf = self.alloc_static(4096)


def make_world(kind: str):
    """Two libraries wired by one channel of ``kind``, caller entered."""
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
    channel = make_channel(kind, machine, client, store, options=options)
    machine.cpu.push_context(client_comp.make_context("client"))
    machine.cpu.attribute_time = True
    return machine, client, channel


def run_mix(kind: str, seed: int = SEED) -> dict:
    """One seeded crossing mix; returns the pinned accounting."""
    machine, client, channel = make_world(kind)
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


@pytest.mark.parametrize("kind", KINDS)
def test_crossing_accounting_matches_golden(kind):
    assert run_mix(kind) == json.loads(GOLDEN.read_text())[kind]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({kind: run_mix(kind) for kind in KINDS}, indent=2) + "\n"
    )
