"""Queue channels: rings, flush policies, crash-mid-batch, wiring.

The conformance matrix (``test_channel_protocol.py``) asserts that
queue channels honour the generic Channel contract; this file covers
what is *specific* to them — the io_uring-style ring mechanics, the
flush policies, group-scoped ring memory, the builder/config wiring,
and the explorer's sync-vs-batched trade-off.
"""

import types

import pytest

from repro import BuildConfig, build_image
from repro.apps import start_redis
from repro.apps.workload import run_redis_phase
from repro.core.config import parse_queue_policy
from repro.core.errors import BuildError
from repro.core.explorer import profiled_cost_fn, queue_recommendations
from repro.gates import GateOptions, QueueChannel, make_channel
from repro.gates.registry import relative_crossing_cost
from repro.libos.compartment import Compartment
from repro.libos.library import Linker, MicroLibrary, export
from repro.machine.faults import (
    CompartmentFailure,
    GateError,
    ProtectionFault,
    RPCTimeout,
)
from repro.machine.machine import Machine
from repro.machine.mpk import pkru_for_keys
from repro.obs.profile import WorkloadProfile
from repro.resilience import InjectionPlan
from repro.resilience.injector import FaultInjector


class RecorderLibrary(MicroLibrary):
    NAME = "recorder"
    SPEC = "[Memory access] Read(Own); Write(Own)"

    def __init__(self):
        super().__init__()
        self.seen = []

    @export
    def record(self, value):
        self.seen.append(value)
        return value

    @export
    def total(self):
        return sum(self.seen)

    @export
    def fault(self):
        raise ProtectionFault(0xDEAD, "write", detail="synthetic")


class ClientLibrary(MicroLibrary):
    NAME = "client"
    SPEC = "[Memory access] Read(Own); Write(Own)"


def make_world():
    machine = Machine()
    linker = Linker()
    space = machine.new_address_space("main")
    comp_a = Compartment(0, "recorder-comp", machine)
    comp_a.address_space = space
    comp_a.pkey = 1
    comp_a.pkru_value = pkru_for_keys(writable=[1, 14])
    comp_b = Compartment(1, "client-comp", machine)
    comp_b.address_space = space
    comp_b.pkey = 2
    comp_b.pkru_value = pkru_for_keys(writable=[2, 14])
    recorder = RecorderLibrary()
    client = ClientLibrary()
    recorder.install(machine, comp_a, linker)
    client.install(machine, comp_b, linker)
    return machine, recorder, client


def make_queue(options=None, push_context=True):
    machine, recorder, client = make_world()
    channel = make_channel(
        "queue:mpk-shared", machine, client, recorder, options=options
    )
    if push_context:
        machine.cpu.push_context(client.compartment.make_context("client"))
    return machine, recorder, channel


# --- flush policies ----------------------------------------------------------


def test_batch_policy_autoflushes():
    _, recorder, channel = make_queue(GateOptions(queue_batch=4))
    for value in range(3):
        channel.submit("record", value)
    assert channel.pending == 3 and channel.crossings == 0
    channel.submit("record", 3)  # hits queue_batch
    assert channel.pending == 0 and channel.crossings == 1
    assert recorder.seen == [0, 1, 2, 3]


def test_full_ring_forces_flush():
    _, _, channel = make_queue(GateOptions(queue_depth=4, queue_batch=1000))
    for value in range(5):
        channel.submit("record", value)
    # Depth-4 ring: the 5th submission forced a doorbell first.
    assert channel.crossings == 1 and channel.pending == 1


def test_zero_depth_rejected():
    with pytest.raises(GateError, match="queue_depth"):
        make_queue(GateOptions(queue_depth=0))


def test_max_delay_deadline():
    machine, _, channel = make_queue(
        GateOptions(queue_batch=1000, queue_max_delay_ns=500.0)
    )
    assert channel.flush_deadline_ns() is None
    submitted_at = machine.cpu.clock_ns
    channel.submit("record", 1)
    deadline = channel.flush_deadline_ns()
    # The SQE append itself charges a little time first, so the
    # deadline is 500ns past the append, at or after submit entry.
    assert deadline is not None and deadline >= submitted_at + 500.0
    assert channel.flush_if_due() == 0  # deadline not reached
    machine.cpu.charge(deadline - machine.cpu.clock_ns + 1.0)
    assert channel.flush_if_due() == 1
    assert channel.flush_deadline_ns() is None


def test_sync_invoke_flushes_first():
    """Program order: sync calls never overtake queued submissions."""
    _, recorder, channel = make_queue(GateOptions(queue_batch=1000))
    channel.submit("record", 10)
    channel.submit("record", 32)
    assert channel.invoke("total", ()) == 42  # queued ops ran first
    assert recorder.seen == [10, 32]
    assert channel.crossings == 2  # one doorbell + one sync call


def test_close_flushes_and_is_idempotent():
    _, recorder, channel = make_queue(GateOptions(queue_batch=1000))
    channel.submit("record", 7)
    channel.close()
    channel.close()
    assert recorder.seen == [7]


# --- crash-mid-batch ---------------------------------------------------------


def test_crash_mid_batch_aborts_tail_keeps_head():
    _, recorder, channel = make_queue(GateOptions(queue_batch=1000))
    recorder.compartment.failure_policy = "isolate"
    for fn, arg in [("record", (1,)), ("record", (2,)), ("fault", ()), ("record", (3,))]:
        channel.submit(fn, *arg)
    assert channel.flush() == 4
    head_ok, also_ok, crashed, aborted = channel.poll()
    assert head_ok.ok and also_ok.ok
    assert isinstance(crashed.error, CompartmentFailure)
    # The tail op aborted with the SAME failure: the callee domain died
    # mid-batch, so its submission never executed...
    assert aborted.error is crashed.error
    # ...which the callee's state confirms (exactly sync-call prefix).
    assert recorder.seen == [1, 2]
    assert recorder.compartment.failed


def test_propagate_policy_raises_and_restores_batch():
    _, recorder, channel = make_queue(GateOptions(queue_batch=1000))
    assert recorder.compartment.failure_policy == "propagate"
    channel.submit("fault")
    channel.submit("record", 9)
    with pytest.raises(ProtectionFault):
        channel.flush()
    # The doorbell failed wholesale: the batch is still pending, so a
    # caller with a retry policy can flush again.
    assert channel.pending == 2


def test_return_timeout_never_reruns_the_batch():
    """A doorbell whose return notification is lost for good has run
    every op: the timeout lands in each completion and a retried flush
    runs nothing again."""
    machine = Machine()
    linker = Linker()
    recorder = RecorderLibrary()
    client = ClientLibrary()
    for index, lib in enumerate((recorder, client)):
        comp = Compartment(index, f"{lib.NAME}-comp", machine)
        comp.vm_domain = machine.new_vm_domain(lib.NAME)
        comp.address_space = comp.vm_domain.space
        lib.install(machine, comp, linker)
    channel = make_channel(
        "queue:vm-rpc", machine, client, recorder,
        options=GateOptions(queue_batch=1000),
    )
    machine.cpu.push_context(client.compartment.make_context("client"))
    # Notification 1 (the doorbell) arrives; 2-5 (the return and all
    # three resends) are lost.
    plan = InjectionPlan(seed=1).drop_vm_notify(nth=2, count=4)
    FaultInjector(plan).attach(types.SimpleNamespace(machine=machine))
    for value in (1, 2, 3):
        channel.submit("record", value)
    try:
        channel.flush()
    except RPCTimeout:
        channel.flush()  # a caller's retry
    assert recorder.seen == [1, 2, 3]
    assert channel.pending == 0
    completions = channel.poll()
    assert len(completions) == 3
    assert all(isinstance(c.error, RPCTimeout) for c in completions)


# --- ring memory is group-scoped ---------------------------------------------


def test_rings_invisible_to_third_compartments():
    machine, recorder, channel = make_queue(push_context=False)
    comp_c = Compartment(2, "bystander", machine)
    comp_c.address_space = recorder.compartment.address_space
    comp_c.pkey = 3
    comp_c.pkru_value = pkru_for_keys(writable=[3, 14])
    # A member (the caller) reads the ring fine...
    machine.cpu.push_context(
        channel.caller_lib.compartment.make_context("client")
    )
    machine.load(channel._sq_base, 8)
    machine.cpu.pop_context()
    # ...a non-member faults: the rings are tagged with a fresh pkey,
    # not the world-shared one.
    machine.cpu.push_context(comp_c.make_context("bystander"))
    with pytest.raises(ProtectionFault):
        machine.load(channel._sq_base, 8)
    machine.cpu.pop_context()
    heap = machine.group_heaps.regions[0]
    assert heap.pkey not in (None, 14)


# --- factory / options validation --------------------------------------------


def test_bare_queue_kind_rejected():
    machine, recorder, client = make_world()
    with pytest.raises(GateError, match="queue:<backend>"):
        make_channel("queue", machine, client, recorder)


def test_queue_over_direct_rejected():
    machine, recorder, client = make_world()
    with pytest.raises(GateError):
        make_channel("queue:direct", machine, client, recorder)


def test_unknown_dict_option_lists_known():
    machine, recorder, client = make_world()
    with pytest.raises(GateError, match="clear_registers"):
        make_channel(
            "mpk-shared", machine, client, recorder, options={"bogus": 1}
        )


def test_inapplicable_option_rejected():
    machine, recorder, client = make_world()
    with pytest.raises(GateError, match="queue_batch"):
        make_channel(
            "mpk-shared",
            machine,
            client,
            recorder,
            options=GateOptions(queue_batch=4),
        )
    with pytest.raises(GateError, match="rpc_max_retries"):
        make_channel(
            "queue:mpk-shared",
            machine,
            client,
            recorder,
            options=GateOptions(rpc_max_retries=9),
        )


def test_queue_options_applicable_on_queue_kinds():
    _, _, channel = make_queue(GateOptions(queue_batch=4, queue_depth=16))
    assert isinstance(channel, QueueChannel)
    assert channel.options.queue_batch == 4


# --- amortised cost model ----------------------------------------------------


@pytest.mark.parametrize("backend", ["mpk-shared", "mpk-switched", "vm-rpc", "cheri"])
def test_relative_cost_amortises_with_batch(backend):
    sync_ns = relative_crossing_cost(backend)
    batched = [
        relative_crossing_cost(f"queue:{backend}", batch=b) for b in (1, 8, 64)
    ]
    assert batched[0] > batched[1] > batched[2]  # monotone in batch size
    # At batch 8 the doorbell is amortised 8x; the ring tax is fixed,
    # so the crossing term drops to sync/8 + ring.
    assert batched[1] < sync_ns or backend == "cheri"
    assert batched[1] == pytest.approx(
        batched[2] - sync_ns / 64 + sync_ns / 8
    )


def test_queue_of_non_boundary_cost_rejected():
    with pytest.raises(GateError):
        relative_crossing_cost("queue:direct")


# --- config / builder wiring -------------------------------------------------


def test_parse_queue_policy():
    assert parse_queue_policy("batch:8") == (8, 0.0)
    assert parse_queue_policy("batch:4,delay:1000") == (4, 1000.0)
    for bad in ("", "batch:x", "batch:0", "delay:5", "batch:2,delay:-1"):
        with pytest.raises(BuildError):
            parse_queue_policy(bad)


def test_config_validates_queue_edges():
    good = BuildConfig(
        libraries=["libc", "blk", "kv"],
        queue_edges={"kv->blk": "batch:8"},
    )
    good.validate()
    assert BuildConfig.from_dict(good.to_dict()).queue_edges == {
        "kv->blk": "batch:8"
    }
    with pytest.raises(BuildError, match="caller->callee"):
        BuildConfig(
            libraries=["libc"], queue_edges={"nope": "batch:2"}
        ).validate()
    with pytest.raises(BuildError, match="not in"):
        BuildConfig(
            libraries=["libc"], queue_edges={"ghost->libc": "batch:2"}
        ).validate()


def build_durable_redis(backend="mpk-shared", queue_edges=None):
    image = build_image(
        BuildConfig(
            libraries=["libc", "netstack", "blk", "kv", "redis"],
            compartments=[
                ["netstack"],
                ["blk"],
                ["kv"],
                ["sched", "alloc", "libc", "redis"],
            ],
            backend=backend,
            queue_edges=queue_edges or {},
        )
    )
    return image


def set_payloads(entries):
    return [
        b"SET %s %d\n" % (key, len(value)) + value for key, value in entries
    ]


def test_builder_wires_queue_edges():
    image = build_durable_redis(queue_edges={"kv->blk": "batch:8"})
    channel = image.lib("kv").stub("blk")._channel
    assert isinstance(channel, QueueChannel)
    assert channel.KIND == "queue:mpk-shared"
    # Other edges keep the plain backend.
    assert image.lib("redis").stub("kv")._channel.KIND == "mpk-shared"


def test_durable_redis_over_queued_journal():
    """SETs ack after the batched journal completes; state is intact."""
    image = build_durable_redis(
        queue_edges={"redis->kv": "batch:4", "kv->blk": "batch:8"}
    )
    start_redis(image)
    assert image.lib("redis")._kv.supports_async
    run_redis_phase(
        image,
        set_payloads([(b"a", b"one"), (b"b", b"two")]),
        window=4,
        expect_prefix=b"+OK",
    )
    stats = image.call("redis", "redis_stats")
    assert stats["kv_writes"] == 2 and stats["errors"] == 0
    assert image.call("kv", "kv_keys") == [b"a", b"b"]
    counters = image.machine.cpu.stats
    assert counters["queue.submitted"] >= 2
    assert counters["queue.doorbells"] >= 1
    assert counters["queue.doorbells"] < counters["queue.submitted"] + 1
    # The compound kind shows up in the crossing report.
    kinds = {
        (caller, callee): kind
        for caller, callee, kind, _ in image.crossing_report()
    }
    assert kinds[("redis", "kv")] == "queue:mpk-shared"
    assert kinds[("kv", "blk")] == "queue:mpk-shared"


def test_batch_one_matches_sync_semantics():
    """Acceptance: batch-1 queueing acks the same state sync does."""
    sync_image = build_durable_redis()
    queued_image = build_durable_redis(
        queue_edges={"redis->kv": "batch:1"}
    )
    payloads = set_payloads(
        [(b"a", b"one"), (b"b", b"two"), (b"a", b"three")]
    ) + [b"DEL b\n", b"GET a\n"]
    for image in (sync_image, queued_image):
        start_redis(image)
        run_redis_phase(image, payloads[:3], window=4, expect_prefix=b"+OK")
        run_redis_phase(image, [payloads[3]], expect_prefix=b":1")
        run_redis_phase(image, [payloads[4]], expect_prefix=b"$5")
    sync_stats = image_stats = None
    sync_stats = sync_image.call("redis", "redis_stats")
    image_stats = queued_image.call("redis", "redis_stats")
    for key in ("sets", "gets", "errors", "responses", "kv_writes"):
        assert sync_stats[key] == image_stats[key], key
    assert sync_image.call("kv", "kv_keys") == queued_image.call(
        "kv", "kv_keys"
    )
    assert sync_image.call("redis", "dbsize") == queued_image.call(
        "redis", "dbsize"
    )


# --- explorer: sync vs batched per edge --------------------------------------


def synthetic_profile(crossings=10_000):
    return WorkloadProfile(
        workload="synthetic",
        params={},
        seed=0,
        backend="mpk-shared",
        libraries=["redis", "kv"],
        compartments=[["redis"], ["kv"]],
        elapsed_ns=1e6,
        edges=[
            {
                "caller": "redis",
                "callee": "kv",
                "kind": "mpk-shared",
                "crossings": crossings,
            },
            {
                "caller": "redis",
                "callee": "alloc",
                "kind": "mpk-shared",
                "crossings": 3,
            },
        ],
        gate_latency_ns={},
        cpu_time_ns={"redis": 5e5, "kv": 5e5},
        alloc_bytes={},
        counters={},
    )


def test_queue_recommendations_flags_hot_edges():
    recs = queue_recommendations(synthetic_profile(), batch=8)
    assert "redis->kv" in recs
    assert recs["redis->kv"]["saved_ns"] > 0
    assert recs["redis->kv"]["queued_ns"] < recs["redis->kv"]["sync_ns"]
    assert "redis->alloc" not in recs  # under min_crossings
    assert queue_recommendations(synthetic_profile(), backend="direct") == {}


def test_profiled_cost_fn_prefers_queue_on_hot_edge():
    profile = synthetic_profile()
    deployment = types.SimpleNamespace(
        coloring={"redis": 0, "kv": 1}, choices={}
    )
    sync_cost = profiled_cost_fn(profile)(deployment)
    queued_fn = profiled_cost_fn(
        profile, queue_edges=["redis->kv"], queue_batch=8
    )
    assert queued_fn(deployment) < sync_cost
    assert "queue[redis->kv]@8" in queued_fn.estimator
    # An explorer choosing by cost therefore selects the queue variant
    # for the hot-crossing profile.
    best = min(
        [("sync", sync_cost), ("queue", queued_fn(deployment))],
        key=lambda pair: pair[1],
    )
    assert best[0] == "queue"
