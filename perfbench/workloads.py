"""The benchmark's four workloads, each split into set-up and a measured phase.

A workload is driven in *rounds*.  Every round builds the system from
its configuration (set-up), runs one fixed-size measured phase on it,
and then checks every reply.  All rounds of a run use the same
generated inputs, so their simulated results must be bit-identical;
the host times of the rounds are the samples the harness takes
medians over.

Each workload class provides:

- ``inputs(seed)`` -- everything the clients send, generated here from
  the seed (key names, key order, values, stream length);
- ``setup(inputs)`` -- from configuration to a ready, preloaded server;
- ``measure(state, inputs, lap)`` -- the timed phase; returns a
  :class:`Phase` with the operation count and the simulated results.
  A long phase calls ``lap()`` between batches, so the harness can
  re-measure the host's speed there (see ``calibration.Stopwatch``);
- ``check(state, inputs, phase)`` -- verifies outputs outside the timed
  phase and returns the number of failed operations;
- ``images(state)`` -- the simulated machines, for telemetry.
"""

from __future__ import annotations

import dataclasses
import random

from repro import BuildConfig, build_image
from repro.apps import ClosedLoopSource, resp, run_iperf, run_redis_phase, start_redis
from repro.cluster.client import ClusterClient, verify_acked
from repro.cluster.cluster import RedisCluster
from repro.cluster.shardmap import ShardMap
from repro.libos.net.packet import unpack_header
from repro.perf.meter import Meter, mbps, mreq_per_s, percentile

#: Fig. 5 "NW/Sched/Rest": network stack, scheduler, and the rest.
REDIS_CONFIG = dict(
    libraries=["libc", "netstack", "redis"],
    compartments=[["netstack"], ["sched"], ["alloc", "libc", "redis"]],
    backend="mpk-switched",
)
#: Fig. 3: the network stack isolated from the rest of the image.
IPERF_CONFIG = dict(
    libraries=["libc", "netstack", "iperf"],
    compartments=[["netstack"], ["sched", "alloc", "libc", "iperf"]],
    backend="mpk-shared",
)
CLUSTER_SHARDS = ("s0", "s1", "s2")
CLUSTER_BACKEND = "mpk-shared"


@dataclasses.dataclass
class Phase:
    """What one measured phase did, in host-independent terms."""

    #: Operations completed (GETs, recv() calls, cluster SET/GETs).
    ops: int
    #: Application payload moved: values returned or stored, or
    #: stream bytes received.
    payload_bytes: int
    #: Simulated duration of the phase.
    elapsed_ns: float
    #: Per-request simulated latencies, where the client records them.
    latencies_ns: list[float] = dataclasses.field(default_factory=list)

    def sim(self) -> dict[str, float]:
        """The simulated end-to-end results (deterministic per seed)."""
        result = {
            "sim_mreq_s": mreq_per_s(self.ops, self.elapsed_ns),
            "sim_mbps": mbps(self.payload_bytes, self.elapsed_ns),
        }
        if self.latencies_ns:
            result["sim_p50_us"] = percentile(self.latencies_ns, 0.50) / 1e3
            result["sim_p99_us"] = percentile(self.latencies_ns, 0.99) / 1e3
        return result


def _switch_budget(requests: int) -> int:
    """Context-switch cap so a wedged phase fails instead of spinning."""
    return 200 * requests + 20_000


def _unique_keys(rng: random.Random, count: int) -> list[bytes]:
    """``count`` distinct key names of seeded, varying length."""
    keys: dict[bytes, None] = {}
    while len(keys) < count:
        keys[b"key:%d" % rng.randrange(10 ** rng.randrange(4, 13))] = None
    return list(keys)


class RedisMpk:
    """Fig. 5 redis GETs on ``mpk-switched``, NW/Sched/Rest.

    256 keys with 50-B values are preloaded with SETs during set-up;
    the measured phase is a closed loop of GETs with window 8.
    """

    name = "redis-mpk"
    keys = 256
    value_size = 50
    gets = 4_000
    window = 8
    #: Record tracer spans during the measured phase (``redis-obs``).
    tracer = False

    def inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        keys = _unique_keys(rng, self.keys)
        values = {key: rng.randbytes(self.value_size) for key in keys}
        order = [rng.choice(keys) for _ in range(self.gets)]
        return {
            "sets": [resp.encode_command(b"SET", key, values[key]) for key in keys],
            "gets": [resp.encode_command(b"GET", key) for key in order],
            "replies": [resp.encode_bulk(values[key]) for key in order],
        }

    def setup(self, inputs: dict):
        image = build_image(BuildConfig(**REDIS_CONFIG))
        start_redis(image)
        # Raises on any reply that is not +OK.
        run_redis_phase(
            image, inputs["sets"], window=self.window, expect_prefix=b"+OK"
        )
        return {"image": image, "replies": []}

    def measure(self, state: dict, inputs: dict, lap) -> Phase:
        image = state["image"]
        replies = state["replies"]
        netstack = image.lib("netstack")
        source = ClosedLoopSource(
            image.lib("redis").PORT,
            inputs["gets"],
            window=self.window,
            clock=lambda: image.machine.cpu.clock_ns,
        )

        def sink(frame: bytes) -> None:
            replies.append(frame)
            source.sink(frame)

        netstack.nic.rx_source = source.source
        netstack.nic.tx_sink = sink
        if self.tracer:
            image.machine.obs.tracer.enable()
        with Meter(image.machine) as meter:
            image.run(
                until=lambda: source.done,
                max_switches=_switch_budget(source.total),
            )
        image.machine.obs.tracer.disable()
        return Phase(
            ops=source.responses,
            payload_bytes=self.value_size * source.responses,
            elapsed_ns=meter.elapsed_ns,
            latencies_ns=source.latencies_ns,
        )

    def check(self, state: dict, inputs: dict, phase: Phase) -> int:
        """GET replies that are missing, malformed, or carry a wrong value."""
        expected = inputs["replies"]
        wrong = abs(len(expected) - len(state["replies"]))
        for frame, reply in zip(state["replies"], expected):
            header = unpack_header(frame)
            if frame[16 : 16 + header.length] != reply:
                wrong += 1
        return wrong

    def images(self, state: dict) -> list:
        return [state["image"]]


class RedisObs(RedisMpk):
    """``redis-mpk`` with the span tracer recording the measured phase."""

    name = "redis-obs"
    tracer = True


class IperfStream:
    """Fig. 3 netstack-isolated ``mpk-shared`` iperf, 64 KiB recv buffer.

    The seed picks the stream length (12-16 MiB); the saturating
    ``IperfSource`` keeps the wire busy, so the result sits at line
    rate.
    """

    name = "iperf-stream"
    buffer_size = 64 * 1024

    def inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        return {"total_bytes": (12 << 20) + rng.randrange(4 << 20)}

    def setup(self, inputs: dict):
        return {"image": build_image(BuildConfig(**IPERF_CONFIG))}

    def measure(self, state: dict, inputs: dict, lap) -> Phase:
        image = state["image"]
        result = run_iperf(image, self.buffer_size, inputs["total_bytes"])
        app = image.lib("iperf")
        return Phase(
            ops=app.recv_calls,
            payload_bytes=app.received,
            elapsed_ns=result.elapsed_ns,
        )

    def check(self, state: dict, inputs: dict, phase: Phase) -> int:
        """Lost or extra bytes, counted as failed operations."""
        stats = state["image"].lib("iperf").iperf_stats()
        ok = stats["done"] and stats["received"] == inputs["total_bytes"]
        return 0 if ok else max(1, phase.ops)

    def images(self, state: dict) -> list:
        return [state["image"]]


class ClusterRepl:
    """3 durable shards with followers (6 machines) on ``mpk-shared``.

    A 50/50 SET/GET mix of 48-B values over 2,048 keys, enqueued 64
    operations per ``drive()``.  Every batch gives each shard the same
    share of operations (22/21/21, rotating) and each shard's share is
    half SETs and half GETs, in seeded order.  Without that balance the
    host cost per operation varies by half from seed to seed, because
    ``pump`` rescans the requests queued for the busiest shard.  GETs
    read keys written by an earlier batch, so every GET has a known
    expected value.
    """

    name = "cluster-repl"
    keys = 2_048
    value_size = 48
    batch = 64
    batches = 20
    #: Batches per timed segment (about 0.1 s of host time).
    lap_batches = 2

    def inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        shard_map = ShardMap()
        for shard in CLUSTER_SHARDS:
            shard_map.add(shard)
        by_shard: dict[str, list[bytes]] = {shard: [] for shard in CLUSTER_SHARDS}
        for key in _unique_keys(rng, self.keys):
            by_shard[shard_map.owner(key)].append(key)
        written: dict[str, list[bytes]] = {shard: [] for shard in CLUSTER_SHARDS}
        batches = []
        for number in range(self.batches):
            ops = []
            for index, shard in enumerate(CLUSTER_SHARDS):
                share = self.batch // len(CLUSTER_SHARDS)
                if (index - number) % len(CLUSTER_SHARDS) < self.batch % len(CLUSTER_SHARDS):
                    share += 1
                gets = share // 2 if written[shard] else 0
                ops += [("get", rng.choice(written[shard]), None) for _ in range(gets)]
                ops += [
                    ("set", rng.choice(by_shard[shard]), rng.randbytes(self.value_size))
                    for _ in range(share - gets)
                ]
            rng.shuffle(ops)
            batches.append(ops)
            for op, key, _ in ops:
                if op == "set" and key not in written[shard_map.owner(key)]:
                    written[shard_map.owner(key)].append(key)
        final = {key: value for ops in batches for op, key, value in ops if op == "set"}
        return {"batches": batches, "final": final}

    def setup(self, inputs: dict):
        cluster = RedisCluster(
            shards=CLUSTER_SHARDS, backend=CLUSTER_BACKEND, replicate=True
        )
        return {"cluster": cluster, "client": ClusterClient(cluster)}

    @staticmethod
    def clock_ns(cluster) -> float:
        """The busiest machine's clock, as ``bench_cluster.py`` reads it."""
        return max(node.clock_ns for node in cluster.fabric.alive_nodes())

    def measure(self, state: dict, inputs: dict, lap) -> Phase:
        cluster, client = state["cluster"], state["client"]
        start = self.clock_ns(cluster)
        for number, ops in enumerate(inputs["batches"]):
            if number and number % self.lap_batches == 0:
                lap()
            for op, key, value in ops:
                if op == "set":
                    client.set(key, value)
                else:
                    client.get(key)
            client.drive()
        return Phase(
            ops=client.completed,
            payload_bytes=self.value_size * client.completed,
            elapsed_ns=self.clock_ns(cluster) - start,
        )

    def check(self, state: dict, inputs: dict, phase: Phase) -> int:
        """Errors, stale reads, unanswered requests, acked-state mismatches."""
        client = state["client"]
        stats = client.stats()
        failed = stats["errors"] + stats["stale_reads"]
        failed += stats["issued"] - stats["completed"]
        failed += sum(
            1
            for key in inputs["final"].keys() | client.acked.keys()
            if inputs["final"].get(key) != client.acked.get(key)
        )
        return failed

    def audit(self, state: dict) -> int:
        """Read every acked key back over the wire and from memory."""
        report = verify_acked(state["cluster"], state["client"])
        return 0 if report["ok"] else max(1, len(report["lost"]) + len(report["wrong"]))

    def images(self, state: dict) -> list:
        return state["cluster"].images()


WORKLOADS = {
    workload.name: workload
    for workload in (RedisMpk(), IperfStream(), ClusterRepl(), RedisObs())
}
