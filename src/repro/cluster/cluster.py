"""The cluster control plane: N durable redis shards behind one front end.

:class:`RedisCluster` builds one :class:`~repro.core.image.Image` per
shard (each a whole machine on the :class:`~repro.cluster.fabric.Fabric`),
wires consistent-hash routing into every shard's rediserver, and —
when ``replicate=True`` — pairs each primary with a follower machine
receiving the journal-before-ack write stream over a
:class:`~repro.cluster.replication.ReplicaChannel`.

Routing and fencing
    Each shard's rediserver gets a host-side router closure reading
    the *live* cluster state: a keyed command for a slot the shard
    does not own (per the current :class:`~repro.cluster.shardmap.ShardMap`)
    — or any command on a **fenced** node (an ex-primary demoted by
    failover) — answers ``-MOVED <slot> <owner>`` instead of
    executing.  Fencing is the split-brain guard: a revived old
    primary can never serve or ack a write for a shard that has moved
    on, because its router checks the cluster epoch on every command.

Failover
    :meth:`kill_primary` powers a node off mid-load;
    :meth:`promote` recovers the follower's journal into its store,
    starts serving on the follower machine, fences the dead primary,
    and bumps the cluster epoch.  Failover time (kill → follower
    serving) is measured on the follower's clock and recorded.

Rebalancing
    :meth:`add_shard` commits the new ring (only ~1/N of slots move),
    then migrates the moved keys by driving real RESP ``SET`` traffic
    over the fabric to the new owner.  Stale source copies become
    unreachable behind ``MOVED`` redirects and are dropped lazily.

Per-shard isolation profiles
    :func:`select_shard_profile` asks the existing explorer for the
    cheapest compartmentalisation meeting a requirement list, so a
    cluster can mix profiles — e.g. hardened shards for hot keys,
    flat shards for cold ones (``profile_requirements=...``).
"""

from __future__ import annotations

import dataclasses

from repro.apps import resp
from repro.cluster.fabric import Fabric, Link, Node
from repro.cluster.replication import ReplicaChannel
from repro.cluster.shardmap import ShardMap, slot_of
from repro.core.builder import build_image, library_defs
from repro.core.config import BuildConfig

#: The durable shard image (same layout as the recovery campaigns).
CLUSTER_LIBRARIES = ["libc", "netstack", "blk", "kv", "redis"]
CLUSTER_COMPARTMENTS = [
    ["netstack"],
    ["blk", "kv"],
    ["sched", "alloc", "libc", "redis"],
]
#: Volatile variant (throughput benchmarking without a journal).
VOLATILE_LIBRARIES = ["libc", "netstack", "redis"]
VOLATILE_COMPARTMENTS = [["netstack"], ["sched", "alloc", "libc", "redis"]]

PORT = 6379


def select_shard_profile(
    requirements: list[str],
    backend: str,
    libraries: list[str] | None = None,
) -> tuple[list[list[str]], str]:
    """Explorer-chosen compartment layout for one shard.

    Returns ``(compartments, effective_backend)`` — the cheapest
    deployment meeting ``requirements`` (backend downgraded to "none"
    when the pick is a single compartment, as elsewhere in the repo).
    """
    from repro.core.explorer import Explorer

    libs = list(libraries or CLUSTER_LIBRARIES)
    defs = library_defs(BuildConfig(libraries=libs))
    # ``isolated:<lib>`` requirements double as enumeration hints, or
    # the explorer would never visit a partition that satisfies them.
    isolate = tuple(
        req.split(":", 1)[1]
        for req in requirements
        if req.startswith("isolated:")
    )
    explorer = Explorer(defs, isolate=isolate)
    pick = explorer.best_performance_meeting(list(requirements))
    if pick is None:
        raise ValueError(
            f"no shard deployment satisfies requirements {requirements}"
        )
    groups = pick.compartments
    return groups, backend if len(groups) > 1 else "none"


@dataclasses.dataclass
class Shard:
    """One shard's machines and replication state."""

    name: str
    primary: Node
    follower: Node | None = None
    channel: ReplicaChannel | None = None
    #: The node currently serving client traffic for this shard.
    serving: Node = None  # type: ignore[assignment]
    #: Fenced node names (demoted ex-primaries; MOVED everything).
    fenced: set = dataclasses.field(default_factory=set)
    killed_at_ns: float | None = None
    failover_ns: float | None = None


class RedisCluster:
    """N durable redis shards on one fabric, with optional replication."""

    def __init__(
        self,
        shards: tuple[str, ...] | list[str] = ("s0", "s1", "s2"),
        backend: str = "none",
        durable: bool = True,
        replicate: bool = False,
        latency_ns: float = 5_000.0,
        flush_policy: str | None = "every-write",
        profile_requirements: list[str] | None = None,
        queue_edges: dict[str, str] | None = None,
    ) -> None:
        if replicate and not durable:
            raise ValueError("replication requires durable shards")
        self.backend = backend
        self.durable = durable
        self.replicate = replicate
        self.flush_policy = flush_policy
        self.queue_edges = dict(queue_edges or {})
        if profile_requirements is not None:
            self.compartments, self.backend = select_shard_profile(
                profile_requirements, backend
            )
        else:
            self.compartments = (
                CLUSTER_COMPARTMENTS if durable else VOLATILE_COMPARTMENTS
            )
        self.fabric = Fabric(latency_ns=latency_ns)
        self.map = ShardMap()
        #: Bumped on every topology change (failover, rebalance) —
        #: what a fenced node's router consults.
        self.epoch = 0
        self.shards: dict[str, Shard] = {}
        #: The attached smart client, if any (rebound on failover).
        self._client = None
        for name in shards:
            self.map.add(name)
            self._build_shard(name)
        self.epoch = self.map.epoch

    # --- construction -----------------------------------------------------

    def _build_image(self, label: str):
        from repro.apps.workload import start_redis
        from repro.libos.blk.blkdev import DiskMedium

        libraries = CLUSTER_LIBRARIES if self.durable else VOLATILE_LIBRARIES
        config = BuildConfig(
            libraries=list(libraries),
            compartments=[list(group) for group in self.compartments],
            backend=self.backend,
            name=label,
            queue_edges=dict(self.queue_edges),
        )
        image = build_image(config)
        medium = None
        if self.durable:
            medium = DiskMedium()
            image.lib("blk").attach_medium(medium)
            if self.flush_policy:
                image.call("kv", "set_flush_policy", self.flush_policy)
        return image, medium, start_redis

    def _build_shard(self, name: str) -> Shard:
        image, medium, start_redis = self._build_image(f"cluster:{name}:a")
        primary = self.fabric.add_node(f"{name}-a", image, PORT)
        primary.medium = medium
        start_redis(image, PORT)
        shard = Shard(name=name, primary=primary, serving=primary)
        self.shards[name] = shard
        image.lib("redis").set_cluster_router(self._router_for(name, primary))
        if self.replicate:
            follower_image, follower_medium, _ = self._build_image(
                f"cluster:{name}:b"
            )
            # The follower is not client-facing until promoted: it is
            # kept off the fabric's scheduling set, and its clock
            # advances with the replication stream.
            follower = Node(self.fabric, f"{name}-b", follower_image, PORT)
            follower.medium = follower_medium
            shard.follower = follower
            shard.channel = ReplicaChannel(
                primary,
                follower,
                Link(latency_ns=self.fabric.latency_ns, cost=image.machine.cost),
            )
            image.lib("redis").replicator = shard.channel
        return shard

    def _router_for(self, shard_name: str, node: Node):
        def router(key: bytes):
            shard = self.shards[shard_name]
            if node.name in shard.fenced:
                # Demoted ex-primary: everything redirects (the fence).
                return (slot_of(key), self.map.owner(key))
            owner = self.map.owner(key)
            if owner != shard_name:
                return (slot_of(key), owner)
            return None

        return router

    # --- lookup -----------------------------------------------------------

    def serving_node(self, shard_name: str) -> Node:
        return self.shards[shard_name].serving

    def attach_client(self, client) -> None:
        """Register the smart client's reply sink on every serving node."""
        self._client = client
        for shard in self.shards.values():
            shard.serving.client_sink = client.on_reply
        client.wake()

    # --- failover ---------------------------------------------------------

    def kill_primary(self, shard_name: str) -> Node:
        """Power off the shard's serving node mid-load."""
        shard = self.shards[shard_name]
        node = shard.serving
        if node.name in self.fabric.nodes:
            self.fabric.kill(node.name)
        node.alive = False
        shard.fenced.add(node.name)
        shard.killed_at_ns = node.clock_ns
        self.epoch += 1
        if self._client is not None:
            self._client.abort_node(node.name)
        return node

    def promote(self, shard_name: str, recover: bool = True) -> dict:
        """Fail over to the follower; returns the recovery report.

        ``recover=False`` starts serving *without* replaying the
        journal — the stale-read window the campaign's ``stale-read``
        site measures; call :meth:`recover_follower` afterwards.
        """
        from repro.apps.workload import start_redis

        shard = self.shards[shard_name]
        if shard.follower is None:
            raise ValueError(f"shard {shard_name} has no follower")
        follower = shard.follower
        start_ns = follower.clock_ns
        report = {"durable": False, "restored": 0}
        if recover:
            report = follower.image.call("redis", "recover")
        start_redis(follower.image, PORT)
        follower.image.lib("redis").set_cluster_router(
            self._router_for(shard_name, follower)
        )
        follower.alive = True
        if follower.name not in self.fabric.nodes:
            self.fabric.nodes[follower.name] = follower
        shard.serving = follower
        self.epoch += 1
        shard.failover_ns = follower.clock_ns - start_ns
        if shard.killed_at_ns is not None:
            # Cluster-level failover time: from the kill on the old
            # primary's clock to serving-ready on the follower's.
            shard.failover_ns = max(
                shard.failover_ns, follower.clock_ns - shard.killed_at_ns
            )
        if self._client is not None:
            follower.client_sink = self._client.on_reply
            self._client.rebind()
        return report

    def recover_follower(self, shard_name: str) -> dict:
        """Replay the journal on an already-promoted follower."""
        shard = self.shards[shard_name]
        assert shard.follower is not None
        return shard.follower.image.call("redis", "recover")

    # --- rebalancing ------------------------------------------------------

    def add_shard(self, name: str) -> dict:
        """Join a new shard and migrate the slots it now owns.

        Returns the rebalance report: moved slots, migrated keys and
        bytes, and the simulated time the migration traffic took.
        """
        moved = self.map.add(name)
        shard = self._build_shard(name)
        self.epoch = self.map.epoch
        moved_slots = set(moved)
        # Collect the keys to move (control-plane scan: DMA reads, the
        # data plane below is real RESP traffic over the fabric).
        to_move: list[tuple[bytes, bytes]] = []
        for other_name, other in self.shards.items():
            if other_name == name:
                continue
            app = other.serving.image.lib("redis")
            for key in list(app._store):
                if slot_of(key) in moved_slots and self.map.owner(key) == name:
                    to_move.append((key, app.value_of(key)))
        started_ns = shard.serving.clock_ns
        migrated_bytes = 0
        if to_move:
            target_app = shard.serving.image.lib("redis")
            before = target_app.sets
            saved_sink = shard.serving.client_sink
            shard.serving.client_sink = None
            for key, value in to_move:
                payload = resp.encode_command(b"SET", key, value)
                migrated_bytes += len(payload)
                shard.serving.deliver(payload)
            self.fabric.run(
                until=lambda: target_app.sets >= before + len(to_move)
            )
            shard.serving.client_sink = saved_sink
        if self._client is not None:
            self._client.rebind()
        return {
            "shard": name,
            "moved_slots": sorted(moved_slots),
            "migrated_keys": len(to_move),
            "migrated_bytes": migrated_bytes,
            "migration_ns": shard.serving.clock_ns - started_ns,
            "epoch": self.epoch,
        }

    # --- reporting --------------------------------------------------------

    def shard_report(self) -> list[dict]:
        rows = []
        for name, shard in sorted(self.shards.items()):
            app = shard.serving.image.lib("redis")
            stats = app.redis_stats()
            row = {
                "shard": name,
                "serving": shard.serving.name,
                "alive": shard.serving.alive,
                "slots": len(self.map.slots_of(name)),
                "keys": shard.serving.image.call("redis", "dbsize"),
                "responses": stats["responses"],
                "redirects": stats["redirects"],
                "failover_ns": shard.failover_ns,
            }
            if shard.channel is not None:
                row["replication"] = shard.channel.stats()
            rows.append(row)
        return rows

    def replication_lag(self) -> dict:
        """Aggregated ``repl.lag_ns`` histogram stats across primaries."""
        count = 0
        total = 0.0
        peak = 0.0
        for shard in self.shards.values():
            metrics = shard.primary.image.machine.obs.metrics
            hist = metrics.histogram("repl.lag_ns")
            if hist.count:
                count += hist.count
                total += hist.total
                peak = max(peak, max(hist.values))
        return {
            "samples": count,
            "mean_ns": (total / count) if count else 0.0,
            "max_ns": peak,
        }

    def images(self) -> list:
        """Every machine in the cluster (for telemetry aggregation)."""
        rows = []
        for shard in self.shards.values():
            rows.append(shard.primary.image)
            if shard.follower is not None:
                rows.append(shard.follower.image)
        return rows
