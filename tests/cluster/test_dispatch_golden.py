"""Golden dispatch schedule: the smart client's sends, pinned exactly.

One seeded cluster run covers every way a blocked request can become
dispatchable: a stale ``forced_shard`` answered with ``-MOVED`` and
chased, a primary killed mid-load (its outstanding requests retried),
requests parked while the shard has no live serving node and released
by ``promote``, and a shard join followed by more traffic, some of it
aimed at the old owners.

Every ``Node.deliver`` call is recorded as ``(node, arrival_ns,
payload)``; the arrival time is a function of the sending node's clock
at the moment of the send, so the digest pins *when* each request was
dispatched as well as where and in what order.  The fixture
``dispatch_golden.json`` was recorded with the client that rescanned
every pending request on every scheduler step.  Regenerate it only for
a change that is meant to move dispatch times::

    PYTHONPATH=src python tests/cluster/test_dispatch_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import sys

from repro.cluster.client import ClusterClient
from repro.cluster.cluster import RedisCluster
from repro.cluster.fabric import Node

FIXTURE = pathlib.Path(__file__).with_name("dispatch_golden.json")
SEED = 20211
VICTIM = "s1"


def _key(index: int) -> bytes:
    return b"golden:%04d" % index


def _enqueue(client, rng, start: int, count: int) -> None:
    """``count`` new SETs mixed with GETs of keys written earlier."""
    for index in range(start, start + count):
        client.set(_key(index), b"v%04d-" % index + rng.randbytes(12))
        if client.acked and rng.random() < 0.5:
            client.get(rng.choice(sorted(client.acked)))


def _run_pumping(cluster, client, steps: int) -> None:
    """Advance the fabric for ``steps`` scheduler steps, pumping each."""
    seen = [0]

    def until() -> bool:
        client.pump()
        seen[0] += 1
        return seen[0] > steps

    cluster.fabric.run(until=until)


def _schedule(client, cluster) -> dict:
    rng = random.Random(SEED)
    # Warm-up load.
    _enqueue(client, rng, 0, 30)
    client.drive()
    # A deliberately stale route: the wrong shard answers MOVED.
    key = sorted(client.acked)[0]
    owner = cluster.map.owner(key)
    wrong = next(name for name in sorted(cluster.shards) if name != owner)
    client.get(key)
    client.pending[-1].forced_shard = wrong
    _enqueue(client, rng, 30, 10)
    client.drive()
    # Kill a primary mid-load: its outstanding requests are retried,
    # and new requests for it park until the follower is promoted.
    _enqueue(client, rng, 40, 40)
    threshold = len(client.acked) + 4

    def mid_load() -> bool:
        client.pump()
        busy = client.outstanding.get(cluster.serving_node(VICTIM).name)
        return len(client.acked) >= threshold and bool(busy)

    cluster.fabric.run(until=mid_load)
    cluster.kill_primary(VICTIM)
    _enqueue(client, rng, 80, 12)
    _run_pumping(cluster, client, 60)
    parked = sum(
        1 for request in client.pending
        if cluster.map.owner(request.key) == VICTIM
    )
    cluster.promote(VICTIM, recover=True)
    client.drive()
    # A shard joins; stale routes to the old owners are chased.
    before = {key: cluster.map.owner(key) for key in client.acked}
    cluster.add_shard("s3")
    moved_keys = [
        key for key, old in sorted(before.items())
        if cluster.map.owner(key) != old
    ]
    for key in moved_keys[:8]:
        client.get(key)
        client.pending[-1].forced_shard = before[key]
    _enqueue(client, rng, 92, 30)
    client.drive()
    return {"parked": parked, "moved_keys": len(moved_keys)}


def record() -> dict:
    """Run the schedule once; returns the digest and client stats."""
    deliveries: list[tuple[str, float, bytes]] = []
    original = Node.deliver

    def recording(node, payload, sent_at_ns=None):
        arrival = original(node, payload, sent_at_ns)
        deliveries.append((node.name, arrival, payload))
        return arrival

    Node.deliver = recording
    try:
        cluster = RedisCluster(
            shards=("s0", "s1", "s2"), backend="none", replicate=True
        )
        client = ClusterClient(cluster)
        shape = _schedule(client, cluster)
    finally:
        Node.deliver = original
    digest = hashlib.sha256()
    per_node: dict[str, int] = {}
    for name, arrival, payload in deliveries:
        digest.update(b"%s %s %s\n" % (
            name.encode(), float(arrival).hex().encode(), payload.hex().encode()
        ))
        per_node[name] = per_node.get(name, 0) + 1
    return {
        "deliveries": len(deliveries),
        "per_node": dict(sorted(per_node.items())),
        "sha256": digest.hexdigest(),
        "stats": client.stats(),
        "shape": shape,
    }


def test_schedule_covers_every_wake_path():
    golden = json.loads(FIXTURE.read_text())
    assert golden["stats"]["moved"] > 0
    assert golden["stats"]["retried"] > 0
    assert golden["shape"]["parked"] > 0
    assert golden["shape"]["moved_keys"] > 0
    assert golden["stats"]["completed"] == golden["stats"]["issued"]


def test_dispatch_schedule_matches_golden():
    assert record() == json.loads(FIXTURE.read_text())


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        FIXTURE.write_text(json.dumps(record(), indent=2) + "\n")
    else:
        print(json.dumps(record(), indent=2))
