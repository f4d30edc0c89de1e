"""Cluster control plane: routing, replication, failover, rebalancing."""

import pytest

from repro.apps import resp
from repro.cluster.client import ClusterClient, verify_acked
from repro.cluster.cluster import RedisCluster, select_shard_profile
from repro.cluster.shardmap import slot_of


def _load(client, count, prefix=b"key"):
    for index in range(count):
        client.set(b"%s:%03d" % (prefix, index), b"value-%03d" % index)
    client.drive()


def test_keys_land_on_their_owning_shard():
    cluster = RedisCluster(shards=("s0", "s1", "s2"), replicate=False)
    client = ClusterClient(cluster)
    _load(client, 30)
    assert len(client.acked) == 30
    for key, value in client.acked.items():
        owner = cluster.map.owner(key)
        node = cluster.serving_node(owner)
        assert node.image.lib("redis").value_of(key) == value
        # And nowhere else.
        for other in cluster.shards:
            if other != owner:
                other_node = cluster.serving_node(other)
                assert other_node.image.lib("redis").value_of(key) is None


def test_wrong_shard_answers_moved_and_client_chases_it():
    cluster = RedisCluster(shards=("s0", "s1", "s2"), replicate=False)
    client = ClusterClient(cluster)
    _load(client, 12)
    key = next(iter(sorted(client.acked)))
    owner = cluster.map.owner(key)
    wrong = next(name for name in sorted(cluster.shards) if name != owner)
    client.get(key)
    client.pending[-1].forced_shard = wrong  # deliberately stale route
    client.drive()
    assert client.moved == 1
    assert client.stale_reads == 0  # the chase converged on the value


def test_moved_reply_wire_format():
    cluster = RedisCluster(shards=("s0", "s1"), replicate=False)
    key = b"probe"
    owner = cluster.map.owner(key)
    wrong = next(name for name in sorted(cluster.shards) if name != owner)
    node = cluster.serving_node(wrong)
    replies = []
    node.client_sink = lambda name, payload: replies.append(payload)
    node.deliver(resp.encode_command(b"GET", key))
    cluster.fabric.run(until=lambda: replies)
    expected = b"-MOVED %d %s\r\n" % (slot_of(key), owner.encode())
    assert replies == [expected]


def test_replication_applies_journal_records_on_the_follower():
    cluster = RedisCluster(shards=("s0", "s1"), replicate=True)
    client = ClusterClient(cluster)
    _load(client, 16)
    for name, shard in cluster.shards.items():
        primary_app = shard.primary.image.lib("redis")
        own_keys = [k for k in client.acked if cluster.map.owner(k) == name]
        stats = shard.channel.stats()
        assert stats["applied"] == len(own_keys)
        assert stats["retries"] == 0
        # The follower's kv journal holds every replicated record.
        follower_keys = shard.follower.image.call("kv", "kv_keys")
        assert set(own_keys) <= set(follower_keys)
        assert primary_app.sets == len(own_keys)
    lag = cluster.replication_lag()
    assert lag["samples"] == 16
    assert lag["mean_ns"] > 0


def test_replication_lag_includes_link_round_trip():
    cluster = RedisCluster(shards=("s0",), replicate=True, latency_ns=50_000.0)
    client = ClusterClient(cluster)
    _load(client, 4)
    lag = cluster.replication_lag()
    # Doorbell out + ack back: at least two propagation delays.
    assert lag["mean_ns"] >= 2 * 50_000.0


def test_failover_preserves_every_acked_write():
    cluster = RedisCluster(shards=("s0", "s1", "s2"), replicate=True)
    client = ClusterClient(cluster)
    _load(client, 24)
    victim = "s1"
    cluster.kill_primary(victim)
    report = cluster.promote(victim, recover=True)
    assert report["restored"] >= 0
    audit = verify_acked(cluster, client)
    assert audit["ok"], audit
    assert cluster.shards[victim].serving.name == "s1-b"
    assert cluster.shards[victim].failover_ns is not None
    assert cluster.shards[victim].failover_ns > 0


def test_fenced_old_primary_redirects_everything():
    cluster = RedisCluster(shards=("s0", "s1"), replicate=True)
    client = ClusterClient(cluster)
    _load(client, 8)
    victim = "s0"
    dead = cluster.kill_primary(victim)
    cluster.promote(victim, recover=True)
    # The old primary comes back from the dead (split-brain attempt):
    # its router must MOVED every command instead of serving.
    dead.alive = True
    key = next(
        k for k in sorted(client.acked) if cluster.map.owner(k) == victim
    )
    replies = []
    dead.client_sink = lambda name, payload: replies.append(payload)
    dead.deliver(resp.encode_command(b"SET", key, b"split-brain"))
    cluster.fabric.run(until=lambda: replies)
    assert replies[0].startswith(b"-MOVED ")
    # The authoritative copy is untouched.
    serving = cluster.shards[victim].serving
    assert serving.image.lib("redis").value_of(key) == client.acked[key]


def test_add_shard_migrates_moved_keys_over_the_wire():
    cluster = RedisCluster(shards=("s0", "s1"), replicate=False)
    client = ClusterClient(cluster)
    _load(client, 24)
    before = {key: cluster.map.owner(key) for key in client.acked}
    report = cluster.add_shard("s2")
    assert report["epoch"] == cluster.map.epoch
    moved_keys = [
        key for key in client.acked if cluster.map.owner(key) != before[key]
    ]
    assert report["migrated_keys"] == len(moved_keys)
    if moved_keys:
        assert report["migrated_bytes"] > 0
        assert report["migration_ns"] > 0
    # Every moved key is readable on its new owner.
    new_node = cluster.serving_node("s2")
    for key in moved_keys:
        if cluster.map.owner(key) == "s2":
            assert (
                new_node.image.lib("redis").value_of(key)
                == client.acked[key]
            )
    audit = verify_acked(cluster, client)
    assert audit["ok"], audit


def test_select_shard_profile_honours_requirements():
    groups, backend = select_shard_profile(
        ["isolated:netstack"], "mpk-shared"
    )
    assert ["netstack"] in groups
    assert backend == "mpk-shared"
    assert len(groups) > 1


def test_select_shard_profile_downgrades_backend_for_flat_pick():
    groups, backend = select_shard_profile([], "mpk-shared")
    assert len(groups) == 1
    assert backend == "none"


def test_select_shard_profile_rejects_impossible_requirements():
    from repro.core.errors import FlexOSError

    with pytest.raises((ValueError, FlexOSError)):
        RedisCluster(
            shards=("s0",),
            profile_requirements=["isolated:no-such-lib"],
        )


def test_cluster_with_explored_profile_serves_traffic():
    cluster = RedisCluster(
        shards=("s0", "s1"),
        backend="mpk-shared",
        replicate=False,
        profile_requirements=["isolated:netstack", "write-protected:kv"],
    )
    assert ["netstack"] in cluster.compartments
    client = ClusterClient(cluster)
    _load(client, 6)
    assert len(client.acked) == 6


def test_replication_requires_durability():
    with pytest.raises(ValueError):
        RedisCluster(shards=("s0",), durable=False, replicate=True)


def test_client_still_works_after_verify_acked():
    cluster = RedisCluster(shards=("s0", "s1", "s2"), replicate=False)
    client = ClusterClient(cluster)
    _load(client, 8)
    assert verify_acked(cluster, client)["ok"]
    client.set(b"after-audit", b"still-routed")
    client.drive(max_rounds=2000)
    assert client.completed == client.issued == 9
    assert client.acked[b"after-audit"] == b"still-routed"


# --- event-driven pump: when the client rescans ---------------------------


def _count_owner_calls(monkeypatch) -> list:
    from repro.cluster.shardmap import ShardMap

    calls = []
    owner = ShardMap.owner

    def counting(self, key):
        calls.append(key)
        return owner(self, key)

    monkeypatch.setattr(ShardMap, "owner", counting)
    return calls


def _saturated_client():
    """s0's window full with s0 requests left over; s1's window open.

    Every pending request is blocked, yet a scan must route each one
    (s1 is still open, so the scan cannot stop early).
    """
    cluster = RedisCluster(shards=("s0", "s1"), replicate=False)
    client = ClusterClient(cluster)
    keys = [b"key:%03d" % index for index in range(200)]
    for key in [key for key in keys if cluster.map.owner(key) == "s0"][:12]:
        client.set(key, b"v")
    assert client.pump() == client.window
    return cluster, client


def test_pump_without_an_event_skips_routing(monkeypatch):
    _, client = _saturated_client()
    calls = _count_owner_calls(monkeypatch)
    assert client.pump() == 0
    assert calls == []
    assert len(client.pending) == 12 - client.window


@pytest.mark.parametrize("event", ["attach", "abort", "rebind"])
def test_wake_events_make_pump_rescan(monkeypatch, event):
    cluster, client = _saturated_client()
    calls = _count_owner_calls(monkeypatch)
    if event == "attach":
        cluster.attach_client(client)
    elif event == "abort":
        client.abort_node("s0-a")  # its window's requests are retried
    else:
        client.rebind()
    dispatched = client.pump()
    assert calls  # the queue was routed again
    assert dispatched == (client.window if event == "abort" else 0)


def test_parked_requests_dispatch_after_promote_alone(monkeypatch):
    cluster = RedisCluster(shards=("s0", "s1"), replicate=True)
    client = ClusterClient(cluster)
    _load(client, 6)
    victim = "s1"
    cluster.kill_primary(victim)
    key = next(
        b"parked:%03d" % index
        for index in range(1000)
        if cluster.map.owner(b"parked:%03d" % index) == victim
    )
    client.set(key, b"after-failover")
    assert client.pump() == 0  # no live serving node: parked
    assert client.pump() == 0
    # Leave the topology stamp as the only wake: no sink rebinding.
    monkeypatch.setattr(client, "rebind", lambda: None)
    cluster.promote(victim, recover=True)
    assert client.pump() == 1
    assert list(client.outstanding["s1-b"])[0].key == key
    client.drive()
    assert client.acked[key] == b"after-failover"


def test_request_enqueued_after_add_shard_goes_to_new_owner():
    cluster = RedisCluster(shards=("s0", "s1"), replicate=False)
    client = ClusterClient(cluster)
    _load(client, 6)
    client.pump()
    keys = [b"join:%03d" % index for index in range(200)]
    old_owner = {key: cluster.map.owner(key) for key in keys}
    cluster.add_shard("s2")
    key = next(key for key in keys if cluster.map.owner(key) == "s2")
    assert old_owner[key] != "s2"
    client.set(key, b"on-the-new-shard")
    assert client.pump() == 1
    assert list(client.outstanding["s2-a"])[0].key == key
    client.drive()
    assert client.moved == 0
    node = cluster.serving_node("s2")
    assert node.image.lib("redis").value_of(key) == b"on-the-new-shard"
