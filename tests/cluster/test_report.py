"""Report tooling over multi-machine runs (telemetry aggregation)."""

from repro.cluster.client import ClusterClient
from repro.cluster.cluster import RedisCluster
from repro.tools.report import machine_telemetry


def _loaded_cluster():
    cluster = RedisCluster(shards=("s0", "s1"), replicate=True)
    client = ClusterClient(cluster)
    for index in range(10):
        client.set(b"key:%03d" % index, b"v%d" % index)
    client.drive()
    return cluster


def test_machine_telemetry_sums_across_all_machines():
    cluster = _loaded_cluster()
    images = cluster.images()
    assert len(images) == 4  # 2 primaries + 2 followers
    aggregated = machine_telemetry(images)
    assert aggregated["machines"] == 4
    singles = [image.machine.fastpath_stats() for image in images]
    for key in ("tlb_hits", "tlb_misses", "tlb_invalidations"):
        assert aggregated[key] == sum(stats[key] for stats in singles)
    for key in ("plans", "plan_hits", "plan_refreshes"):
        assert aggregated["gateplan"][key] == sum(
            stats["gateplan"][key] for stats in singles
        )
    assert set(aggregated["gateplan"]) == {"plans", "plan_hits", "plan_refreshes"}
    # Multiple machines did real work: a singleton snapshot would
    # undercount (this is the regression the aggregation fixes).
    busiest = max(stats["tlb_hits"] for stats in singles)
    assert aggregated["tlb_hits"] > busiest
    lookups = aggregated["tlb_hits"] + aggregated["tlb_misses"]
    assert aggregated["tlb_hit_rate"] == aggregated["tlb_hits"] / lookups


def test_machine_telemetry_single_machine_keeps_report_shape():
    from repro import BuildConfig, build_image

    image = build_image(BuildConfig(libraries=["libc"]))
    stats = machine_telemetry([image])
    assert stats["machines"] == 1
    assert "enabled" not in stats
    for key in (
        "tlb_hits",
        "tlb_hit_rate",
        "gateplan",
        "wheel_cascades",
        "completion_delivery",
    ):
        assert key in stats
