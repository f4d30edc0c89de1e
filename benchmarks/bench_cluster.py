"""Cluster benchmark: shard scaling, failover time, rebalance cost.

Three phases over the sharded redis cluster
(:mod:`repro.cluster`), all on simulated clocks:

- **scaling**: the same seeded SET/GET mix against 1, 2 and 3 durable
  shards; cluster throughput is total completed operations divided by
  the busiest machine's clock advance (machines run concurrently, so
  the slowest shard is the wall).  Acceptance: >= 1.7x aggregate
  SET/GET throughput going from 1 shard to 3.
- **failover**: a replicated cluster loses one primary mid-load; the
  follower is promoted with journal replay.  Reported: failover time
  (power-off to serving-ready on the follower's clock), replication
  lag, and the audit proving no acked write was lost.
- **rebalance**: a fourth shard joins a loaded three-shard cluster;
  reported: slots moved, keys/bytes migrated over the wire, and the
  migration's simulated duration.

Full runs write ``benchmarks/BENCH_cluster.json``.  Smoke runs use
reduced sizes with the same checks and do not touch the committed
artifact: they write ``benchmarks/smoke/BENCH_cluster.json``
(git-ignored) unless ``--json`` names another path.  Runs standalone:

    PYTHONPATH=src python benchmarks/bench_cluster.py --smoke
"""

from __future__ import annotations

import argparse
import json
import pathlib

from repro.cluster.client import ClusterClient, verify_acked
from repro.cluster.cluster import RedisCluster

BENCH_JSON = pathlib.Path(__file__).parent / "BENCH_cluster.json"
#: Where smoke runs write their artifact (git-ignored).
SMOKE_DIR = pathlib.Path(__file__).parent / "smoke"

SHARD_COUNTS = (1, 2, 3)
#: Acceptance floor for aggregate throughput scaling 1 -> 3 shards.
MIN_SCALING = 1.7


def _clock(cluster: RedisCluster) -> float:
    return max(node.clock_ns for node in cluster.fabric.alive_nodes())


def scaling_cell(shards: int, sets: int, gets: int, backend: str) -> dict:
    """Aggregate SET/GET throughput at a given shard count."""
    names = tuple("s%d" % index for index in range(shards))
    cluster = RedisCluster(shards=names, backend=backend, replicate=False)
    client = ClusterClient(cluster)
    start = _clock(cluster)
    for index in range(sets):
        client.set(b"key:%04d" % index, b"v%04d" % index * 8)
    client.drive()
    for index in range(gets):
        client.get(b"key:%04d" % (index % sets))
    client.drive()
    elapsed = _clock(cluster) - start
    ops = client.completed
    assert client.stats()["errors"] == 0
    return {
        "shards": shards,
        "backend": backend,
        "ops": ops,
        "acked_sets": len(client.acked),
        "elapsed_ns": elapsed,
        "throughput_ops_per_ms": ops / (elapsed / 1e6),
    }


def failover_cell(sets: int, backend: str, seed: int = 11) -> dict:
    """Kill one primary mid-load; measure promotion on the follower."""
    cluster = RedisCluster(
        shards=("s0", "s1", "s2"), backend=backend, replicate=True
    )
    client = ClusterClient(cluster)
    for index in range(sets):
        client.set(b"key:%04d" % index, b"v%04d" % index * 8)
    threshold = max(1, sets // 2)

    def mid_load() -> bool:
        client.pump()
        return len(client.acked) >= threshold or client.done

    cluster.fabric.run(until=mid_load)
    victim = sorted(cluster.shards)[seed % len(cluster.shards)]
    cluster.kill_primary(victim)
    report = cluster.promote(victim, recover=True)
    client.drive()
    audit = verify_acked(cluster, client)
    shard = cluster.shards[victim]
    return {
        "backend": backend,
        "victim": victim,
        "acked": len(client.acked),
        "failover_ns": shard.failover_ns,
        "restored": report.get("restored", 0),
        "retried_requests": client.retried,
        "replication_lag": cluster.replication_lag(),
        "no_acked_write_lost": audit["ok"],
    }


def rebalance_cell(sets: int, backend: str) -> dict:
    """Join a fourth shard into a loaded cluster; cost of convergence."""
    cluster = RedisCluster(
        shards=("s0", "s1", "s2"), backend=backend, replicate=False
    )
    client = ClusterClient(cluster)
    for index in range(sets):
        client.set(b"key:%04d" % index, b"v%04d" % index * 8)
    client.drive()
    report = cluster.add_shard("s3")
    audit = verify_acked(cluster, client)
    return {
        "backend": backend,
        "keys_before": len(client.acked),
        "moved_slots": len(report["moved_slots"]),
        "migrated_keys": report["migrated_keys"],
        "migrated_bytes": report["migrated_bytes"],
        "migration_ns": report["migration_ns"],
        "converged": audit["ok"],
    }


def run(sets: int, gets: int, backend: str, smoke: bool = False) -> dict:
    scaling = [
        scaling_cell(count, sets, gets, backend) for count in SHARD_COUNTS
    ]
    single = scaling[0]["throughput_ops_per_ms"]
    tripled = scaling[-1]["throughput_ops_per_ms"]
    payload = {
        "smoke": smoke,
        "backend": backend,
        "sets": sets,
        "gets": gets,
        "scaling": scaling,
        "scaling_1_to_3": tripled / single,
        "failover": failover_cell(sets, backend),
        "rebalance": rebalance_cell(sets, backend),
    }
    _check(payload)
    return payload


def _check(payload: dict) -> None:
    """The claims the numbers must support (smoke-level sanity)."""
    assert payload["scaling_1_to_3"] >= MIN_SCALING, payload["scaling_1_to_3"]
    # More shards never lose operations.
    for cell in payload["scaling"]:
        assert cell["ops"] == payload["sets"] + payload["gets"]
    failover = payload["failover"]
    assert failover["no_acked_write_lost"]
    assert failover["failover_ns"] > 0
    rebalance = payload["rebalance"]
    assert rebalance["converged"]
    assert rebalance["migrated_keys"] >= 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced sizes for CI (same phases, same checks)",
    )
    parser.add_argument("--backend", default="none")
    parser.add_argument(
        "--json",
        help=f"output path (default {BENCH_JSON.name}, or "
        f"smoke/{BENCH_JSON.name} with --smoke)",
    )
    options = parser.parse_args(argv)
    size = 48 if options.smoke else 240
    payload = run(
        sets=size, gets=size, backend=options.backend, smoke=options.smoke
    )
    default = SMOKE_DIR / BENCH_JSON.name if options.smoke else BENCH_JSON
    out = pathlib.Path(options.json or default)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for cell in payload["scaling"]:
        print(
            f"shards={cell['shards']}  "
            f"{cell['throughput_ops_per_ms']:8.1f} ops/ms  "
            f"({cell['ops']} ops in {cell['elapsed_ns'] / 1e6:.2f} ms)"
        )
    print(f"scaling 1->3: {payload['scaling_1_to_3']:.2f}x")
    failover = payload["failover"]
    print(
        f"failover: {failover['failover_ns'] / 1e6:.2f} ms "
        f"(victim {failover['victim']}, acked {failover['acked']}, "
        f"no-acked-write-lost={failover['no_acked_write_lost']})"
    )
    rebalance = payload["rebalance"]
    print(
        f"rebalance: {rebalance['migrated_keys']} keys / "
        f"{rebalance['migrated_bytes']} bytes in "
        f"{rebalance['migration_ns'] / 1e6:.2f} ms "
        f"(moved {rebalance['moved_slots']} slots)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
