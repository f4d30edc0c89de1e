"""Cluster failure campaigns: seeded crashes with cluster-level verdicts.

The single-machine recovery campaign (:mod:`repro.resilience.campaign`)
asks "did the journal survive the power cut?".  The cluster campaign
asks the distributed version: **does an acked write survive losing the
machine that acked it?**  Each cell drives seeded RESP load through
the smart client (which records the acked ground truth), injects one
cluster-level failure, lets the cluster fail over / rebalance, and
audits every acked key through real wire reads plus host-side store
inspection.

Sites
    ``primary-kill``
        Harness powers off one shard's primary mid-load (seeded kill
        point); the follower is promoted with journal replay.
    ``repl-crash-primary``
        The fault injector cuts the primary's power *between* the
        replication doorbell and its reply — the follower holds a
        record the client never saw acked.  Failover must neither
        lose an acked write nor miscount the unacked one.
    ``repl-drop``
        The injector drops replication doorbells in flight; the
        channel's vm-rpc-style retry discipline must absorb them with
        no acked loss.
    ``stale-read``
        The follower is promoted *without* journal replay, the client
        observes the stale-read window, then replay closes it.
    ``shard-join``
        A shard joins mid-life; moved slots migrate over the wire and
        a deliberately stale client must converge via MOVED chasing.

Verdicts (worst kept per site × backend across schedules)
    ``not-triggered`` < ``rebalance-converged`` =
    ``no-acked-write-lost`` < ``stale-read-window`` <
    ``acked-write-lost``.

Every cell is a pure function of (backend, site, seed): same inputs,
bit-identical verdicts.  The campaign runs under
:mod:`repro.resilience.engine` as scenario ``cluster``; ``--check
SITE`` passes on the site's ``EXPECTED`` verdict::

    python -m repro.resilience.engine --scenario cluster \\
        --backends none,mpk-shared --sites primary-kill --schedules 1 \\
        --seed 9 --sets 24 --check primary-kill --json -
"""

from __future__ import annotations

import dataclasses
import random

from repro.cluster.client import ClusterClient, verify_acked
from repro.cluster.cluster import RedisCluster
from repro.machine.faults import PowerFailure
from repro.resilience.engine import Scenario
from repro.resilience.injector import arm
from repro.resilience.plan import InjectionPlan

DEFAULT_BACKENDS = ("none", "mpk-shared")
DEFAULT_SHARDS = ("s0", "s1", "s2")

#: Worst-case ordering for the site × backend matrix.
SEVERITY = {
    "not-triggered": 0,
    "rebalance-converged": 1,
    "no-acked-write-lost": 1,
    "stale-read-window": 2,
    "acked-write-lost": 3,
}

#: Every site, with the verdict it must earn for ``--check`` to pass.
EXPECTED = {
    "primary-kill": "no-acked-write-lost",
    "repl-crash-primary": "no-acked-write-lost",
    "repl-drop": "no-acked-write-lost",
    "stale-read": "stale-read-window",
    "shard-join": "rebalance-converged",
}
DEFAULT_SITES = tuple(EXPECTED)


def _seeded_load(client: ClusterClient, seed: int, sets: int) -> None:
    """Issue ``sets`` seeded SETs (keys spread across all shards)."""
    rng = random.Random(seed)
    for index in range(sets):
        key = b"key:%03d" % index
        value = b"v%03d-%08x" % (index, rng.getrandbits(32))
        client.set(key, value)


def _victim_shard(cluster: RedisCluster, seed: int) -> str:
    shards = sorted(cluster.shards)
    return shards[seed % len(shards)]


def _audit_verdict(cluster, client, triggered: bool) -> tuple[str, dict]:
    if not triggered:
        return "not-triggered", {"checked": 0, "ok": True}
    audit = verify_acked(cluster, client)
    return (
        "no-acked-write-lost" if audit["ok"] else "acked-write-lost"
    ), audit


def run_cluster_cell(
    backend: str,
    site: str,
    seed: int,
    sets: int = 24,
    shards=DEFAULT_SHARDS,
) -> dict:
    """One (backend × site × seed) cluster failure cell."""
    cluster = RedisCluster(shards=shards, backend=backend, replicate=True)
    client = ClusterClient(cluster)
    _seeded_load(client, seed, sets)
    victim = _victim_shard(cluster, seed)
    primary = cluster.shards[victim].primary
    injector = None
    extra: dict = {}

    if site == "primary-kill":
        threshold = max(1, sets // 3 + seed % 5)

        def until_kill_point() -> bool:
            client.pump()
            return len(client.acked) >= threshold or client.done

        cluster.fabric.run(until=until_kill_point)
        cluster.kill_primary(victim)
        extra["recover_report"] = cluster.promote(victim, recover=True)
        client.drive()
        verdict, audit = _audit_verdict(cluster, client, triggered=True)

    elif site == "repl-crash-primary":
        nth = 1 + seed % max(1, sets // len(shards) // 2)
        plan = InjectionPlan(seed).crash_repl_primary(nth=nth)
        injector = arm(primary.image, plan)
        try:
            client.drive()
            triggered = False
        except PowerFailure:
            triggered = True
            died = cluster.fabric.current
            assert died is not None and died.name == primary.name
            cluster.kill_primary(victim)
            extra["recover_report"] = cluster.promote(victim, recover=True)
            client.drive()
        verdict, audit = _audit_verdict(cluster, client, triggered)

    elif site == "repl-drop":
        # count stays within the channel's retry budget: the doorbell
        # is lost, backed off, and redelivered — never surfaced.
        plan = InjectionPlan(seed).drop_repl_op(nth=1 + seed % 3, count=2)
        injector = arm(primary.image, plan)
        client.drive()
        triggered = injector.fired > 0
        verdict, audit = _audit_verdict(cluster, client, triggered)
        extra["repl_retries"] = cluster.shards[victim].channel.retries

    elif site == "stale-read":
        client.drive()
        owned = [
            key for key in sorted(client.acked)
            if cluster.map.owner(key) == victim
        ]
        cluster.kill_primary(victim)
        # Promote WITHOUT replay: the stale-read window is open.
        cluster.promote(victim, recover=False)
        for key in owned:
            client.get(key)
        client.drive()
        window = client.stale_reads
        extra["stale_window_reads"] = window
        extra["recover_report"] = cluster.recover_follower(victim)
        # Reload the serving store from the replayed journal and
        # audit: the window must be closed.
        verdict, audit = _audit_verdict(
            cluster, client, triggered=bool(owned)
        )
        if verdict == "no-acked-write-lost":
            verdict = "stale-read-window" if window else "not-triggered"

    elif site == "shard-join":
        client.drive()
        before_map = {
            key: cluster.map.owner(key) for key in client.acked
        }
        report = cluster.add_shard("s%d" % len(shards))
        extra["rebalance"] = report
        # A deliberately stale client: aim moved keys at their OLD
        # owner and require MOVED chasing to converge.
        moved_keys = [
            key for key, old in sorted(before_map.items())
            if cluster.map.owner(key) != old
        ]
        for key in moved_keys:
            client.get(key)
            client.pending[-1].forced_shard = before_map[key]
        client.drive()
        extra["moved_followed"] = client.moved
        verdict, audit = _audit_verdict(cluster, client, triggered=True)
        if verdict == "no-acked-write-lost":
            converged = not moved_keys or client.moved > 0
            verdict = "rebalance-converged" if converged else "acked-write-lost"

    else:
        raise ValueError(f"unknown cluster site {site!r}")

    cell = {
        "backend": backend,
        "site": site,
        "seed": seed,
        "verdict": verdict,
        "acked": len(client.acked),
        "client": client.stats(),
        "audit": audit,
        "shards": cluster.shard_report(),
        "replication_lag": cluster.replication_lag(),
        "victim": victim,
        "injected": injector.fired if injector is not None else 0,
    }
    if injector is not None:
        cell["events"] = [
            dataclasses.asdict(event) for event in injector.events
        ]
        injector.detach()
    cell.update(extra)
    for shard in cluster.shards.values():
        shard.primary.image.shutdown()
        if shard.follower is not None:
            shard.follower.image.shutdown()
    return cell


def _scenario_cell(backend, site, seed, sets, shards) -> dict:
    names = tuple("s%d" % index for index in range(shards))
    return run_cluster_cell(backend, site, seed, sets=sets, shards=names)


SCENARIO = Scenario(
    name="cluster",
    sites=DEFAULT_SITES,
    known_sites=DEFAULT_SITES,
    backends=DEFAULT_BACKENDS,
    severity=SEVERITY,
    passing=lambda site: (EXPECTED[site],),
    derive=lambda site, seed, k: [seed + 7919 * index for index in range(k)],
    cell=_scenario_cell,
    schedules=1,
    options={"sets": 24, "shards": len(DEFAULT_SHARDS)},
)
