"""The cluster-aware smart client: routing, MOVED chasing, ground truth.

:class:`ClusterClient` is the closed-loop load source for a
:class:`~repro.cluster.cluster.RedisCluster`.  It speaks RESP, routes
each request to the shard owning the key (per its view of the shard
map), keeps a bounded window of outstanding requests per node, and —
crucially for the campaigns — maintains **ground truth**: the exact
set of key→value pairs the cluster has *acked*.  Verdicts like
``no-acked-write-lost`` are judged against this set.

Redirect handling mirrors a real redis cluster client: a ``-MOVED
<slot> <owner>`` reply re-enqueues the request toward the named owner
and counts the redirect.  Failover handling mirrors an at-least-once
retry policy: when a node dies, its outstanding requests are aborted
back onto the pending queue (``SET`` is idempotent per key, so replays
are safe; an acked value is never rolled back).

Dispatch is event-driven.  After a scan every pending request is
blocked (its shard has no live serving node, or that node's window is
full), and only an enqueue, a reply, an aborted node, a re-attached
sink or a topology change (cluster or map epoch) can unblock one.
:meth:`ClusterClient.pump` therefore rescans only after one of those;
on every other scheduler step it returns at once.  A request is still
sent at the first pump after it became dispatchable, so every send
happens at the same node clock as with a rescan on every step.
"""

from __future__ import annotations

import collections
import dataclasses

from repro.apps import resp
from repro.cluster.shardmap import slot_of

#: Per-node window of outstanding (unanswered) requests.
DEFAULT_WINDOW = 4


@dataclasses.dataclass
class Request:
    """One in-flight client command."""

    op: str  # "set" | "get" | "del"
    key: bytes
    value: bytes | None
    payload: bytes
    attempts: int = 0
    #: Owner override from a MOVED redirect (chased before the map).
    forced_shard: str | None = None


class ClusterClient:
    """Closed-loop RESP client driving a :class:`RedisCluster`."""

    def __init__(self, cluster, window: int = DEFAULT_WINDOW) -> None:
        self.cluster = cluster
        self.window = window
        self.pending: collections.deque[Request] = collections.deque()
        #: FIFO of outstanding requests per node name (RESP replies come
        #: back in request order on a connection).
        self.outstanding: dict[str, collections.deque[Request]] = {}
        #: Incremental RESP reply parser per node connection.
        self._parsers: dict[str, resp.ReplyParser] = {}
        #: Ground truth: key → value for every *acked* SET (deletes
        #: remove the key).  Campaign verdicts compare against this.
        self.acked: dict[bytes, bytes] = {}
        self.issued = 0
        self.completed = 0
        self.moved = 0
        self.retried = 0
        self.errors = 0
        #: GETs whose reply disagreed with the acked ground truth.
        self.stale_reads = 0
        #: Stale replies by key (campaign reporting).
        self.stale_keys: list[bytes] = []
        #: Set by every event that may unblock a pending request.
        self._dirty = True
        #: ``(cluster.epoch, map.epoch)`` at the last scan.
        self._stamp: tuple[int, int] | None = None
        cluster.attach_client(self)

    # --- enqueue ----------------------------------------------------------

    def set(self, key: bytes, value: bytes) -> None:
        self._enqueue(
            Request("set", key, value, resp.encode_command(b"SET", key, value))
        )

    def get(self, key: bytes) -> None:
        self._enqueue(
            Request("get", key, None, resp.encode_command(b"GET", key))
        )

    def delete(self, key: bytes) -> None:
        self._enqueue(
            Request("del", key, None, resp.encode_command(b"DEL", key))
        )

    def _enqueue(self, request: Request) -> None:
        self.issued += 1
        self._dirty = True
        self.pending.append(request)

    # --- pumping ----------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.completed >= self.issued

    def _node_for(self, request: Request):
        shard = request.forced_shard or self.cluster.map.owner(request.key)
        if shard not in self.cluster.shards:
            return None
        node = self.cluster.serving_node(shard)
        return node if node.alive else None

    def wake(self) -> None:
        """Make the next :meth:`pump` rescan the pending requests."""
        self._dirty = True

    def pump(self) -> int:
        """Dispatch pending requests into open windows; returns count.

        Returns 0 without looking at :attr:`pending` unless an event
        since the last scan may have unblocked a request.
        """
        stamp = (self.cluster.epoch, self.cluster.map.epoch)
        if not self._dirty and stamp == self._stamp:
            return 0
        self._dirty = False
        self._stamp = stamp
        open_nodes = sum(
            1
            for shard in self.cluster.shards.values()
            if shard.serving.alive
            and len(self.outstanding.get(shard.serving.name, ())) < self.window
        )
        dispatched = 0
        blocked: list[Request] = []
        pending = self.pending
        # Once every live serving node's window is full, the rest of
        # the queue is blocked too: stop scanning.
        while open_nodes and pending:
            request = pending.popleft()
            node = self._node_for(request)
            if node is None:
                # Owner dead or missing (mid-failover): park it.
                blocked.append(request)
                continue
            queue = self.outstanding.setdefault(node.name, collections.deque())
            if len(queue) >= self.window:
                blocked.append(request)
                continue
            request.attempts += 1
            queue.append(request)
            node.deliver(request.payload)
            dispatched += 1
            if len(queue) >= self.window:
                open_nodes -= 1
        pending.extendleft(reversed(blocked))
        return dispatched

    def drive(self, max_rounds: int = 200_000) -> None:
        """Pump until every issued request completed."""

        def advanced() -> bool:
            self.pump()
            return self.done

        self.cluster.fabric.run(until=advanced, max_rounds=max_rounds)

    def rebind(self) -> None:
        """Topology changed (failover/rebalance): re-register sinks."""
        self._dirty = True
        for shard in self.cluster.shards.values():
            if shard.serving.alive:
                shard.serving.client_sink = self.on_reply

    # --- reply path -------------------------------------------------------

    def on_reply(self, node_name: str, payload: bytes) -> None:
        # A reply frees a window slot or re-enqueues a MOVED request.
        self._dirty = True
        parser = self._parsers.setdefault(node_name, resp.ReplyParser())
        for reply in parser.feed(payload):
            queue = self.outstanding.get(node_name)
            if not queue:
                # Reply for a request we already aborted elsewhere
                # (duplicate ack after a retry) — drop it.
                continue
            request = queue.popleft()
            self._complete(request, reply)

    def _complete(self, request: Request, reply) -> None:
        if isinstance(reply, resp.ErrorReply):
            text = reply.message
            if text.startswith(b"MOVED "):
                # -MOVED <slot> <owner>: chase the redirect.
                parts = text.split()
                self.moved += 1
                request.forced_shard = (
                    parts[2].decode() if len(parts) >= 3 else None
                )
                self.pending.appendleft(request)
                return
            self.errors += 1
            self.completed += 1
            return
        if request.op == "set":
            if reply == b"OK":
                self.acked[request.key] = request.value
            else:
                self.errors += 1
        elif request.op == "del":
            self.acked.pop(request.key, None)
        elif request.op == "get":
            expected = self.acked.get(request.key)
            if expected is not None and reply != expected:
                self.stale_reads += 1
                self.stale_keys.append(request.key)
        self.completed += 1

    # --- failure handling -------------------------------------------------

    def abort_node(self, node_name: str) -> int:
        """A node died: retry its outstanding requests elsewhere.

        At-least-once semantics — a request the dead node processed but
        never answered is replayed against the new owner.  ``SET`` and
        ``DEL`` are idempotent per key so replays converge; an already
        recorded ack is never rolled back.
        """
        self._dirty = True
        queue = self.outstanding.pop(node_name, None)
        self._parsers.pop(node_name, None)
        if not queue:
            return 0
        for request in queue:
            request.forced_shard = None  # re-route via the new map
            self.retried += 1
            self.pending.appendleft(request)
        return len(queue)

    # --- reporting --------------------------------------------------------

    def stats(self) -> dict:
        return {
            "issued": self.issued,
            "completed": self.completed,
            "acked": len(self.acked),
            "moved": self.moved,
            "retried": self.retried,
            "errors": self.errors,
            "stale_reads": self.stale_reads,
        }


def verify_acked(cluster, client: ClusterClient) -> dict:
    """Read back every acked key through the cluster; returns the audit.

    Drives real GET traffic (following MOVED redirects) and compares
    each reply against the client's acked ground truth.  Any mismatch
    or miss is an acked-write violation.
    """
    probe = ClusterClient(cluster, window=client.window)
    probe.acked = dict(client.acked)
    lost: list[str] = []
    wrong: list[str] = []
    for key in sorted(client.acked):
        probe.get(key)
    try:
        probe.drive()
    finally:
        # The probe took over every reply sink: hand them back.
        cluster.attach_client(client)
    # probe.stale_reads counts mismatches; distinguish miss vs corrupt
    # by re-reading values host-side from the owning shard.
    for key in sorted(client.acked):
        owner = cluster.map.owner(key)
        node = cluster.serving_node(owner)
        value = node.image.lib("redis").value_of(key)
        if value is None:
            lost.append(key.decode(errors="replace"))
        elif value != client.acked[key]:
            wrong.append(key.decode(errors="replace"))
    return {
        "checked": len(client.acked),
        "lost": lost,
        "wrong": wrong,
        "wire_mismatches": probe.stale_reads,
        "moved_followed": probe.moved,
        "ok": not lost and not wrong and probe.stale_reads == 0,
    }
