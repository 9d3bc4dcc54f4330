"""The server side of the simulated workstation/server architecture.

:class:`ObjectServer` stores node records (plain dictionaries) and
answers the request types the client/server backend needs: object
fetch/store, key-existence probes, index range queries, structure scans
and named-list storage.  Every request charges the shared
:class:`~repro.netsim.latency.SimulatedClock` according to the
:class:`~repro.netsim.latency.LatencyModel` — a fixed round trip plus
payload-proportional transfer, with payload sizes equal to the records'
serialized lengths (computed structurally; nothing is encoded to be
measured).

The server object *survives* the client database's close/open cycle,
exactly like the server machine in the paper's architecture: closing
the workstation application empties the workstation cache but not the
server, which is what makes the next run cold.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.engine import serializer
from repro.engine.txn import stale_reads
from repro.engine.wal import PUT, LogRecord, WriteAheadLog, put_record
from repro.netsim.faults import FaultModel
from repro.netsim.latency import LatencyModel, SimulatedClock
from repro.netsim.sim import DirectTransport
from repro.obs import Instrumentation, TraceContext, resolve
from repro.errors import (
    CommitConflictError,
    InvalidOperationError,
    NodeNotFoundError,
)

#: Approximate bytes of a uid in a response payload.
_UID_BYTES = 8
#: Approximate bytes of a request/reply envelope beyond the round trip.
_PROBE_BYTES = 16

#: Relations the push-down verbs understand.
_RELATIONS = ("children", "parts", "refTo")


def copy_record(record: Dict[str, Any]) -> Dict[str, Any]:
    """Copy a record including its nested relationship lists.

    A shallow ``dict()`` copy would share the children/parts/refTo
    lists with the source: client and server (or a private edit and
    the cached copy) would then silently mutate each other.
    """
    return {
        key: [
            list(item) if isinstance(item, list) else item
            for item in value
        ]
        if isinstance(value, list)
        else value
        for key, value in record.items()
    }


def _edges(relation: str, direction: str) -> Callable[[Dict], List[int]]:
    """The adjacency function of one (validated) relation/direction."""
    if relation not in _RELATIONS:
        raise InvalidOperationError(
            f"traverse does not understand relation {relation!r}"
        )
    if direction not in ("forward", "reverse"):
        raise InvalidOperationError(
            f"traverse direction must be forward or reverse,"
            f" got {direction!r}"
        )
    if direction == "forward":
        if relation == "refTo":
            return lambda record: [dst for dst, _f, _t in record["refTo"]]
        return lambda record: record[relation]
    if relation == "children":
        return lambda record: [record["parent"]] if record["parent"] else []
    inverse = "partOf" if relation == "parts" else "refFrom"
    return lambda record: record[inverse]


def _structural(record: Dict[str, Any]) -> List[int]:
    """Readahead's neighbourhood: children *and* parts."""
    return record["children"] + record["parts"]


def _log_records(txid: int, writes: Dict[int, Dict]) -> List[LogRecord]:
    """One transaction's PUT records, in uid order."""
    return [
        put_record(txid, uid, {"record": record})
        for uid, record in sorted(writes.items())
    ]


def _logged_writes(operations: Iterable[LogRecord]) -> Dict[int, Dict]:
    """The write set a transaction's log records carry."""
    return {
        op.oid: op.state["record"]
        for op in operations
        if op.kind == PUT and op.state is not None
    }


@dataclasses.dataclass
class ServerStats:
    """Request counters, by request type."""

    fetches: int = 0
    batch_fetches: int = 0
    batched_objects: int = 0
    traversals: int = 0
    readaheads: int = 0
    pushdown_objects: int = 0
    stores: int = 0
    probes: int = 0
    queries: int = 0
    scans: int = 0
    commits: int = 0
    commit_conflicts: int = 0
    prepares: int = 0
    decisions: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        for field in dataclasses.fields(self):
            setattr(self, field.name, 0)

    @classmethod
    def total(cls, parts: Iterable["ServerStats"]) -> "ServerStats":
        """Field-wise sum (a router's aggregate over its servers)."""
        parts = list(parts)
        return cls(
            **{
                field.name: sum(getattr(part, field.name) for part in parts)
                for field in dataclasses.fields(cls)
            }
        )


class ObjectServer:
    """A remote node store charging simulated network time.

    ``fault_model`` (see :mod:`repro.netsim.faults`) injects seeded
    drop/timeout faults at the channel: a faulted request raises
    :class:`~repro.errors.RpcDroppedError` or
    :class:`~repro.errors.RpcTimeoutError` *after* charging the clock
    for the wasted wire time, and the request never touches server
    state.  The client retries with bounded backoff.
    """

    def __init__(
        self,
        clock: Optional[SimulatedClock] = None,
        latency: Optional[LatencyModel] = None,
        instrumentation: Optional[Instrumentation] = None,
        fault_model: Optional[FaultModel] = None,
        wal: Optional[WriteAheadLog] = None,
        fsync_seconds: float = 0.0,
        shard_id: Optional[int] = None,
        lane_tag: Optional[str] = None,
    ) -> None:
        self.clock = clock or SimulatedClock()
        self.latency = latency or LatencyModel()
        self.stats = ServerStats()
        #: Position of this server in a sharded deployment, or ``None``
        #: for the classic single-server stack.  A set shard id adds
        #: ``backend.shard.<n>.rpc.*`` counters and folds a
        #: ``shard<n>`` tag into the trace lane; the ``None`` path is
        #: byte-identical to the pre-sharding server.
        self.shard_id = shard_id
        #: Free-form trace lane tag (``"replica0"``, ``"primary"`` …)
        #: for servers that are neither shards nor the classic single
        #: server; ``shard_id`` wins when both are set.  ``None`` keeps
        #: the pre-replication spans byte-identical.
        self.lane_tag = lane_tag
        self.fault_model = fault_model
        self.instrumentation = resolve(instrumentation)
        self._instr = self.instrumentation
        #: Optional durable commit log.  Every write verb logs before
        #: it applies (see :meth:`_commit`); transactional commits
        #: charge ``fsync_seconds`` of extra service time when the log
        #: takes a real durability point (group commit defers most).
        self.wal = wal
        self.fsync_seconds = fsync_seconds
        #: Called (no args) after every applied-and-charged write; a
        #: replication group wires this to its shipper's poll so ship
        #: time == commit time.
        self.on_commit: Optional[Callable[[], None]] = None
        #: The charge seam: every request's time lands here.  The
        #: default reproduces the single-client model exactly; the
        #: discrete-event scheduler swaps in a contended transport
        #: (see :mod:`repro.netsim.sim`) for multi-client runs.
        self.transport = DirectTransport(self.clock, self.latency)
        self._records: Dict[int, Dict[str, Any]] = {}
        #: Wire size per *stored* record, filled on first ship (see the
        #: "Cost accounting" block for its two invalidation sites).
        self._sizes: Dict[int, int] = {}
        self._lists: Dict[str, List[int]] = {}
        #: Version per uid, bumped on every store/commit; the optimistic
        #: commit protocol validates read sets against it.
        self._versions: Dict[int, int] = {}
        self._commit_seq = 0
        #: Versions of the records the *last* record-carrying reply
        #: shipped — an in-process side channel standing in for the
        #: version stamps a real wire format would embed per record
        #: (kept out of the payload so reply sizes are unchanged).
        self.last_reply_versions: Dict[int, int] = {}
        self._subscribers: List[object] = []
        #: Trace context of the in-flight request (the RPC envelope).
        self._pending_trace: Optional[TraceContext] = None
        #: Two-phase-commit participant state: write sets parked by
        #: ``prepare_batch`` awaiting the coordinator's decision,
        #: keyed by global txid.
        self._prepared: Dict[int, Dict[str, Any]] = {}
        #: Pins held by prepared transactions: uid → owning txid.  A
        #: pinned uid blocks conflicting commits/prepares until the
        #: owner is decided (prepared state must stay validatable).
        self._pins: Dict[int, int] = {}
        #: The subset of pinned uids the owning txn will *write*.
        self._pin_writes: set = set()
        #: Decision memo so a retried ``commit_prepared`` /
        #: ``abort_prepared`` is idempotent: txid → applied versions
        #: (commit) or ``None`` (abort).
        self._decided: Dict[int, Optional[Dict[int, int]]] = {}

    @contextlib.contextmanager
    def use_transport(self, transport):
        """Temporarily swap the charge transport (the scheduler's seam)."""
        previous = self.transport
        self.transport = transport
        try:
            yield transport
        finally:
            self.transport = previous

    # ------------------------------------------------------------------
    # Trace propagation (the request envelope)
    # ------------------------------------------------------------------

    def accept_trace_context(self, context: Optional[TraceContext]) -> None:
        """Attach the caller's trace context to the *next* request.

        The client's RPC wrapper calls this just before each attempt —
        it models the trace headers a real RPC envelope carries.  The
        context is consumed (and cleared) by the request it precedes;
        requests arriving without one record plain server spans.
        """
        self._pending_trace = context

    @contextlib.contextmanager
    def _serve(self, request: str):
        """Record one server-side request span with its remote parent.

        The span covers fault injection too, so a dropped or timed-out
        attempt still appears as server-side work linked to the client
        attempt that caused it (that is how retries become visible in
        the exported trace).
        """
        context = self._pending_trace
        self._pending_trace = None
        client = None if context is None else context.client_id
        if self.shard_id is not None or self.lane_tag is not None:
            # Tagged lane: scatter-gather (or replica) fan-out shows up
            # as one trace lane per (client, server) pair in Perfetto.
            tag = (
                f"shard{self.shard_id}"
                if self.shard_id is not None
                else self.lane_tag
            )
            client = tag if client is None else f"{client}·{tag}"
        with self._instr.span(
            "server." + request,
            remote_parent=None if context is None else context.span_id,
            remote_trace=None if context is None else context.trace_id,
            client=client,
        ):
            # Version stamps never survive into the next request: each
            # reply's stamps belong to exactly one caller.
            self.last_reply_versions = {}
            self._maybe_fault(request)
            yield

    # ------------------------------------------------------------------
    # Cache-coherence subscriptions (R6 coordination)
    # ------------------------------------------------------------------

    def subscribe(self, cache) -> None:
        """Register a workstation cache for invalidation callbacks.

        When any client stores a record, every *other* subscribed cache
        drops its copy — the minimal coherence protocol that lets a
        second user see a first user's published update without
        restarting (R6's "coordination and collaboration between
        users").  Invalidation messages ride on the store's round trip
        (no extra clock charge; real systems piggyback them too).
        """
        if cache not in self._subscribers:
            self._subscribers.append(cache)

    def unsubscribe(self, cache) -> None:
        """Remove a cache from the invalidation list."""
        if cache in self._subscribers:
            self._subscribers.remove(cache)

    def _invalidate_subscribers(self, uid: int, except_cache=None) -> None:
        for cache in self._subscribers:
            if cache is not except_cache:
                cache.invalidate(uid)

    # ------------------------------------------------------------------
    # Cost accounting
    #
    # Every request charges exactly one round trip plus its payload.
    # Reply payloads follow **one documented model** shared by every
    # record-carrying verb (``fetch``, ``fetch_many``, ``traverse``,
    # ``readahead``):
    #
    #     payload = envelope (_PROBE_BYTES) + Σ record_size(record)
    #
    # so a batch reply and a push-down reply carrying the *same* record
    # set charge the *same* simulated time (pinned by a regression test
    # in ``tests/test_pushdown.py``).  Reference-only replies charge
    # ``envelope + _UID_BYTES per uid`` instead.
    #
    # ``record_size(r) == len(serializer.encode(r))`` — the identity
    # every charged byte rests on, held by a property test in
    # ``tests/test_engine_serializer.py`` — but no request encodes a
    # record to learn it.  Uploads are sized by the structural walk
    # ``serializer.encoded_size``; replies go through ``_reply_size``,
    # which sizes a *stored* record once, the first time it ships, and
    # keeps the answer in ``_sizes``.  The memo is dropped at the only
    # two places ``_records`` is assigned: ``_install`` (per written
    # uid) and ``load_records`` (wholesale).  It is filled lazily, not
    # at install, because most installed versions are overwritten or
    # never shipped.
    #
    # Payload sizes land in the ``backend.rpc.payload_bytes`` histogram
    # (bytes, not ms) so the wire-size distribution is inspectable next
    # to the latency distributions.
    # ------------------------------------------------------------------

    def _charge(
        self,
        payload_bytes: int,
        verb: Optional[str] = None,
        synced: bool = False,
    ) -> None:
        """Charge one request; ``synced`` adds the log's real durability
        point (``fsync_seconds`` of extra service) to it."""
        cost = self.transport.charge_request(
            payload_bytes,
            extra_service_seconds=self.fsync_seconds if synced else 0.0,
        )
        self._instr.count("backend.rpc.round_trips")
        self._instr.count("netsim.latency.injected_ms", cost * 1000.0)
        self._instr.observe("backend.rpc.payload_bytes", float(payload_bytes))
        if verb is not None:
            self._instr.observe(
                f"backend.rpc.payload_bytes.{verb}", float(payload_bytes)
            )
        if self.shard_id is not None:
            prefix = f"backend.shard.{self.shard_id}.rpc"
            self._instr.count(f"{prefix}.round_trips")
            self._instr.count(f"{prefix}.payload_bytes", float(payload_bytes))
            if verb is not None:
                self._instr.count(f"{prefix}.{verb}")

    def _reply_size(self, uids) -> int:
        """Wire size of one record-carrying reply: envelope + records.

        The one reader and filler of the ``_sizes`` memo.
        """
        sizes = self._sizes
        payload = _PROBE_BYTES
        for uid in uids:
            size = sizes.get(uid)
            if size is None:
                size = sizes[uid] = self.record_size(self._records[uid])
            payload += size
        return payload

    def _ship(
        self, verb: str, uids: List[int], handoff_bytes: int = 0
    ) -> Dict[int, Dict[str, Any]]:
        """The one record-carrying reply tail of the batch verbs.

        Sizes the reply (``handoff_bytes`` = the border references a
        shard-local walk hands back), copies the records out, counts,
        charges and stamps the shipped versions.
        """
        payload = handoff_bytes + self._reply_size(uids)
        out = {uid: copy_record(self._records[uid]) for uid in uids}
        self.stats.bytes_sent += payload
        self._instr.count("backend.rpc.bytes_sent", payload)
        self._instr.count("backend.rpc.batched_objects", len(uids))
        self._charge(payload, verb)
        self._stamp_reply_versions(uids)
        return out

    def _reply_uids(self, count: int, verb: Optional[str] = None) -> None:
        """Charge one reference-only reply: envelope + a uid each."""
        payload = _PROBE_BYTES + _UID_BYTES * count
        self.stats.bytes_sent += payload
        self._instr.count("backend.rpc.bytes_sent", payload)
        self._charge(payload, verb)

    def _receive(self, upload: int) -> int:
        """Account one request's uploaded bytes; returns them."""
        self.stats.bytes_received += upload
        self._instr.count("backend.rpc.bytes_received", upload)
        return upload

    def _stamp_reply_versions(self, uids) -> None:
        """Record the versions the reply's records were shipped at."""
        self.last_reply_versions = {
            uid: self._versions.get(uid, 0) for uid in uids
        }

    def take_reply_versions(self) -> Dict[int, int]:
        """Consume the version stamps of the last record-carrying reply.

        The optimistic client calls this after each successful RPC to
        learn which version of each record it now holds; consuming
        clears the channel so stale stamps never leak into the next
        request's bookkeeping.
        """
        versions = self.last_reply_versions
        self.last_reply_versions = {}
        return versions

    def _maybe_fault(self, request: str) -> None:
        """Consult the fault model before serving a request.

        A *drop* costs one wasted round trip (the request travelled and
        died); a *timeout* costs the model's full timeout window.  The
        fault is raised before any server state changes, so a retried
        ``store`` is idempotent from the server's point of view.
        """
        if self.fault_model is None:
            return
        kind = self.fault_model.next_fault()
        if kind is None:
            return
        self._instr.count("backend.rpc.faults")
        self._instr.count(f"backend.rpc.faults.{kind}")
        if kind == "timeout":
            wasted = self.fault_model.timeout_seconds
        else:
            wasted = self.latency.request_cost(0)
        self.transport.charge_wasted(wasted)
        self._instr.count("netsim.latency.injected_ms", wasted * 1000.0)
        self.fault_model.raise_fault(kind, request)

    @staticmethod
    def record_size(record: Dict[str, Any]) -> int:
        """Wire size of a record: ``len(serializer.encode(record))``.

        Computed by :func:`~repro.engine.serializer.encoded_size`
        without building the bytes; the property test beside the
        serializer's holds the two equal.
        """
        return serializer.encoded_size(record)

    # ------------------------------------------------------------------
    # Object requests
    # ------------------------------------------------------------------

    def fetch(self, uid: int) -> Dict[str, Any]:
        """Fetch one record; charged round trip + record transfer.

        Raises:
            NodeNotFoundError: for an unknown uid (still charged a
                round trip — the request happened).
        """
        with self._serve("fetch"):
            self.stats.fetches += 1
            record = self._records.get(uid)
            if record is None:
                self._charge(_PROBE_BYTES, "fetch")
                raise NodeNotFoundError(uid)
            payload = self._reply_size((uid,))
            self.stats.bytes_sent += payload
            self._instr.count("backend.rpc.bytes_sent", payload)
            self._charge(payload, "fetch")
            self._stamp_reply_versions((uid,))
            return copy_record(record)

    def fetch_many(self, uids: List[int]) -> Dict[int, Dict[str, Any]]:
        """Fetch a batch of records in **one** round trip.

        This is the batch RPC verb the frontier traversals ride on: the
        fixed round-trip cost is paid once, the transfer cost stays
        proportional to the payload (the summed record sizes), so a
        closure frontier of N nodes costs ``round_trip + N·transfer``
        instead of ``N·(round_trip + transfer)``.

        Duplicates in ``uids`` are served once.  Raises
        :class:`NodeNotFoundError` for the first unknown uid (the whole
        request is still charged one round trip — it happened), matching
        the per-item :meth:`fetch` error contract.
        """
        with self._serve("fetch_many"):
            self.stats.batch_fetches += 1
            unique = list(dict.fromkeys(uids))
            missing = next(
                (uid for uid in unique if uid not in self._records), None
            )
            if missing is not None:
                self._charge(_PROBE_BYTES, "fetch_many")
                raise NodeNotFoundError(missing)
            self.stats.batched_objects += len(unique)
            return self._ship("fetch_many", unique)

    # ------------------------------------------------------------------
    # Closure push-down (query shipping instead of data shipping)
    #
    # One walk (``_scatter_bfs``) and one reply (``_closure``) serve all
    # four verbs: ``traverse``/``readahead`` are the lone-server calls,
    # ``traverse_shard``/``readahead_shard`` the shard-local rounds a
    # :class:`~repro.sharding.router.ShardRouter` scatters, which also
    # hand the border OIDs back.
    # ------------------------------------------------------------------

    def _scatter_bfs(self, seeds, neighbors, limit):
        """Multi-seed budgeted BFS over the records this shard holds.

        ``seeds`` is ``[(uid, budget)]`` where ``budget`` is how many
        levels the walk may still descend *from that node* (``None`` =
        unbounded).  Edges to uids this shard does not hold become
        **border** entries ``(uid, budget - 1)`` instead of visits —
        the router re-dispatches them to their owning shards.  A uid
        reachable along several paths keeps the largest remaining
        budget and is re-expanded when a later path improves it, so
        the union of all shard-local walks equals the single-server
        BFS closure.  A lone server is the one-shard case: it owns
        everything it can reach, single-seed walks never re-expand,
        and its "borders" are dangling edges the caller drops.
        """
        inf = float("inf")
        order: List[int] = []
        best: Dict[int, float] = {}
        borders: Dict[int, float] = {}
        frontier: List[Tuple[int, float]] = []
        full = False
        for uid, budget in seeds:
            b = inf if budget is None else float(budget)
            if uid not in self._records:
                continue
            if uid in best:
                if b > best[uid]:
                    best[uid] = b
                    if b > 0:
                        frontier.append((uid, b))
                continue
            if limit is not None and len(order) >= limit:
                full = True
                break
            best[uid] = b
            order.append(uid)
            if b > 0:
                frontier.append((uid, b))
        while frontier and not full:
            next_frontier: List[Tuple[int, float]] = []
            for uid, b in frontier:
                nb = b - 1
                for adj in neighbors(self._records[uid]):
                    if adj in self._records:
                        if adj not in best:
                            if limit is not None and len(order) >= limit:
                                full = True
                                break
                            best[adj] = nb
                            order.append(adj)
                            if nb > 0:
                                next_frontier.append((adj, nb))
                        elif nb > best[adj]:
                            best[adj] = nb
                            if nb > 0:
                                next_frontier.append((adj, nb))
                    else:
                        prev = borders.get(adj)
                        if prev is None or nb > prev:
                            borders[adj] = nb
                if full:
                    break
            frontier = next_frontier
        border_list = [
            (uid, None if b == inf else int(b))
            for uid, b in borders.items()
        ]
        return order, border_list

    def _closure(
        self,
        verb: str,
        seeds: List[Tuple[int, Optional[int]]],
        edges: Callable[[Dict], List[int]],
        limit: Optional[int],
        with_records: bool = True,
        handoff: bool = False,
    ):
        """Walk, then ship: the shared body of the push-down verbs.

        Returns ``({uid: record-or-None}, borders)`` in discovery
        order.  Without ``handoff`` (the lone server) edges to uids
        this server does not hold are dangling: skipped silently and
        never charged.  With it each border costs one uid of reply —
        the hand-off references are real payload.
        """
        order, borders = self._scatter_bfs(seeds, edges, limit)
        if not handoff:
            borders = []
        if not with_records:
            self._reply_uids(len(order) + len(borders), verb)
            return dict.fromkeys(order), borders
        self.stats.pushdown_objects += len(order)
        return self._ship(verb, order, _UID_BYTES * len(borders)), borders

    def traverse(
        self,
        root: int,
        relation: str,
        direction: str = "forward",
        depth: Optional[int] = None,
        with_records: bool = True,
        limit: Optional[int] = None,
    ) -> Dict[int, Dict[str, Any]]:
        """Run a closure BFS **at the server**; one size-charged reply.

        This is the query-shipping verb: instead of the client walking
        the structure level by level (one ``fetch_many`` round trip per
        level), the whole traversal executes server-side and every
        *distinct* visited record comes back in a single reply.  A
        closure then costs ``round_trip + Σ transfer`` — the same
        payload a frontier BFS ships in total, minus all but one of its
        fixed round trips (and their envelopes).

        Args:
            root: start node; raises :class:`NodeNotFoundError` if
                unknown (the request is still charged — it happened).
            relation: ``"children"``, ``"parts"`` or ``"refTo"``.
            direction: ``"forward"`` follows the relation,
                ``"reverse"`` its inverse (parent / partOf / refFrom).
            depth: maximum BFS depth (``None`` = unbounded; the
                attributed-association closures pass their run-time
                depth, 25 by default).
            with_records: ship the visited records (the push-down fast
                path) or just their uids (a reference-only closure,
                charged like a range query).
            limit: stop collecting after this many nodes — the client
                passes its workstation-cache capacity so a reply never
                ships records the cache could not hold; the BFS prefix
                it does ship is still coherent (early levels complete),
                and the client's frontier BFS fetches the remainder.

        Returns:
            ``{uid: record}`` in BFS visit order (insertion order of
            the dict) when ``with_records``; ``{uid: None}`` in visit
            order otherwise.  Dangling edge targets (uids the server
            does not hold) are skipped silently — the client-side
            replay resolves them through its own read path.
        """
        with self._serve("traverse"):
            self.stats.traversals += 1
            edges = _edges(relation, direction)
            if root not in self._records:
                self._charge(_PROBE_BYTES, "traverse")
                raise NodeNotFoundError(root)
            return self._closure(
                "traverse", [(root, depth)], edges, limit, with_records
            )[0]

    def readahead(
        self, uids: List[int], depth: int = 1, limit: Optional[int] = None
    ) -> Dict[int, Dict[str, Any]]:
        """Speculative structural readahead around a set of seed uids.

        Expands each seed's structural neighbourhood — children *and*
        parts, breadth-first to ``depth`` levels — and returns every
        distinct record found, in one size-charged reply.  The verb is
        **speculative by contract**: unknown seeds and dangling edges
        are skipped silently (an empty reply is a valid answer), so the
        client can ask optimistically on a cold first touch without a
        second error round trip.  Raising is the caller's business if
        a seed it *required* is absent from the reply.
        """
        with self._serve("readahead"):
            self.stats.readaheads += 1
            if depth < 0:
                raise InvalidOperationError(
                    f"readahead depth cannot be negative, got {depth}"
                )
            return self._closure(
                "readahead", [(uid, depth) for uid in uids], _structural, limit
            )[0]

    def traverse_shard(
        self,
        seeds: List[Tuple[int, Optional[int]]],
        relation: str,
        direction: str = "forward",
        with_records: bool = True,
        limit: Optional[int] = None,
    ):
        """One shard-local round of a scatter-gather closure BFS.

        The router seeds each round with the border uids the previous
        round surfaced (grouped by placement), so a whole cross-shard
        closure costs one ``traverse_shard`` call per shard per
        *depth-crossing round* — O(shards × crossings), never
        O(nodes).  Unknown seeds are skipped silently (the speculative
        contract of :meth:`readahead`): a seed uid owned by this shard
        per the placement map but absent from its records is simply a
        dangling edge.  The reply charges the visited records (or a
        uid each when ``with_records`` is false) **plus one uid per
        border** — the hand-off references are real payload.

        Returns ``({uid: record-or-None}, [(border uid, remaining
        budget)])``, both in discovery order.
        """
        with self._serve("traverse_shard"):
            self.stats.traversals += 1
            return self._closure(
                "traverse_shard",
                seeds,
                _edges(relation, direction),
                limit,
                with_records,
                handoff=True,
            )

    def readahead_shard(
        self,
        seeds: List[Tuple[int, Optional[int]]],
        limit: Optional[int] = None,
    ):
        """Shard-local structural readahead with border hand-off.

        The sharded counterpart of :meth:`readahead`: expands each
        seed's children+parts neighbourhood to its per-seed depth
        budget over the records this shard holds, and reports
        cross-shard edges as borders for the router to re-dispatch.
        Speculative by contract — unknown seeds are skipped silently.
        """
        with self._serve("readahead_shard"):
            self.stats.readaheads += 1
            for _uid, budget in seeds:
                if budget is not None and budget < 0:
                    raise InvalidOperationError(
                        f"readahead depth cannot be negative, got {budget}"
                    )
            return self._closure(
                "readahead_shard", seeds, _structural, limit, handoff=True
            )

    # ------------------------------------------------------------------
    # Writes: one validation kernel, one log-before-apply kernel
    # ------------------------------------------------------------------

    def store(
        self, uid: int, record: Dict[str, Any], from_cache=None
    ) -> None:
        """Upload one record (insert or replace); charged for upload.

        ``from_cache`` identifies the uploading client's cache so it is
        excluded from the coherence invalidation broadcast.  With a WAL
        the record is logged before it is applied, like any commit,
        but a plain last-writer-wins store never waits on the fsync
        (no ``fsync_seconds`` charge).
        """
        with self._serve("store"):
            self.stats.stores += 1
            size = self._receive(self.record_size(record))
            self._commit(
                None, size, {uid: record}, from_cache=from_cache, fsync=False
            )

    def commit_batch(
        self,
        writes: Dict[int, Dict[str, Any]],
        reads: Dict[int, int],
        lists: Optional[Dict[str, List[int]]] = None,
        from_cache=None,
    ) -> Dict[int, int]:
        """Optimistically validate and apply one transaction atomically.

        The optimistic client ships its whole write set plus the
        versions of every record it read this transaction in **one**
        request (charged for the uploaded records plus a uid+version
        pair per read).  Validation is first-committer-wins: if any
        read version no longer matches the server's current version —
        another client committed that record meanwhile — nothing is
        applied and :class:`~repro.errors.CommitConflictError` reports
        the stale uids so the client can invalidate and retry.

        A valid transaction is applied atomically under one new commit
        txid (see :meth:`_commit`): the optional WAL logs the write
        set first (charging ``fsync_seconds`` of extra service only
        when the log takes a real durability point — group commit
        defers most of them), then all writes land, versions bump, and
        every *other* subscribed cache is invalidated per written uid.

        Returns ``{uid: new version}`` for the write set.
        """
        with self._serve("commit"):
            lists = lists or {}
            upload = self._upload(writes, reads, lists)
            self._validate("commit", upload, writes, reads)
            self.stats.commits += 1
            self._instr.count("backend.mp.commits")
            return self._commit("commit", upload, writes, lists, from_cache)

    def _upload(self, writes, reads, lists, txid=None) -> int:
        """Size and account one uploaded transaction (slice).

        The write set's records, a uid+version pair per read, a uid
        per list member — plus the global txid riding in a prepare's
        envelope.
        """
        return self._receive(
            _PROBE_BYTES
            + (0 if txid is None else _UID_BYTES)
            + sum(self.record_size(r) for r in writes.values())
            + (_UID_BYTES + _UID_BYTES) * len(reads)
            + sum(_UID_BYTES * len(uids) for uids in lists.values())
        )

    def _validate(self, verb, upload, writes, reads, txid=None) -> None:
        """The one validation kernel: first-committer-wins, then pins.

        A read version that no longer matches the server's, or a uid
        pinned by another in-doubt transaction, refuses the request —
        charged, counted, nothing applied.
        """
        conflicts = stale_reads(reads, lambda uid: self._versions.get(uid, 0))
        conflicts += self._pin_conflicts(writes, reads, txid)
        if conflicts:
            self.stats.commit_conflicts += 1
            self._instr.count("backend.mp.commit.conflicts")
            self._charge(upload, verb)
            raise CommitConflictError(sorted(set(conflicts)))

    def _next_txid(self) -> int:
        """The one local txid allocator: ascending, never a parked txid.

        A 2PC slice is logged under the *coordinator's* global txid.
        A local commit logged under the same number while that slice
        is in doubt would read, on recovery, as the slice's COMMIT —
        dropping the in-doubt transaction.  Skipping parked txids
        keeps the two namespaces apart where it matters; versions
        only need to ascend, not to be dense.
        """
        txid = self._commit_seq + 1
        while txid in self._prepared:
            txid += 1
        return txid

    def _install(self, writes, version: int, from_cache=None):
        """The one place records and versions are assigned.

        Every writer ends here — client commits, recovery replay and
        replica apply — so each also forgets the replaced record's
        memoised wire size, broadcasts its invalidations and pulls the
        local commit sequence up to ``version`` (later commits keep
        ascending even after applying a peer's txids).
        """
        self._commit_seq = max(self._commit_seq, version)
        for uid, record in writes.items():
            self._records[uid] = copy_record(record)
            self._sizes.pop(uid, None)
            self._versions[uid] = version
            self._invalidate_subscribers(uid, except_cache=from_cache)
        return dict.fromkeys(writes, version)

    def _commit(
        self,
        verb: Optional[str],
        upload: int,
        writes: Dict[int, Dict[str, Any]],
        lists: Optional[Dict[str, List[int]]] = None,
        from_cache=None,
        prepared: Optional[int] = None,
        fsync: bool = True,
    ) -> Dict[int, int]:
        """Log, apply, charge, notify: the one client write path.

        **Log before apply** is the durability contract: a write is
        acknowledged (and charged its reply) only after its records
        are in the log, so an acked write survives any later crash,
        and a crash *during* logging leaves a torn tail that shipper
        and recovery both ignore — never acked, never applied.  A
        parked 2PC slice (``prepared`` = its global txid) already
        logged its records at prepare; its decision is what gets
        logged here.  ``fsync=False`` is the plain ``store``: it never
        waits on the log's durability point.  ``on_commit`` fires
        last, so a shipper polling from it stamps the commit's own
        (post-charge) virtual time.

        Returns ``{uid: new version}`` for the write set.
        """
        txid = self._next_txid()
        synced = False
        if self.wal is not None:
            if prepared is not None:
                synced = self.wal.log_decision(prepared, committed=True)
            elif writes:
                synced = self.wal.log_commit(txid, _log_records(txid, writes))
        applied = self._install(writes, txid, from_cache)
        for name, uids in (lists or {}).items():
            self._lists[name] = list(uids)
        self._charge(upload, verb, synced and fsync)
        if writes and self.on_commit is not None:
            self.on_commit()
        return applied

    # ------------------------------------------------------------------
    # Two-phase commit (participant side; the ShardRouter coordinates)
    # ------------------------------------------------------------------

    def _pin_conflicts(
        self,
        writes: Dict[int, Any],
        reads: Dict[int, int],
        txid: Optional[int],
    ) -> List[int]:
        """Uids this request may not touch while a peer is in doubt.

        A write collides with *any* pin (the pinned value must stay
        exactly as validated until its owner is decided); a read
        validation collides only with a *write* pin (its version
        changes if the owner commits, and which way is unknowable
        until the decision).  ``txid`` exempts a transaction's own
        pins so a retried prepare stays idempotent.
        """
        blocked = [
            uid
            for uid in writes
            if uid in self._pins and self._pins[uid] != txid
        ]
        blocked += [
            uid
            for uid in reads
            if uid in self._pin_writes and self._pins[uid] != txid
        ]
        return blocked

    def _park(self, txid, writes, reads=(), lists=None, from_cache=None):
        """Hold a validated slice in doubt, its read∪write set pinned."""
        self._prepared[txid] = {
            "writes": {
                uid: copy_record(record) for uid, record in writes.items()
            },
            "lists": {
                name: list(uids) for name, uids in (lists or {}).items()
            },
            "from_cache": from_cache,
        }
        for uid in writes:
            self._pins[uid] = txid
            self._pin_writes.add(uid)
        for uid in reads:
            self._pins.setdefault(uid, txid)

    def _release_pins(self, txid: int) -> None:
        for uid in [
            uid for uid, owner in self._pins.items() if owner == txid
        ]:
            del self._pins[uid]
            self._pin_writes.discard(uid)

    def prepare_batch(
        self,
        txid: int,
        writes: Dict[int, Dict[str, Any]],
        reads: Dict[int, int],
        lists: Optional[Dict[str, List[int]]] = None,
        from_cache=None,
    ) -> bool:
        """Phase one: validate and park this shard's transaction slice.

        Validation is exactly ``commit_batch``'s first-committer-wins
        check (stale read versions raise
        :class:`~repro.errors.CommitConflictError`), plus pin checks
        against other in-doubt transactions.  A valid slice is logged
        to the WAL as BEGIN + PUTs + PREPARE (force-synced — the
        prepare promise must survive a crash), parked in memory, and
        its read∪write set pinned until the coordinator's decision
        arrives.  Nothing is applied and no cache is invalidated yet.
        """
        with self._serve("prepare"):
            upload = self._upload(writes, reads, lists or {}, txid)
            if txid in self._decided:
                self._charge(upload, "prepare")
                raise InvalidOperationError(
                    f"transaction {txid} was already decided"
                )
            if txid in self._prepared:
                # Retried prepare (the first reply was lost): the slice
                # is already parked and pinned — just re-acknowledge.
                self._charge(upload, "prepare")
                return True
            self._validate("prepare", upload, writes, reads, txid)
            synced = False
            if self.wal is not None:
                synced = self.wal.log_prepare(
                    txid, _log_records(txid, writes)
                )
            self._park(txid, writes, reads, lists, from_cache)
            self.stats.prepares += 1
            self._instr.count("backend.mp.prepares")
            self._charge(upload, "prepare", synced)
            return True

    def commit_prepared(self, txid: int) -> Dict[int, int]:
        """Phase two, commit: apply a parked slice atomically.

        Idempotent — a retried decision (the first ack was lost)
        replays the memoized result without re-applying.  The decision
        is force-logged to the WAL before the writes land, then the
        slice applies under one new *local* commit txid and every
        other subscribed cache is invalidated per written uid — the
        same :meth:`_commit` kernel ``commit_batch`` ends in.
        """
        with self._serve("decide"):
            upload = self._receive(_PROBE_BYTES + _UID_BYTES)
            if txid in self._decided:
                self._charge(upload, "decide")
                memo = self._decided[txid]
                if memo is None:
                    raise InvalidOperationError(
                        f"transaction {txid} was already aborted"
                    )
                return dict(memo)
            entry = self._prepared.pop(txid, None)
            if entry is None:
                self._charge(upload, "decide")
                raise InvalidOperationError(
                    f"transaction {txid} is not prepared on this shard"
                )
            self._release_pins(txid)
            self.stats.commits += 1
            self.stats.decisions += 1
            self._instr.count("backend.mp.commits")
            applied = self._commit(
                "decide",
                upload,
                entry["writes"],
                entry["lists"],
                entry["from_cache"],
                prepared=txid,
            )
            self._decided[txid] = dict(applied)
            return applied

    def abort_prepared(self, txid: int) -> None:
        """Phase two, abort: discard a parked slice (presumed abort).

        Idempotent and tolerant of transactions that never prepared
        here — the coordinator aborts every would-be participant when
        any one of them votes no, including shards whose prepare never
        arrived.  The ABORT decision is logged without forcing (losing
        it is harmless: recovery presumes abort).
        """
        with self._serve("decide"):
            upload = self._receive(_PROBE_BYTES + _UID_BYTES)
            if txid in self._decided:
                self._charge(upload, "decide")
                return
            entry = self._prepared.pop(txid, None)
            if self.wal is not None and entry is not None:
                self.wal.log_decision(txid, committed=False)
            self._release_pins(txid)
            self._decided[txid] = None
            self.stats.decisions += 1
            self._instr.count("backend.mp.2pc.aborts")
            self._charge(upload, "decide")

    def in_doubt(self) -> List[int]:
        """Txids prepared but undecided (uncharged admin call)."""
        return sorted(self._prepared)

    def recover_from_wal(
        self, base_records: Optional[Dict[int, Dict[str, Any]]] = None
    ) -> List[int]:
        """Rebuild server state after a simulated crash (uncharged).

        Loads the pre-crash snapshot (what the benchmark preloaded),
        replays every *committed* transaction from the WAL in commit
        order, and re-parks transactions whose log ends at PREPARE as
        in-doubt — pins held, writes unapplied — for the coordinator's
        :meth:`~repro.sharding.router.ShardRouter.resolve_in_doubt`
        to decide.  Absent a commit decision, they stay parked and
        recovery presumes abort.

        Returns the re-parked in-doubt txids in prepare order.
        """
        if self.wal is None:
            raise InvalidOperationError(
                "recover_from_wal requires a write-ahead log"
            )
        self.load_records(base_records or {})
        committed, parked = self.wal.recover()
        for _txid, operations in committed:
            self._install(_logged_writes(operations), self._next_txid())
        for txid, operations in parked:
            self._park(txid, _logged_writes(operations))
        recovered = [txid for txid, _operations in parked]
        if recovered:
            self._instr.count("netsim.recovery.in_doubt", len(recovered))
        return recovered

    def apply_wal_operations(self, operations: List[Any]) -> None:
        """Apply one shipped transaction's records (uncharged admin).

        The replication layer tails the primary's WAL and replays each
        committed transaction's PUT records here.  Versions mirror the
        *origin* txid — not this server's own commit sequence — so an
        optimistic read set built from replica replies validates at the
        primary exactly as if the records had been fetched there: a
        record the replica holds stale carries its stale version and
        conflicts honestly.  The local commit sequence is pulled up to
        the applied txid so post-promotion commits keep ascending.
        """
        writes = _logged_writes(operations)
        if writes:
            self._install(writes, operations[0].txid)

    def exists(self, uid: int) -> bool:
        """Key-existence probe (the server-side name-lookup index hit)."""
        with self._serve("exists"):
            self.stats.probes += 1
            self._charge(_PROBE_BYTES)
            return uid in self._records

    # ------------------------------------------------------------------
    # Server-evaluated queries
    # ------------------------------------------------------------------

    def range_query(self, attribute: str, low: int, high: int) -> List[int]:
        """Uids whose ``attribute`` lies in [low, high] (server-side).

        Charged one round trip plus uid-list transfer: the query runs
        at the server, only references come back — the design point
        R7 makes about letting the database do work remotely.
        """
        with self._serve("range_query"):
            self.stats.queries += 1
            result = [
                uid
                for uid, record in self._records.items()
                if low <= record[attribute] <= high
            ]
            self._reply_uids(len(result))
            return result

    def scan_structure(self, structure_id: int) -> List[int]:
        """All uids of one structure, in uid order (server-side scan)."""
        with self._serve("scan_structure"):
            self.stats.scans += 1
            result = sorted(
                uid
                for uid, record in self._records.items()
                if record["struct"] == structure_id
            )
            self._reply_uids(len(result))
            return result

    # ------------------------------------------------------------------
    # Named lists
    # ------------------------------------------------------------------

    def store_list(self, name: str, uids: List[int]) -> None:
        """Persist a named node list server-side."""
        with self._serve("store_list"):
            self.stats.stores += 1
            self._charge(_PROBE_BYTES + _UID_BYTES * len(uids))
            self._lists[name] = list(uids)

    def load_list(self, name: str) -> List[int]:
        """Load a named node list.

        Raises:
            NodeNotFoundError: for an unknown list name.
        """
        with self._serve("load_list"):
            self.stats.fetches += 1
            uids = self._lists.get(name)
            if uids is None:
                self._charge(_PROBE_BYTES)
                raise NodeNotFoundError(name)
            self._charge(_PROBE_BYTES + _UID_BYTES * len(uids))
            return list(uids)

    # ------------------------------------------------------------------
    # Introspection (not charged: administrative)
    # ------------------------------------------------------------------

    def count(self, structure_id: int) -> int:
        """Number of records in one structure (uncharged admin call)."""
        return sum(
            1 for r in self._records.values() if r["struct"] == structure_id
        )

    def export_records(self) -> Dict[int, Dict[str, Any]]:
        """A deep-enough copy of every record (uncharged admin call).

        The multi-user benchmark generates the structure once and
        preloads a fresh server per grid cell from this snapshot.
        """
        return {
            uid: copy_record(record)
            for uid, record in self._records.items()
        }

    def load_records(self, records: Dict[int, Dict[str, Any]]) -> None:
        """Replace server state from a snapshot (uncharged admin call).

        Versions reset to zero and the commit sequence restarts, so
        every preloaded cell of a benchmark grid starts from the same
        deterministic state.
        """
        self._records = {
            uid: copy_record(record) for uid, record in records.items()
        }
        self._sizes = {}
        self._lists = {}
        self._versions = {}
        self._commit_seq = 0
        self.last_reply_versions = {}
        self._prepared = {}
        self._pins = {}
        self._pin_writes = set()
        self._decided = {}

    def __contains__(self, uid: int) -> bool:
        return uid in self._records
