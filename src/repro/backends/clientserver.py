"""The client/server backend: a workstation cache over a remote server.

This backend realizes the R6 architecture the paper's protocol was
written for: node records live on an
:class:`~repro.netsim.server.ObjectServer`; the workstation keeps an
LRU :class:`~repro.netsim.cache.WorkstationCache` of fetched records
and a private write buffer of modified ones.  Reads hit the cache or
pay a simulated network fetch; :meth:`commit` uploads dirty records;
:meth:`close` clears the workstation cache (but not the server), which
is why the next operation sequence runs cold — the exact behaviour the
section 5.3 protocol measures.

Network time accrues on a virtual clock (see
:mod:`repro.netsim.latency`); the harness adds the clock delta to wall
time, so reported figures combine compute and simulated communication.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.bitmap import Bitmap
from repro.core.interface import HyperModelDatabase, NodeRef
from repro.core.model import LinkAttributes, NodeData, NodeKind
from repro.core.schema import MUTABLE_ATTRIBUTES
from repro.netsim.cache import WorkstationCache
from repro.netsim.config import NetworkConfig
from repro.netsim.latency import SimulatedClock
from repro.netsim.server import ObjectServer, copy_record
from repro.obs import Instrumentation, TraceContext, resolve
from repro.replication.group import ReplicationGroup
from repro.replication.router import ReplicaRouter
from repro.sharding.router import ShardRouter
from repro.errors import (
    CommitConflictError,
    DatabaseClosedError,
    InvalidOperationError,
    NetworkError,
    NodeNotFoundError,
    RpcExhaustedError,
)

_KIND_NAMES = {
    NodeKind.NODE: "node",
    NodeKind.TEXT: "text",
    NodeKind.FORM: "form",
}
_NAMES_KIND = {name: kind for kind, name in _KIND_NAMES.items()}


def _new_record(data: NodeData) -> Dict[str, Any]:
    record: Dict[str, Any] = {
        "uid": data.unique_id,
        "kind": _KIND_NAMES[data.kind],
        "ten": data.ten,
        "hundred": data.hundred,
        "million": data.million,
        "struct": data.structure_id,
        "children": [],
        "parent": 0,
        "parts": [],
        "partOf": [],
        "refTo": [],
        "refFrom": [],
    }
    if data.kind is NodeKind.TEXT:
        record["text"] = data.text
    elif data.kind is NodeKind.FORM:
        record["width"] = data.bitmap.width
        record["height"] = data.bitmap.height
        record["bits"] = data.bitmap.to_bytes()
    return record


class ClientServerDatabase(HyperModelDatabase):
    """A HyperModel database accessed through a simulated network.

    Configuration lives in one typed
    :class:`~repro.netsim.config.NetworkConfig` — latency and fault
    models, cache size, retry policy, push-down/readahead, and the
    concurrency mode (plain stores vs optimistic validation at
    commit).

    Args:
        path: unused (registry signature compatibility); the server
            lives in process memory and survives close/open.
        network: the typed network/cache/retry/concurrency settings
            (defaults to ``NetworkConfig()``).
        server: share an existing server between several client
            handles (the multi-user scenario).  A shared server keeps
            its own latency/fault models.
        instrumentation: counter/span/histogram sink.
        clock: the virtual clock this client's time (RPC latency
            histograms, retry backoff) is charged to.  Defaults to
            the server's clock — correct for a single client; the
            discrete-event scheduler gives each workstation its own.
        client_id: stable identity tag (``w00``, ...) carried on RPC
            spans and in trace contexts so multi-client traces stay
            attributable per client.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        network: Optional[NetworkConfig] = None,
        *,
        server: Optional[ObjectServer] = None,
        instrumentation: Optional[Instrumentation] = None,
        clock: Optional[SimulatedClock] = None,
        client_id: Optional[str] = None,
    ) -> None:
        network = network or NetworkConfig()
        self.network = network
        self.client_id = client_id
        self.pushdown = bool(network.pushdown)
        self.readahead_depth = network.readahead_depth
        self.rpc_retries = network.rpc_retries
        self.rpc_backoff_seconds = network.rpc_backoff_seconds
        self.optimistic = network.concurrency == "optimistic"
        self.instrumentation = resolve(instrumentation)
        sharding = network.sharding
        replication = network.replication
        if server is not None:
            self.simulated_clock = clock or server.clock
            if isinstance(server, ReplicationGroup):
                # Shared replication deployment: every client wraps the
                # group in its *own* router — the session LSN token and
                # the round-robin cursor are per-client state.
                self.server = ReplicaRouter(
                    server,
                    policy=(replication or server.config).policy,
                    instrumentation=self.instrumentation,
                )
            else:
                self.server = server
        elif replication is not None:
            # Private 1-primary + N-replica deployment; the router
            # presents the ObjectServer verb surface, so everything
            # below this branch is identical code either way.
            self.simulated_clock = clock or SimulatedClock()
            group = ReplicationGroup(
                replication,
                clock=self.simulated_clock,
                latency=network.latency,
                instrumentation=self.instrumentation,
                fault_model=network.fault_model,
            )
            self.server = ReplicaRouter(
                group,
                policy=replication.policy,
                instrumentation=self.instrumentation,
            )
        elif sharding is not None and sharding.shards > 1:
            # N-server deployment: the router presents the ObjectServer
            # verb surface, so everything below this branch — cache,
            # retries, trace propagation, commit protocol selection —
            # is identical code either way.
            self.simulated_clock = clock or SimulatedClock()
            self.server = ShardRouter(
                sharding,
                clock=self.simulated_clock,
                latency=network.latency,
                instrumentation=self.instrumentation,
                fault_model=network.fault_model,
                rpc_retries=network.rpc_retries,
                rpc_backoff_seconds=network.rpc_backoff_seconds,
            )
        else:
            self.simulated_clock = clock or SimulatedClock()
            self.server = ObjectServer(
                self.simulated_clock,
                network.latency,
                instrumentation=self.instrumentation,
                fault_model=network.fault_model,
            )
        self.cache = WorkstationCache(
            network.cache_capacity,
            instrumentation=self.instrumentation,
            name=client_id,
        )
        self.server.subscribe(self.cache)  # coherence invalidations
        self._local: Dict[int, Dict[str, Any]] = {}  # dirty write buffer
        self._local_lists: Dict[str, List[int]] = {}
        #: Optimistic bookkeeping: the freshest version this client has
        #: observed per uid, and the versions pinned by this
        #: transaction's first read of each uid (the read set).
        self._versions_seen: Dict[int, int] = {}
        self._txn_reads: Dict[int, int] = {}
        self._open = False

    # -- lifecycle -------------------------------------------------------

    def open(self) -> None:
        self._open = True

    def close(self) -> None:
        """Commit pending work and drop the workstation cache.

        The server keeps its data — reopening starts cold, per the
        section 5.3(e) protocol step.
        """
        if not self._open:
            return
        self.commit()
        self.cache.clear()
        self.cache.stats.reset()
        self._open = False

    def commit(self) -> None:
        """Publish this transaction's writes to the server.

        In the default mode every dirty record is uploaded with a
        last-writer-wins ``store`` (the single-user behaviour).  In
        optimistic mode (``NetworkConfig(concurrency="optimistic")``)
        the whole write set plus the transaction's read-set versions
        ship in **one** ``commit_batch`` request; the server validates
        first-committer-wins and either applies everything atomically
        or raises :class:`~repro.errors.CommitConflictError`, in which
        case this transaction's work is discarded, the stale cached
        copies are invalidated, and the caller decides whether to
        retry the transaction from the top.

        Either way, other clients' caches are invalidated for each
        published record (the server's coherence broadcast), so
        updates become visible everywhere on the next access.
        """
        self._require_open()
        if self.optimistic:
            self._commit_optimistic()
            return
        for uid, record in self._local.items():
            # A faulted store is retried by _rpc; the server raises the
            # fault before touching state, so the retry is idempotent.
            self._rpc(self.server.store, uid, record, from_cache=self.cache)
            self.cache.put(uid, record)
        self._local.clear()
        for name, uids in self._local_lists.items():
            self._rpc(self.server.store_list, name, uids)
        self._local_lists.clear()
        self._txn_reads.clear()

    def _commit_optimistic(self) -> None:
        """One validated ``commit_batch`` round trip (or a no-op)."""
        instr = self.instrumentation
        if not self._local and not self._local_lists:
            # A read-only transaction commits trivially: nothing to
            # validate against, nothing to ship.  The read set still
            # resets — the next transaction pins fresh versions.
            self._txn_reads.clear()
            return
        instr.count("backend.mp.commit.attempts")
        try:
            applied = self._rpc(
                self.server.commit_batch,
                self._local,
                self._txn_reads,
                self._local_lists,
                from_cache=self.cache,
            )
        except CommitConflictError as exc:
            # First-committer-wins: this transaction lost.  Drop its
            # work and the stale cached copies so a retry re-reads
            # current versions from the server.
            for uid in exc.conflicts:
                self.cache.invalidate(uid)
                self._versions_seen.pop(uid, None)
            self._local.clear()
            self._local_lists.clear()
            self._txn_reads.clear()
            raise
        for uid, version in applied.items():
            self._versions_seen[uid] = version
        for uid, record in self._local.items():
            self.cache.put(uid, record)
        self._local.clear()
        self._local_lists.clear()
        self._txn_reads.clear()

    def abort(self) -> None:
        """Discard the local write buffer (and the read set)."""
        self._local.clear()
        self._local_lists.clear()
        self._txn_reads.clear()

    @property
    def is_open(self) -> bool:
        return self._open

    def _require_open(self) -> None:
        if not self._open:
            raise DatabaseClosedError("client/server database is not open")

    # -- fault-tolerant RPC ----------------------------------------------

    def _rpc(self, func, *args, **kwargs):
        """Issue one server request with bounded retry and backoff.

        A request faulted by the server's
        :class:`~repro.netsim.faults.FaultModel` raises a
        :class:`~repro.errors.NetworkError`; this wrapper retries it up
        to ``rpc_retries`` times, charging an exponential backoff delay
        (``rpc_backoff_seconds`` doubling per attempt) to the simulated
        clock before each retry and counting every actual retry under
        ``backend.rpc.retries``.  When the budget runs out the last
        fault is wrapped in :class:`~repro.errors.RpcExhaustedError`.

        Observability per **attempt** (retries included, so faulted
        attempts are visible in traces and tails):

        * a client span ``rpc.<verb>`` is opened around the request;
        * the span's :class:`~repro.obs.TraceContext` (trace id + span
          sequence) rides in the request envelope — the server records
          its own span with a remote-parent link back to it;
        * the attempt's latency (wall + simulated network delta) lands
          in the ``backend.rpc.call`` histogram, in milliseconds.

        Application-level errors (``NodeNotFoundError`` and friends)
        are not network faults and propagate untouched.
        """
        attempt = 0
        instr = self.instrumentation
        clock = self.simulated_clock
        verb = getattr(func, "__name__", "call")
        span_name = "rpc." + verb
        while True:
            fault = None
            result = None
            span = instr.span(span_name, client=self.client_id)
            wall_start = time.perf_counter()
            sim_start = clock.now
            try:
                with span:
                    if instr.enabled:
                        # The request envelope: client span id + trace
                        # id, consumed by the server's next request.
                        self.server.accept_trace_context(
                            TraceContext(
                                instr.trace_id,
                                span.sequence,
                                client_id=self.client_id,
                            )
                        )
                    result = func(*args, **kwargs)
            except NetworkError as exc:
                fault = exc
            finally:
                instr.observe(
                    "backend.rpc.call",
                    (
                        (time.perf_counter() - wall_start)
                        + (clock.now - sim_start)
                    )
                    * 1000.0,
                )
            if fault is None:
                if self.optimistic:
                    # Version stamps of the records this reply carried
                    # (the in-process stand-in for per-record version
                    # fields a real wire format would embed).
                    self._versions_seen.update(
                        self.server.take_reply_versions()
                    )
                return result
            if attempt >= self.rpc_retries:
                raise RpcExhaustedError(
                    f"request still failing after {attempt} retries:"
                    f" {fault}"
                ) from fault
            backoff = self.rpc_backoff_seconds * (2 ** attempt)
            if backoff:
                clock.advance(backoff)
                instr.count("backend.rpc.backoff_ms", backoff * 1000.0)
            attempt += 1
            instr.count("backend.rpc.retries")

    # -- record access ------------------------------------------------------

    def _admit(self, reply: Dict[int, Dict[str, Any]]) -> None:
        """Bulk-admit a record-carrying server reply into the cache.

        Admission is in **server-reply order** (BFS order for the
        push-down verbs) through :meth:`WorkstationCache.put_many`, so
        eviction runs once per reply instead of once per record.
        """
        instr = self.instrumentation
        evicted = self.cache.put_many(reply.items())
        instr.count("cache.readahead.admitted", len(reply))
        if evicted:
            instr.count("cache.readahead.evicted", evicted)

    def _pin_read(self, uid: int) -> None:
        """Pin a uid's first-read version into the transaction read set.

        ``setdefault`` keeps the *first* observed version: optimistic
        validation must check against what the transaction actually
        based its work on, not a later refresh.
        """
        if self.optimistic:
            self._txn_reads.setdefault(uid, self._versions_seen.get(uid, 0))

    def _fetch(self, uid: int) -> Dict[str, Any]:
        """Read a record: write buffer, then cache, then the network.

        With ``pushdown`` enabled the network leg is a **structural
        readahead**: the same single round trip that fetches the record
        also ships ``readahead_depth`` levels of its subtree/part
        graph, speculatively warming the cache for the navigation that
        a first touch almost always precedes.
        """
        record = self._local.get(uid)
        if record is not None:
            return record
        record = self.cache.get(uid)
        if record is not None:
            self._pin_read(uid)
            return record
        if self.pushdown and self.readahead_depth > 0:
            self.instrumentation.count("cache.readahead.requests")
            reply = self._rpc(
                self.server.readahead,
                [uid],
                depth=self.readahead_depth,
                limit=self.cache.capacity,
            )  # one round trip, records in BFS order
            record = reply.get(uid)
            if record is None:
                raise NodeNotFoundError(uid)
            self._admit(reply)
            self._pin_read(uid)
            return record
        record = self._rpc(self.server.fetch, uid)  # charges the clock
        self.cache.put(uid, record)
        self._pin_read(uid)
        return record

    def _fetch_many(self, uids: Sequence[int]) -> Dict[int, Dict[str, Any]]:
        """Read a batch of records with **at most one** round trip.

        Resolution order matches :meth:`_fetch` per uid — write buffer,
        then workstation cache, then the network — but the network leg
        collapses to a single batch RPC carrying only the refs the
        first two layers missed (a partial cache hit ships the misses
        alone, see :meth:`WorkstationCache.get_many`).
        """
        records: Dict[int, Dict[str, Any]] = {}
        remaining: list = []
        seen = set()
        for uid in uids:
            if uid in seen:
                continue
            seen.add(uid)
            local = self._local.get(uid)
            if local is not None:
                records[uid] = local
            else:
                remaining.append(uid)
        if remaining:
            found, missing = self.cache.get_many(remaining)
            records.update(found)
            if missing:
                fetched = self._rpc(
                    self.server.fetch_many, missing
                )  # one round trip
                self.cache.put_many(fetched.items())  # server-reply order
                records.update(fetched)
            if self.optimistic:
                for uid in remaining:
                    self._pin_read(uid)
        return records

    # -- closure push-down ------------------------------------------------

    def prefetch_closure(
        self,
        root: NodeRef,
        relation: str,
        depth: Optional[int] = None,
    ) -> bool:
        """Push a closure traversal down to the server.

        One ``traverse`` RPC runs the BFS server-side and returns every
        reachable record in a single size-charged reply, which is
        bulk-admitted into the workstation cache — the closure replay
        that follows then resolves every frontier locally, so a cold
        closure costs **one** round trip instead of one per level.

        The verb is a *hint*: it returns ``False`` (and the caller
        falls back to frontier BFS) when push-down is disabled, and it
        is skipped entirely when the root is already locally resident —
        a warm pass must stay at zero round trips.  Replies are capped
        at the cache capacity server-side, so a traversal larger than
        the cache admits a coherent BFS prefix and leaves the tail to
        the per-level path.
        """
        self._require_open()
        if not self.pushdown:
            return False
        instr = self.instrumentation
        if root in self._local or root in self.cache:
            # Locally resident root: the replay will hit the cache (or
            # fall back per level for the un-cached tail); a push-down
            # here would turn a zero-RPC warm pass into one RPC.
            instr.count("backend.rpc.pushdown.skipped_warm")
            return False
        reply = self._rpc(
            self.server.traverse,
            root,
            relation,
            direction="forward",
            depth=depth,
            with_records=True,
            limit=self.cache.capacity,
        )  # one round trip for the whole closure
        instr.count("backend.rpc.pushdown.calls")
        instr.count("backend.rpc.pushdown.objects", len(reply))
        self._admit(reply)
        return True

    def _fetch_for_write(self, uid: int) -> Dict[str, Any]:
        """Read a record and move a private copy into the write buffer."""
        record = self._local.get(uid)
        if record is not None:
            return record
        record = copy_record(self._fetch(uid))
        self._local[uid] = record
        return record

    # -- creation ---------------------------------------------------------

    def create_node(self, data: NodeData) -> NodeRef:
        self._require_open()
        uid = data.unique_id
        if uid in self._local or uid in self.cache or uid in self.server:
            raise InvalidOperationError(f"duplicate uniqueId {uid}")
        # Creation reads "uid absent" (version 0): a concurrent creator
        # of the same uid then conflicts at optimistic commit.
        self._pin_read(uid)
        self._local[uid] = _new_record(data)
        return uid

    def add_child(self, parent: NodeRef, child: NodeRef) -> None:
        self._require_open()
        child_record = self._fetch_for_write(child)
        if child_record["parent"]:
            raise InvalidOperationError(f"node {child} already has a parent")
        parent_record = self._fetch_for_write(parent)
        parent_record["children"].append(child)
        child_record["parent"] = parent

    def add_part(self, whole: NodeRef, part: NodeRef) -> None:
        self._require_open()
        self._fetch_for_write(whole)["parts"].append(part)
        self._fetch_for_write(part)["partOf"].append(whole)

    def add_reference(
        self, source: NodeRef, target: NodeRef, attrs: LinkAttributes
    ) -> None:
        self._require_open()
        self._fetch_for_write(source)["refTo"].append(
            [target, attrs.offset_from, attrs.offset_to]
        )
        self._fetch_for_write(target)["refFrom"].append(source)

    # -- identity ---------------------------------------------------------

    def lookup(self, unique_id: int) -> NodeRef:
        """Key lookup: a server index probe unless locally known."""
        self._require_open()
        if unique_id in self._local or unique_id in self.cache:
            return unique_id
        if not self._rpc(self.server.exists, unique_id):  # one round trip
            raise NodeNotFoundError(unique_id)
        return unique_id

    def get_attribute(self, ref: NodeRef, name: str) -> int:
        self._require_open()
        if name == "uniqueId":
            name = "uid"
        elif name not in MUTABLE_ATTRIBUTES:
            raise KeyError(f"unknown node attribute {name!r}")
        return self._fetch(ref)[name]

    def _set_attribute(self, ref: NodeRef, name: str, value: int) -> None:
        self._require_open()
        self._fetch_for_write(ref)[name] = value

    def kind_of(self, ref: NodeRef) -> NodeKind:
        self._require_open()
        return _NAMES_KIND[self._fetch(ref)["kind"]]

    def structure_of(self, ref: NodeRef) -> int:
        self._require_open()
        return self._fetch(ref)["struct"]

    # -- range lookups ----------------------------------------------------

    def _merged_range(self, attribute: str, low: int, high: int) -> List[NodeRef]:
        """Server-side range query corrected by local dirty records."""
        result = self._rpc(self.server.range_query, attribute, low, high)
        if not self._local:
            return result
        dirty = set(self._local)
        merged = [uid for uid in result if uid not in dirty]
        merged += [
            uid
            for uid, record in self._local.items()
            if low <= record[attribute] <= high
        ]
        return merged

    def range_hundred(self, low: int, high: int) -> List[NodeRef]:
        self._require_open()
        return self._merged_range("hundred", low, high)

    def range_million(self, low: int, high: int) -> List[NodeRef]:
        self._require_open()
        return self._merged_range("million", low, high)

    # -- forward traversal -------------------------------------------------

    def children(self, ref: NodeRef) -> List[NodeRef]:
        self._require_open()
        return list(self._fetch(ref)["children"])

    def parts(self, ref: NodeRef) -> List[NodeRef]:
        self._require_open()
        return list(self._fetch(ref)["parts"])

    def refs_to(self, ref: NodeRef) -> List[Tuple[NodeRef, LinkAttributes]]:
        self._require_open()
        return [
            (dst, LinkAttributes(offset_from, offset_to))
            for dst, offset_from, offset_to in self._fetch(ref)["refTo"]
        ]

    # -- batched navigation ----------------------------------------------------

    def _count_batch(self, refs: Sequence[NodeRef]) -> None:
        self.instrumentation.count("backend.batch.calls")
        self.instrumentation.count("backend.batch.items", len(refs))

    def children_many(self, refs: Sequence[NodeRef]) -> List[List[NodeRef]]:
        self._require_open()
        if not refs:
            return []
        self._count_batch(refs)
        records = self._fetch_many(refs)
        return [list(records[ref]["children"]) for ref in refs]

    def parts_many(self, refs: Sequence[NodeRef]) -> List[List[NodeRef]]:
        self._require_open()
        if not refs:
            return []
        self._count_batch(refs)
        records = self._fetch_many(refs)
        return [list(records[ref]["parts"]) for ref in refs]

    def refs_to_many(
        self, refs: Sequence[NodeRef]
    ) -> List[List[Tuple[NodeRef, LinkAttributes]]]:
        self._require_open()
        if not refs:
            return []
        self._count_batch(refs)
        records = self._fetch_many(refs)
        return [
            [
                (dst, LinkAttributes(offset_from, offset_to))
                for dst, offset_from, offset_to in records[ref]["refTo"]
            ]
            for ref in refs
        ]

    def get_attributes_many(
        self, refs: Sequence[NodeRef], name: str
    ) -> List[int]:
        self._require_open()
        if name == "uniqueId":
            name = "uid"
        elif name not in MUTABLE_ATTRIBUTES:
            raise KeyError(f"unknown node attribute {name!r}")
        if not refs:
            return []
        self._count_batch(refs)
        records = self._fetch_many(refs)
        return [records[ref][name] for ref in refs]

    # -- inverse traversal ---------------------------------------------------

    def parent(self, ref: NodeRef) -> Optional[NodeRef]:
        self._require_open()
        return self._fetch(ref)["parent"] or None

    def part_of(self, ref: NodeRef) -> List[NodeRef]:
        self._require_open()
        return list(self._fetch(ref)["partOf"])

    def refs_from(self, ref: NodeRef) -> List[NodeRef]:
        self._require_open()
        return list(self._fetch(ref)["refFrom"])

    # -- scan ------------------------------------------------------------------

    def scan_ten(self, structure_id: int = 1) -> int:
        """Server-side scan: references come back, ``ten`` is read
        through the cache (faulting at most once per node)."""
        self._require_open()
        uids = self._rpc(self.server.scan_structure, structure_id)
        dirty_extra = [
            uid
            for uid, record in self._local.items()
            if record["struct"] == structure_id and uid not in set(uids)
        ]
        count = 0
        for uid in list(uids) + dirty_extra:
            _ = self._fetch(uid)["ten"]
            count += 1
        return count

    def iter_nodes(self, structure_id: int = 1) -> Iterator[NodeRef]:
        self._require_open()
        seen = set()
        for uid in self._rpc(self.server.scan_structure, structure_id):
            seen.add(uid)
            yield uid
        for uid, record in self._local.items():
            if record["struct"] == structure_id and uid not in seen:
                yield uid

    # -- content -----------------------------------------------------------------

    def get_text(self, ref: NodeRef) -> str:
        self._require_open()
        record = self._fetch(ref)
        if record["kind"] != "text":
            raise InvalidOperationError(f"node {ref} is not a text node")
        return record["text"]

    def set_text(self, ref: NodeRef, text: str) -> None:
        self._require_open()
        record = self._fetch_for_write(ref)
        if record["kind"] != "text":
            raise InvalidOperationError(f"node {ref} is not a text node")
        record["text"] = text

    def get_bitmap(self, ref: NodeRef) -> Bitmap:
        self._require_open()
        record = self._fetch(ref)
        if record["kind"] != "form":
            raise InvalidOperationError(f"node {ref} is not a form node")
        return Bitmap.from_bytes(record["width"], record["height"], record["bits"])

    def set_bitmap(self, ref: NodeRef, bitmap: Bitmap) -> None:
        self._require_open()
        record = self._fetch_for_write(ref)
        if record["kind"] != "form":
            raise InvalidOperationError(f"node {ref} is not a form node")
        record["width"] = bitmap.width
        record["height"] = bitmap.height
        record["bits"] = bitmap.to_bytes()

    # -- result lists ----------------------------------------------------------------

    def store_node_list(self, name: str, refs: Sequence[NodeRef]) -> None:
        self._require_open()
        self._local_lists[name] = [int(r) for r in refs]

    def load_node_list(self, name: str) -> List[NodeRef]:
        self._require_open()
        if name in self._local_lists:
            return list(self._local_lists[name])
        return self._rpc(self.server.load_list, name)

    # -- introspection ------------------------------------------------------------------

    def node_count(self, structure_id: int = 1) -> int:
        self._require_open()
        committed = self.server.count(structure_id)
        extra = sum(
            1
            for uid, record in self._local.items()
            if record["struct"] == structure_id and uid not in self.server
        )
        return committed + extra

    backend_name = "clientserver"
