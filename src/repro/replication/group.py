"""The server side of replication: WAL shipping onto replica stores.

Two pieces around a plain primary
:class:`~repro.netsim.server.ObjectServer` — whose every write verb
logs before it applies and then fires ``on_commit``, which the group
wires to a synchronous shipper poll: ship time is the commit's virtual
time, so staleness is deterministic.

* :class:`WalShipper` — tails the primary's log with the
  offset-resumable :meth:`~repro.engine.wal.WriteAheadLog.read_from`,
  never rescanning shipped bytes.  It frames BEGIN/PUT/COMMIT records
  into whole transactions (a partial transaction — torn tail, crash
  mid-append — never enters the shippable list, which is what makes
  replica apply atomic) and assigns each commit a monotonically
  increasing **LSN**, the unit of the read-your-writes contract.
* :class:`ReplicationGroup` — owns the shared virtual clock, the WAL
  (in-memory by default; crash drills swap in a
  :class:`~repro.engine.vfs.FaultInjectingVFS`), the primary, the
  replicas (each tagged ``replica<i>`` for its own trace lane) and the
  per-replica applied-LSN cursors.  :meth:`ReplicationGroup.catch_up`
  applies every shipped transaction whose
  ``ship_time + apply_lag_seconds`` has passed; :meth:`promote` is the
  failover drill's primary-crash path — the highest-applied-LSN
  replica drains what the surviving log holds and takes over.

Replica apply is *uncharged* admin (the shipping channel is not the
client's wire), but the applied records carry the **origin** commit's
txid as their version, so optimistic read sets built from replica
replies validate at the primary exactly as primary-served reads would.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.engine.vfs import MemoryVFS
from repro.engine.wal import (
    ABORT,
    BEGIN,
    COMMIT,
    LogRecord,
    PUT,
    WriteAheadLog,
)
from repro.errors import InvalidOperationError
from repro.netsim.config import ReplicationConfig
from repro.netsim.faults import FaultModel
from repro.netsim.latency import LatencyModel, SimulatedClock
from repro.netsim.server import ObjectServer
from repro.netsim.verbs import fan_out_transport
from repro.obs import Instrumentation, resolve


class WalShipper:
    """Offset-resumable tail reader over the primary's commit log.

    Each :meth:`poll` resumes exactly where the previous one stopped
    (no rescan of shipped bytes) and parses frames incrementally: a
    transaction whose COMMIT has not been read yet stays in a pending
    buffer across polls, and a transaction whose COMMIT never arrives
    (crash mid-append, torn tail) is never shipped at all.  Completed
    transactions get consecutive LSNs starting at 1 and remember the
    virtual time they were shipped, which is what a replica's bounded
    apply lag is measured against.
    """

    def __init__(self, wal: WriteAheadLog, clock: SimulatedClock) -> None:
        self.wal = wal
        self.clock = clock
        #: Shippable transactions: ``(lsn, ship_time, [PUT records])``.
        self.txns: List[Tuple[int, float, List[LogRecord]]] = []
        #: LSN of the newest shipped commit (== ``len(self.txns)``).
        self.primary_lsn = 0
        self._offset = 0
        self._pending: Dict[int, List[LogRecord]] = {}

    def poll(self, now: Optional[float] = None) -> int:
        """Tail the log; returns how many new commits became shippable."""
        ship_time = self.clock.now if now is None else now
        shipped = 0
        for record, end_offset in self.wal.read_from(self._offset):
            self._offset = end_offset
            kind = record.kind
            if kind == BEGIN:
                self._pending[record.txid] = []
            elif kind == PUT:
                self._pending.setdefault(record.txid, []).append(record)
            elif kind == COMMIT:
                operations = self._pending.pop(record.txid, [])
                self.primary_lsn += 1
                self.txns.append((self.primary_lsn, ship_time, operations))
                shipped += 1
            elif kind == ABORT:
                self._pending.pop(record.txid, None)
            # PREPARE/CHECKPOINT never appear on a replication primary's
            # log (2PC belongs to sharding; the group never checkpoints
            # a log replicas may still be draining).
        return shipped

    def rebase(self) -> None:
        """Forget everything and resume tailing at the current log end.

        Used when the group bulk-loads a snapshot: the snapshot reaches
        every server out of band, so history before it must not ship.
        """
        self.wal.sync(force=True)
        self._offset = self.wal.vfs.size(self.wal.path)
        self._pending.clear()
        self.txns.clear()
        self.primary_lsn = 0


class _ReplicaState:
    """One replica's shipping cursor (``applied_lsn`` indexes
    ``shipper.txns``: everything up to it has been applied)."""

    __slots__ = ("index", "server", "applied_lsn", "promoted")

    def __init__(self, index: int, server: ObjectServer) -> None:
        self.index = index
        self.server = server
        self.applied_lsn = 0
        self.promoted = False


class ReplicationGroup:
    """A primary, its WAL, N tailing replicas and their cursors.

    The group is the shared server-side deployment; each client wraps
    it in its own :class:`~repro.replication.router.ReplicaRouter`
    (the session LSN token is per-client state).  All timing is
    virtual: commits ship at their commit time, and a replica applies
    a commit once ``ship_time + apply_lag_seconds`` has passed on the
    shared clock, so staleness is deterministic and replayable.

    Args:
        config: replica count and apply lag.
        clock / latency / instrumentation / fault_model: as for
            :class:`~repro.netsim.server.ObjectServer`; the fault
            model applies to the primary only (replicas serve reads
            on their own lanes).
        vfs: filesystem for the primary's WAL — in-memory by default;
            the failover drill passes a
            :class:`~repro.engine.vfs.FaultInjectingVFS` so the
            primary can crash mid-commit.
    """

    def __init__(
        self,
        config: Optional[ReplicationConfig] = None,
        *,
        clock: Optional[SimulatedClock] = None,
        latency: Optional[LatencyModel] = None,
        instrumentation: Optional[Instrumentation] = None,
        fault_model: Optional[FaultModel] = None,
        vfs=None,
    ) -> None:
        self.config = config or ReplicationConfig()
        self.clock = clock or SimulatedClock()
        self.latency = latency or LatencyModel()
        self.instrumentation = resolve(instrumentation)
        self._instr = self.instrumentation
        self.vfs = vfs or MemoryVFS()
        self.wal = WriteAheadLog(
            "replication-primary.wal",
            instrumentation=instrumentation,
            vfs=self.vfs,
        )
        self.primary = ObjectServer(
            self.clock,
            latency,
            instrumentation=instrumentation,
            fault_model=fault_model,
            wal=self.wal,
            lane_tag="primary",
        )
        self.shipper = WalShipper(self.wal, self.clock)
        self.primary.on_commit = self._on_primary_commit
        self._states = [
            _ReplicaState(
                index,
                ObjectServer(
                    self.clock,
                    latency,
                    instrumentation=instrumentation,
                    lane_tag=f"replica{index}",
                ),
            )
            for index in range(self.config.replicas)
        ]
        #: Epoch counter: bumped by ``load_records`` and ``promote``.
        #: Routers compare it to invalidate stale session LSN tokens.
        self.generation = 0
        #: True once ``promote`` ran; reads route to the new primary
        #: only (nothing ships to the surviving replicas any more).
        self.failed_over = False
        self._caches: List[Any] = []
        for state in self._states:
            self._instr.gauge(
                f"backend.replica.{state.index}.applied_lsn",
                lambda s=state: float(s.applied_lsn),
            )
            self._instr.gauge(
                f"backend.replica.{state.index}.lag",
                lambda s=state: float(
                    self.shipper.primary_lsn - s.applied_lsn
                ),
            )

    # ------------------------------------------------------------------
    # Shipping and apply
    # ------------------------------------------------------------------

    def _on_primary_commit(self) -> None:
        # Synchronous poll at commit time: the shipper records the
        # commit's own virtual timestamp, making every replica's
        # visibility horizon (ship + lag) deterministic.
        self.shipper.poll(self.clock.now)

    @property
    def replicas(self) -> List[ObjectServer]:
        """The replica servers still serving as replicas."""
        return [s.server for s in self._states if not s.promoted]

    @property
    def applied_lsns(self) -> List[int]:
        """Applied LSN per replica, in replica-index order."""
        return [s.applied_lsn for s in self._states]

    @property
    def promoted_index(self) -> Optional[int]:
        """Index of the replica promoted to primary, or ``None``."""
        for state in self._states:
            if state.promoted:
                return state.index
        return None

    def catch_up(self, now: Optional[float] = None) -> None:
        """Apply every shipped commit whose visibility time has passed.

        Replicas apply strictly in LSN order; each transaction applies
        atomically (the shipper only ships complete transactions).
        """
        horizon = self.clock.now if now is None else now
        self.shipper.poll(horizon)
        lag = self.config.apply_lag_seconds
        txns = self.shipper.txns
        for state in self._states:
            if state.promoted:
                continue
            while state.applied_lsn < len(txns):
                lsn, ship_time, operations = txns[state.applied_lsn]
                if ship_time + lag > horizon:
                    break
                state.server.apply_wal_operations(operations)
                state.applied_lsn = lsn
                self._instr.count("backend.replica.applied_txns")

    def eligible_replicas(self, session_lsn: int) -> List[_ReplicaState]:
        """Replicas fresh enough for a client's session LSN token.

        Catches up first (apply is driven by reads — there is no
        background thread in virtual time).  After a failover nothing
        ships any more, so the answer is always empty and every read
        falls back to the (new) primary.
        """
        self.catch_up()
        if self.failed_over:
            return []
        return [
            state
            for state in self._states
            if not state.promoted and state.applied_lsn >= session_lsn
        ]

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------

    def promote(self) -> ObjectServer:
        """Primary crashed: promote the highest-applied-LSN replica.

        Drains whatever complete transactions the *surviving* log
        bytes hold (the log is readable after a simulated crash; a
        torn tail simply ends the scan) into every replica — promotion
        may wait for apply, so lag is waived — then the replica with
        the highest applied LSN (lowest index on ties) becomes the new
        primary: caches re-subscribe to it, routers observe the
        generation bump and re-route.

        The whole election runs inside a ``replication.failover`` span
        so the exported Chrome trace shows the failover gap.
        """
        if self.failed_over:
            raise InvalidOperationError("group already failed over")
        with self._instr.span("replication.failover"):
            self.shipper.poll(self.clock.now)
            txns = self.shipper.txns
            for state in self._states:
                while state.applied_lsn < len(txns):
                    lsn, _ship_time, operations = txns[state.applied_lsn]
                    state.server.apply_wal_operations(operations)
                    state.applied_lsn = lsn
            winner = max(
                self._states, key=lambda s: (s.applied_lsn, -s.index)
            )
            winner.promoted = True
            old_primary = self.primary
            self.primary = winner.server
            for cache in self._caches:
                old_primary.unsubscribe(cache)
                winner.server.subscribe(cache)
            self.failed_over = True
            self.generation += 1
            self._instr.count("backend.replica.promotions")
            self._instr.set_gauge(
                "backend.replica.promoted_index", float(winner.index)
            )
        return winner.server

    # ------------------------------------------------------------------
    # Administration (uncharged)
    # ------------------------------------------------------------------

    def subscribe(self, cache) -> None:
        """Caches subscribe to the primary only — that is where every
        invalidating write lands (replica apply is not a client write).
        The group remembers them so a promotion can re-subscribe."""
        self._caches.append(cache)
        self.primary.subscribe(cache)

    def unsubscribe(self, cache) -> None:
        if cache in self._caches:
            self._caches.remove(cache)
        self.primary.unsubscribe(cache)

    def load_records(self, records: Dict[int, Dict[str, Any]]) -> None:
        """Load one snapshot into the primary *and* every replica.

        The snapshot travels out of band (it is the benchmark loader's
        admin path), so the shipper rebases past any log history and
        the generation bump resets every router's session token.
        """
        self.primary.load_records(records)
        for state in self._states:
            state.server.load_records(records)
            state.applied_lsn = 0
        self.shipper.rebase()
        self.generation += 1

    def use_transport(self, transport):
        """Swap charge transports on the primary and every replica.

        Accepts one transport (everything behind one NIC) or
        ``1 + replicas`` lanes — ``[primary, replica0, replica1, …]``,
        see :func:`repro.netsim.sim.replica_lanes`.
        """
        return fan_out_transport([self.primary] + self.replicas, transport)
