"""The replica router: one client's read-scaled view of the group.

:class:`ReplicaRouter` presents the same verb surface as a single
:class:`~repro.netsim.server.ObjectServer`, so
:class:`~repro.backends.clientserver.ClientServerDatabase` plugs it in
as its ``server`` unchanged.  Behind the surface:

* **Reads** (``fetch``, ``fetch_many``, ``traverse``, ``readahead`` —
  the whole push-down surface) rotate round-robin over the replicas
  whose applied LSN has reached this client's **session LSN token** —
  the LSN of its last acknowledged write.  If no replica qualifies (fresh write, lagging
  replicas) the read falls back to the primary, so read-your-writes
  holds unconditionally while everything else enjoys bounded-staleness
  reads off the primary's lane.
* **Writes and everything non-read** (``store``, ``commit_batch``,
  probes, queries, named lists, participant verbs, admin) go to the
  primary; a successful write advances the session token to the LSN
  the commit shipped at.  None of these is spelled out here: they are
  forwarders generated from :mod:`repro.netsim.verbs`.

The router is **per client**: the session token and the round-robin
cursor are client state.  All routers share one
:class:`~repro.replication.group.ReplicationGroup`; a group
``generation`` bump (bulk load, failover promotion) invalidates every
outstanding session token on its next read.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.engine.wal import WriteAheadLog
from repro.netsim.server import ObjectServer
from repro.netsim.verbs import READ_VERBS, SERVED_VERBS, VerbRouter
from repro.obs import Instrumentation, resolve
from repro.replication.group import ReplicationGroup


class ReplicaRouter(VerbRouter):
    """Session-consistent read routing over a shared replication group.

    Args:
        group: the shared primary + replicas deployment.
        instrumentation: counter/span sink (defaults to the group's).
    """

    #: The whole charged surface delegates (``_route`` picks a replica
    #: for reads, the primary for everything else), as do the admin
    #: calls that are the primary's alone to answer.
    forwards = SERVED_VERBS + (
        "in_doubt",
        "recover_from_wal",
        "count",
        "export_records",
    )

    def __init__(
        self,
        group: ReplicationGroup,
        *,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        super().__init__(
            resolve(instrumentation)
            if instrumentation is not None
            else group.instrumentation
        )
        self.group = group
        #: LSN of this client's last acknowledged write; reads only
        #: route to replicas that have applied at least this much.
        self.session_lsn = 0
        #: Ablation switch: route every read to the primary as if no
        #: replica were ever eligible (the benchmark's primary-served
        #: comparison arm; never set in production paths).
        self.force_primary = False
        self._generation = group.generation
        self._rr = 0

    @property
    def clock(self):
        return self.group.clock

    @property
    def latency(self):
        return self.group.latency

    @property
    def wal(self) -> Optional[WriteAheadLog]:
        return self.group.wal

    def _servers(self) -> List[ObjectServer]:
        return [self.group.primary] + self.group.replicas

    def trace_lane_metadata(self) -> Dict[str, Dict[str, object]]:
        """Per-lane metadata for the Chrome trace export (the servers
        stamp ``primary``/``replica<i>`` tags on their spans)."""
        meta: Dict[str, Dict[str, object]] = {
            "primary": {
                "role": "primary",
                "replicas": self.group.config.replicas,
            }
        }
        for index in range(self.group.config.replicas):
            meta[f"replica{index}"] = {
                "role": "replica",
                "replicas": self.group.config.replicas,
            }
        return meta

    def subscribe(self, cache) -> None:
        self.group.subscribe(cache)

    def unsubscribe(self, cache) -> None:
        self.group.unsubscribe(cache)

    # ------------------------------------------------------------------
    # Routing policy
    # ------------------------------------------------------------------

    def _route(self, verb: str, args: tuple) -> ObjectServer:
        """Reads go to a replica; every other verb to the primary."""
        self._check_generation()
        if verb in READ_VERBS:
            return self._read_server()
        return self.group.primary

    def _acked(self, verb: str, result) -> None:
        """A write ack advances the session token to the LSN it shipped
        at: the primary's ``on_commit`` hook already polled the shipper,
        so ``primary_lsn`` is exactly this write's.  A commit that
        applied no record (lists only) shipped nothing and moves
        nothing."""
        if verb == "store" or (
            verb in ("commit_batch", "commit_prepared") and result
        ):
            self.session_lsn = self.group.shipper.primary_lsn

    def _check_generation(self) -> None:
        if self._generation != self.group.generation:
            # Bulk load or failover: the old token speaks a dead
            # epoch's LSNs; reset rather than compare across epochs.
            self._generation = self.group.generation
            self.session_lsn = 0
            self._rr = 0

    def _read_server(self) -> ObjectServer:
        """Pick the server for one read: an eligible replica, or the
        primary when none is fresh enough for the session token."""
        if self.force_primary:
            self.group.catch_up()
            self._instr.count("backend.replica.forced_primary")
            return self.group.primary
        states = self.group.eligible_replicas(self.session_lsn)
        if not states:
            self._instr.count("backend.replica.fallbacks")
            return self.group.primary
        state = states[self._rr % len(states)]
        self._rr += 1
        self._instr.count("backend.replica.reads")
        self._instr.count(f"backend.replica.{state.index}.reads")
        return state.server

    # ------------------------------------------------------------------
    # Administration the group answers as a whole
    # ------------------------------------------------------------------

    def load_records(self, records: Dict[int, Dict[str, Any]]) -> None:
        self.group.load_records(records)
        self._check_generation()

    def __contains__(self, uid: int) -> bool:
        return uid in self.group.primary
