"""The server verb surface, written down once.

:class:`~repro.netsim.server.ObjectServer` answers the verbs below;
:class:`~repro.sharding.router.ShardRouter` and
:class:`~repro.replication.router.ReplicaRouter` present the same
surface so :class:`~repro.backends.clientserver.ClientServerDatabase`
plugs either in as its ``server`` unchanged.  The role tuples say what
each verb *is*; :class:`VerbRouter` owns what every router does the
same way — the trace envelope, the reply-version side channel, the
per-server call, the stats sum, the transport fan-out — and generates
a delegating forwarder for every verb a router lists in ``forwards``.
A router is then only its routing policy (``_route``) plus the verbs
it genuinely re-implements (scatter-gather, 2PC, partitioning).

``tests/test_netsim.py`` pins the table to ``ObjectServer``'s actual
methods and ``scripts/lint_verb_surface.py`` keeps routers inside it.
"""

from __future__ import annotations

import contextlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import InvalidOperationError
from repro.netsim.server import ObjectServer, ServerStats
from repro.obs import Instrumentation, TraceContext

#: Record-carrying reads — what a replica may serve.
READ_VERBS = ("fetch", "fetch_many", "traverse", "readahead")
#: Record writes: logged before applied, versioned, broadcast.
WRITE_VERBS = ("store", "commit_batch")
#: Probes, server-evaluated queries and named lists: reference-only
#: traffic that never touches a record version.
QUERY_VERBS = (
    "exists",
    "range_query",
    "scan_structure",
    "store_list",
    "load_list",
)
#: What a coordinator sends one participant: the shard-local rounds of
#: a scattered closure and the two phases of a cross-shard commit.
PARTICIPANT_VERBS = (
    "traverse_shard",
    "readahead_shard",
    "prepare_batch",
    "commit_prepared",
    "abort_prepared",
)
#: Every charged verb: one round trip, one ``server.<request>`` span.
SERVED_VERBS = READ_VERBS + WRITE_VERBS + QUERY_VERBS + PARTICIPANT_VERBS
#: Uncharged administration (loaders, recovery, replica apply).
ADMIN_VERBS = (
    "in_doubt",
    "recover_from_wal",
    "apply_wal_operations",
    "count",
    "export_records",
    "load_records",
)
#: The envelope around the verbs that client and scheduler drive.
PLUMBING = (
    "accept_trace_context",
    "take_reply_versions",
    "subscribe",
    "unsubscribe",
    "use_transport",
)


@contextlib.contextmanager
def fan_out_transport(servers: Sequence[ObjectServer], transport):
    """Swap charge transports on several servers at once.

    Accepts one transport (the whole deployment behind one NIC), a
    sequence with one lane per server, or a bundle exposing such a
    sequence as ``.lanes`` (:class:`~repro.netsim.sim.LaneGroup`).
    """
    lanes = getattr(transport, "lanes", transport)
    if not isinstance(lanes, (list, tuple)):
        lanes = [lanes] * len(servers)
    if len(lanes) != len(servers):
        raise InvalidOperationError(
            f"{len(lanes)} transports for {len(servers)} servers"
        )
    with contextlib.ExitStack() as stack:
        for server, lane in zip(servers, lanes):
            stack.enter_context(server.use_transport(lane))
        yield list(lanes)


def _forwarder(verb: str):
    if verb in ADMIN_VERBS:

        def forward(self, *args, **kwargs):
            return getattr(self._route(verb, args), verb)(*args, **kwargs)

    else:

        def forward(self, *args, **kwargs):
            server = self._route(verb, args)
            result = self._call(server, verb, *args, **kwargs)
            self._acked(verb, result)
            return result

    # The client names its ``rpc.<verb>`` spans from ``__name__``.
    forward.__name__ = verb
    forward.__qualname__ = f"VerbRouter.{verb}"
    forward.__doc__ = (
        f"Forward ``{verb}`` to the server ``_route`` names (see"
        f" :meth:`repro.netsim.server.ObjectServer.{verb}`)."
    )
    return forward


class VerbRouter:
    """What every router over several object servers does alike.

    Subclasses provide ``_servers()`` (every live server, for stats
    and transports) and ``_route(verb, args)`` (the one server a
    forwarded verb goes to), list the verbs they merely delegate in
    ``forwards``, and may override ``_acked(verb, result)`` to observe
    a forwarded verb's successful reply.
    """

    #: Verbs answered by a generated forwarder: route, call, ack.
    forwards: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for verb in cls.forwards:
            setattr(cls, verb, _forwarder(verb))

    def __init__(self, instrumentation: Instrumentation) -> None:
        self.instrumentation = instrumentation
        self._instr = instrumentation
        self._pending_trace: Optional[TraceContext] = None
        self._reply_versions: Dict[int, int] = {}

    def _servers(self) -> List[ObjectServer]:
        raise NotImplementedError

    def _route(self, verb: str, args: tuple) -> ObjectServer:
        raise NotImplementedError

    def _acked(self, verb: str, result) -> None:
        """A forwarded verb returned ``result`` (default: nothing)."""

    def accept_trace_context(self, context: Optional[TraceContext]) -> None:
        """Stash the caller's trace context for this verb's requests.

        Unlike the single server (one request, one context), a router
        verb may issue several server requests; each inherits the same
        client context, so a fan-out appears as sibling server spans
        under one client RPC span.
        """
        self._pending_trace = context

    def take_reply_versions(self) -> Dict[int, int]:
        """Version stamps accumulated across this verb's replies.

        Stamps from different servers never disagree: a uid has one
        owning shard, and replica stamps are the origin commit txids
        (apply mirrors them), so a read set mixing replica- and
        primary-served reads validates consistently at the primary.
        """
        versions = self._reply_versions
        self._reply_versions = {}
        return versions

    def _call(self, server: ObjectServer, verb: str, *args, **kwargs):
        """One server request carrying the verb's trace context."""
        server.accept_trace_context(self._pending_trace)
        result = getattr(server, verb)(*args, **kwargs)
        self._reply_versions.update(server.take_reply_versions())
        return result

    @property
    def stats(self) -> ServerStats:
        """Aggregated request counters across all servers (read-only)."""
        return ServerStats.total(s.stats for s in self._servers())

    def use_transport(self, transport):
        """Swap charge transports on every server at once (see
        :func:`fan_out_transport` for the accepted shapes)."""
        return fan_out_transport(self._servers(), transport)
