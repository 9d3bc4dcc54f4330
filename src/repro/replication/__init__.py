"""Read-scale replication: WAL shipping plus replica-routed reads.

The primary :class:`~repro.netsim.server.ObjectServer` logs every
commit to its write-ahead log; a :class:`~repro.replication.group.WalShipper`
tails that log through the VFS seam and replays committed transactions
onto N replica servers, each a plain ``ObjectServer`` with its own
transport lane.  A per-client
:class:`~repro.replication.router.ReplicaRouter` then routes the read
verb surface (``fetch``/``fetch_many``/``traverse``/``readahead``) to
replicas under a pluggable policy while every write still lands on the
primary, with read-your-writes enforced through session LSN tokens.
See ``docs/replication.md`` for the architecture and contracts.
"""

from repro.replication.group import ReplicationGroup, WalShipper
from repro.replication.router import ReplicaRouter

__all__ = [
    "ReplicationGroup",
    "WalShipper",
    "ReplicaRouter",
]
