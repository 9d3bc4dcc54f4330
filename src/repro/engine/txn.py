"""The write set of a store handle's implicit transaction.

:class:`~repro.engine.store.ObjectStore` states the contract (one
handle, one thread, one implicit transaction); a :class:`Transaction`
is only the writes it buffers until commit (deferred update).
Concurrency control is the network server's optimistic
first-committer-wins, and :func:`stale_reads` is its kernel.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Set

#: Sentinel distinguishing "buffered delete" from "not buffered".
DELETED = object()


def stale_reads(
    reads: Mapping[int, int], version_of: Callable[[int], int]
) -> List[int]:
    """The read-set entries whose pinned version is no longer current.

    This is the first-committer-wins validation kernel, called once:
    by ``ObjectServer._validate``, behind the network server's
    ``commit_batch``/``prepare_batch`` verbs.  Under sharding
    each shard validates only the pins of the objects *it* owns (the
    router partitions the read set by placement), so validation stays
    a local comparison against that shard's own version counters — no
    cross-shard version exchange is ever needed.

    Args:
        reads: ``{oid: pinned version}`` — the version each object was
            first read at in this transaction.
        version_of: the authority's current version for an oid.

    Returns:
        The oids that changed since they were pinned, in read-set
        iteration order (deterministic for dict-backed read sets).
    """
    return [
        oid for oid, pinned in reads.items() if version_of(oid) != pinned
    ]


class Transaction:
    """The pending writes of one implicit transaction, and nothing else."""

    def __init__(self, txid: int) -> None:
        self.txid = txid
        #: oid -> new state dict, or DELETED
        self.write_set: Dict[int, Any] = {}
        #: oids created by this transaction (subset of write_set keys)
        self.created: Set[int] = set()
        #: oid -> class name, for objects created by this transaction
        self.new_classes: Dict[int, str] = {}
        #: oid -> OID to cluster near, applied at commit time
        self.place_near: Dict[int, int] = {}

    def buffer_put(self, oid: int, state: dict, created: bool = False) -> None:
        """Record a pending insert/update."""
        self.write_set[oid] = state
        if created:
            self.created.add(oid)

    def buffer_delete(self, oid: int) -> None:
        """Record a pending delete."""
        self.write_set[oid] = DELETED
        self.created.discard(oid)

    def buffered(self, oid: int) -> Optional[Any]:
        """The buffered state of ``oid``: a dict, DELETED, or None."""
        return self.write_set.get(oid)
