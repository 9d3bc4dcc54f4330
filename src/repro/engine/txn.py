"""Transactions over the object store: deferred write sets + 2PL.

A :class:`Transaction` buffers all of its writes in memory (deferred
update).  Reads consult the write set first, then the committed store.
Commit hands the write set to the store, which logs it to the WAL and
applies it to pages; abort simply discards the buffer.  Locks (if the
store runs in locking mode) follow strict two-phase locking and are
released when the transaction ends — the engine's concurrency control
(R8).  Optimistic first-committer-wins is the network server's, and
:func:`stale_reads` is its kernel.

The store also supports an autocommit mode where every mutating call
runs in its own implicit transaction — that is what the benchmark
backends use between explicit commits.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, List, Mapping, Optional, Set

from repro.errors import TransactionError

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


class TxnStatus(enum.Enum):
    """Lifecycle states of a transaction."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """One unit of work against an :class:`~repro.engine.store.ObjectStore`.

    Obtained from ``store.begin()``; usable as a context manager that
    commits on success and aborts on exception::

        with store.begin() as txn:
            oid = store.new("Node", {...}, txn=txn)
    """

    def __init__(self, txid: int) -> None:
        self.txid = txid
        self.status = TxnStatus.ACTIVE
        #: oid -> new state dict, or DELETED
        self.write_set: Dict[int, Any] = {}
        #: oids created by this transaction (subset of write_set keys)
        self.created: Set[int] = set()
        #: oid -> class name, for objects created by this transaction
        self.new_classes: Dict[int, str] = {}
        #: oid -> OID to cluster near, applied at commit time
        self.place_near: Dict[int, int] = {}
        self._store = None  # set by the store at begin()

    # ------------------------------------------------------------------
    # Write-set bookkeeping (called by the store)
    # ------------------------------------------------------------------

    def require_active(self) -> None:
        """Raise unless the transaction can still be used."""
        if self.status is not TxnStatus.ACTIVE:
            raise TransactionError(
                f"transaction {self.txid} is {self.status.value}"
            )

    def buffer_put(self, oid: int, state: dict, created: bool = False) -> None:
        """Record a pending insert/update."""
        self.require_active()
        self.write_set[oid] = state
        if created:
            self.created.add(oid)

    def buffer_delete(self, oid: int) -> None:
        """Record a pending delete."""
        self.require_active()
        self.write_set[oid] = DELETED
        self.created.discard(oid)

    def buffered(self, oid: int) -> Optional[Any]:
        """The buffered state of ``oid``: a dict, DELETED, or None."""
        return self.write_set.get(oid)

    # ------------------------------------------------------------------
    # Termination
    # ------------------------------------------------------------------

    def commit(self) -> None:
        """Commit through the owning store."""
        self.require_active()
        if self._store is None:
            raise TransactionError("transaction is not bound to a store")
        self._store._commit_txn(self)

    def abort(self) -> None:
        """Abort: discard the write set and release locks."""
        if self.status is not TxnStatus.ACTIVE:
            return
        if self._store is None:
            raise TransactionError("transaction is not bound to a store")
        self._store._abort_txn(self)

    # ------------------------------------------------------------------
    # Context-manager protocol
    # ------------------------------------------------------------------

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and self.status is TxnStatus.ACTIVE:
            self.commit()
        elif self.status is TxnStatus.ACTIVE:
            self.abort()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Transaction {self.txid} {self.status.value} "
            f"writes={len(self.write_set)}>"
        )
