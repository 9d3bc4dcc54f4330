"""Optimistic concurrency control over the object engine (R8).

The systems the paper's authors benchmarked used optimistic schemes —
which is exactly why they found non-conflicting multi-user update
workloads hard to define (section 7).  This module reproduces the
scheme so that difficulty can be demonstrated:

* an :class:`OptimisticTransaction` records, for every object read,
  the commit timestamp of the version it saw;
* writes are buffered privately;
* at commit, the **validation phase** re-reads every timestamp in the
  read set: any change means a concurrent transaction committed first
  and validation fails with :class:`~repro.errors.ConflictError`
  (first-committer-wins);
* a successful validation applies the write buffer through a regular
  engine transaction.

Coordination is serialized through the coordinator's mutex, making
validate-and-apply atomic with respect to other optimistic commits.
"""

from __future__ import annotations

import threading
from typing import Any, Dict

from repro.engine.store import ObjectStore
from repro.engine.txn import stale_reads
from repro.errors import ConflictError, TransactionError


class OptimisticTransaction:
    """One optimistic unit of work; obtain from the coordinator."""

    def __init__(self, coordinator: "OptimisticCoordinator", txid: int) -> None:
        self._coordinator = coordinator
        self.txid = txid
        self.read_versions: Dict[int, int] = {}
        self.write_buffer: Dict[int, Dict[str, Any]] = {}
        self.finished = False

    def _require_active(self) -> None:
        if self.finished:
            raise TransactionError(f"optimistic txn {self.txid} already ended")

    # -- reads ------------------------------------------------------------

    def read(self, oid: int) -> Dict[str, Any]:
        """Read an object, seeing this transaction's own writes first."""
        self._require_active()
        if oid in self.write_buffer:
            return dict(self.write_buffer[oid])
        state, timestamp = self._coordinator._read_versioned(oid)
        # First read pins the version this transaction is based on.
        self.read_versions.setdefault(oid, timestamp)
        return state

    # -- writes -----------------------------------------------------------

    def write(self, oid: int, changes: Dict[str, Any]) -> None:
        """Buffer a partial update (a read is implied and validated)."""
        self._require_active()
        state = self.read(oid)
        state.update(changes)
        self.write_buffer[oid] = state

    # -- termination --------------------------------------------------------

    def commit(self) -> None:
        """Validate the read set, then apply the write buffer.

        Raises:
            ConflictError: if any object read has since been committed
                by another transaction (the transaction is aborted).
        """
        self._require_active()
        try:
            self._coordinator._validate_and_apply(self)
        finally:
            self.finished = True

    def abort(self) -> None:
        """Discard buffered work."""
        self.write_buffer.clear()
        self.finished = True


class OptimisticCoordinator:
    """Hands out optimistic transactions over one object store."""

    def __init__(self, store: ObjectStore) -> None:
        self.store = store
        self._mutex = threading.Lock()
        self._next_txid = 1
        self.validations = 0
        self.conflicts = 0

    def begin(self) -> OptimisticTransaction:
        """Start an optimistic transaction."""
        with self._mutex:
            txn = OptimisticTransaction(self, self._next_txid)
            self._next_txid += 1
            return txn

    # -- internals ----------------------------------------------------------

    def _read_versioned(self, oid: int):
        with self._mutex:
            state = self.store.get(oid)
            timestamp = self.store.record_timestamp(oid)
            return state, timestamp

    def _validate_and_apply(self, txn: OptimisticTransaction) -> None:
        with self._mutex:
            self.validations += 1
            stale = stale_reads(txn.read_versions, self.store.record_timestamp)
            if stale:
                self.conflicts += 1
                oid = stale[0]
                raise ConflictError(
                    f"optimistic txn {txn.txid}: object {oid} changed "
                    f"(read ts {txn.read_versions[oid]}, now "
                    f"{self.store.record_timestamp(oid)})"
                )
            if not txn.write_buffer:
                return
            engine_txn = self.store.begin()
            try:
                for oid, state in txn.write_buffer.items():
                    self.store.put(oid, state, txn=engine_txn)
                engine_txn.commit()
            except Exception:
                engine_txn.abort()
                raise

    @property
    def conflict_rate(self) -> float:
        """Fraction of validations that failed."""
        return self.conflicts / self.validations if self.validations else 0.0
