"""A redo-only write-ahead log with checkpoints and recovery (R10).

The store uses **deferred updates**: a transaction's writes live in an
in-memory write set until commit.  At commit the store applies them to
pooled (no-steal) heap and index pages, appends the post-image of every
page it dirtied plus the root table to the log, fsyncs it, and only
then forces those pages to the data file.  Because no uncommitted
change ever reaches a data page, recovery never needs to undo anything
— it simply *redoes* the page images of every committed transaction
recorded after the last checkpoint.

Log records are framed as ``length | crc32 | payload`` so a torn tail
write (the classic crash mode) is detected and cleanly ignored.

Record types:

* ``BEGIN txid``
* ``PUT txid oid state``   — logical: the post-state of an object
* ``PAGE txid pid image``  — physical: post-image of a dirtied page
* ``ROOTS txid roots``     — physical: the header root-pointer table
  and free-list head
* ``PREPARE txid``         — two-phase commit vote: the transaction's
  operations are durable but the *decision* belongs to a coordinator
* ``COMMIT txid``
* ``ABORT txid``           — informational; aborted work is never applied
* ``CHECKPOINT``           — everything before this point is on disk

One framing, two redo vocabularies, never mixed in one log.  The
engine (``ObjectStore._log_and_force``) writes and replays **only** the
physical records: ``BEGIN``, one ``PAGE`` per dirtied page, ``ROOTS``,
``COMMIT``.  The logical ``PUT`` record is the format of the layers
that keep records rather than pages — the netsim
``ObjectServer``, its two-phase participants and the replication log
shipper — which replay them from :meth:`WriteAheadLog.recover` /
:meth:`WriteAheadLog.read_from`.

**Two-phase commit and presumed abort.**  A participant in a
distributed commit logs ``BEGIN + operations + PREPARE`` (force-synced
— a yes vote must survive a crash) and only applies the operations
when the coordinator's decision arrives as a ``COMMIT`` or ``ABORT``
record.  A transaction whose log ends at ``PREPARE`` is **in doubt**:
:meth:`WriteAheadLog.recover` never lists it as committed (so plain
recovery follows *presumed abort* — an undecided transaction is not
redone) but lists it apart, so a recovery driver can ask the
coordinator's decision log and either replay (``COMMIT``) or forget
(``ABORT``) it deterministically.
"""

from __future__ import annotations

import dataclasses
import struct
import time
import zlib
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.engine import serializer
from repro.engine.vfs import VFS, RealVFS
from repro.errors import RecoveryError
from repro.obs import Instrumentation, resolve

BEGIN = "B"
PUT = "P"
PAGE = "G"
ROOTS = "R"
PREPARE = "E"
COMMIT = "C"
ABORT = "A"
CHECKPOINT = "K"

_DATA_KINDS = (PUT, PAGE, ROOTS)

_FRAME = struct.Struct("<II")  # payload length, crc32


@dataclasses.dataclass
class LogRecord:
    """One decoded log record."""

    kind: str
    txid: int = 0
    oid: int = 0
    state: Optional[dict] = None

    def to_payload(self) -> bytes:
        """Serialize the record body."""
        return serializer.encode(
            {"k": self.kind, "t": self.txid, "o": self.oid, "s": self.state}
        )

    @classmethod
    def from_payload(cls, payload: bytes) -> "LogRecord":
        """Decode a record body.

        Accepts a ``memoryview`` frame as well as bytes — recovery
        decodes straight out of the read buffer without an extra copy.
        """
        raw = serializer.decode_view(payload)
        return cls(
            kind=raw["k"], txid=raw["t"], oid=raw["o"], state=raw["s"]
        )


class WriteAheadLog:
    """Append-only log file with optional group commit.

    Args:
        path: the log file.
        sync_on_commit: fsync at each commit point.  Tests and
            benchmark-mode stores disable it.
        instrumentation: counter/span sink (``engine.wal.*``).
        vfs: the file-system seam; defaults to the real one.  The store
            passes its (counting, possibly fault-injecting) VFS here so
            the log's I/O is observed with everything else.
        group_commit: batch consecutive commits into one fsync.  A
            commit's records are still *written* (and flushed to the OS)
            immediately — crash *consistency* is unchanged — but the
            fsync is deferred until ``group_commit_size`` commits have
            accumulated, a checkpoint runs, or the log closes.  The
            durability relaxation is bounded: at most the last
            ``group_commit_size - 1`` commits can be lost to a power
            failure, each atomically.
        group_commit_size: commits per fsync in group-commit mode.
    """

    def __init__(
        self,
        path: str,
        sync_on_commit: bool = True,
        instrumentation: Optional[Instrumentation] = None,
        vfs: Optional[VFS] = None,
        group_commit: bool = False,
        group_commit_size: int = 8,
    ) -> None:
        if group_commit_size < 1:
            raise ValueError("group_commit_size must be >= 1")
        self.path = path
        self.sync_on_commit = sync_on_commit
        self.vfs = vfs or RealVFS()
        self.group_commit = group_commit
        self.group_commit_size = group_commit_size
        self._file = self.vfs.open(path, "ab+")
        self.records_written = 0
        self.syncs = 0
        #: Commits whose fsync is still pending (group-commit mode).
        self.pending_commits = 0
        self._instr = resolve(instrumentation)
        self._instr.gauge(
            "engine.wal.backlog", lambda: float(self.pending_commits)
        )
        self._instr.gauge("engine.wal.batch_fill", self._batch_fill)

    def _batch_fill(self) -> float:
        """Group-commit batch fill: pending commits over batch size."""
        return self.pending_commits / self.group_commit_size

    def close(self) -> None:
        """Flush (fsyncing any pending group) and close the log file."""
        if self._file is not None:
            if self.pending_commits:
                self.sync(force=True)
            self._file.flush()
            self._file.close()
            self._file = None

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def append(self, record: LogRecord) -> None:
        """Append one record (buffered; not yet durable)."""
        payload = record.to_payload()
        frame = _FRAME.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
        self._file.write(frame + payload)
        self.records_written += 1
        self._instr.count("engine.wal.records")
        self._instr.count("engine.wal.bytes", _FRAME.size + len(payload))

    def sync(self, force: bool = False) -> bool:
        """Force appended records to stable storage (the commit point).

        In group-commit mode the fsync is deferred until
        ``group_commit_size`` commits are pending (or ``force=True``);
        deferred calls still flush to the OS so readers observe the
        records.  Returns whether a real durability point was taken.
        """
        if self.group_commit and not force:
            self.pending_commits += 1
            if self.pending_commits < self.group_commit_size:
                self._file.flush()
                self._instr.count("engine.wal.group_commit.deferred")
                return False
            self._instr.count("engine.wal.group_commit.batches")
        self._file.flush()
        if self.sync_on_commit:
            started = time.perf_counter()
            self._file.sync()
            self._instr.observe(
                "engine.wal.fsync", (time.perf_counter() - started) * 1000.0
            )
        self.pending_commits = 0
        self.syncs += 1
        self._instr.count("engine.wal.syncs")
        return True

    def log_commit(self, txid: int, operations: List[LogRecord]) -> bool:
        """Write BEGIN + operations + COMMIT and make them durable.

        Returns whether the records reached a durability point (always
        true outside group-commit mode; in group-commit mode, true only
        on the commit that closes a batch).
        """
        with self._instr.span("wal.commit"):
            self.append(LogRecord(BEGIN, txid=txid))
            for op in operations:
                self.append(op)
            self.append(LogRecord(COMMIT, txid=txid))
            return self.sync()

    def log_prepare(self, txid: int, operations: List[LogRecord]) -> bool:
        """Write BEGIN + operations + PREPARE and **force** durability.

        This is a two-phase-commit participant's yes vote: once this
        method returns, the transaction's operations and the fact that
        it voted yes survive any crash, so the coordinator may count
        the vote.  The sync is forced even in group-commit mode —
        deferring a vote would let a crash silently retract it.
        """
        with self._instr.span("wal.prepare"):
            self.append(LogRecord(BEGIN, txid=txid))
            for op in operations:
                self.append(op)
            self.append(LogRecord(PREPARE, txid=txid))
            return self.sync(force=True)

    def log_decision(self, txid: int, committed: bool) -> bool:
        """Record the coordinator's decision for a prepared transaction.

        Appends ``COMMIT`` (and forces a durability point — the
        decision must stick) or ``ABORT`` (flushed with the next sync;
        presumed abort means losing it is harmless: an undecided
        transaction aborts anyway).
        """
        with self._instr.span("wal.decision"):
            if committed:
                self.append(LogRecord(COMMIT, txid=txid))
                return self.sync(force=True)
            self.append(LogRecord(ABORT, txid=txid))
            self._file.flush()
            return False

    def log_checkpoint(self) -> None:
        """Record that all prior changes are on data pages, then truncate.

        Truncation is safe because recovery only replays records after
        the last checkpoint; an empty log means a clean database.
        """
        self._file.truncate(0)
        self._file.seek(0)
        self.append(LogRecord(CHECKPOINT))
        self.sync(force=True)

    # ------------------------------------------------------------------
    # Reading and recovery
    # ------------------------------------------------------------------

    def read_all(self) -> Iterator[LogRecord]:
        """Iterate every intact record; stop cleanly at a torn tail."""
        for record, _offset in self.read_from(0):
            yield record

    def read_from(self, offset: int = 0) -> Iterator[Tuple[LogRecord, int]]:
        """Resumable tail-read: intact records starting at byte ``offset``.

        Yields ``(record, end_offset)`` pairs where ``end_offset`` is the
        byte position just past the record's frame — feed the last one
        back in to continue where a previous scan stopped, so a log
        shipper (or a reopen loop) never re-decodes history it has
        already consumed.  ``offset`` must be a frame boundary previously
        returned by this method (or 0).  Stops cleanly at a torn,
        zero-filled or CRC-corrupt tail, exactly like :meth:`read_all`.
        """
        self._file.flush()
        with self.vfs.open(self.path, "rb") as f:
            if offset:
                f.seek(offset)
            position = offset
            while True:
                frame = f.read(_FRAME.size)
                if len(frame) < _FRAME.size:
                    return  # torn mid-frame-header (or clean EOF)
                length, crc = _FRAME.unpack(frame)
                if length == 0:
                    # A zero-length frame with a matching CRC is what a
                    # zero-filled tail block looks like (crc32(b"") is
                    # 0): treat it as end-of-log, not as a record.
                    return
                payload = f.read(length)
                if len(payload) < length:
                    return  # torn tail write
                if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                    return  # corrupt tail
                position += _FRAME.size + length
                try:
                    # Decode through a view: the record's strings and
                    # byte blobs are carved straight out of the read
                    # buffer instead of through intermediate slices.
                    yield LogRecord.from_payload(memoryview(payload)), position
                except RecoveryError:
                    raise
                except Exception as exc:  # corrupt but checksummed? bail out
                    raise RecoveryError(f"undecodable log record: {exc}") from exc

    def recover(
        self,
    ) -> Tuple[
        List[Tuple[int, List[LogRecord]]], List[Tuple[int, List[LogRecord]]]
    ]:
        """One scan, both work lists: ``(committed, in_doubt)``.

        ``committed`` is the redo work list: the data records of every
        transaction whose COMMIT follows the last checkpoint, in commit
        order.  Incomplete or aborted transactions are dropped (their
        changes never touched data pages, so dropping them *is* the
        undo).  ``in_doubt`` lists, in prepare order, the transactions
        whose PREPARE is on disk but whose COMMIT/ABORT is not: a
        two-phase-commit participant that crashed between voting and
        learning the outcome.  The caller resolves each against the
        coordinator's decision log — replay on COMMIT, forget on ABORT
        (and an unknown transaction *is* an abort: presumed abort).
        """
        pending: Dict[int, List[LogRecord]] = {}
        committed: List[Tuple[int, List[LogRecord]]] = []
        prepared: Dict[int, List[LogRecord]] = {}
        order: List[int] = []
        for record, _offset in self.read_from(0):
            if record.kind == CHECKPOINT:
                pending.clear()
                committed.clear()
                prepared.clear()
                order.clear()
            elif record.kind == BEGIN:
                pending[record.txid] = []
            elif record.kind in _DATA_KINDS:
                pending.setdefault(record.txid, []).append(record)
            elif record.kind == PREPARE:
                # The vote is durable but the decision is not ours to
                # make here; the records stay pending (and in doubt)
                # until a COMMIT or ABORT decides them.
                if record.txid in pending and record.txid not in prepared:
                    prepared[record.txid] = pending[record.txid]
                    order.append(record.txid)
            elif record.kind == COMMIT:
                if record.txid in pending:
                    committed.append((record.txid, pending.pop(record.txid)))
                if prepared.pop(record.txid, None) is not None:
                    order.remove(record.txid)
            elif record.kind == ABORT:
                pending.pop(record.txid, None)
                if prepared.pop(record.txid, None) is not None:
                    order.remove(record.txid)
            else:
                raise RecoveryError(f"unknown log record kind {record.kind!r}")
        return committed, [(txid, prepared[txid]) for txid in order]


def put_record(txid: int, oid: int, state: Any) -> LogRecord:
    """Build a PUT record for an object's post-state."""
    return LogRecord(PUT, txid=txid, oid=oid, state=state)


def page_record(txid: int, pid: int, image: bytes) -> LogRecord:
    """Build a PAGE record holding a zlib-compressed page post-image."""
    return LogRecord(
        PAGE, txid=txid, oid=pid, state={"z": zlib.compress(bytes(image), 1)}
    )


def page_image(record: LogRecord) -> bytes:
    """Decompress the page image of a PAGE record."""
    return zlib.decompress(record.state["z"])


def roots_record(
    txid: int, roots: Dict[str, int], free_head: int
) -> LogRecord:
    """Build a ROOTS record: the header's root pointers in ``state`` and
    its free-list head in ``oid``."""
    return LogRecord(ROOTS, txid=txid, oid=free_head, state=dict(roots))
