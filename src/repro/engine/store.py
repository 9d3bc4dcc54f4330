"""The object store facade: OIDs, classes, indexes, transactions.

:class:`ObjectStore` ties the engine together.  Its design in one
paragraph: objects are dictionaries validated against the persistent
:class:`~repro.engine.catalog.Catalog`; each object has a stable **OID**
resolved through a B+tree *directory* to a heap RID; the heap itself
is the class extent (a record names its class and OID, and a scan walks
the heap's pages); per-field *indexes* are further B+trees; transactions
buffer writes in memory (deferred update) and commit by logging the
dirtied page images to the write-ahead log, fsyncing, then forcing the
pages — so recovery is a pure physical redo.  Clustering places objects
near a designated neighbour's page; versioned stores preserve each
object's pre-state in a timestamped chain.

The stats the benchmark cares about (page faults, cache hits, commit
counts) surface through :class:`StoreStats`.
"""

from __future__ import annotations

import dataclasses
from typing import (
    Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

from repro.engine import serializer, wal as wal_mod
from repro.engine.btree import BTree
from repro.engine.buffer import BufferPool
from repro.engine.catalog import Catalog, ClassDefinition, FieldDefinition
from repro.engine.clustering import ClusteringPolicy
from repro.engine.heap import HeapFile, Rid, rid_page
from repro.engine.pages import PageFile
from repro.engine.txn import DELETED, Transaction
from repro.engine.versioning import VersionChain, preserve_version
from repro.engine.vfs import VFS, CountingVFS, RealVFS
from repro.engine.wal import WriteAheadLog
from repro.obs import Instrumentation, resolve
from repro.errors import (
    DatabaseClosedError,
    RecordNotFoundError,
    SchemaError,
    StorageError,
    TransactionError,
)


@dataclasses.dataclass(frozen=True)
class VacuumStats:
    """Before/after file sizes of one vacuum run."""

    size_before: int
    size_after: int

    @property
    def reclaimed(self) -> int:
        """Bytes the compaction gave back."""
        return max(0, self.size_before - self.size_after)


@dataclasses.dataclass
class StoreStats:
    """Counters surfaced to the harness and the ablation benchmarks."""

    commits: int = 0
    aborts: int = 0
    objects_written: int = 0
    objects_read: int = 0
    checkpoints: int = 0
    recovered_transactions: int = 0


#: WAL size that triggers a checkpoint at the next commit boundary.
CHECKPOINT_AFTER_BYTES = 8 * 1024 * 1024

#: Values a record holds before its fields: class id, OID, class
#: version, version-chain head and commit timestamp.
_HEAD = 5

#: Types :func:`_clone_value` shares instead of copying (immutable).
_SCALARS = frozenset({int, str, float, bytes, bool, type(None)})


def _clone_value(value: Any) -> Any:
    """Deep-copy the mutable containers of a decoded value.

    Scalars (str/int/float/bytes/bool/None) are immutable and shared;
    dicts and lists are copied recursively so a cached record can hand
    out private states without re-decoding.  The scalar test is inline:
    a record is mostly scalars, and a call per scalar was most of what
    a copy cost.
    """
    if isinstance(value, dict):
        return {
            key: item if type(item) in _SCALARS else _clone_value(item)
            for key, item in value.items()
        }
    if isinstance(value, list):
        return [
            item if type(item) in _SCALARS else _clone_value(item)
            for item in value
        ]
    return value


def _copy_state(
    oid: int, state: Dict[str, Any], fields: Optional[Sequence[str]]
) -> Dict[str, Any]:
    """A private copy of ``state``: all of it, or just ``fields``.

    The one place a read's result is built, whichever of the decode
    cache, the heap or a write set ``state`` came from.
    """
    if fields is None:
        return _clone_value(state)
    try:
        return {name: _clone_value(state[name]) for name in fields}
    except KeyError as missing:
        raise SchemaError(
            f"object {oid} has no field {missing.args[0]!r}"
        ) from None


class DecodeCache:
    """Decoded-record cache keyed by OID: ``oid -> (rid, lsn, record)``.

    A record that has not changed since it was last decoded never needs
    decoding again, and an object that has not moved never needs its
    directory entry read again — the two dominant costs of a warm
    object read.  Each entry carries the heap RID the record was
    decoded from and that page's buffer-frame LSN at decode time; the
    coherence rules are stated over that identity:

    * every committed write to an OID (insert, update — in place or
      relocating — and delete) **invalidates** that OID's entry, so a
      heap slot is never reused while an entry still names it;
    * WAL recovery, vacuum, ``drop_cache``/``close`` (the section
      5.3(e) cold step) and structural schema changes **clear** the
      cache wholesale;
    * when the entry's page is resident, a hit additionally requires
      the frame LSN to match the entry's tag — a belt-and-braces guard
      against any write path that forgot to invalidate.  A
      *non-resident* page cannot have changed (every write goes through
      the pool and the explicit invalidations above), so entries keep
      serving after their page is evicted — the decode cache acts as an
      object cache extending past the buffer pool's capacity.

    Entries returned by :meth:`get` are the cache's own objects: the
    caller must clone before mutating (see :func:`_clone_value`).
    Eviction is FIFO at ``capacity``.

    Counters: ``engine.decode_cache.hits`` / ``.misses`` /
    ``.invalidations`` / ``.clears``.
    """

    __slots__ = ("capacity", "_entries", "_frame_lsn", "_instr")

    def __init__(
        self, capacity: int, pool: BufferPool, instrumentation
    ) -> None:
        self.capacity = capacity
        #: oid -> (frame LSN of the rid's page at decode, (rid, record));
        #: the inner pair is what :meth:`get` hands out, built once.
        self._entries: Dict[int, Tuple[Optional[int], Tuple[Rid, dict]]] = {}
        self._frame_lsn = pool.frame_lsn
        self._instr = instrumentation

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, oid: int) -> Optional[Tuple[Rid, Dict[str, Any]]]:
        """``(rid, record)`` of ``oid`` as cached, or None.

        A resident page whose frame LSN moved past the entry's tag
        invalidates the entry.
        """
        entry = self._entries.get(oid)
        if entry is None:
            self._instr.count("engine.decode_cache.misses")
            return None
        lsn, located = entry
        page_lsn = self._frame_lsn(rid_page(located[0]))
        if lsn is not None and page_lsn is not None and lsn != page_lsn:
            del self._entries[oid]
            self._instr.count("engine.decode_cache.invalidations")
            self._instr.count("engine.decode_cache.misses")
            return None
        self._instr.count("engine.decode_cache.hits")
        return located

    def put(self, oid: int, rid: Rid, record: Dict[str, Any]) -> None:
        """Cache ``record`` (which the cache now owns), decoded from ``rid``.

        Call while the read that produced ``record`` still has the
        page resident, so the LSN tags the exact bytes decoded.
        """
        entries = self._entries
        if oid not in entries and len(entries) >= self.capacity:
            entries.pop(next(iter(entries)))  # FIFO
        entries[oid] = (self._frame_lsn(rid_page(rid)), (rid, record))

    def invalidate(self, oid: int) -> None:
        """Drop the entry of ``oid`` (a committed write touched it)."""
        if self._entries.pop(oid, None) is not None:
            self._instr.count("engine.decode_cache.invalidations")

    def clear(self) -> None:
        """Forget everything (cold reset, recovery, vacuum, schema)."""
        if self._entries:
            self._instr.count("engine.decode_cache.clears")
        self._entries.clear()


class ObjectStore:
    """A single-file object database.

    One handle, one thread, one implicit transaction: the handle's
    first write after a commit or abort starts a transaction whose
    writes stay buffered, visible to this handle's reads, until
    :meth:`commit` applies them all or :meth:`abort` drops them.  A
    handle is used by one thread; concurrent users each talk to the
    network server, whose optimistic validation decides R8.

    **The record.**  An object is one heap record, the serialized list
    ``[class_id, oid, version, version_head, ts, v0, v1, ...]``: its
    class, its OID, the class version it was written at, the rid of its
    newest preserved version (0: none), the commit timestamp that wrote
    it, then its field values in the order of the class's layout in the
    catalog — no field names.  Layouts only grow, so an older record is
    a prefix of the current layout and reads the missing tail as the
    fields' defaults.  The store's other heap records (meta, catalog,
    preserved versions) are maps, so a walk of the heap's pages tells
    objects from the rest by the first byte and reads a class extent
    without an index.

    Args:
        path: the database file (a ``.wal`` sibling is created).
        cache_pages: buffer pool capacity in pages.
        clustered: honour clustering hints (the 1-N policy).
        versioned: preserve pre-states of updated objects (R5).
        sync_commits: fsync the WAL at commit.  Tests may disable it.
        vfs: the file-system seam every byte of I/O crosses (see
            :mod:`repro.engine.vfs`).  Defaults to the real filesystem;
            tests inject a :class:`~repro.engine.vfs.FaultInjectingVFS`
            to crash the store at chosen I/O operations.  Whatever is
            passed is wrapped in a :class:`~repro.engine.vfs.CountingVFS`
            feeding ``engine.io.*`` counters.
        decode_cache_size: capacity (records) of the :class:`DecodeCache`
            serving unchanged records without re-decoding; ``0``
            disables it.
    """

    _META_ROOT = "meta.rid"
    _DIR_ROOT = "dir.root"

    def __init__(
        self,
        path: str,
        cache_pages: int = 256,
        clustered: bool = True,
        versioned: bool = False,
        sync_commits: bool = True,
        instrumentation: Optional[Instrumentation] = None,
        vfs: Optional[VFS] = None,
        decode_cache_size: int = 8192,
    ) -> None:
        self.path = path
        self.cache_pages = cache_pages
        self.decode_cache_size = decode_cache_size
        self.clustering = ClusteringPolicy(enabled=clustered)
        self.versioned = versioned
        self.sync_commits = sync_commits
        #: Shared by the buffer pool, the WAL and every B+tree below.
        self.instrumentation = resolve(instrumentation)
        #: The raw injected VFS (shared with vacuum's target store).
        self._base_vfs: VFS = vfs or RealVFS()
        #: The counting wrapper every engine component below receives.
        self.vfs: VFS = CountingVFS(self._base_vfs, self.instrumentation)

        self.stats = StoreStats()
        self._next_txid = 1
        self._current: Optional[Transaction] = None

        self._file: Optional[PageFile] = None
        self._pool: Optional[BufferPool] = None
        self._wal: Optional[WriteAheadLog] = None
        self._heap: Optional[HeapFile] = None
        self._catalog: Optional[Catalog] = None
        self._directory: Optional[BTree] = None
        self._indexes: Dict[Tuple[str, str], BTree] = {}
        self._meta: Dict[str, Any] = {}
        self._meta_rid: Optional[Rid] = None
        self._decode_cache: Optional[DecodeCache] = None
        #: Bumped whenever the heap may have changed under a scan (a
        #: logged commit, a close), which then restarts its walk.
        self._epoch = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def open(self) -> None:
        """Open (creating if absent), running crash recovery if needed.

        On *any* failure — a corrupt WAL raising
        :class:`~repro.errors.RecoveryError`, a bad header page — every
        handle opened so far is closed and the store is reset to its
        closed state before the exception propagates, so a failed open
        neither leaks file descriptors nor leaves a half-open store.
        """
        if self.is_open:
            return
        try:
            self._wal = WriteAheadLog(
                self.path + ".wal",
                sync_on_commit=self.sync_commits,
                instrumentation=self.instrumentation,
                vfs=self.vfs,
            )
            self._recover_if_needed()
            self._file = PageFile(self.path, vfs=self.vfs)
            self._pool = BufferPool(
                self._file, self.cache_pages,
                instrumentation=self.instrumentation,
            )
            self._heap = HeapFile(self._pool, "data")
            self._catalog = Catalog(self._heap)
            self._directory = BTree(
                self._pool, self._file.get_root(self._DIR_ROOT, 0)
            )
            self._load_meta()
            self._load_indexes()
            # Always fresh at open: recovery (which just ran if
            # needed) must never be able to serve a pre-crash
            # decode under a stale (rid, lsn) identity.
            self._decode_cache = (
                DecodeCache(
                    self.decode_cache_size, self._pool,
                    self.instrumentation,
                )
                if self.decode_cache_size > 0
                else None
            )
        except BaseException:
            self._dispose_handles()
            raise

    def _dispose_handles(self) -> None:
        """Close any open file handles and reset to the closed state.

        Used when :meth:`open` fails part-way: without it a corrupt WAL
        would leave ``self._wal`` holding an open descriptor that
        :meth:`close` (a no-op on a closed store) never released.
        """
        for handle in (self._wal, self._file):
            if handle is not None:
                try:
                    handle.close()
                except Exception:
                    pass  # disposal must not mask the original error
        self._file = None
        self._pool = None
        self._wal = None
        self._heap = None
        self._catalog = None
        self._directory = None
        self._indexes = {}
        self._decode_cache = None
        self._epoch += 1

    def _recover_if_needed(self) -> None:
        """Physical redo of committed work left in the WAL.

        Prepared-but-undecided transactions (a two-phase-commit
        participant's PREPARE with no decision record) are **not**
        replayed — presumed abort — and are counted under
        ``engine.recovery.in_doubt_aborted`` so a coordinator-aware
        driver can notice and resolve them out of band.
        """
        work, in_doubt = self._wal.recover()
        if in_doubt:
            self.instrumentation.count(
                "engine.recovery.in_doubt_aborted", len(in_doubt)
            )
        if not work:
            return
        self.instrumentation.count("engine.store.recoveries")
        file = PageFile(self.path, vfs=self.vfs)
        try:
            for _txid, records in work:
                for record in records:
                    if record.kind == wal_mod.PAGE:
                        file.write_page_extending(
                            record.oid, wal_mod.page_image(record)
                        )
                    elif record.kind == wal_mod.ROOTS:
                        file.restore_roots(record.state, record.oid)
                self.stats.recovered_transactions += 1
            file.sync()
        finally:
            file.close()
        self._wal.log_checkpoint()
        self.stats.checkpoints += 1

    def close(self) -> None:
        """Checkpoint and close.  Pending writes are **aborted**.

        Contract note: ``close()`` *silently discards* uncommitted
        writes — closing is a deliberate end-of-session action and the
        deferred-update design makes the discard safe (nothing
        uncommitted ever reached a data page).  This is intentionally
        the opposite of :meth:`drop_cache`, which *raises*
        :class:`~repro.errors.TransactionError` on uncommitted writes
        because dropping the cache mid-transaction is almost always a
        harness sequencing bug.  Both behaviours are pinned by tests.
        """
        if not self.is_open:
            return
        self.abort()
        self.checkpoint()
        self._dispose_handles()

    @property
    def is_open(self) -> bool:
        """Whether the store is open."""
        return self._file is not None

    def __enter__(self) -> "ObjectStore":
        """Open (if needed) and return the store: ``with ObjectStore(p) as s:``."""
        if not self.is_open:
            self.open()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Commit on success, abort on exception, then close."""
        try:
            if self.is_open:
                if exc_type is not None:
                    self.abort()
                else:
                    self.commit()
        finally:
            if self.is_open:
                self.close()
        return False

    def _require_open(self) -> None:
        if not self.is_open:
            raise DatabaseClosedError(f"store {self.path} is not open")

    def _require_idle(self, action: str) -> None:
        """Refuse ``action`` while writes are pending."""
        self._require_open()
        if self._current is not None:
            raise TransactionError(f"cannot {action} with uncommitted writes")

    def checkpoint(self) -> None:
        """Force all pages, fsync the data file, truncate the WAL."""
        self._require_open()
        with self.instrumentation.span("store.checkpoint"):
            self._save_roots()
            self._pool.flush_all()
            self._file.sync()
            self._wal.log_checkpoint()
            self.stats.checkpoints += 1
            self.instrumentation.count("engine.store.checkpoints")

    def drop_cache(self) -> None:
        """Flush and empty the buffer pool: the next access is cold.

        This is the hook behind the protocol's section 5.3(e) close
        step; it also resets the pool's hit/miss statistics.

        Contract note: unlike :meth:`close` (which silently aborts
        pending writes), ``drop_cache`` **raises**
        :class:`~repro.errors.TransactionError` when writes are
        pending.  A cache drop is a
        measurement-protocol step, not a session end: reaching it with
        buffered writes means the harness forgot a commit, and eating
        the writes would silently corrupt the measurement.

        Raises:
            TransactionError: if writes are pending.
        """
        self._require_idle("drop cache")
        self._save_roots()
        self._pool.drop_cache()
        self._pool.stats.reset()
        if self._decode_cache is not None:
            self._decode_cache.clear()

    @property
    def catalog(self) -> Catalog:
        """The schema catalog."""
        self._require_open()
        return self._catalog

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------

    def _load_meta(self) -> None:
        rid = self._file.get_root(self._META_ROOT, 0)
        if rid:
            self._meta_rid = rid
            self._meta = serializer.decode(self._heap.read(rid))
        else:
            self._meta = {"next_oid": 1, "commit_ts": 0, "indexes": []}
            self._meta_rid = None
            self._save_meta()

    def _save_meta(self) -> None:
        payload = serializer.encode(self._meta)
        if self._meta_rid is None:
            self._meta_rid = self._heap.insert(payload)
        else:
            self._meta_rid = self._heap.update(self._meta_rid, payload)
        self._file.set_root(self._META_ROOT, self._meta_rid)

    def _load_indexes(self) -> None:
        for class_name, field in self._meta["indexes"]:
            root_name = self._index_root_name(class_name, field)
            self._indexes[(class_name, field)] = BTree(
                self._pool, self._file.get_root(root_name, 0)
            )

    def _index_root_name(self, class_name: str, field: str) -> str:
        class_id = self._catalog.get(class_name).class_id
        name = f"ix.{class_id}.{field}"
        if len(name) > 16:
            name = name[:16]
        return name

    def _save_roots(self) -> None:
        self._file.set_root(self._DIR_ROOT, self._directory.root)
        for (class_name, field), tree in self._indexes.items():
            self._file.set_root(self._index_root_name(class_name, field), tree.root)

    @property
    def commit_timestamp(self) -> int:
        """The logical clock value of the last commit."""
        self._require_open()
        return self._meta["commit_ts"]

    # ------------------------------------------------------------------
    # Schema
    # ------------------------------------------------------------------

    def define_class(
        self,
        name: str,
        fields: List[FieldDefinition],
        base: Optional[str] = None,
    ) -> ClassDefinition:
        """Register a class in the catalog (persisted immediately)."""
        self._require_open()
        definition = self._catalog.define_class(name, fields, base)
        self._flush_structural_change()
        return definition

    def add_field(self, class_name: str, field: FieldDefinition) -> None:
        """Dynamically add a field to a class (R4; lazy upgrade)."""
        self._require_open()
        self._catalog.add_field(class_name, field)
        self._flush_structural_change()

    def _flush_structural_change(self) -> None:
        """Persist catalog/index structure changes durably right away."""
        txid = self._next_txid
        self._next_txid += 1
        self._save_roots()
        self._log_and_force(txid)
        if self._decode_cache is not None:
            # Cached records embed schema-upgraded states; a catalog
            # change (new class version, new fields) makes them stale.
            self._decode_cache.clear()

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def current_transaction(self) -> Optional[Transaction]:
        """The implicit transaction's pending writes, if there are any."""
        return self._current

    def _txn(self) -> Transaction:
        """The implicit transaction, started by the first write."""
        if self._current is None:
            self._current = Transaction(self._next_txid)
            self._next_txid += 1
        return self._current

    def commit(self) -> None:
        """Commit the pending writes (no-op when there are none).

        A refused commit applies nothing and ends aborted: a write set
        with a non-int indexed value is refused before any page is
        touched, and any other failure while the pages are built
        reopens the handle at the last commit (see
        :meth:`_reopen_at_last_commit`).
        """
        self._require_open()
        txn = self._current
        if txn is None:
            return
        try:
            self._check_indexed_values(txn)
        except SchemaError:
            self.abort()
            raise
        self._current = None
        with self.instrumentation.span("store.commit"):
            self._apply_and_force(txn)
        self.stats.commits += 1
        self.instrumentation.count("engine.store.commits")

    def abort(self) -> None:
        """Drop the pending writes (no-op when there are none)."""
        if self._current is not None:
            self._current = None
            self.stats.aborts += 1
            self.instrumentation.count("engine.store.aborts")

    # ------------------------------------------------------------------
    # Object operations
    # ------------------------------------------------------------------

    def new(
        self,
        class_name: str,
        state: Dict[str, Any],
        near: Optional[int] = None,
    ) -> int:
        """Create an object; returns its OID.

        Unknown fields raise :class:`~repro.errors.SchemaError`; fields
        missing from ``state`` take their catalog defaults.  ``near``
        is a clustering hint (place on the same page as that object).
        """
        self._require_open()
        definition = self._catalog.get(class_name)
        self._refuse_unknown(class_name, state)
        full_state = {
            f.name: state.get(f.name, f.default)
            for f in self._catalog.all_fields(class_name)
        }
        oid = self._meta["next_oid"]
        self._meta["next_oid"] += 1
        txn = self._txn()
        txn.buffer_put(oid, full_state, created=True)
        txn.new_classes[oid] = definition.name
        hint = self.clustering.hint_for_new(near)
        if hint is not None:
            txn.place_near[oid] = hint
        return oid

    def get(
        self,
        oid: int,
        fields: Optional[Sequence[str]] = None,
    ) -> Dict[str, Any]:
        """Read an object's state (a private copy).

        With ``fields``, only those fields are copied and returned —
        a read costs what it asks for.  Nothing in the result is shared
        with the store, the decode cache or the transaction's write
        set, whichever of them served the read.

        Raises:
            RecordNotFoundError: if the OID does not exist (or was
                deleted in the current transaction).
            SchemaError: if ``fields`` names a field the object lacks.
        """
        self._require_open()
        buffered = self._buffered_read(oid)
        if buffered is not None:
            return _copy_state(oid, buffered, fields)
        record = self._shared_record(oid)[1]
        self.stats.objects_read += 1
        self.instrumentation.count("engine.store.objects_read")
        return _copy_state(oid, record["s"], fields)

    def get_many(
        self,
        oids: List[int],
        fields: Optional[Sequence[str]] = None,
    ) -> Dict[int, Dict[str, Any]]:
        """Read a batch of objects' states, clustered-fetch style.

        Semantically equivalent to ``{oid: store.get(oid, fields)}``
        over the distinct oids (buffered copies win, deleted oids
        raise), but the residue the decode cache does not hold is
        fetched in *physical* order, a window of at most ``cache_pages``
        records whose pages are prefetched in one pass — so a frontier
        of clustered objects costs sequential page reads instead of one
        random fault per object.

        Returns a dict keyed by oid (duplicates collapse).

        Raises:
            RecordNotFoundError: for any missing or deleted oid.
            SchemaError: if ``fields`` names a field an object lacks.
        """
        self._require_open()
        cache = self._decode_cache
        misses: List[Tuple[Rid, int]] = []
        out: Dict[int, Dict[str, Any]] = {}
        hits = 0
        for oid in dict.fromkeys(oids):
            state = self._buffered_read(oid)
            if state is None:
                entry = cache.get(oid) if cache is not None else None
                if entry is None:
                    misses.append((self._rid_of(oid), oid))
                    continue
                state = entry[1]["s"]
                hits += 1
            out[oid] = _copy_state(oid, state, fields)
        misses.sort()
        for start in range(0, len(misses), self.cache_pages):
            window = misses[start:start + self.cache_pages]
            self._pool.prefetch(list(dict.fromkeys(rid_page(r) for r, _ in window)))
            raws = self._heap.read_many([rid for rid, _oid in window])
            for rid, oid in window:
                record = self._decode_record(raws[rid])
                if cache is not None:
                    cache.put(oid, rid, record)
                out[oid] = _copy_state(oid, record["s"], fields)
        self.stats.objects_read += hits + len(misses)
        self.instrumentation.count("engine.store.objects_read", hits + len(misses))
        self.instrumentation.count("engine.store.batch_reads")
        self.instrumentation.count("engine.store.batch_objects", len(out))
        return out

    def scan_states(
        self, class_name: str, fields: Optional[Sequence[str]] = None
    ) -> Iterator[Tuple[int, Dict[str, Any]]]:
        """``(oid, state)`` of every live object of the class or a
        subclass, pending writes included, in the heap's page order.

        The heap is the extent: the walk pins each page once, passes
        over the records that are not objects of these classes, and
        decodes the others only through the last field in ``fields``.
        It neither probes nor fills the decode cache.  A commit during
        the scan restarts the walk at the head, past the OIDs already
        yielded, so each live object is yielded once, as it is when the
        walk reaches it.

        Raises:
            SchemaError: if ``fields`` names a field the class lacks.
        """
        self._require_open()
        self._refuse_unknown(class_name, fields or ())
        return self._scan(self._class_ids(class_name, True), fields)

    def _class_ids(self, class_name: str, include_subclasses: bool) -> Set[int]:
        catalog = self._catalog
        return {catalog.get(class_name).class_id} | {
            catalog.get(name).class_id for name in catalog.class_names()
            if include_subclasses and catalog.is_subclass(name, class_name)
        }

    def _scan(
        self, class_ids: Set[int], fields: Optional[Sequence[str]]
    ) -> Iterator[Tuple[int, Dict[str, Any]]]:
        """The walk behind :meth:`scan_states`: the heap's pages, then
        the pending creations.  A commit or a close during a yield
        starts it again, past the OIDs it already yielded."""
        yielded: Set[int] = set()
        read = 0
        epoch = None
        try:
            while epoch != self._epoch:
                self._require_open()
                epoch = self._epoch
                picks, stop = self._scan_picks(class_ids, fields)
                heap, decode = self._heap, serializer.decode_view
                objects = serializer.LIST_TAG  # an object record is a list
                for records in heap.walk():
                    for rid, payload, whole in records:
                        if payload[0] != objects:
                            continue  # meta, catalog and preserved versions
                        try:
                            values = decode(payload, stop)
                        except StorageError:
                            if whole:
                                raise
                            values = decode(heap.read(rid), stop)
                        chosen = picks.get(values[0])
                        oid = values[1]
                        if chosen is None or oid in yielded:
                            continue
                        active = self._current
                        pending = None if active is None else active.buffered(oid)
                        if pending is None:
                            size = len(values)
                            state = {
                                name: values[at] if at < size else _clone_value(default)
                                for name, at, default in chosen
                            }
                            read += 1
                        elif pending is DELETED:
                            continue
                        else:
                            state = _copy_state(oid, pending, fields)
                        yielded.add(oid)
                        yield oid, state
                        if self._epoch != epoch:
                            break
                    if self._epoch != epoch:
                        break
                else:
                    active = self._current
                    for oid, name in list(active.new_classes.items()) if active else ():
                        pending = active.buffered(oid)
                        if pending is DELETED or oid in yielded:
                            continue
                        if self._catalog.get(name).class_id in class_ids:
                            yielded.add(oid)
                            yield oid, _copy_state(oid, pending, fields)
                            if self._epoch != epoch:
                                break
        finally:
            self.stats.objects_read += read
            self.instrumentation.count("engine.store.objects_read", read)

    def _scan_picks(
        self, class_ids: Set[int], fields: Optional[Sequence[str]]
    ) -> Tuple[Dict[int, List[Tuple[str, int, Any]]], Optional[int]]:
        """Per class id, ``(name, position in the record, default)`` of
        each of ``fields`` (all the class's, for None) in layout order,
        and the values a record is decoded through to reach them all
        (None: all)."""
        picks = {}
        for class_id in class_ids:
            names, defaults = self._catalog.layout(class_id)
            picks[class_id] = [
                (name, _HEAD + at, defaults[at])
                for at, name in enumerate(names)
                if fields is None or name in fields
            ]
        if fields is None:
            return picks, None
        reach = [at + 1 for chosen in picks.values() for _name, at, _default in chosen]
        return picks, max([2, *reach])

    def _buffered_read(self, oid: int) -> Optional[Dict[str, Any]]:
        """The pending state of ``oid``, if any.

        None sends the caller to the committed record.  The returned
        state is the write set's own: copy before handing it out.
        """
        active = self._current
        if active is None:
            return None
        buffered = active.buffered(oid)
        if buffered is DELETED:
            raise RecordNotFoundError(oid)
        return buffered

    def class_of(self, oid: int) -> str:
        """The class name of an object."""
        self._require_open()
        active = self._current
        if active is not None and oid in active.new_classes:
            return active.new_classes[oid]
        record = self._shared_record(oid)[1]
        return self._catalog.get_by_id(record["c"]).name

    def exists(self, oid: int) -> bool:
        """Whether an OID resolves to a live object."""
        self._require_open()
        active = self._current
        if active is not None:
            buffered = active.buffered(oid)
            if buffered is DELETED:
                return False
            if buffered is not None:
                return True
        return self._directory.search_unique(oid) is not None

    def put(self, oid: int, state: Dict[str, Any]) -> None:
        """Replace an object's whole state; omitted fields commit as defaults."""
        if not self.exists(oid):
            raise RecordNotFoundError(oid)
        self._refuse_unknown(self.class_of(oid), state)
        self._txn().buffer_put(oid, dict(state))

    def update(self, oid: int, changes: Dict[str, Any]) -> None:
        """Apply a partial update to an object."""
        state = self.get(oid)
        if not changes.keys() <= state.keys():
            self._refuse_unknown(self.class_of(oid), changes)
        state.update(changes)
        self._txn().buffer_put(oid, state)

    def _refuse_unknown(self, class_name: str, fields: Iterable[str]) -> None:
        """A record has a slot only for the fields of its class."""
        unknown = set(fields).difference(self._catalog.all_field_names(class_name))
        if unknown:
            raise SchemaError(f"unknown fields for {class_name}: {sorted(unknown)}")

    def delete(self, oid: int) -> None:
        """Delete an object."""
        if not self.exists(oid):
            raise RecordNotFoundError(oid)
        self._txn().buffer_delete(oid)

    def relocate_near(self, oid: int, near: int) -> None:
        """Re-cluster an existing object next to another (1-N policy)."""
        self._require_open()
        if not self.clustering.should_relocate(near):
            return
        state = self.get(oid)
        txn = self._txn()
        txn.buffer_put(oid, state)
        txn.place_near[oid] = near

    # ------------------------------------------------------------------
    # Record I/O
    # ------------------------------------------------------------------

    def _rid_of(self, oid: int) -> Rid:
        rid = self._directory.search_unique(oid)
        if rid is None:
            raise RecordNotFoundError(oid)
        return rid

    def _decode_record(self, payload: bytes) -> Dict[str, Any]:
        """A record as ``{"c": class id, "p": version-chain head, "ts":
        timestamp, "s": state}``, missing newer fields read as defaults."""
        values = serializer.decode_view(payload)
        names, defaults = self._catalog.layout(values[0])
        state = dict(zip(names, values[_HEAD:]))
        for index in range(len(state), len(names)):
            state[names[index]] = _clone_value(defaults[index])
        return {"c": values[0], "p": values[3], "ts": values[4], "s": state}

    def _shared_record(self, oid: int) -> Tuple[Rid, Dict[str, Any]]:
        """``(rid, record)`` of committed ``oid`` — the one way a record
        is read, by reads and by the commit path's pre-images alike.  A
        decode-cache hit costs no directory probe, page pin or decode.

        With the cache on, the returned record is (or becomes) a shared
        cache entry — callers read from it freely and copy anything
        they hand out (see :func:`_copy_state`).
        """
        cache = self._decode_cache
        if cache is not None:
            entry = cache.get(oid)
            if entry is not None:
                return entry
        rid = self._rid_of(oid)
        record = self._decode_record(self._heap.read(rid))
        if cache is not None:
            cache.put(oid, rid, record)
        return rid, record

    def _encode_record(
        self,
        definition: ClassDefinition,
        oid: int,
        state: Dict[str, Any],
        version_head: Rid,
        timestamp: int,
    ) -> bytes:
        """``oid``'s record at the class's current version (a field
        ``state`` lacks reads its default)."""
        names, defaults = self._catalog.layout(definition.class_id)
        values = [
            definition.class_id, oid, definition.version, version_head, timestamp
        ]
        values += map(state.get, names, defaults)
        return serializer.encode(values)

    # ------------------------------------------------------------------
    # Commit machinery
    # ------------------------------------------------------------------

    def _apply_and_force(self, txn: Transaction) -> None:
        """Apply the write set, then log and force the pages.  Unhinted
        records go first; the hinted ones follow in pre-order along the
        forest the hints form, each placed right after the record written
        before it, so a subtree's records are contiguous (section 5.2)."""
        try:
            self._meta["commit_ts"] += 1
            timestamp = self._meta["commit_ts"]
            hinted = txn.place_near
            for oid in txn.write_set:
                if oid not in hinted:
                    self._apply_write(txn, oid, None, timestamp)
            below: Dict[int, List[int]] = {}
            for oid, near in hinted.items():
                below.setdefault(near, []).append(oid)
            placed = set()
            for root in [near for near in below if near not in hinted]:
                previous = self._directory.search_unique(root)
                pending = below[root][::-1]
                while pending:
                    oid = pending.pop()
                    placed.add(oid)
                    previous = self._apply_write(txn, oid, previous, timestamp)
                    pending += below.get(oid, ())[::-1]
            for oid in [o for o in hinted if o not in placed]:  # on a hint cycle
                self._apply_write(txn, oid, None, timestamp)
            self._save_meta()
            self._save_roots()
        except BaseException:
            self._reopen_at_last_commit()
            raise
        self._log_and_force(txn.txid)

    def _reopen_at_last_commit(self) -> None:
        """Throw away a half-built commit: reopen from the WAL.

        Nothing of the failed write set is logged.  The pool is
        no-steal and a freed page's free-list link is a dirty frame
        like any other, so no page the write set touched reached the
        data file; a page the commit newly allocated past the end of
        the file was zero-filled there, which no committed state
        references.  But the dirty frames and the in-memory header
        (roots, page count, free-list head) would be logged by the
        next commit, so drop every handle without writing the header
        and reopen: WAL recovery rebuilds the last committed state.
        """
        self._file.discard()
        self._dispose_handles()
        self.stats.aborts += 1
        self.instrumentation.count("engine.store.aborts")
        self.open()

    def _log_and_force(self, txid: int) -> None:
        """WAL the dirty page images + roots, fsync, then force pages.

        The write-ahead rule: no page image reaches the data file
        before the log records that can recreate it are durable.
        """
        self._epoch += 1
        records = [
            wal_mod.page_record(txid, pid, image)
            for pid, image in self._pool.dirty_pages().items()
        ]
        records.append(
            wal_mod.roots_record(
                txid, self._file.roots_snapshot(), self._file.free_head
            )
        )
        self._wal.log_commit(txid, records)
        self._pool.flush_all()
        if self._wal_size() > CHECKPOINT_AFTER_BYTES:
            self._file.sync()
            self._wal.log_checkpoint()
            self.stats.checkpoints += 1

    def _wal_size(self) -> int:
        return self.vfs.size(self._wal.path)

    def _apply_write(
        self, txn: Transaction, oid: int, near: Optional[Rid], timestamp: int
    ) -> Optional[Rid]:
        """Apply ``oid``'s buffered write, placing the record on or after
        ``near``'s page; returns its rid (``near`` for a delete)."""
        buffered = txn.write_set[oid]
        if buffered is DELETED and oid in txn.new_classes:
            return near  # created and deleted here: dropping it is the delete
        self.stats.objects_written += 1
        self.instrumentation.count("engine.store.objects_written")
        if buffered is DELETED:
            self._apply_delete(oid)
            return near
        if oid in txn.created:
            return self._apply_insert(oid, txn.new_classes[oid], buffered, near, timestamp)
        return self._apply_update(oid, buffered, near, timestamp)

    def _apply_insert(
        self,
        oid: int,
        class_name: str,
        state: Dict[str, Any],
        near_rid: Optional[Rid],
        timestamp: int,
    ) -> Rid:
        definition = self._catalog.get(class_name)
        record = self._encode_record(definition, oid, state, 0, timestamp)
        rid = self._heap.insert(record, near=near_rid)
        if self._decode_cache is not None:
            # An oid is never handed out twice, so nothing should be
            # here; the slot's previous occupant, if any, lost its
            # entry when it was deleted or relocated.
            self._decode_cache.invalidate(oid)
        self._directory.insert(oid, rid, disc=0)
        self._index_replace(class_name, oid, {}, state)
        return rid

    def _apply_update(
        self,
        oid: int,
        state: Dict[str, Any],
        near_rid: Optional[Rid],
        timestamp: int,
    ) -> Rid:
        rid, old = self._shared_record(oid)  # the pre-image, read-only
        version_head = old["p"]
        if self.versioned:
            version_head = preserve_version(
                self._heap, oid, old["ts"], old["s"], version_head
            )
        definition = self._catalog.get_by_id(old["c"])
        record = self._encode_record(
            definition, oid, state, version_head, timestamp
        )
        if near_rid is not None:
            self._heap.delete(rid)
            new_rid = self._heap.insert(record, near=near_rid)
        else:
            new_rid = self._heap.update(rid, record)
        if self._decode_cache is not None:
            self._decode_cache.invalidate(oid)
        if new_rid != rid:
            self._directory.update_value(oid, 0, new_rid)
        self._index_replace(definition.name, oid, old["s"], state)
        return new_rid

    def _apply_delete(self, oid: int) -> None:
        rid, old = self._shared_record(oid)  # the pre-image, read-only
        self._heap.delete(rid)
        if self._decode_cache is not None:
            self._decode_cache.invalidate(oid)
        self._directory.delete(oid, rid, disc=0)
        class_name = self._catalog.get_by_id(old["c"]).name
        self._index_replace(class_name, oid, old["s"], {})

    # ------------------------------------------------------------------
    # Extents
    # ------------------------------------------------------------------

    def scan_class(
        self,
        class_name: str,
        include_subclasses: bool = True,
    ) -> Iterator[int]:
        """The OIDs of the class's live objects, and of its subclasses'
        unless ``include_subclasses`` is off: the walk of
        :meth:`scan_states`, decoding each record's class and OID only.
        Objects the pending transaction created are included, and
        objects it deleted are not, so a transaction sees its own work.
        """
        self._require_open()
        class_ids = self._class_ids(class_name, include_subclasses)
        return (oid for oid, _state in self._scan(class_ids, ()))

    # ------------------------------------------------------------------
    # Indexes
    # ------------------------------------------------------------------

    def create_index(self, class_name: str, field: str) -> None:
        """Create (and back-fill) an integer index on ``class.field``.

        The index covers the class and its subclasses.  Requires no
        pending writes: the back-fill reads the committed objects.
        """
        self._require_idle("create an index")
        if (class_name, field) in self._indexes:
            raise SchemaError(
                f"index on {class_name}.{field} already exists"
            )
        if field not in self._catalog.all_field_names(class_name):
            raise SchemaError(f"{class_name} has no field {field!r}")
        # A root name is cut to the header's 16 bytes; two indexes that
        # shared one would reopen onto the same tree.
        root_name = self._index_root_name(class_name, field)
        for other_class, other_field in self._indexes:
            if self._index_root_name(other_class, other_field) == root_name:
                raise SchemaError(
                    f"index on {class_name}.{field} would share header root"
                    f" {root_name!r} with the index on"
                    f" {other_class}.{other_field}"
                )
        tree = BTree(self._pool, 0)
        self._indexes[(class_name, field)] = tree
        self._meta["indexes"].append([class_name, field])
        # Back-fill with a sorted bottom-up bulk load: O(n) instead
        # of n top-down inserts over the existing extent.
        rows = []
        for oid, state in self.scan_states(class_name, (field,)):
            value = state[field]
            if value is not None:
                self._index_check_int(class_name, field, value)
                rows.append((value, oid, oid))
        rows.sort()
        tree.bulk_load(rows)
        self._save_meta()
        self._save_roots()
        self._log_and_force(self._next_txid)
        self._next_txid += 1

    @staticmethod
    def _index_check_int(class_name: str, field: str, value: Any) -> None:
        if not isinstance(value, int) or isinstance(value, bool):
            raise SchemaError(
                f"index on {class_name}.{field} requires int values, "
                f"got {type(value).__name__}"
            )

    def _indexes_covering(self, class_name: str) -> List[Tuple[str, str, BTree]]:
        found = []
        for (indexed_class, field), tree in self._indexes.items():
            if self._catalog.is_subclass(class_name, indexed_class):
                found.append((indexed_class, field, tree))
        return found

    def _index_replace(
        self,
        class_name: str,
        oid: int,
        old_state: Dict[str, Any],
        new_state: Dict[str, Any],
    ) -> None:
        """Move ``oid`` from its ``old_state`` index entries to its
        ``new_state`` ones; ``{}`` on either side is an insert / a delete."""
        for _indexed_class, field, tree in self._indexes_covering(class_name):
            old_value = old_state.get(field)
            new_value = new_state.get(field)
            if old_value == new_value:
                continue
            if old_value is not None:
                tree.delete(old_value, oid, disc=oid)
            if new_value is not None:
                tree.insert(new_value, oid, disc=oid)

    def _check_indexed_values(self, txn: Transaction) -> None:
        """Refuse a write set with a non-int indexed value before the
        first page is touched: a write set is applied object by object,
        and a refusal halfway would leave dirty pages for the next
        commit to log.  The object's class is resolved only for a value
        that fails, so a write set larger than the decode cache is not
        read twice."""
        for oid, state in txn.write_set.items():
            if state is DELETED:
                continue
            for indexed_class, field in self._indexes:
                value = state.get(field)
                if value is None:
                    continue
                try:
                    self._index_check_int(indexed_class, field, value)
                except SchemaError:
                    class_name = self.class_of(oid)
                    if self._catalog.is_subclass(class_name, indexed_class):
                        raise

    def index_lookup(self, class_name: str, field: str, value: int) -> List[int]:
        """OIDs with ``field == value`` via the index."""
        return self.index_range(class_name, field, value, value)

    def index_range(
        self, class_name: str, field: str, low: int, high: int
    ) -> List[int]:
        """OIDs with ``low <= field <= high`` via the index.

        Raises:
            SchemaError: if no index exists on the class/field pair.
        """
        self._require_open()
        tree = self._indexes.get((class_name, field))
        if tree is None:
            raise SchemaError(f"no index on {class_name}.{field}")
        return [oid for _key, oid in tree.scan_range(low, high)]

    # ------------------------------------------------------------------
    # Versions (R5)
    # ------------------------------------------------------------------

    def version_chain(self, oid: int) -> VersionChain:
        """The preserved history of an object, newest first."""
        self._require_open()
        head = self._shared_record(oid)[1]["p"]
        return VersionChain(self._heap, head)

    def previous_version(self, oid: int) -> Optional[Dict[str, Any]]:
        """The state the object had before its latest committed update."""
        newest = self.version_chain(oid).newest()
        return dict(newest.state) if newest else None

    def version_at(self, oid: int, timestamp: int) -> Optional[Dict[str, Any]]:
        """The object's state as of a past commit timestamp.

        Returns the live state if the object has not changed since
        ``timestamp``, a preserved version otherwise, or None if the
        object did not exist yet.
        """
        self._require_open()
        record = self._shared_record(oid)[1]
        if record["ts"] <= timestamp:
            return _clone_value(record["s"])
        version = VersionChain(self._heap, record["p"]).at(timestamp)
        return dict(version.state) if version else None

    # ------------------------------------------------------------------
    # Vacuum: copy-compaction (reclaims tombstones and empty pages)
    # ------------------------------------------------------------------

    def vacuum(self) -> "VacuumStats":
        """Rewrite the database into its compact form.

        Deletes leave tombstoned slots and lazily-emptied B+tree leaves
        behind; vacuum rebuilds the file by copying every live object
        (in heap order, so a clustered file stays clustered; preserving
        OIDs, class versions, timestamps and version chains) into a
        fresh store, then atomically swaps the files.  Indexes are
        re-created and back-filled.

        Requires no pending writes.  Returns before/after sizes.
        """
        self._require_idle("vacuum")
        self.checkpoint()
        size_before = self.vfs.size(self.path)

        compact_path = self.path + ".vacuum"
        for stale in (compact_path, compact_path + ".wal"):
            if self.vfs.exists(stale):
                self.vfs.remove(stale)
        target = ObjectStore(
            compact_path,
            cache_pages=self.cache_pages,
            clustered=self.clustering.enabled,
            versioned=self.versioned,
            sync_commits=False,
            instrumentation=self.instrumentation,
            vfs=self._base_vfs,
        )
        target.open()
        self._copy_contents_into(target)
        target.close()

        self.close()
        self.vfs.replace(compact_path, self.path)
        wal_path = self.path + ".wal"
        if self.vfs.exists(wal_path):
            self.vfs.remove(wal_path)
        vacuum_wal = compact_path + ".wal"
        if self.vfs.exists(vacuum_wal):
            self.vfs.remove(vacuum_wal)
        self.open()
        size_after = self.vfs.size(self.path)
        return VacuumStats(size_before, size_after)

    def _copy_contents_into(self, target: "ObjectStore") -> None:
        """Copy catalog, objects (with history) and indexes to ``target``."""
        # Catalog: classes in definition order preserves class ids.
        for name in self._catalog.class_names():
            definition = self._catalog.get(name)
            copied = target._catalog.define_class(
                name, [FieldDefinition(f.name, f.default)
                       for f in definition.fields],
                base=definition.base,
            )
            copied.version = definition.version
            copied.layout = list(definition.layout)
        target._catalog.save()

        # Objects, preserving OIDs, timestamps and version chains, in
        # the heap order of their records: OID order is creation order,
        # and copying in it would undo the clustering.
        for _rid, payload in self._heap.scan():
            if payload[0] != serializer.LIST_TAG:
                continue  # meta, catalog and preserved versions
            oid = serializer.decode_view(payload, 2)[1]
            record = self._decode_record(payload)
            chain = list(VersionChain(self._heap, record["p"]))
            new_head = 0
            for version in reversed(chain):  # oldest first
                new_head = preserve_version(
                    target._heap, oid, version.timestamp,
                    version.state, new_head,
                )
            # At the current version: the state read back is whole.
            definition = target._catalog.get_by_id(record["c"])
            encoded = target._encode_record(
                definition, oid, record["s"], new_head, record["ts"]
            )
            new_rid = target._heap.insert(encoded)
            target._directory.insert(oid, new_rid, disc=0)

        target._meta["next_oid"] = self._meta["next_oid"]
        target._meta["commit_ts"] = self._meta["commit_ts"]
        target._save_meta()
        for class_name, field in self._meta["indexes"]:
            target.create_index(class_name, field)
        target.checkpoint()

    # ------------------------------------------------------------------
    # Backup and restore (R10)
    # ------------------------------------------------------------------

    def backup(self, path: str) -> None:
        """Write a consistent snapshot of the database to ``path``.

        A checkpoint forces every committed page to the data file and
        truncates the WAL, after which the file alone *is* the
        database; the snapshot is a plain copy of it.  Requires no
        pending writes.
        """
        self._require_idle("back up")
        self.checkpoint()
        self.vfs.copy(self.path, path)

    @staticmethod
    def restore(
        backup_path: str, db_path: str, vfs: Optional[VFS] = None
    ) -> None:
        """Replace the database at ``db_path`` with a backup snapshot.

        The target store must be closed.  Any leftover WAL beside the
        target is removed — its contents belong to the overwritten
        database, not the snapshot.
        """
        fs = vfs or RealVFS()
        fs.copy(backup_path, db_path)
        wal_path = db_path + ".wal"
        if fs.exists(wal_path):
            fs.remove(wal_path)

    def record_timestamp(self, oid: int) -> int:
        """The commit timestamp of an object's current committed state.

        R5's "when did this object last change", the live-side
        companion of :meth:`version_at`: at any ``t`` no older than
        this, ``version_at(oid, t)`` is the live state.  A changed
        timestamp means someone committed the object in between.
        """
        self._require_open()
        # Served from the decode cache without cloning: "ts" is a
        # scalar read, and the cache is invalidated by every commit
        # that touches the record.
        return self._shared_record(oid)[1]["ts"]

    # ------------------------------------------------------------------
    # Physical introspection (clustering ablation)
    # ------------------------------------------------------------------

    def page_of(self, oid: int) -> int:
        """The heap page currently holding an object's record."""
        self._require_open()
        return rid_page(self._rid_of(oid))

    def space(self) -> Tuple[int, int, int, int]:
        """``(heap, index, free, live)``: the file's pages but the header
        by kind (heap, B+tree, free list) and the live records' payload
        bytes — a walk of every tree, the free list and the heap."""
        self._require_open()
        trees = [self._directory, *self._indexes.values()]
        index = sum(1 for tree in trees for _ in tree.page_ids())
        free = sum(1 for _ in self._pool.free_page_ids())
        live = sum(len(payload) for _rid, payload in self._heap.scan())
        return self._file.page_count - 1 - index - free, index, free, live

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "open" if self.is_open else "closed"
        return f"<ObjectStore {self.path!r} {status}>"
