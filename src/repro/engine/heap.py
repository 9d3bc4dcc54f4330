"""Heap files: variable-length records with placement hints.

A heap file is a chain of slotted pages (linked through each page's
reserved header word).  Records are addressed by a **RID** packing the
page id and slot number into one integer, so RIDs are storable wherever
an integer is (B+tree values, serialized object state).

Two features matter for the benchmark:

* **Placement hints** — ``insert(data, near=rid)`` tries to place the
  record on the same page as ``near``.  The clustering policy uses this
  to keep a 1-N subtree physically together, which is precisely the
  effect the paper predicts will make ``closure1N`` beat ``closureMN``.
* **Overflow chains** — a record larger than a page (a 400x400 form
  bitmap is ~20 KiB) is stored as a stub record pointing at a chain of
  dedicated overflow pages.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Optional, Tuple

from repro.engine import slotted
from repro.engine.buffer import BufferPool
from repro.engine.pages import PAGE_SIZE, PageId
from repro.errors import PageError, RecordNotFoundError

#: A record id: (page id << 16) | slot.
Rid = int

_SLOT_BITS = 16
_SLOT_MASK = (1 << _SLOT_BITS) - 1

_INLINE = 0
_OVERFLOW = 1

#: Overflow stub payload: total length + first overflow page id.
_OVERFLOW_STUB = struct.Struct("<QQ")

#: Overflow page header: next page id + bytes used on this page.
_OVERFLOW_HEADER = struct.Struct("<QI")
_OVERFLOW_CAPACITY = PAGE_SIZE - _OVERFLOW_HEADER.size

#: Next-page chain link lives in the slotted header's reserved word.
_NEXT_LINK = struct.Struct("<I")
_NEXT_LINK_OFFSET = 4  # after slot_count (H) + record_end (H)


def make_rid(pid: PageId, slot: int) -> Rid:
    """Pack a page id and slot number into a RID."""
    return (pid << _SLOT_BITS) | slot


def rid_page(rid: Rid) -> PageId:
    """Extract the page id from a RID."""
    return rid >> _SLOT_BITS


def rid_slot(rid: Rid) -> int:
    """Extract the slot number from a RID."""
    return rid & _SLOT_MASK


def _get_next(page: bytearray) -> PageId:
    (next_pid,) = _NEXT_LINK.unpack_from(page, _NEXT_LINK_OFFSET)
    return next_pid


def _set_next(page: bytearray, pid: PageId) -> None:
    _NEXT_LINK.pack_into(page, _NEXT_LINK_OFFSET, pid)


class HeapFile:
    """One named heap of records inside a database file.

    The head and tail page ids persist as named roots of the page file
    (``<name>.head`` / ``<name>.tail``) so opening a heap never scans
    the chain — keeping a freshly opened database genuinely cold.
    """

    def __init__(self, pool: BufferPool, name: str) -> None:
        self._pool = pool
        self.name = name
        self._head_root = f"{name}.head"
        self._tail_root = f"{name}.tail"
        file = pool._file
        self._head: PageId = file.get_root(self._head_root, 0)
        self._tail: PageId = file.get_root(self._tail_root, 0)
        #: Full hint page -> the clustered continuation page spliced
        #: after it.  A volatile optimization: losing it only costs
        #: placement quality, never correctness.
        self._continuations: dict = {}
        if not self._head:
            self._head = self._new_heap_page()
            self._tail = self._head
        self._save_roots()

    def _save_roots(self) -> None:
        file = self._pool._file
        file.set_root(self._head_root, self._head)
        file.set_root(self._tail_root, self._tail)

    def _new_heap_page(self) -> PageId:
        pid = self._pool.new_page()
        page = self._pool.get(pid)
        try:
            slotted.init_page(page)
            _set_next(page, 0)
        finally:
            self._pool.unpin(pid, dirty=True)
        return pid

    def _append_page(self) -> PageId:
        pid = self._new_heap_page()
        tail_page = self._pool.get(self._tail)
        try:
            _set_next(tail_page, pid)
        finally:
            self._pool.unpin(self._tail, dirty=True)
        self._tail = pid
        self._save_roots()
        return pid

    def _splice_page_after(self, anchor_pid: PageId) -> PageId:
        """Insert a fresh page into the chain right after ``anchor_pid``.

        Used when a placement hint's page is full: the new page keeps
        the clustered records physically adjacent in scan order.
        """
        pid = self._new_heap_page()
        anchor_page = self._pool.get(anchor_pid)
        try:
            successor = _get_next(anchor_page)
            _set_next(anchor_page, pid)
        finally:
            self._pool.unpin(anchor_pid, dirty=True)
        new_page = self._pool.get(pid)
        try:
            _set_next(new_page, successor)
        finally:
            self._pool.unpin(pid, dirty=True)
        if anchor_pid == self._tail:
            self._tail = pid
        self._save_roots()
        return pid

    # ------------------------------------------------------------------
    # Record encoding (inline vs overflow)
    # ------------------------------------------------------------------

    def _encode_inline(self, data: bytes) -> bytes:
        return bytes([_INLINE]) + data

    def _write_overflow_chain(self, data: bytes) -> PageId:
        first = 0
        previous = 0
        for start in range(0, len(data), _OVERFLOW_CAPACITY):
            chunk = data[start : start + _OVERFLOW_CAPACITY]
            pid = self._pool.new_page()
            page = self._pool.get(pid)
            try:
                _OVERFLOW_HEADER.pack_into(page, 0, 0, len(chunk))
                page[
                    _OVERFLOW_HEADER.size : _OVERFLOW_HEADER.size + len(chunk)
                ] = chunk
            finally:
                self._pool.unpin(pid, dirty=True)
            if previous:
                prev_page = self._pool.get(previous)
                try:
                    _used = _OVERFLOW_HEADER.unpack_from(prev_page, 0)[1]
                    _OVERFLOW_HEADER.pack_into(prev_page, 0, pid, _used)
                finally:
                    self._pool.unpin(previous, dirty=True)
            else:
                first = pid
            previous = pid
        return first

    def _read_overflow_chain(self, first: PageId, total: int) -> bytes:
        parts = []
        pid = first
        remaining = total
        while pid and remaining > 0:
            page = self._pool.get(pid)
            try:
                next_pid, used = _OVERFLOW_HEADER.unpack_from(page, 0)
                parts.append(
                    bytes(page[_OVERFLOW_HEADER.size : _OVERFLOW_HEADER.size + used])
                )
                remaining -= used
            finally:
                self._pool.unpin(pid)
            pid = next_pid
        if remaining != 0:
            raise PageError("overflow chain length mismatch")
        return b"".join(parts)

    def _free_overflow_chain(self, first: PageId) -> None:
        pid = first
        while pid:
            page = self._pool.get(pid)
            try:
                next_pid, _used = _OVERFLOW_HEADER.unpack_from(page, 0)
            finally:
                self._pool.unpin(pid)
            self._pool.free_page(pid)
            pid = next_pid

    def _make_record(self, data: bytes) -> bytes:
        if len(data) + 1 <= slotted.MAX_RECORD_SIZE:
            return self._encode_inline(data)
        first = self._write_overflow_chain(data)
        stub = bytearray(1 + _OVERFLOW_STUB.size)
        stub[0] = _OVERFLOW
        _OVERFLOW_STUB.pack_into(stub, 1, len(data), first)
        return bytes(stub)

    def _decode_record(self, raw: bytes) -> bytes:
        """Decode a raw slotted record to its payload.

        ``raw`` may be a zero-copy ``memoryview`` into a page frame; an
        inline record's payload is then itself a view (valid until the
        page is next mutated), while overflow payloads are always owned
        bytes reassembled from the chain.
        """
        if raw[0] == _INLINE:
            return raw[1:]
        if raw[0] == _OVERFLOW:
            total, first = _OVERFLOW_STUB.unpack_from(raw, 1)
            return self._read_overflow_chain(first, total)
        raise PageError(f"unknown record tag {raw[0]}")

    def _release_record(self, raw: bytes) -> None:
        """Free overflow pages owned by a record being deleted/replaced."""
        if raw[0] == _OVERFLOW:
            _total, first = _OVERFLOW_STUB.unpack_from(raw, 1)
            self._free_overflow_chain(first)

    #: Bytes of a raw record that _release_record ever looks at: the
    #: tag plus, for overflow records, the (length, first page) stub.
    _RELEASE_PREFIX = 1 + _OVERFLOW_STUB.size

    # ------------------------------------------------------------------
    # Public record operations
    # ------------------------------------------------------------------

    def insert(self, data: bytes, near: Optional[Rid] = None) -> Rid:
        """Insert a record, preferring the page of ``near`` if given.

        Falls back to the tail page, then appends a new page.  Returns
        the new record's RID.
        """
        return self.insert_encoded(self._make_record(data), near=near)

    def read(self, rid: Rid) -> bytes:
        """Read the record at ``rid``.

        Inline records come back as a zero-copy ``memoryview`` into the
        (unpinned but unmodified) page frame; overflow records are
        owned bytes.  Decode or copy the payload before the next heap
        mutation.

        Raises:
            RecordNotFoundError: if the slot is deleted or out of range.
        """
        pid, slot = rid_page(rid), rid_slot(rid)
        page = self._pool.get(pid)
        try:
            raw = slotted.read(page, slot)
        except PageError:
            raise RecordNotFoundError(rid) from None
        finally:
            self._pool.unpin(pid)
        return self._decode_record(raw)

    def update(self, rid: Rid, data: bytes) -> Rid:
        """Replace the record at ``rid``; may relocate.

        Returns the (possibly new) RID.  Callers that store RIDs
        elsewhere (the object directory) must record the returned
        value.
        """
        pid, slot = rid_page(rid), rid_slot(rid)
        record = self._make_record(data)
        page = self._pool.get(pid)
        try:
            try:
                # slotted.read returns a view into the page and
                # slotted.update may move/overwrite the old bytes, so
                # copy the prefix _release_record needs *before*
                # mutating.
                old_head = bytes(
                    slotted.read(page, slot)[: self._RELEASE_PREFIX]
                )
            except PageError:
                raise RecordNotFoundError(rid) from None
            fitted = slotted.update(page, slot, record)
        finally:
            self._pool.unpin(pid, dirty=True)
        self._release_record(old_head)
        if fitted:
            return rid
        # Relocate: delete here, insert elsewhere (same-page hint first).
        page = self._pool.get(pid)
        try:
            slotted.delete(page, slot)
        finally:
            self._pool.unpin(pid, dirty=True)
        return self.insert_encoded(record, near=rid)

    def insert_encoded(self, record: bytes, near: Optional[Rid] = None) -> Rid:
        """Insert an already-encoded record, honouring placement hints.

        With a ``near`` hint the record goes onto the hint's page, its
        recorded continuation page, or a fresh page spliced right after
        the hint's — so clustered records stay adjacent in the chain.
        Without a hint it goes to the tail, appending as needed.
        """
        if near is not None:
            anchor_pid = rid_page(near)
            candidates = [anchor_pid]
            continuation = self._continuations.get(anchor_pid)
            if continuation is not None:
                candidates.append(continuation)
            slot_pid = self._try_insert(candidates, record)
            if slot_pid is not None:
                return slot_pid
            pid = self._splice_page_after(
                continuation if continuation is not None else anchor_pid
            )
            self._continuations[anchor_pid] = pid
            return self._must_insert(pid, record)

        slot_pid = self._try_insert([self._tail], record)
        if slot_pid is not None:
            return slot_pid
        return self._must_insert(self._append_page(), record)

    def _try_insert(self, pids, record: bytes) -> Optional[Rid]:
        for pid in pids:
            page = self._pool.get(pid)
            slot = None
            try:
                if slotted.can_insert(page, len(record)):
                    slot = slotted.insert(page, record)
            finally:
                self._pool.unpin(pid, dirty=slot is not None)
            if slot is not None:
                return make_rid(pid, slot)
        return None

    def _must_insert(self, pid: PageId, record: bytes) -> Rid:
        page = self._pool.get(pid)
        try:
            slot = slotted.insert(page, record)
        finally:
            self._pool.unpin(pid, dirty=True)
        return make_rid(pid, slot)

    def delete(self, rid: Rid) -> None:
        """Delete the record at ``rid`` (freeing any overflow chain)."""
        pid, slot = rid_page(rid), rid_slot(rid)
        page = self._pool.get(pid)
        try:
            try:
                raw = bytes(
                    slotted.read(page, slot)[: self._RELEASE_PREFIX]
                )
            except PageError:
                raise RecordNotFoundError(rid) from None
            slotted.delete(page, slot)
        finally:
            self._pool.unpin(pid, dirty=True)
        self._release_record(raw)

    def read_many(self, rids) -> "dict":
        """Read many records with one page pin per distinct page.

        Returns ``{rid: payload}``.  Inline payloads are zero-copy
        views (see :meth:`read`); the caller must decode or copy them
        before the next heap mutation.

        Raises:
            RecordNotFoundError: if any slot is deleted or out of range.
        """
        by_page: dict = {}
        for rid in rids:
            by_page.setdefault(rid >> _SLOT_BITS, []).append(rid)
        raws: dict = {}
        for pid in sorted(by_page):
            page = self._pool.get(pid)
            try:
                for rid in by_page[pid]:
                    try:
                        raws[rid] = slotted.read(page, rid & _SLOT_MASK)
                    except PageError:
                        raise RecordNotFoundError(rid) from None
            finally:
                self._pool.unpin(pid)
        # Decode after all directory pins are released: overflow chains
        # re-enter the pool, and nothing here mutates pages, so the
        # inline views stay valid.
        return {rid: self._decode_record(raw) for rid, raw in raws.items()}

    def scan(self) -> Iterator[Tuple[Rid, bytes]]:
        """Iterate every live record in physical (page-chain) order."""
        for records in self.walk():
            for rid, payload, whole in records:
                yield rid, payload if whole else self.read(rid)

    def walk(self) -> Iterator[List[Tuple[Rid, bytes, bool]]]:
        """Each page's live records as ``(rid, payload, whole)`` with
        owned bytes, a list per page in chain order, each page pinned
        once.

        An overflow record adds one pin, of its chain's first page, and
        its payload is the bytes that page holds: ``whole`` says whether
        that is all of the record (:meth:`read` the rest).
        """
        pool = self._pool
        pid = self._head
        while pid:
            page = pool.get(pid)
            try:
                data = bytes(page)  # the consumer may write between yields
            finally:
                pool.unpin(pid)
            yield [
                ((pid << _SLOT_BITS) | slot, data[offset + 1 : offset + length], True)
                if data[offset] == _INLINE
                else self._overflow_head(
                    (pid << _SLOT_BITS) | slot,
                    *_OVERFLOW_STUB.unpack_from(data, offset + 1),
                )
                for slot, offset, length in slotted.cells(data)
            ]
            pid = _get_next(data)

    def _overflow_head(
        self, rid: Rid, total: int, first: PageId
    ) -> Tuple[Rid, bytes, bool]:
        """``rid``'s entry in :meth:`walk`: the bytes on the first page
        of its overflow chain."""
        page = self._pool.get(first)
        try:
            used = _OVERFLOW_HEADER.unpack_from(page, 0)[1]
            head = bytes(page[_OVERFLOW_HEADER.size : _OVERFLOW_HEADER.size + used])
        finally:
            self._pool.unpin(first)
        return rid, head, used == total

    def page_ids(self) -> Iterator[PageId]:
        """Iterate the heap's page chain (for statistics and tests)."""
        pid = self._head
        while pid:
            page = self._pool.get(pid)
            try:
                next_pid = _get_next(page)
            finally:
                self._pool.unpin(pid)
            yield pid
            pid = next_pid
