"""The slotted-page record layout used by heap pages.

Layout of a slotted page::

    +--------------------------------------------------------------+
    | header | record cells grow ->        ...     <- slot dir     |
    +--------------------------------------------------------------+

* The **header** (16 bytes) holds the slot count, the offset of the end
  of the record area (records are appended at the front), the heap
  layer's next-page chain link, and two maintenance hints: the total
  bytes of live records (so ``can_insert`` never sums the directory)
  and the index of the first slot that *may* be a tombstone (so
  ``insert`` never scans live slots looking for one to reuse).
* The **slot directory** grows backward from the end of the page; each
  4-byte slot holds the record's offset and length.  A deleted slot is
  a tombstone (offset ``0xFFFF``) so slot numbers stay stable — record
  ids embed the slot number, and other pages may reference it.
* :func:`compact` rewrites the record area to squeeze out holes left by
  deletes and shrinking updates, preserving slot numbers.

All functions operate in place on a ``bytearray`` page buffer supplied
by the buffer pool.  Read paths are **zero-copy**: :func:`read` and
:func:`records` return ``memoryview`` slices into the page buffer, not
``bytes`` copies.  Callers must treat the views as read-only and must
not hold one across a mutation of the same page (insert/update/delete/
compact may move the underlying bytes); copy with ``bytes(view)`` when
the record outlives the pin.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Optional, Tuple

from repro.engine.pages import PAGE_SIZE
from repro.errors import PageError

# slot_count, record_end, next-page link (heap's word), live_bytes,
# free_slot_hint, reserved.
_HEADER = struct.Struct("<HHIHHI")
_COUNT_END = struct.Struct("<HH")  # the slot_count/record_end prefix
_HINTS = struct.Struct("<HH")  # live_bytes, free_slot_hint
_HINTS_OFFSET = 8  # after count (H) + end (H) + heap next link (I)
_SLOT = struct.Struct("<HH")  # offset, length

HEADER_SIZE = _HEADER.size
SLOT_SIZE = _SLOT.size

#: Offset marking a deleted (tombstoned) slot.
TOMBSTONE = 0xFFFF

#: ``free_slot_hint`` value meaning "no tombstoned slot on this page".
NO_FREE_SLOT = 0xFFFF

#: Largest record a single page can hold (one slot, empty page).
MAX_RECORD_SIZE = PAGE_SIZE - HEADER_SIZE - SLOT_SIZE


def init_page(page: bytearray) -> None:
    """Format a zeroed buffer as an empty slotted page."""
    _HEADER.pack_into(page, 0, 0, HEADER_SIZE, 0, 0, NO_FREE_SLOT, 0)


def slot_count(page: bytearray) -> int:
    """Number of slots in the directory (including tombstones)."""
    (count,) = struct.unpack_from("<H", page, 0)
    return count


def _record_end(page: bytearray) -> int:
    (end,) = struct.unpack_from("<H", page, 2)
    return end


def _set_header(page: bytearray, count: int, end: int) -> None:
    # Only the mutable prefix: the next-link word belongs to the heap
    # layer (it chains pages) and must survive record operations.
    _COUNT_END.pack_into(page, 0, count, end)


def _hints(page: bytearray) -> Tuple[int, int]:
    """The maintenance hints: (live record bytes, first-tombstone hint).

    The hint is a conservative *lower bound*: every slot below it is
    live, but the slot it names may or may not still be a tombstone.
    ``NO_FREE_SLOT`` asserts the page has no tombstones at all.
    """
    return _HINTS.unpack_from(page, _HINTS_OFFSET)


def _set_hints(page: bytearray, live_bytes: int, free_hint: int) -> None:
    _HINTS.pack_into(page, _HINTS_OFFSET, live_bytes, free_hint)


def _slot_pos(index: int) -> int:
    return PAGE_SIZE - SLOT_SIZE * (index + 1)


def _read_slot(page: bytearray, index: int) -> Tuple[int, int]:
    return _SLOT.unpack_from(page, _slot_pos(index))


def _write_slot(page: bytearray, index: int, offset: int, length: int) -> None:
    _SLOT.pack_into(page, _slot_pos(index), offset, length)


def free_space(page: bytearray) -> int:
    """Bytes available for a new record *including* its new slot."""
    count = slot_count(page)
    directory_start = PAGE_SIZE - SLOT_SIZE * count
    gap = directory_start - _record_end(page)
    return max(gap - SLOT_SIZE, 0)


def can_insert(page: bytearray, length: int) -> bool:
    """Whether a record of ``length`` bytes fits (maybe after compaction)."""
    if length > MAX_RECORD_SIZE:
        return False
    if free_space(page) >= length:
        return True
    return _reclaimable_space(page) >= length


def _reclaimable_space(page: bytearray) -> int:
    """Free space obtainable by compacting the record area.

    O(1): the live-byte total is maintained in the header instead of
    being re-summed over the whole slot directory on every call.
    """
    count = slot_count(page)
    live, _hint = _hints(page)
    directory_start = PAGE_SIZE - SLOT_SIZE * count
    gap = directory_start - HEADER_SIZE - live
    return max(gap - SLOT_SIZE, 0)


def _find_free_slot(page: bytearray, count: int) -> Optional[int]:
    """First tombstoned slot, or None — amortized O(1) via the hint.

    Scanning starts at the header hint; every live slot the scan steps
    over permanently advances the lower bound, so repeated inserts never
    rescan the same live prefix.
    """
    live, hint = _hints(page)
    if hint == NO_FREE_SLOT:
        return None
    for index in range(hint, count):
        offset, _len = _read_slot(page, index)
        if offset == TOMBSTONE:
            if index != hint:
                _set_hints(page, live, index)
            return index
    _set_hints(page, live, NO_FREE_SLOT)
    return None


def insert(page: bytearray, data: bytes) -> int:
    """Insert a record, returning its slot number.

    Reuses a tombstoned slot if one exists (found via the header's
    free-slot hint, not a directory scan), compacts if fragmentation
    blocks an otherwise-fitting record, and raises
    :class:`~repro.errors.PageError` if the record cannot fit.
    """
    length = len(data)
    if length > MAX_RECORD_SIZE:
        raise PageError(f"record of {length} bytes exceeds page capacity")
    count = slot_count(page)
    reuse = _find_free_slot(page, count)

    needed = length if reuse is not None else length + SLOT_SIZE
    directory_start = PAGE_SIZE - SLOT_SIZE * count
    if directory_start - _record_end(page) < needed:
        compact(page)
        directory_start = PAGE_SIZE - SLOT_SIZE * count
        if directory_start - _record_end(page) < needed:
            raise PageError("page full")

    live, hint = _hints(page)
    offset = _record_end(page)
    page[offset : offset + length] = data
    if reuse is not None:
        _write_slot(page, reuse, offset, length)
        _set_header(page, count, offset + length)
        # The reused slot is live again; the next tombstone (if any)
        # can only be past it.
        _set_hints(page, live + length, reuse + 1 if reuse + 1 < count else NO_FREE_SLOT)
        return reuse
    _write_slot(page, count, offset, length)
    _set_header(page, count + 1, offset + length)
    _set_hints(page, live + length, hint)
    return count


def read(page: bytearray, slot: int) -> memoryview:
    """Return the record stored in ``slot`` as a zero-copy view.

    The view aliases the page buffer: treat it as read-only and copy it
    (``bytes(view)``) before mutating the page or releasing the pin
    beyond the current operation.

    Raises:
        PageError: if the slot is out of range or tombstoned.
    """
    if not 0 <= slot < slot_count(page):
        raise PageError(f"slot {slot} out of range")
    offset, length = _read_slot(page, slot)
    if offset == TOMBSTONE:
        raise PageError(f"slot {slot} is deleted")
    return memoryview(page)[offset : offset + length]


def delete(page: bytearray, slot: int) -> None:
    """Tombstone a slot; its space is reclaimed on the next compaction."""
    if not 0 <= slot < slot_count(page):
        raise PageError(f"slot {slot} out of range")
    offset, length = _read_slot(page, slot)
    if offset == TOMBSTONE:
        raise PageError(f"slot {slot} already deleted")
    _write_slot(page, slot, TOMBSTONE, 0)
    live, hint = _hints(page)
    _set_hints(page, live - length, min(hint, slot))


def update(page: bytearray, slot: int, data: bytes) -> bool:
    """Replace the record in ``slot``; returns False if it cannot fit.

    Shrinking or equal-size updates are done in place.  Growing updates
    try the free area (compacting if needed); if the page genuinely has
    no room the function returns ``False`` and the caller must relocate
    the record to another page.
    """
    if not 0 <= slot < slot_count(page):
        raise PageError(f"slot {slot} out of range")
    offset, length = _read_slot(page, slot)
    if offset == TOMBSTONE:
        raise PageError(f"slot {slot} is deleted")
    new_length = len(data)
    if new_length <= length:
        page[offset : offset + new_length] = data
        _write_slot(page, slot, offset, new_length)
        live, hint = _hints(page)
        _set_hints(page, live - length + new_length, hint)
        return True

    # Grow: tombstone, then try to place the new copy.
    _write_slot(page, slot, TOMBSTONE, 0)
    live, hint = _hints(page)
    _set_hints(page, live - length, min(hint, slot))
    count = slot_count(page)
    directory_start = PAGE_SIZE - SLOT_SIZE * count
    if directory_start - _record_end(page) < new_length:
        compact(page)
        directory_start = PAGE_SIZE - SLOT_SIZE * count
    if directory_start - _record_end(page) < new_length:
        # Restore the old record so the caller can still read it.
        _write_slot(page, slot, offset, length)
        live, hint = _hints(page)
        _set_hints(page, live + length, hint)
        return False
    new_offset = _record_end(page)
    page[new_offset : new_offset + new_length] = data
    _write_slot(page, slot, new_offset, new_length)
    _set_header(page, count, new_offset + new_length)
    live, hint = _hints(page)
    _set_hints(page, live + new_length, hint)
    return True


def compact(page: bytearray) -> None:
    """Rewrite the record area contiguously, keeping slot numbers.

    Also recomputes the header hints exactly (live bytes and the index
    of the first surviving tombstone).
    """
    count = slot_count(page)
    live: List[Tuple[int, bytes]] = []
    first_tombstone = NO_FREE_SLOT
    for index in range(count):
        offset, length = _read_slot(page, index)
        if offset != TOMBSTONE:
            live.append((index, bytes(page[offset : offset + length])))
        elif first_tombstone == NO_FREE_SLOT:
            first_tombstone = index
    cursor = HEADER_SIZE
    for index, data in live:
        page[cursor : cursor + len(data)] = data
        _write_slot(page, index, cursor, len(data))
        cursor += len(data)
    _set_header(page, count, cursor)
    _set_hints(page, cursor - HEADER_SIZE, first_tombstone)


def cells(page: bytes) -> List[Tuple[int, int, int]]:
    """``(slot, offset, length)`` of every live record in slot order,
    from one read of the slot directory."""
    count = slot_count(page)
    directory = struct.unpack_from(
        f"<{2 * count}H", page, PAGE_SIZE - SLOT_SIZE * count
    )
    return [
        (slot, directory[at], directory[at + 1])
        for slot, at in enumerate(range(2 * count - 2, -2, -2))
        if directory[at] != TOMBSTONE
    ]


def records(page: bytearray) -> Iterator[Tuple[int, memoryview]]:
    """Iterate (slot, record-view) pairs, skipping tombstones.

    Views alias the page buffer (see :func:`read`); copy any record
    that must outlive the iteration or a subsequent page mutation.
    """
    view = memoryview(page)
    for slot, offset, length in cells(page):
        yield slot, view[offset : offset + length]


def live_count(page: bytearray) -> int:
    """Number of non-tombstoned records on the page."""
    return sum(1 for _ in records(page))
