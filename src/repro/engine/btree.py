"""A paged B+tree with duplicate keys and range scans.

The tree indexes signed 64-bit integer keys.  Duplicates are supported
by a composite ordering on ``(key, discriminator)`` where the
discriminator is by convention the value itself (an OID or RID), so
every entry is unique and deletions are exact.

Layout (within 4 KiB pages from the buffer pool):

* **Leaf page** — header ``(type=1, count, next_leaf)`` then ``count``
  entries of ``(key, disc, value)``, each 24 bytes, kept sorted.
  Leaves are chained left-to-right for range scans.
* **Internal page** — header ``(type=2, count, leftmost_child)`` then
  ``count`` separators of ``(key, disc, child)``; ``child`` holds
  entries ``>= (key, disc)`` and ``< `` the next separator.

Inserts split full nodes bottom-up; the root splits into a new root, so
the tree grows at the top.  Deletes are *lazy* (no rebalancing —
matching what several production engines do for secondary indexes);
empty leaves remain until vacuumed, which is harmless for correctness
and for the benchmark's insert-heavy workload.
"""

from __future__ import annotations

import struct
import sys
from array import array
from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, Optional, Tuple

from repro.engine.buffer import BufferPool
from repro.engine.pages import PAGE_SIZE, PageId
from repro.errors import PageError

_LEAF = 1
_INTERNAL = 2

_HEADER = struct.Struct("<BHxQ")  # type, count, pad, next_leaf / leftmost_child

_HEADER_SIZE = _HEADER.size  # 12
_ENTRY_SIZE = 24  # key, disc, value-or-child: three little-endian int64

#: Maximum entries per node (leaf and internal alike).
ORDER = (PAGE_SIZE - _HEADER_SIZE) // _ENTRY_SIZE

_MIN_I64 = -(1 << 63)
_MAX_I64 = (1 << 63) - 1

# ``array('q')`` aliases the on-page entries directly: one C-speed
# ``frombytes``/``tobytes`` per node, byte-swapped on big-endian hosts.
assert array("q").itemsize == 8
_BYTESWAP = sys.byteorder != "little"

#: Unpacked nodes cached per tree; cleared wholesale when full.
NODE_CACHE_CAPACITY = 1024


class _NodeView:
    """One unpacked B+tree node, immutable, keyed by ``(pid, lsn)``.

    Entries live in three parallel ``array('q')`` columns so descents
    and range scans run :func:`bisect.bisect_left` over a C-backed
    sequence instead of struct-unpacking entries probe by probe.  The
    view is a snapshot of the page's bytes at frame LSN ``lsn``: any
    mutation dirty-unpins the page, which bumps the frame LSN and makes
    the cached view unreachable.
    """

    __slots__ = ("lsn", "node_type", "count", "link", "keys", "discs", "values")

    def __init__(
        self, lsn: int, node_type: int, count: int, link: int, flat: "array"
    ) -> None:
        self.lsn = lsn
        self.node_type = node_type
        self.count = count
        self.link = link
        self.keys = flat[0::3]
        self.discs = flat[1::3]
        self.values = flat[2::3]


def _unpack_entries(page: bytearray, count: int) -> "array":
    """The node's entry area as one flat int64 array (the only decoder)."""
    flat = array("q")
    end = _HEADER_SIZE + count * _ENTRY_SIZE
    flat.frombytes(memoryview(page)[_HEADER_SIZE:end])
    if _BYTESWAP:
        flat.byteswap()
    return flat


def _pack_node(page: bytearray, node_type: int, flat: "array", link: int) -> None:
    """Write a node: header, then ``flat`` over the live entries (the
    only encoder).  Bytes past the last entry are left as they are."""
    _HEADER.pack_into(page, 0, node_type, len(flat) // 3, link)
    if _BYTESWAP:
        flat = array("q", flat)
        flat.byteswap()
    data = flat.tobytes()
    page[_HEADER_SIZE : _HEADER_SIZE + len(data)] = data


class BTree:
    """One B+tree rooted at a page of the shared buffer pool.

    Construct with ``root=0`` to create an empty tree (a fresh leaf is
    allocated); persist :attr:`root` across restarts via the page-file
    root table.
    """

    def __init__(self, pool: BufferPool, root: PageId = 0) -> None:
        self._pool = pool
        #: Shared with the buffer pool: one handle per store.
        self._instr = pool.instrumentation
        #: pid -> _NodeView; validated against the frame LSN on every
        #: access, so stale views (page mutated, or evicted and
        #: reloaded) are replaced, never served.
        self._nodes: Dict[PageId, _NodeView] = {}
        self.root = root
        if root == 0:
            self.root = pool.new_page()
            self._write(self.root, _LEAF, array("q"), 0)

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def _node(self, pid: PageId) -> _NodeView:
        """The unpacked view of node ``pid``, via the per-tree cache.

        Pins the page just long enough to validate (or rebuild) the
        cached view against the frame's content LSN.
        """
        page = self._pool.get(pid)
        try:
            lsn = self._pool.frame_lsn(pid)
            node = self._nodes.get(pid)
            if node is not None and node.lsn == lsn:
                self._instr.count("engine.btree.node_cache.hits")
                return node
            self._instr.count("engine.btree.node_cache.misses")
            node_type, count, link = _HEADER.unpack_from(page, 0)
            node = _NodeView(
                lsn, node_type, count, link, _unpack_entries(page, count)
            )
        finally:
            self._pool.unpin(pid)
        if len(self._nodes) >= NODE_CACHE_CAPACITY:
            self._nodes.clear()
            self._instr.count("engine.btree.node_cache.clears")
        self._nodes[pid] = node
        return node

    def _write(
        self, pid: PageId, node_type: int, flat: "array", link: int
    ) -> None:
        """Pack ``flat`` into page ``pid`` and mark it dirty."""
        page = self._pool.get(pid)
        try:
            _pack_node(page, node_type, flat, link)
        finally:
            self._pool.unpin(pid, dirty=True)

    def _flat(self, pid: PageId, node: _NodeView) -> "array":
        """A private, editable copy of the entries ``node`` was built from."""
        page = self._pool.get(pid)
        try:
            return _unpack_entries(page, node.count)
        finally:
            self._pool.unpin(pid)

    @staticmethod
    def _bisect_node(node: _NodeView, key: int, disc: int) -> Tuple[int, bool]:
        """First index in ``node`` whose (key, disc) >= the probe, and
        whether that entry equals the probe."""
        lo = bisect_left(node.keys, key)
        if lo == node.count or node.keys[lo] != key:
            return lo, False
        hi = bisect_right(node.keys, key, lo)
        lo = bisect_left(node.discs, disc, lo, hi)
        return lo, lo < hi and node.discs[lo] == disc

    def _find_leaf(
        self, key: int, disc: int, path: Optional[List[PageId]] = None
    ) -> PageId:
        """The leaf that holds, or would hold, (key, disc) — the one
        descent.  Internal pages passed on the way are appended to
        ``path`` (root first) for callers that walk back up."""
        pid = self.root
        while True:
            node = self._node(pid)
            if node.node_type == _LEAF:
                return pid
            if node.node_type != _INTERNAL:
                raise PageError(f"page {pid}: not a btree node")
            if path is not None:
                path.append(pid)
            # Separator i is the smallest entry of child i; an exact
            # match therefore descends into that child.
            index, exact = self._bisect_node(node, key, disc)
            if not exact:
                index -= 1
            pid = node.link if index < 0 else node.values[index]

    def _locate(
        self, key: int, disc: int, path: Optional[List[PageId]] = None
    ) -> Tuple[PageId, _NodeView, int, bool]:
        """``(leaf, its view, slot, present)`` for the exact (key, disc)."""
        pid = self._find_leaf(key, disc, path)
        node = self._node(pid)
        return (pid, node, *self._bisect_node(node, key, disc))

    def search(self, key: int) -> List[int]:
        """All values stored under ``key``, in discriminator order."""
        out: List[int] = []
        pid = self._find_leaf(key, _MIN_I64)
        while pid:
            node = self._node(pid)
            start = bisect_left(node.keys, key)
            end = bisect_right(node.keys, key, start)
            out.extend(node.values[start:end])
            if end < node.count:
                break
            pid = node.link  # duplicates (or empty leaves) may continue
        return out

    def search_unique(self, key: int) -> Optional[int]:
        """The single value under ``key``, or None.

        Intended for unique indexes (directory, uniqueId); returns the
        first entry if duplicates exist.
        """
        pid = self._find_leaf(key, _MIN_I64)
        while pid:
            node = self._node(pid)
            index = bisect_left(node.keys, key)
            if index < node.count:
                return node.values[index] if node.keys[index] == key else None
            pid = node.link  # lazy deletes can leave empty leaves
        return None

    def contains(self, key: int, value: int, disc: Optional[int] = None) -> bool:
        """Whether the exact (key, disc) entry exists."""
        return self._locate(key, value if disc is None else disc)[3]

    def scan_range(self, low: int, high: int) -> Iterator[Tuple[int, int]]:
        """Yield (key, value) for all entries with low <= key <= high."""
        pid = self._find_leaf(low, _MIN_I64)
        while pid:
            node = self._node(pid)
            start = bisect_left(node.keys, low)
            end = bisect_right(node.keys, high, start)
            yield from zip(node.keys[start:end], node.values[start:end])
            if end < node.count:
                return  # a key above ``high`` exists: the scan is done
            pid = node.link

    def scan_all(self) -> Iterator[Tuple[int, int]]:
        """Yield every (key, value) in key order."""
        return self.scan_range(_MIN_I64, _MAX_I64)

    def __len__(self) -> int:
        """Total entries (walks the leaf chain)."""
        return sum(1 for _ in self.scan_all())

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------

    def insert(self, key: int, value: int, disc: Optional[int] = None) -> None:
        """Insert an entry.  ``disc`` defaults to ``value``.

        Raises:
            PageError: if the exact (key, disc) pair already exists.
        """
        disc = value if disc is None else disc
        path: List[PageId] = []
        pid, node, index, present = self._locate(key, disc, path)
        if present:
            raise PageError(f"duplicate btree entry ({key}, {disc})")
        entry = array("q", (key, disc, value))
        while True:
            flat = self._flat(pid, node)
            flat[index * 3 : index * 3] = entry
            if node.count < ORDER:
                self._write(pid, node.node_type, flat, node.link)
                return
            # Full: the upper half moves to a new right sibling and its
            # first entry goes up as the separator.  A leaf keeps that
            # entry and chains to the sibling; an internal node gives
            # it up, its child becoming the sibling's leftmost.
            self._instr.count("engine.btree.splits")
            mid = (node.count + 1) // 2 * 3
            entry = flat[mid : mid + 3]
            right = self._pool.new_page()
            if node.node_type == _LEAF:
                self._write(right, _LEAF, flat[mid:], node.link)
                self._write(pid, _LEAF, flat[:mid], right)
            else:
                self._write(right, _INTERNAL, flat[mid + 3 :], entry[2])
                self._write(pid, _INTERNAL, flat[:mid], node.link)
            entry[2] = right
            if not path:
                break
            pid = path.pop()
            node = self._node(pid)
            index = self._bisect_node(node, entry[0], entry[1])[0]
        self._instr.count("engine.btree.root_splits")
        new_root = self._pool.new_page()
        self._write(new_root, _INTERNAL, entry, self.root)
        self.root = new_root

    # ------------------------------------------------------------------
    # Bulk loading
    # ------------------------------------------------------------------

    def bulk_load(self, entries: List[Tuple[int, int, int]]) -> None:
        """Build the tree bottom-up from sorted (key, disc, value) rows.

        Only valid on an empty tree.  Leaves are packed to ~90% fill
        (leaving insert headroom), chained left-to-right, and internal
        levels are built over them — O(n) instead of n inserts, which
        is what makes back-filling an index over a large extent cheap.

        Raises:
            PageError: if the tree is not empty or the input is not
                strictly sorted by (key, disc).
        """
        root = self._node(self.root)
        if root.node_type != _LEAF or root.count != 0:
            raise PageError("bulk_load requires an empty tree")
        if not entries:
            return
        for previous, current in zip(entries, entries[1:]):
            if previous[:2] >= current[:2]:
                raise PageError("bulk_load input must be strictly sorted")

        fill = max(1, (ORDER * 9) // 10)
        # The leaf level, reusing the existing root as first leaf.
        chunks = [entries[i : i + fill] for i in range(0, len(entries), fill)]
        pids = [self.root] + [self._pool.new_page() for _ in chunks[1:]]
        firsts = [chunk[0][:2] for chunk in chunks]
        for pid, chunk, next_leaf in zip(pids, chunks, pids[1:] + [0]):
            flat = array("q", [field for row in chunk for field in row])
            self._write(pid, _LEAF, flat, next_leaf)

        # Internal levels until one node remains.
        while len(pids) > 1:
            parent_pids: List[PageId] = []
            parent_firsts: List[Tuple[int, int]] = []
            for start in range(0, len(pids), fill + 1):
                group = pids[start : start + fill + 1]
                parent_firsts.append(firsts[start])
                if len(group) == 1:
                    # A parent with zero separators is invalid; let the
                    # lone child represent the group at this level.
                    parent_pids.append(group[0])
                    continue
                flat = array("q")
                for (key, disc), child in zip(
                    firsts[start + 1 : start + fill + 1], group[1:]
                ):
                    flat.extend((key, disc, child))
                parent_pids.append(self._pool.new_page())
                self._write(parent_pids[-1], _INTERNAL, flat, group[0])
            pids, firsts = parent_pids, parent_firsts
        self.root = pids[0]

    # ------------------------------------------------------------------
    # Update and delete
    # ------------------------------------------------------------------

    def update_value(self, key: int, disc: int, new_value: int) -> bool:
        """Replace the value of an exact (key, disc) entry in place.

        Returns False if no such entry exists.  Used by the object
        directory when a record relocates to a new RID.
        """
        pid, node, index, present = self._locate(key, disc)
        if present:
            flat = self._flat(pid, node)
            flat[index * 3 + 2] = new_value
            self._write(pid, _LEAF, flat, node.link)
        return present

    def delete(self, key: int, value: int, disc: Optional[int] = None) -> bool:
        """Remove the exact (key, disc) entry; returns False if absent.

        Deletion is lazy: leaves may become empty but are kept in the
        chain, and separators above are left untouched (they remain
        valid upper/lower bounds).
        """
        disc = value if disc is None else disc
        pid, node, index, present = self._locate(key, disc)
        if present:
            flat = self._flat(pid, node)
            del flat[index * 3 : index * 3 + 3]
            self._write(pid, _LEAF, flat, node.link)
        return present

    def page_ids(self) -> Iterator[PageId]:
        """Every page of the tree, root first (for statistics)."""
        pending = [self.root]
        while pending:
            pid = pending.pop()
            yield pid
            node = self._node(pid)
            if node.node_type != _LEAF:
                pending += (node.link, *node.values)

    # ------------------------------------------------------------------
    # Invariant checking (used by property-based tests)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify ordering, fill and chain invariants of the whole tree.

        Raises ``AssertionError`` on the first violation.  Exposed for
        tests; not called on any hot path.
        """
        leaves: List[PageId] = []
        self._check_node(
            self.root, (_MIN_I64, _MIN_I64), (_MAX_I64, _MAX_I64), leaves
        )
        # Leaf chain must visit the same leaves left-to-right.
        chained = []
        pid = leaves[0]
        while pid:
            chained.append(pid)
            pid = self._node(pid).link
        assert chained[: len(leaves)] == leaves, "leaf chain out of order"

    def _check_node(
        self,
        pid: PageId,
        low: Tuple[int, int],
        high: Tuple[int, int],
        leaves: List[PageId],
    ) -> None:
        """Check the subtree at ``pid``, whose entries lie in [low, high)."""
        node = self._node(pid)
        assert node.count <= ORDER, f"page {pid}: over-full"
        bounds = [low, *zip(node.keys, node.discs), high]
        for previous, entry in zip(bounds, bounds[1:-1]):
            assert previous <= entry, f"page {pid}: entries out of order"
            assert (
                entry < high or high == (_MAX_I64, _MAX_I64)
            ), f"page {pid}: entry above separator"
        if node.node_type == _LEAF:
            leaves.append(pid)
            return
        assert node.count >= 1, f"internal page {pid} has no separators"
        for i, child in enumerate((node.link, *node.values)):
            self._check_node(child, bounds[i], bounds[i + 1], leaves)
