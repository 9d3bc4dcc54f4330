"""Fixed-size page I/O: the bottom layer of the storage engine.

A database is one file of 4 KiB pages.  Page 0 is the *header page*
holding the magic number, the format version, the page count and a
small number of named root pointers (catalog root, directory root,
next OID, ...) that the upper layers bootstrap from.

:class:`PageFile` does raw page reads/writes and grows the file.  The
head of the free-page list lives in the header; the list itself is
chained through the freed pages by the buffer pool, so each link is
logged and forced with its commit like any other page.

All file access goes through an injected :class:`~repro.engine.vfs.VFS`
(defaulting to :class:`~repro.engine.vfs.RealVFS`), so fault-injection
and I/O-counting decorators observe every byte this layer moves.
"""

from __future__ import annotations

import struct
from typing import Dict, Optional

from repro.engine.vfs import VFS, VFSFile, RealVFS
from repro.errors import PageError

#: Size of every page in bytes.
PAGE_SIZE = 4096

#: Magic number identifying a HyperModel engine file ("HMDB").
MAGIC = 0x484D4442

#: On-disk format version.  3: an object record carries its OID, and the
#: heap is the class extent (see :class:`~repro.engine.store.ObjectStore`);
#: 2 (no OID, an extent B+tree) and 1 (named fields) are refused.
FORMAT_VERSION = 3

#: struct layout of the header page prefix: magic, version, page count,
#: free-list head, root-slot count.
_HEADER_PREFIX = struct.Struct("<IIQQI")

#: Each named root: 16-byte name + uint64 value.
_ROOT_SLOT = struct.Struct("<16sQ")

_MAX_ROOTS = 32

#: A page id; 0 is the header and is never handed to upper layers.
PageId = int


class PageFile:
    """Raw page-granular access to one database file.

    The file is created on first open if it does not exist.  All reads
    and writes go through here; the buffer pool is the only intended
    client.  ``sync`` forces the OS to flush, which the store calls at
    commit boundaries.
    """

    def __init__(self, path: str, vfs: Optional[VFS] = None) -> None:
        self.path = path
        self.vfs = vfs or RealVFS()
        self._file: Optional[VFSFile] = None
        self._page_count = 0
        #: First page of the free list (0: empty); the buffer pool
        #: pushes and pops it.
        self.free_head: PageId = 0
        self._roots: Dict[str, int] = {}
        self._open()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _open(self) -> None:
        fresh = not self.vfs.exists(self.path) or self.vfs.size(self.path) == 0
        self._file = self.vfs.open(self.path, "r+b" if not fresh else "w+b")
        if fresh:
            self._page_count = 1
            self.free_head = 0
            self._roots = {}
            self._write_header()
        else:
            self._read_header()

    def close(self) -> None:
        """Flush the header and close the file."""
        if self._file is not None:
            self._write_header()
            self._file.close()
            self._file = None

    def discard(self) -> None:
        """Close without writing the header (drop unlogged changes)."""
        if self._file is not None:
            self._file.close()
            self._file = None

    @property
    def is_open(self) -> bool:
        """Whether the underlying file handle is open."""
        return self._file is not None

    def sync(self) -> None:
        """Flush the header and fsync the file (durability point)."""
        self._write_header()
        self._file.sync()

    # ------------------------------------------------------------------
    # Header management
    # ------------------------------------------------------------------

    def _write_header(self) -> None:
        if self._file is None:
            return
        page = bytearray(PAGE_SIZE)
        _HEADER_PREFIX.pack_into(
            page,
            0,
            MAGIC,
            FORMAT_VERSION,
            self._page_count,
            self.free_head,
            len(self._roots),
        )
        offset = _HEADER_PREFIX.size
        for name, value in self._roots.items():
            _ROOT_SLOT.pack_into(page, offset, name.encode("ascii"), value)
            offset += _ROOT_SLOT.size
        self._file.seek(0)
        self._file.write(page)

    def _read_header(self) -> None:
        self._file.seek(0)
        page = self._file.read(PAGE_SIZE)
        if len(page) < PAGE_SIZE:
            raise PageError(f"{self.path}: truncated header page")
        magic, version, count, free_head, root_count = _HEADER_PREFIX.unpack_from(
            page, 0
        )
        if magic != MAGIC:
            raise PageError(f"{self.path}: not a HyperModel engine file")
        if version != FORMAT_VERSION:
            raise PageError(
                f"{self.path}: format version {version}, expected {FORMAT_VERSION}"
            )
        self._page_count = count
        self.free_head = free_head
        self._roots = {}
        offset = _HEADER_PREFIX.size
        for _ in range(root_count):
            raw_name, value = _ROOT_SLOT.unpack_from(page, offset)
            offset += _ROOT_SLOT.size
            self._roots[raw_name.rstrip(b"\x00").decode("ascii")] = value

    # ------------------------------------------------------------------
    # Named roots (bootstrap pointers for upper layers)
    # ------------------------------------------------------------------

    def get_root(self, name: str, default: int = 0) -> int:
        """Read a named root pointer from the header."""
        return self._roots.get(name, default)

    def set_root(self, name: str, value: int) -> None:
        """Set a named root pointer (persisted on the next sync/close).

        Raises:
            PageError: if the name exceeds 16 ASCII bytes or the table
                is full.
        """
        if len(name.encode("ascii")) > 16:
            raise PageError(f"root name {name!r} longer than 16 bytes")
        if len(self._roots) >= _MAX_ROOTS and name not in self._roots:
            raise PageError("root pointer table is full")
        self._roots[name] = value

    def roots_snapshot(self) -> Dict[str, int]:
        """Copy of the whole root-pointer table (logged at commit)."""
        return dict(self._roots)

    def restore_roots(self, roots: Dict[str, int], free_head: PageId) -> None:
        """Replace the root table and the free-list head (recovery replay)."""
        self._roots = dict(roots)
        self.free_head = free_head

    # ------------------------------------------------------------------
    # Page I/O
    # ------------------------------------------------------------------

    def _check_pid(self, pid: PageId) -> None:
        if not 1 <= pid < self._page_count:
            raise PageError(
                f"page id {pid} outside 1..{self._page_count - 1}"
            )

    def read_page(self, pid: PageId) -> bytearray:
        """Read one page; returns a fresh mutable buffer."""
        self._check_pid(pid)
        self._file.seek(pid * PAGE_SIZE)
        data = self._file.read(PAGE_SIZE)
        if len(data) < PAGE_SIZE:
            raise PageError(f"short read on page {pid}")
        return bytearray(data)

    def write_page(self, pid: PageId, data: bytes) -> None:
        """Write one full page."""
        self._check_pid(pid)
        if len(data) != PAGE_SIZE:
            raise PageError(
                f"page write of {len(data)} bytes, expected {PAGE_SIZE}"
            )
        self._file.seek(pid * PAGE_SIZE)
        self._file.write(data)

    def write_page_extending(self, pid: PageId, data: bytes) -> None:
        """Write a page, growing the file if needed (recovery replay).

        A crash can lose the header's page count while replayable page
        images reference pages past it; recovery uses this entry point
        to restore them.
        """
        if pid < 1:
            raise PageError(f"invalid page id {pid}")
        if len(data) != PAGE_SIZE:
            raise PageError(
                f"page write of {len(data)} bytes, expected {PAGE_SIZE}"
            )
        if pid >= self._page_count:
            self._page_count = pid + 1
        self._file.seek(pid * PAGE_SIZE)
        self._file.write(data)

    def allocate(self) -> PageId:
        """Grow the file by one zeroed page and return its id."""
        pid = self._page_count
        self._page_count += 1
        self._file.seek(pid * PAGE_SIZE)
        self._file.write(b"\x00" * PAGE_SIZE)
        return pid

    @property
    def page_count(self) -> int:
        """Total pages in the file, including the header page."""
        return self._page_count
