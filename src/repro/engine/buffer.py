"""The buffer pool: an LRU page cache with pin counts.

Every page access of the heap and the B+trees goes through
:class:`BufferPool`.  The pool caches up to ``capacity`` page frames;
unpinned frames are evicted least-recently-used, dirty frames are
written back on eviction and on :meth:`flush_all`.

The pool keeps hit/miss/eviction counters — the HyperModel's cold/warm
protocol is *about* this cache: a cold run faults pages in, the warm
run hits them, and :meth:`drop_cache` (called from the backend's
``close``) is what resets the database to cold state between operation
sequences (section 5.3(e)).

The pool's flush and eviction write-back paths reach the disk through
the :class:`PageFile` it is constructed over, whose I/O in turn crosses
the injected :class:`~repro.engine.vfs.VFS` seam — so a fault-injecting
VFS observes (and can crash) every page the pool writes, in
deterministic order.
"""

from __future__ import annotations

import collections
import dataclasses
import struct
import time
from typing import Dict, Iterable, Iterator, Optional

from repro.engine.pages import PAGE_SIZE, PageFile, PageId
from repro.errors import PageError
from repro.obs import Instrumentation, resolve

#: A free page holds only the id of the next free page, in its first
#: 8 bytes.
_FREE_NEXT = struct.Struct("<Q")


@dataclasses.dataclass
class BufferStats:
    """Cumulative cache behaviour counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def hit_ratio(self) -> float:
        """Fraction of page requests served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        """Zero all counters."""
        self.hits = self.misses = self.evictions = self.writebacks = 0


class _Frame:
    __slots__ = ("pid", "data", "pin_count", "dirty", "lsn")

    def __init__(self, pid: PageId, data: bytearray, lsn: int) -> None:
        self.pid = pid
        self.data = data
        self.pin_count = 0
        self.dirty = False
        #: Pool-wide modification stamp for this frame's *content*.
        #: Bumped from one monotonic pool clock on every load and on
        #: every dirty unpin, so a ``(pid, lsn)`` pair identifies one
        #: immutable byte state — decode/node caches key on it.  The
        #: clock is global (never per-frame) so an evicted-and-reloaded
        #: page can never alias a stale cache entry.
        self.lsn = lsn


class BufferPool:
    """A fixed-capacity write-back page cache over one page file."""

    def __init__(
        self,
        page_file: PageFile,
        capacity: int = 256,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        if capacity < 1:
            raise PageError("buffer pool capacity must be >= 1")
        self._file = page_file
        self.capacity = capacity
        #: The measurement handle; NO_OP unless instrumentation is on.
        #: B+trees and heaps constructed over this pool share it.
        self.instrumentation = resolve(instrumentation)
        self._instr = self.instrumentation
        self._frames: "collections.OrderedDict[PageId, _Frame]" = (
            collections.OrderedDict()
        )
        #: Evictable frames (unpinned AND clean) in LRU order.  Kept in
        #: lockstep with frame state so victim selection is O(1) even
        #: when the pool is overcommitted with dirty pages.
        self._clean_lru: "collections.OrderedDict[PageId, None]" = (
            collections.OrderedDict()
        )
        #: Monotonic content clock feeding frame LSNs (see _Frame.lsn).
        self._mod_clock = 0
        self.stats = BufferStats()
        self._instr.gauge("engine.buffer.occupancy", self._occupancy)
        self._instr.gauge(
            "engine.buffer.hit_ratio", lambda: self.stats.hit_ratio
        )

    def _occupancy(self) -> float:
        """Resident pages as a fraction of pool capacity (0..1)."""
        return len(self._frames) / self.capacity

    def _next_lsn(self) -> int:
        self._mod_clock += 1
        return self._mod_clock

    # ------------------------------------------------------------------
    # Page access
    # ------------------------------------------------------------------

    def get(self, pid: PageId) -> bytearray:
        """Pin a page and return its frame buffer.

        The caller must balance every ``get`` with an :meth:`unpin`.
        Mutating the returned buffer requires ``unpin(pid, dirty=True)``
        so the change is written back.
        """
        frame = self._frames.get(pid)
        if frame is not None:
            self.stats.hits += 1
            self._instr.count("engine.buffer.hit")
            self._frames.move_to_end(pid)
        else:
            self.stats.misses += 1
            self._instr.count("engine.buffer.miss")
            self._ensure_room()
            started = time.perf_counter()
            frame = _Frame(pid, self._file.read_page(pid), self._next_lsn())
            self._instr.observe(
                "engine.buffer.miss",
                (time.perf_counter() - started) * 1000.0,
            )
            self._frames[pid] = frame
        frame.pin_count += 1
        self._clean_lru.pop(pid, None)  # pinned: not evictable
        return frame.data

    def get_many(self, pids: "Iterable[PageId]") -> Dict[PageId, bytearray]:
        """Pin a batch of pages with one LRU promotion pass.

        Functionally ``{pid: get(pid)}`` (every page comes back pinned
        and must be unpinned), but resident pages are promoted in a
        single sweep and the hit/miss counters are bumped in aggregate —
        the per-ref ``move_to_end``/counter overhead of a frontier of
        demand ``get`` calls collapses to one pass.
        """
        out: Dict[PageId, bytearray] = {}
        hits = 0
        misses = 0
        for pid in pids:
            if pid in out:
                # Double-pin duplicates so unpin bookkeeping stays 1:1.
                self._frames[pid].pin_count += 1
                hits += 1
                continue
            frame = self._frames.get(pid)
            if frame is not None:
                hits += 1
                self._frames.move_to_end(pid)
            else:
                misses += 1
                self._ensure_room()
                started = time.perf_counter()
                frame = _Frame(
                    pid, self._file.read_page(pid), self._next_lsn()
                )
                self._instr.observe(
                    "engine.buffer.miss",
                    (time.perf_counter() - started) * 1000.0,
                )
                self._frames[pid] = frame
            frame.pin_count += 1
            self._clean_lru.pop(pid, None)  # pinned: not evictable
            out[pid] = frame.data
        if hits:
            self.stats.hits += hits
            self._instr.count("engine.buffer.hit", hits)
        if misses:
            self.stats.misses += misses
            self._instr.count("engine.buffer.miss", misses)
        return out

    def unpin(self, pid: PageId, dirty: bool = False) -> None:
        """Release one pin; mark the frame dirty if it was modified."""
        frame = self._frames.get(pid)
        if frame is None or frame.pin_count == 0:
            raise PageError(f"unpin of page {pid} that is not pinned")
        frame.pin_count -= 1
        if dirty:
            frame.dirty = True
            frame.lsn = self._next_lsn()
        if frame.pin_count == 0 and not frame.dirty:
            self._clean_lru[pid] = None
            self._clean_lru.move_to_end(pid)

    def frame_lsn(self, pid: PageId) -> Optional[int]:
        """The resident frame's content stamp, or None if not cached.

        Valid as a cache key only while the caller holds a pin (an
        unpinned frame can be evicted and reloaded under a new LSN).
        """
        frame = self._frames.get(pid)
        return None if frame is None else frame.lsn

    def prefetch(self, pids: "Iterable[PageId]") -> int:
        """Fault a batch of pages into the pool without pinning them.

        The batched traversal path sorts a frontier's object refs by
        page and prefetches here, so the demand :meth:`get` calls that
        follow hit warm frames in clustering order instead of faulting
        one page per object.  Pages already resident are left alone
        (and keep their recency); loaded frames enter the pool clean,
        unpinned and evictable.  At most ``capacity`` pages are loaded
        per call — prefetching more would evict the batch's own head
        before its tail is used.

        Returns the number of pages actually read from the file.
        Counters: ``engine.buffer.prefetch.pages`` (loaded) and
        ``engine.buffer.prefetch.cached`` (already resident).  Demand
        hit/miss stats are *not* touched: a prefetch is speculative
        I/O, and the later ``get`` hits are the measured effect.
        """
        loaded = 0
        for pid in pids:
            if pid in self._frames:
                self._instr.count("engine.buffer.prefetch.cached")
                continue
            if loaded >= self.capacity:
                break
            self._ensure_room()
            frame = _Frame(pid, self._file.read_page(pid), self._next_lsn())
            self._frames[pid] = frame
            self._clean_lru[pid] = None  # clean + unpinned: evictable
            loaded += 1
            self._instr.count("engine.buffer.prefetch.pages")
        return loaded

    def new_page(self) -> PageId:
        """Allocate a zeroed page and cache it (dirty, unpinned).

        The free list is recycled before the file grows.  The head's
        link is read through the pool, so a page freed earlier in the
        same commit is reused straight from its frame.
        """
        pid = self._file.free_head
        if pid:
            data = self.get(pid)
            (self._file.free_head,) = _FREE_NEXT.unpack_from(data, 0)
            data[:] = bytes(PAGE_SIZE)
            self.unpin(pid, dirty=True)
            return pid
        pid = self._file.allocate()
        self._ensure_room()
        frame = _Frame(pid, bytearray(PAGE_SIZE), self._next_lsn())
        frame.dirty = True
        self._frames[pid] = frame
        return pid

    def free_page(self, pid: PageId) -> None:
        """Push a page onto the file's free list.

        The page becomes a dirty frame holding only the link to the
        old head, so the link is logged and forced with its commit like
        every other page: a free never writes the data file ahead of
        the log.
        """
        frame = self._frames.get(pid)
        if frame is not None and frame.pin_count:
            raise PageError(f"freeing pinned page {pid}")
        data = self.get(pid)
        data[:] = bytes(PAGE_SIZE)
        _FREE_NEXT.pack_into(data, 0, self._file.free_head)
        self.unpin(pid, dirty=True)
        self._file.free_head = pid

    def free_page_ids(self) -> Iterator[PageId]:
        """The file's free list, head first (for statistics)."""
        pid = self._file.free_head
        while pid:
            yield pid
            (next_pid,) = _FREE_NEXT.unpack_from(self.get(pid), 0)
            self.unpin(pid)
            pid = next_pid

    # ------------------------------------------------------------------
    # Eviction and flushing
    # ------------------------------------------------------------------

    def _ensure_room(self) -> None:
        """Make room for one more frame.

        Only *clean* unpinned frames are evicted: dirty pages must not
        reach the file before their commit's log records do (the
        write-ahead rule).  When every frame is dirty or pinned the
        pool grows past its nominal capacity; the store trims it back
        at the next commit, when the dirty set is logged and flushed.
        """
        while len(self._frames) >= self.capacity:
            victim = self._pick_victim()
            if victim is None:
                return  # overcommit until the next commit flush
            self._evict(victim)

    def _pick_victim(self) -> Optional[PageId]:
        while self._clean_lru:
            pid = next(iter(self._clean_lru))
            frame = self._frames.get(pid)
            if frame is not None and frame.pin_count == 0 and not frame.dirty:
                return pid
            self._clean_lru.pop(pid, None)  # stale entry: discard
        return None

    def trim(self) -> None:
        """Evict clean unpinned frames until within nominal capacity."""
        while len(self._frames) > self.capacity:
            victim = self._pick_victim()
            if victim is None:
                return
            self._evict(victim)

    def _evict(self, pid: PageId) -> None:
        frame = self._frames.pop(pid)
        self._clean_lru.pop(pid, None)
        if frame.dirty:
            self._file.write_page(pid, frame.data)
            self.stats.writebacks += 1
            self._instr.count("engine.buffer.writeback")
        self.stats.evictions += 1
        self._instr.count("engine.buffer.eviction")

    def flush_all(self) -> None:
        """Write back every dirty frame (frames stay cached)."""
        for frame in self._frames.values():
            if frame.dirty:
                self._file.write_page(frame.pid, frame.data)
                frame.dirty = False
                self.stats.writebacks += 1
                self._instr.count("engine.buffer.writeback")
            if frame.pin_count == 0 and frame.pid not in self._clean_lru:
                self._clean_lru[frame.pid] = None
        self.trim()

    def dirty_pages(self) -> Dict[PageId, bytes]:
        """Snapshot of every dirty frame's contents (for WAL logging)."""
        return {
            frame.pid: bytes(frame.data)
            for frame in self._frames.values()
            if frame.dirty
        }

    def drop_cache(self) -> None:
        """Flush and forget every frame: the next access is cold.

        This is the section 5.3(e) "close the database" step that stops
        caching from one operation sequence affecting the next.
        """
        if any(f.pin_count for f in self._frames.values()):
            raise PageError("cannot drop cache while pages are pinned")
        self.flush_all()
        self._frames.clear()
        self._clean_lru.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def cached_pages(self) -> int:
        """Number of frames currently cached."""
        return len(self._frames)

    def cached_page_ids(self) -> Iterator[PageId]:
        """Iterate the cached page ids in LRU order (oldest first)."""
        return iter(list(self._frames))

    def pin_counts(self) -> Dict[PageId, int]:
        """Snapshot of non-zero pin counts (for invariant checks)."""
        return {
            pid: frame.pin_count
            for pid, frame in self._frames.items()
            if frame.pin_count
        }
