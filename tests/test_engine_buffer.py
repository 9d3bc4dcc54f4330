"""The buffer pool: pinning, LRU eviction, write-back and cold resets."""

import pytest

from repro.engine.buffer import BufferPool
from repro.engine.pages import PAGE_SIZE, PageFile
from repro.errors import PageError


@pytest.fixture
def pool(tmp_path):
    pf = PageFile(str(tmp_path / "b.db"))
    pool = BufferPool(pf, capacity=4)
    yield pool
    pf.close()


def _fill(pool, count):
    pids = []
    for _ in range(count):
        pid = pool.new_page()
        pids.append(pid)
    return pids


class TestBasics:
    def test_capacity_validated(self, tmp_path):
        pf = PageFile(str(tmp_path / "c.db"))
        with pytest.raises(PageError):
            BufferPool(pf, capacity=0)
        pf.close()

    def test_get_pins_and_caches(self, pool):
        (pid,) = _fill(pool, 1)
        pool.flush_all()
        pool.drop_cache()
        data = pool.get(pid)
        assert len(data) == PAGE_SIZE
        assert pool.stats.misses == 1
        pool.unpin(pid)
        pool.get(pid)
        pool.unpin(pid)
        assert pool.stats.hits == 1

    def test_unpin_without_pin_rejected(self, pool):
        (pid,) = _fill(pool, 1)
        with pytest.raises(PageError):
            pool.unpin(pid)

    def test_dirty_write_back_on_eviction(self, pool):
        (pid,) = _fill(pool, 1)
        page = pool.get(pid)
        page[0] = 0xEE
        pool.unpin(pid, dirty=True)
        pool.flush_all()
        pool.drop_cache()
        assert pool.get(pid)[0] == 0xEE
        pool.unpin(pid)


class TestGetMany:
    def test_batch_equivalent_to_loop_of_gets(self, pool):
        pids = _fill(pool, 3)
        for pid in pids:
            page = pool.get(pid)
            page[0] = pid & 0xFF
            pool.unpin(pid, dirty=True)
        pool.flush_all()
        pool.drop_cache()
        frames = pool.get_many(pids)
        assert sorted(frames) == sorted(pids)
        for pid in pids:
            assert frames[pid][0] == pid & 0xFF
            pool.unpin(pid)

    def test_counters_aggregate_hits_and_misses(self, pool):
        pids = _fill(pool, 3)
        pool.flush_all()
        pool.drop_cache()
        pool.get(pids[0])
        pool.unpin(pids[0])
        before_hits, before_misses = pool.stats.hits, pool.stats.misses
        frames = pool.get_many(pids)
        assert pool.stats.hits == before_hits + 1
        assert pool.stats.misses == before_misses + 2
        for pid in frames:
            pool.unpin(pid)

    def test_duplicates_double_pin(self, pool):
        (pid,) = _fill(pool, 1)
        frames = pool.get_many([pid, pid, pid])
        assert list(frames) == [pid]
        assert pool.pin_counts()[pid] == 3
        for _ in range(3):
            pool.unpin(pid)
        assert pid not in pool.pin_counts()


class TestFrameLsn:
    def test_absent_page_has_no_lsn(self, pool):
        (pid,) = _fill(pool, 1)
        pool.flush_all()
        pool.drop_cache()
        assert pool.frame_lsn(pid) is None

    def test_dirty_unpin_bumps_lsn(self, pool):
        (pid,) = _fill(pool, 1)
        page = pool.get(pid)
        before = pool.frame_lsn(pid)
        page[0] = 1
        pool.unpin(pid, dirty=True)
        assert pool.frame_lsn(pid) > before

    def test_clean_unpin_keeps_lsn(self, pool):
        (pid,) = _fill(pool, 1)
        pool.get(pid)
        before = pool.frame_lsn(pid)
        pool.unpin(pid)
        assert pool.frame_lsn(pid) == before

    def test_reload_after_eviction_gets_fresh_lsn(self, pool):
        """The clock is pool-global: an evicted-and-reloaded page can
        never alias a stale (pid, lsn) cache key."""
        (pid,) = _fill(pool, 1)
        pool.get(pid)
        first = pool.frame_lsn(pid)
        pool.unpin(pid)
        pool.flush_all()
        pool.drop_cache()
        pool.get(pid)
        second = pool.frame_lsn(pid)
        pool.unpin(pid)
        assert second != first


class TestEviction:
    def test_clean_lru_page_evicted_first(self, pool):
        pids = _fill(pool, 4)
        pool.flush_all()  # everything clean
        # Touch pids[1] so pids[0] is LRU.
        pool.get(pids[1])
        pool.unpin(pids[1])
        pool.new_page()  # forces one eviction
        cached = set(pool.cached_page_ids())
        assert pids[0] not in cached
        assert pids[1] in cached

    def test_dirty_pages_never_evicted(self, pool):
        pids = _fill(pool, 4)  # all dirty (new pages)
        pool.new_page()  # no clean victim: pool overcommits
        assert pool.cached_pages == 5
        assert pool.stats.evictions == 0

    def test_trim_restores_capacity_after_flush(self, pool):
        _fill(pool, 6)
        assert pool.cached_pages == 6
        pool.flush_all()
        assert pool.cached_pages <= pool.capacity

    def test_pinned_pages_never_evicted(self, pool):
        pids = _fill(pool, 4)
        pool.flush_all()
        pool.get(pids[0])  # pin and keep
        for _ in range(4):
            pool.new_page()
        assert pids[0] in set(pool.cached_page_ids())
        pool.unpin(pids[0])


class TestVictimSelectionOrder:
    """Regression tests for the O(1) clean-LRU victim index.

    Victim choice must be exact least-recently-used over clean,
    unpinned frames — and the ``_clean_lru`` shadow index must never
    hand back a frame that was re-pinned or re-dirtied after it was
    enrolled.
    """

    def test_evictions_follow_lru_order_across_multiple_evictions(
        self, pool
    ):
        pids = _fill(pool, 4)
        pool.flush_all()  # all clean, LRU order == creation order
        # Recency now: pids[0] oldest .. pids[3] newest.  Reverse it.
        for pid in reversed(pids):
            pool.get(pid)
            pool.unpin(pid)
        # Recency now: pids[3] oldest .. pids[0] newest.
        evicted_order = []
        for _ in range(3):
            pool.new_page()  # each allocation evicts exactly one clean page
            cached = set(pool.cached_page_ids())
            gone = [p for p in pids if p not in cached and p not in evicted_order]
            evicted_order.extend(gone)
        assert evicted_order == [pids[3], pids[2], pids[1]]

    def test_repinned_frame_is_skipped_not_evicted(self, pool):
        pids = _fill(pool, 4)
        pool.flush_all()
        # pids[0] is LRU-first, but pin it again: the stale clean-LRU
        # entry must be skipped and pids[1] evicted instead.
        pool.get(pids[0])
        pool.new_page()
        cached = set(pool.cached_page_ids())
        assert pids[0] in cached
        assert pids[1] not in cached
        pool.unpin(pids[0])

    def test_redirtied_frame_is_skipped_not_evicted(self, pool):
        pids = _fill(pool, 4)
        pool.flush_all()
        page = pool.get(pids[0])
        page[0] = 0xAB
        pool.unpin(pids[0], dirty=True)  # now dirty: not evictable
        pool.new_page()
        cached = set(pool.cached_page_ids())
        assert pids[0] in cached  # dirty page survived
        assert pids[1] not in cached  # next clean LRU went instead


class TestPrefetch:
    def test_prefetch_loads_pages_without_pinning(self, pool):
        pids = _fill(pool, 3)
        pool.flush_all()
        pool.drop_cache()
        loaded = pool.prefetch(pids)
        assert loaded == 3
        assert set(pool.cached_page_ids()) == set(pids)
        assert pool.pin_counts() == {}  # nothing pinned

    def test_prefetch_skips_resident_pages(self, pool):
        pids = _fill(pool, 3)
        pool.flush_all()
        pool.drop_cache()
        pool.prefetch(pids[:2])
        assert pool.prefetch(pids) == 1  # only pids[2] still missing

    def test_prefetch_does_not_touch_demand_stats(self, pool):
        pids = _fill(pool, 2)
        pool.flush_all()
        pool.drop_cache()
        pool.stats.reset()
        pool.prefetch(pids)
        assert pool.stats.hits == 0
        assert pool.stats.misses == 0
        pool.get(pids[0])  # demand access hits the prefetched frame
        pool.unpin(pids[0])
        assert pool.stats.hits == 1
        assert pool.stats.misses == 0

    def test_prefetch_capped_at_capacity(self, pool):
        pids = _fill(pool, 6)  # capacity is 4
        pool.flush_all()
        pool.drop_cache()
        loaded = pool.prefetch(pids)
        assert loaded == pool.capacity
        assert pool.cached_pages <= pool.capacity

    def test_prefetched_frames_are_evictable(self, pool):
        pids = _fill(pool, 4)
        pool.flush_all()
        pool.drop_cache()
        pool.prefetch(pids)
        pool.new_page()  # must evict a prefetched (clean, unpinned) frame
        assert pool.cached_pages <= pool.capacity + 1
        assert pool.stats.evictions >= 1


class TestColdReset:
    def test_drop_cache_empties_and_flushes(self, pool):
        (pid,) = _fill(pool, 1)
        page = pool.get(pid)
        page[1] = 0x77
        pool.unpin(pid, dirty=True)
        pool.drop_cache()
        assert pool.cached_pages == 0
        assert pool.get(pid)[1] == 0x77  # survived via write-back
        pool.unpin(pid)

    def test_drop_cache_rejected_while_pinned(self, pool):
        (pid,) = _fill(pool, 1)
        pool.get(pid)
        with pytest.raises(PageError):
            pool.drop_cache()
        pool.unpin(pid)

    def test_stats_reset(self, pool):
        (pid,) = _fill(pool, 1)
        pool.get(pid)
        pool.unpin(pid)
        pool.stats.reset()
        assert pool.stats.hits == 0
        assert pool.stats.hit_ratio == 0.0


class TestDirtySnapshot:
    def test_dirty_pages_snapshot(self, pool):
        pids = _fill(pool, 2)
        pool.flush_all()
        page = pool.get(pids[0])
        page[2] = 0x33
        pool.unpin(pids[0], dirty=True)
        dirty = pool.dirty_pages()
        assert set(dirty) == {pids[0]}
        assert dirty[pids[0]][2] == 0x33

    def test_free_page_logs_its_link_as_a_dirty_frame(self, pool):
        pids = _fill(pool, 2)
        pool.flush_all()
        pool.free_page(pids[0])
        # The link (the old, empty head) is a dirty frame, logged and
        # forced with its commit; the data file is not written ahead.
        assert pool.dirty_pages() == {pids[0]: bytes(PAGE_SIZE)}
        assert pool.new_page() == pids[0]
