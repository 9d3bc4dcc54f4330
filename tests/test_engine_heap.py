"""Heap files: RIDs, overflow chains, relocation and placement hints."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.buffer import BufferPool
from repro.engine.heap import HeapFile, make_rid, rid_page, rid_slot
from repro.engine.pages import PageFile
from repro.errors import RecordNotFoundError


@pytest.fixture
def heap(tmp_path):
    pf = PageFile(str(tmp_path / "h.db"))
    pool = BufferPool(pf, capacity=16)
    heap = HeapFile(pool, "data")
    yield heap
    pool.flush_all()
    pf.close()


class TestRids:
    def test_rid_packing_roundtrip(self):
        rid = make_rid(1234, 56)
        assert rid_page(rid) == 1234
        assert rid_slot(rid) == 56


class TestBasics:
    def test_insert_read_roundtrip(self, heap):
        rid = heap.insert(b"record-1")
        assert heap.read(rid) == b"record-1"

    def test_missing_rid_raises(self, heap):
        rid = heap.insert(b"x")
        heap.delete(rid)
        with pytest.raises(RecordNotFoundError):
            heap.read(rid)
        with pytest.raises(RecordNotFoundError):
            heap.delete(rid)
        with pytest.raises(RecordNotFoundError):
            heap.update(rid, b"y")

    def test_scan_in_physical_order(self, heap):
        rids = [heap.insert(bytes([i]) * 10) for i in range(20)]
        scanned = list(heap.scan())
        assert [r for r, _ in scanned] == rids
        assert scanned[3][1] == bytes([3]) * 10

    def test_heap_grows_across_pages(self, heap):
        for i in range(50):
            heap.insert(b"p" * 500)
        assert len(list(heap.page_ids())) > 5
        assert len(list(heap.scan())) == 50

    def test_persistence_across_reopen(self, tmp_path):
        path = str(tmp_path / "p.db")
        pf = PageFile(path)
        pool = BufferPool(pf, capacity=8)
        heap = HeapFile(pool, "data")
        rid = heap.insert(b"durable")
        pool.flush_all()
        pf.sync()
        pf.close()
        pf2 = PageFile(path)
        heap2 = HeapFile(BufferPool(pf2, capacity=8), "data")
        assert heap2.read(rid) == b"durable"
        pf2.close()


class TestUpdate:
    def test_in_place_update_keeps_rid(self, heap):
        rid = heap.insert(b"aaaa")
        assert heap.update(rid, b"bb") == rid
        assert heap.read(rid) == b"bb"

    def test_relocating_update_returns_new_rid(self, heap):
        rids = [heap.insert(b"f" * 1300) for _ in range(3)]
        new_rid = heap.update(rids[0], b"g" * 3500)
        assert new_rid != rids[0]
        assert heap.read(new_rid) == b"g" * 3500
        with pytest.raises(RecordNotFoundError):
            heap.read(rids[0])


class TestOverflow:
    def test_record_larger_than_page(self, heap):
        big = bytes(range(256)) * 100  # 25,600 bytes
        rid = heap.insert(big)
        assert heap.read(rid) == big

    def test_overflow_update_and_shrink(self, heap):
        big = b"B" * 20_000
        rid = heap.insert(big)
        rid = heap.update(rid, b"small now")
        assert heap.read(rid) == b"small now"

    def test_overflow_delete_frees_pages(self, heap):
        pf = heap._pool._file
        rid = heap.insert(b"C" * 30_000)
        grown = pf.page_count
        heap.delete(rid)
        # Freed overflow pages are recycled by the next big insert.
        heap.insert(b"D" * 30_000)
        assert pf.page_count == grown

    def test_mixed_inline_and_overflow_scan(self, heap):
        heap.insert(b"tiny")
        heap.insert(b"H" * 10_000)
        heap.insert(b"also tiny")
        lengths = [len(data) for _rid, data in heap.scan()]
        assert lengths == [4, 10_000, 9]


class TestWalk:
    def test_walk_is_the_scan_page_by_page(self, heap):
        rids = [heap.insert(bytes([i]) * 700) for i in range(12)]
        heap.delete(rids[4])
        pages = list(heap.walk())
        assert len(pages) == len(list(heap.page_ids()))
        walked = [(rid, payload) for records in pages for rid, payload, _ in records]
        assert walked == [(rid, heap.read(rid)) for rid in rids if rid != rids[4]]
        assert all(whole for records in pages for _, _, whole in records)

    def test_an_overflow_record_yields_its_first_page(self, heap):
        big = bytes(range(256)) * 40
        rid = heap.insert(big)
        small_rid = heap.insert(b"small")
        [records] = list(heap.walk())
        (head_rid, head, whole), small = records
        assert head_rid == rid and not whole
        assert big.startswith(head) and len(head) < len(big)
        assert small == (small_rid, b"small", True)
        assert dict(heap.scan()) == {rid: big, small_rid: b"small"}


class TestPlacementHints:
    def test_near_hint_places_on_same_page(self, heap):
        anchor = heap.insert(b"anchor" * 10)
        # Fill elsewhere so the tail page differs from the anchor's page.
        for _ in range(40):
            heap.insert(b"fill" * 200)
        near = heap.insert(b"neighbour", near=anchor)
        assert rid_page(near) == rid_page(anchor)

    def test_full_hint_page_falls_back(self, heap):
        anchor = heap.insert(b"a" * 3000)
        heap.insert(b"b" * 900)
        near = heap.insert(b"c" * 900, near=anchor)  # does not fit there
        assert heap.read(near) == b"c" * 900


@settings(max_examples=40, deadline=None)
@given(
    payloads=st.lists(st.binary(min_size=0, max_size=6000), max_size=25),
    delete_mask=st.lists(st.booleans(), max_size=25),
)
def test_property_heap_matches_dict_model(tmp_path_factory, payloads, delete_mask):
    """Insert/delete sequences agree with a dict reference model."""
    base = tmp_path_factory.mktemp("heap-prop")
    pf = PageFile(str(base / "m.db"))
    heap = HeapFile(BufferPool(pf, capacity=16), "data")
    model = {}
    for payload in payloads:
        rid = heap.insert(payload)
        assert rid not in model
        model[rid] = payload
    for (rid, payload), kill in zip(list(model.items()), delete_mask):
        if kill:
            heap.delete(rid)
            del model[rid]
    assert dict(heap.scan()) == model
    for rid, payload in model.items():
        assert heap.read(rid) == payload
    pf.close()
