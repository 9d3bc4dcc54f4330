"""Slotted pages: inserts, tombstones, growth updates and compaction."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import slotted
from repro.engine.pages import PAGE_SIZE
from repro.errors import PageError


@pytest.fixture
def page():
    buffer = bytearray(PAGE_SIZE)
    slotted.init_page(buffer)
    return buffer


class TestBasics:
    def test_fresh_page_is_empty(self, page):
        assert slotted.slot_count(page) == 0
        assert slotted.live_count(page) == 0
        assert slotted.free_space(page) > 4000

    def test_insert_read_roundtrip(self, page):
        slot = slotted.insert(page, b"hello")
        assert slotted.read(page, slot) == b"hello"
        assert slotted.live_count(page) == 1

    def test_slots_are_sequential(self, page):
        slots = [slotted.insert(page, bytes([i])) for i in range(5)]
        assert slots == [0, 1, 2, 3, 4]

    def test_records_iterates_live_only(self, page):
        slotted.insert(page, b"a")
        victim = slotted.insert(page, b"b")
        slotted.insert(page, b"c")
        slotted.delete(page, victim)
        assert [(s, d) for s, d in slotted.records(page)] == [
            (0, b"a"), (2, b"c"),
        ]

    def test_oversized_record_rejected(self, page):
        with pytest.raises(PageError):
            slotted.insert(page, b"x" * (slotted.MAX_RECORD_SIZE + 1))

    def test_page_fills_up(self, page):
        blob = b"y" * 400
        inserted = 0
        while slotted.can_insert(page, len(blob)):
            slotted.insert(page, blob)
            inserted += 1
        assert inserted == 10  # (4096 - 16) // (400 + 4)
        with pytest.raises(PageError):
            slotted.insert(page, blob)


class TestDelete:
    def test_deleted_slot_unreadable(self, page):
        slot = slotted.insert(page, b"bye")
        slotted.delete(page, slot)
        with pytest.raises(PageError):
            slotted.read(page, slot)
        with pytest.raises(PageError):
            slotted.delete(page, slot)

    def test_tombstoned_slot_reused(self, page):
        slotted.insert(page, b"a")
        victim = slotted.insert(page, b"b")
        slotted.delete(page, victim)
        assert slotted.insert(page, b"c") == victim

    def test_out_of_range_slot(self, page):
        with pytest.raises(PageError):
            slotted.read(page, 0)
        with pytest.raises(PageError):
            slotted.delete(page, 3)


class TestUpdate:
    def test_shrinking_update_in_place(self, page):
        slot = slotted.insert(page, b"longer-record")
        assert slotted.update(page, slot, b"tiny")
        assert slotted.read(page, slot) == b"tiny"

    def test_growing_update_same_slot(self, page):
        slot = slotted.insert(page, b"ab")
        assert slotted.update(page, slot, b"much longer now")
        assert slotted.read(page, slot) == b"much longer now"

    def test_growth_beyond_capacity_returns_false(self, page):
        blob = b"z" * 1300
        slots = [slotted.insert(page, blob) for _ in range(3)]
        assert not slotted.update(page, slots[0], b"w" * 3000)
        assert slotted.read(page, slots[0]) == blob  # old record intact

    def test_update_after_fragmentation_compacts(self, page):
        keep = slotted.insert(page, b"k" * 1000)
        hole = slotted.insert(page, b"h" * 1500)
        tail = slotted.insert(page, b"t" * 1000)
        slotted.delete(page, hole)
        # Growing `tail` needs the hole's space, reachable via compaction.
        assert slotted.update(page, tail, b"T" * 2000)
        assert slotted.read(page, keep) == b"k" * 1000
        assert slotted.read(page, tail) == b"T" * 2000


class TestHints:
    """The O(1) header hints: live bytes and the free-slot scan start."""

    def test_fresh_page_hints(self, page):
        live, hint = slotted._hints(page)
        assert live == 0
        assert hint == slotted.NO_FREE_SLOT

    def test_live_bytes_track_inserts_and_deletes(self, page):
        a = slotted.insert(page, b"x" * 100)
        slotted.insert(page, b"y" * 50)
        assert slotted._hints(page)[0] == 150
        slotted.delete(page, a)
        assert slotted._hints(page)[0] == 50

    def test_live_bytes_track_updates(self, page):
        slot = slotted.insert(page, b"x" * 100)
        slotted.update(page, slot, b"y" * 30)
        assert slotted._hints(page)[0] == 30
        slotted.update(page, slot, b"z" * 200)
        assert slotted._hints(page)[0] == 200

    def test_delete_lowers_free_hint(self, page):
        slots = [slotted.insert(page, bytes([i]) * 10) for i in range(5)]
        slotted.delete(page, slots[3])
        assert slotted._hints(page)[1] == 3
        slotted.delete(page, slots[1])
        assert slotted._hints(page)[1] == 1

    def test_reuse_advances_hint_past_live_slots(self, page):
        slots = [slotted.insert(page, bytes([i]) * 10) for i in range(4)]
        slotted.delete(page, slots[1])
        slotted.delete(page, slots[3])
        assert slotted.insert(page, b"r1") == slots[1]
        # The next reuse starts from the hint, skipping live slot 2.
        assert slotted.insert(page, b"r2") == slots[3]
        assert slotted._hints(page)[1] == slotted.NO_FREE_SLOT
        # No tombstones left: the next insert appends a new slot.
        assert slotted.insert(page, b"r3") == 4

    def test_reclaimable_space_grows_by_deleted_bytes(self, page):
        victim = slotted.insert(page, b"v" * 1000)
        slotted.insert(page, b"k" * 500)
        before = slotted._reclaimable_space(page)
        slotted.delete(page, victim)
        # O(1) from the live-bytes hint: the dead record's bytes become
        # reclaimable without rescanning the slot directory.
        assert slotted._reclaimable_space(page) == before + 1000

    def test_compact_resets_hints_exactly(self, page):
        slots = [slotted.insert(page, bytes([i]) * 20) for i in range(6)]
        for victim in (slots[0], slots[2], slots[5]):
            slotted.delete(page, victim)
        slotted.compact(page)
        live, hint = slotted._hints(page)
        assert live == 3 * 20
        assert hint == 0  # slot 0 is the first surviving tombstone


class TestViews:
    def test_read_returns_memoryview(self, page):
        slot = slotted.insert(page, b"zero-copy")
        view = slotted.read(page, slot)
        assert isinstance(view, memoryview)
        assert bytes(view) == b"zero-copy"

    def test_records_yields_views(self, page):
        slotted.insert(page, b"a")
        slotted.insert(page, b"bb")
        entries = list(slotted.records(page))
        assert [(s, bytes(v)) for s, v in entries] == [(0, b"a"), (1, b"bb")]
        assert all(isinstance(v, memoryview) for _, v in entries)


class TestCompaction:
    def test_compaction_preserves_slots_and_data(self, page):
        slots = {slotted.insert(page, bytes([i]) * 50): bytes([i]) * 50
                 for i in range(10)}
        for victim in list(slots)[::2]:
            slotted.delete(page, victim)
            del slots[victim]
        slotted.compact(page)
        for slot, expected in slots.items():
            assert slotted.read(page, slot) == expected

    def test_compaction_reclaims_space(self, page):
        victim = slotted.insert(page, b"v" * 2000)
        slotted.insert(page, b"s" * 1500)
        slotted.delete(page, victim)
        before = slotted.free_space(page)
        slotted.compact(page)
        assert slotted.free_space(page) >= before + 2000 - 4


@settings(max_examples=60, deadline=None)
@given(
    operations=st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete", "update"]),
            st.integers(min_value=0, max_value=19),
            st.binary(min_size=0, max_size=120),
        ),
        max_size=60,
    )
)
def test_property_slotted_page_matches_dict_model(operations):
    """Random op sequences agree with a dictionary reference model."""
    page = bytearray(PAGE_SIZE)
    slotted.init_page(page)
    model = {}
    for op, key, payload in operations:
        if op == "insert":
            if slotted.can_insert(page, len(payload)):
                slot = slotted.insert(page, payload)
                assert slot not in model
                model[slot] = payload
        elif op == "delete" and key in model:
            slotted.delete(page, key)
            del model[key]
        elif op == "update" and key in model:
            if slotted.update(page, key, payload):
                model[key] = payload
    assert dict(slotted.records(page)) == model
