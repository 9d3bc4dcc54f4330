"""The heap is the extent: op 09's scan walks heap pages, by exact counts."""

import os

import pytest

from repro.backends.oodb import OodbDatabase
from repro.core.config import HyperModelConfig
from repro.core.generator import DatabaseGenerator
from repro.engine import slotted
from repro.engine.catalog import FieldDefinition
from repro.engine.store import ObjectStore
from repro.errors import SchemaError
from repro.obs import Instrumentation


def _pages_and_overflow_stubs(store):
    """The heap's pages, and the overflow records among their slots."""
    pages = stubs = 0
    for pid in store._heap.page_ids():
        page = store._pool.get(pid)
        try:
            pages += 1
            stubs += sum(raw[0] == 1 for _slot, raw in slotted.records(page))
        finally:
            store._pool.unpin(pid)
    return pages, stubs


def _touches(delta):
    return delta.get("engine.buffer.hit", 0) + delta.get("engine.buffer.miss", 0)


def _store(tmp_path, instrumentation=None, **kwargs):
    store = ObjectStore(
        os.path.join(str(tmp_path), "scan.hmdb"),
        sync_commits=False,
        instrumentation=instrumentation,
        **kwargs,
    )
    store.open()
    return store


def test_a_cold_level4_scan_pins_each_heap_page_once(tmp_path):
    instr = Instrumentation()
    db = OodbDatabase(str(tmp_path / "l4.hmdb"), instrumentation=instr)
    db.open()
    DatabaseGenerator(HyperModelConfig(levels=4)).generate(db)
    db.close()
    db.open()
    before = instr.snapshot()
    assert db.scan_ten(1) == 781
    delta = instr.delta_since(before)
    pages, stubs = _pages_and_overflow_stubs(db.store)
    # One pin per heap page, one per overflow chain (its first page
    # only), and no directory descent: against 2 476 pins and 2 368
    # B+tree node visits when each OID was resolved through the
    # directory.
    assert (pages, stubs) == (165, 5)
    assert _touches(delta) == pages + stubs == 170
    assert not any(key.startswith("engine.btree.") for key in delta)
    assert delta["engine.store.objects_read"] == 781
    assert "engine.decode_cache.hits" not in delta
    assert "engine.decode_cache.misses" not in delta
    db.close()


def test_version_records_are_passed_over(tmp_path):
    store = _store(tmp_path, versioned=True)
    store.define_class("Item", [FieldDefinition("value", default=0)])
    oids = [store.new("Item", {"value": i}) for i in range(30)]
    store.commit()
    for round_ in range(3):
        for oid in oids:
            store.update(oid, {"value": 100 * round_ + oid})
        store.commit()
    store.drop_cache()
    before = store.stats.objects_read
    scanned = dict(store.scan_states("Item", ("value",)))
    assert scanned == {oid: {"value": 200 + oid} for oid in oids}
    assert store.stats.objects_read - before == 30
    assert len(store.version_chain(oids[0])) == 3
    store.close()


def test_a_projection_reads_only_the_first_page_of_an_overflow_chain(tmp_path):
    instr = Instrumentation()
    store = _store(tmp_path, instrumentation=instr)
    store.define_class(
        "Form",
        [FieldDefinition("name", default=""), FieldDefinition("bits", default=b""),
         FieldDefinition("tail", default=0)],
    )
    bits = bytes(range(256)) * 80  # five overflow pages
    form = store.new("Form", {"name": "f", "bits": bits, "tail": 7})
    small = store.new("Form", {"name": "s"})
    store.commit()
    store.drop_cache()
    pages, stubs = _pages_and_overflow_stubs(store)
    assert stubs == 1
    store.drop_cache()
    before = instr.snapshot()
    assert dict(store.scan_states("Form", ("name",))) == {
        form: {"name": "f"}, small: {"name": "s"},
    }
    assert _touches(instr.delta_since(before)) == pages + stubs
    # A field past the first page, or the whole state, reads the chain.
    assert dict(store.scan_states("Form", ("tail",))) == {
        form: {"tail": 7}, small: {"tail": 0},
    }
    assert dict(store.scan_states("Form"))[form] == {
        "name": "f", "bits": bits, "tail": 7,
    }
    store.close()


def test_pending_writes_are_scanned_as_they_stand(tmp_path):
    store = _store(tmp_path)
    store.define_class("Item", [FieldDefinition("value", default=0)])
    store.define_class("Sub", [FieldDefinition("tag", default=-1)], base="Item")
    kept, updated, deleted = (store.new("Item", {"value": v}) for v in (1, 2, 3))
    store.commit()
    store.update(updated, {"value": 20})
    store.delete(deleted)
    created = store.new("Item", {"value": 4})
    sub = store.new("Sub", {"value": 5})
    gone = store.new("Item", {"value": 6})
    store.delete(gone)
    assert dict(store.scan_states("Item", ("value",))) == {
        kept: {"value": 1}, updated: {"value": 20},
        created: {"value": 4}, sub: {"value": 5},
    }
    assert set(store.scan_class("Item", include_subclasses=False)) == {
        kept, updated, created,
    }
    assert list(store.scan_class("Sub")) == [sub]
    store.commit()
    assert dict(store.scan_states("Item", ("value",))) == {
        kept: {"value": 1}, updated: {"value": 20},
        created: {"value": 4}, sub: {"value": 5},
    }
    store.close()


def test_a_scan_refuses_a_field_the_class_lacks(tmp_path):
    store = _store(tmp_path)
    store.define_class("Item", [FieldDefinition("value", default=0)])
    with pytest.raises(SchemaError, match="ghost"):
        store.scan_states("Item", ("ghost",))
    store.close()


def test_a_schema_change_during_a_scan_restarts_it(tmp_path):
    store = _store(tmp_path)
    store.define_class("Item", [FieldDefinition("value", default=0)])
    oids = [store.new("Item", {"value": i}) for i in range(50)]
    store.commit()
    scan = store.scan_states("Item")
    first, state = next(scan)
    assert state == {"value": first - oids[0]}
    store.add_field("Item", FieldDefinition("grade", default="B"))
    rest = dict(scan)
    assert sorted([first, *rest]) == oids
    assert all(state["grade"] == "B" for state in rest.values())
    store.close()
