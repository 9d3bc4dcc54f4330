"""The object store facade: CRUD, transactions, indexes, recovery."""

import os

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.engine import serializer
from repro.engine.catalog import FieldDefinition
from repro.engine.store import ObjectStore
from repro.engine.vfs import MemoryVFS
from repro.errors import (
    DatabaseClosedError,
    RecordNotFoundError,
    SchemaError,
    StorageError,
    TransactionError,
)


def _make_store(tmp_path, name="s.hmdb", **kwargs):
    kwargs.setdefault("sync_commits", False)
    return ObjectStore(os.path.join(str(tmp_path), name), **kwargs)


@pytest.fixture
def store(tmp_path):
    s = _make_store(tmp_path)
    s.open()
    s.define_class(
        "Item",
        [
            FieldDefinition("name", default=""),
            FieldDefinition("value", default=0),
        ],
    )
    yield s
    if s.is_open:
        s.close()


class TestLifecycle:
    def test_closed_store_rejects_operations(self, tmp_path):
        s = _make_store(tmp_path)
        with pytest.raises(DatabaseClosedError):
            s.get(1)

    def test_open_is_idempotent(self, store):
        store.open()
        assert store.is_open

    def test_close_aborts_open_transaction(self, store):
        oid = store.new("Item", {"value": 1})
        store.commit()
        store.update(oid, {"value": 2})  # implicit txn, uncommitted
        store.close()
        store.open()
        assert store.get(oid)["value"] == 1


class TestCrud:
    def test_new_get_update_delete(self, store):
        oid = store.new("Item", {"name": "a", "value": 1})
        assert store.get(oid) == {"name": "a", "value": 1}
        store.update(oid, {"value": 2})
        assert store.get(oid)["value"] == 2
        store.put(oid, {"name": "b", "value": 3})
        assert store.get(oid) == {"name": "b", "value": 3}
        store.delete(oid)
        with pytest.raises(RecordNotFoundError):
            store.get(oid)
        assert not store.exists(oid)

    def test_defaults_filled_on_create(self, store):
        oid = store.new("Item", {})
        assert store.get(oid) == {"name": "", "value": 0}

    def test_unknown_fields_rejected(self, store):
        with pytest.raises(SchemaError):
            store.new("Item", {"ghost": 1})

    def test_class_of(self, store):
        oid = store.new("Item", {})
        assert store.class_of(oid) == "Item"

    def test_get_returns_private_copy(self, store):
        oid = store.new("Item", {"value": 1})
        store.commit()
        state = store.get(oid)
        state["value"] = 999
        assert store.get(oid)["value"] == 1


class TestDecodeCache:
    """The ``oid -> (rid, lsn, record)`` decoded-record cache behind reads."""

    def _delta(self, store, action):
        before = store.instrumentation.snapshot()
        result = action()
        return result, store.instrumentation.delta_since(before)

    @pytest.fixture
    def counted(self, tmp_path):
        from repro.obs import Instrumentation

        s = _make_store(tmp_path, instrumentation=Instrumentation())
        s.open()
        s.define_class("Item", [FieldDefinition("value", default=0)])
        yield s
        if s.is_open:
            s.close()

    def test_repeat_get_hits_cache(self, counted):
        oid = counted.new("Item", {"value": 7})
        counted.commit()
        _, first = self._delta(counted, lambda: counted.get(oid))
        assert first.get("engine.decode_cache.misses", 0) == 1
        _, second = self._delta(counted, lambda: counted.get(oid))
        assert second.get("engine.decode_cache.hits", 0) == 1
        assert second.get("engine.decode_cache.misses", 0) == 0

    def test_committed_update_invalidates(self, counted):
        oid = counted.new("Item", {"value": 1})
        counted.commit()
        assert counted.get(oid)["value"] == 1  # populate cache
        counted.update(oid, {"value": 2})
        _, delta = self._delta(counted, counted.commit)
        assert delta.get("engine.decode_cache.invalidations", 0) >= 1
        assert counted.get(oid)["value"] == 2

    def test_delete_and_slot_reuse_never_serve_stale(self, store):
        """A new object reusing a deleted object's heap slot must not
        decode to the old occupant."""
        victims = [store.new("Item", {"value": i}) for i in range(3)]
        store.commit()
        for oid in victims:
            store.get(oid)  # cache all three under their rids
        store.delete(victims[1])
        store.commit()
        fresh = store.new("Item", {"value": 999})
        store.commit()
        assert store.get(fresh)["value"] == 999
        with pytest.raises(RecordNotFoundError):
            store.get(victims[1])

    def test_cached_hit_returns_private_copy(self, store):
        oid = store.new("Item", {"name": "n", "value": 1})
        store.commit()
        store.get(oid)
        state = store.get(oid)  # cache hit
        state["value"] = 999
        assert store.get(oid)["value"] == 1

    def test_get_many_hits_are_private_copies(self, store):
        oids = [store.new("Item", {"value": i}) for i in range(4)]
        store.commit()
        store.get_many(oids)  # populate
        first = store.get_many(oids)  # all hits
        first[oids[0]]["value"] = 999
        assert store.get_many(oids)[oids[0]]["value"] == 0

    def test_schema_change_clears_cache(self, store):
        oid = store.new("Item", {"value": 1})
        store.commit()
        assert "extra" not in store.get(oid)  # cached pre-upgrade
        store.add_field("Item", FieldDefinition("extra", default=42))
        assert store.get(oid)["extra"] == 42

    def test_record_timestamp_tracks_commits(self, store):
        oid = store.new("Item", {"value": 1})
        store.commit()
        first = store.record_timestamp(oid)
        assert store.record_timestamp(oid) == first  # cache hit
        store.update(oid, {"value": 2})
        store.commit()
        assert store.record_timestamp(oid) > first

    def test_survives_reopen_cold(self, store):
        oid = store.new("Item", {"value": 5})
        store.commit()
        store.get(oid)
        store.close()
        store.open()  # fresh cache: recovery must never serve pre-crash
        assert store._decode_cache is not None
        assert len(store._decode_cache) == 0
        assert store.get(oid)["value"] == 5

    def test_disabled_cache_still_correct(self, tmp_path):
        s = _make_store(tmp_path, decode_cache_size=0)
        s.open()
        s.define_class("Item", [FieldDefinition("value", default=0)])
        assert s._decode_cache is None
        oid = s.new("Item", {"value": 3})
        s.commit()
        assert s.get(oid)["value"] == 3
        s.update(oid, {"value": 4})
        s.commit()
        assert s.get(oid)["value"] == 4
        s.close()

    def test_cached_and_uncached_stores_agree_through_every_write_path(
        self, tmp_path
    ):
        """A cache-on store and its ``decode_cache_size=0`` twin, driven
        through every path that moves, rewrites or forgets a record,
        answer every read form identically after every step."""
        stores = [
            _make_store(tmp_path, "on.hmdb", versioned=True, cache_pages=8),
            _make_store(
                tmp_path, "off.hmdb", versioned=True, cache_pages=8,
                decode_cache_size=0,
            ),
        ]
        for s in stores:
            s.open()
            s.define_class(
                "Item",
                [
                    FieldDefinition("name", default=""),
                    FieldDefinition("value", default=0),
                    FieldDefinition("links", default=[]),
                ],
            )
        assert stores[0]._decode_cache is not None
        assert stores[1]._decode_cache is None
        live, dead = [], []
        projection = ("value", "links")

        def reads(s):
            whole = {oid: s.get(oid) for oid in live}
            some = {oid: s.get(oid, fields=projection) for oid in live}
            assert s.get_many(live) == whole
            assert s.get_many(live, fields=projection) == some
            for oid in live:
                assert some[oid] == {f: whole[oid][f] for f in projection}
            for oid in dead:
                for read in (s.get, s.class_of, s.record_timestamp):
                    with pytest.raises(RecordNotFoundError):
                        read(oid)
                with pytest.raises(RecordNotFoundError):
                    s.get(oid, fields=projection)
                with pytest.raises(RecordNotFoundError):
                    s.get_many(live + [oid], fields=projection)
            return (
                whole, some,
                [s.class_of(oid) for oid in live],
                [s.record_timestamp(oid) for oid in live],
            )

        def step(action, born=False, died=()):
            results = [action(s) for s in stores]
            assert results[0] == results[1]
            for s in stores:
                s.commit()
                # Evict every page: entries outlive their pages, so only
                # the exact invalidations (not the frame-LSN guard)
                # stand between the reads below and a stale record.
                s._pool.drop_cache()
            if born:
                live.extend(results[0])
            for oid in died:
                live.remove(oid)
                dead.append(oid)
            first, second = reads(stores[0]), reads(stores[1])
            assert first == second
            assert reads(stores[0]) == first  # now served from the cache

        def populate(s):
            return [
                s.new("Item", {"name": f"n{i}", "value": i, "links": [i]})
                for i in range(40)
            ]

        step(populate, born=True)
        a, b, c, d = live[:4]
        step(lambda s: s.update(a, {"value": 100}))  # in place
        pages = [s.page_of(b) for s in stores]
        step(lambda s: s.update(b, {"name": "x" * 3000}))  # outgrows its page
        assert [s.page_of(b) for s in stores] != pages  # the rid moved
        step(lambda s: s.relocate_near(c, live[-1]))
        step(lambda s: s.delete(d), died=[d])
        step(lambda s: [s.new("Item", {"value": 999})], born=True)  # d's slot
        step(lambda s: s.update(a, {"links": [1, [2, 3]]}))  # versioned
        assert all(
            s.previous_version(a)["value"] == 100 for s in stores
        )
        extra = FieldDefinition("extra", default=[7])
        step(lambda s: s.add_field("Item", extra))
        projection = ("extra", "links")
        step(lambda s: s.drop_cache())
        step(lambda s: (s.close(), s.open()) and None)
        step(lambda s: s.vacuum() and None)
        for s in stores:
            s.close()

    def test_capacity_bounds_entries(self, tmp_path):
        s = _make_store(tmp_path, decode_cache_size=4)
        s.open()
        s.define_class("Item", [FieldDefinition("value", default=0)])
        oids = [s.new("Item", {"value": i}) for i in range(10)]
        s.commit()
        for oid in oids:
            s.get(oid)
        assert len(s._decode_cache) <= 4
        for oid in oids:  # correctness under constant eviction
            assert s.get(oid)["value"] == oids.index(oid)
        s.close()


_states = st.recursive(
    st.integers(-5, 5) | st.text(max_size=3) | st.none(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=12,
)


def _scribble(value):
    """Mutate every container reachable from ``value``, in place."""
    if isinstance(value, dict):
        for item in value.values():
            _scribble(item)
        value["scribbled"] = True
    elif isinstance(value, list):
        for item in value:
            _scribble(item)
        value.append("scribbled")


@settings(max_examples=40, deadline=None)
@given(a=_states, b=_states)
def test_no_read_form_shares_state_with_the_store(a, b):
    """Whatever a read returns is the caller's: scribbling over it —
    buffered or committed, decode-cache hit or miss, whole or
    projected, single or batched — changes no later read."""
    s = ObjectStore("p.hmdb", vfs=MemoryVFS(), sync_commits=False)
    s.open()
    s.define_class("Pair", [FieldDefinition("a"), FieldDefinition("b")])
    oid = s.new("Pair", {"a": a, "b": b})
    expected = {"a": a, "b": b}

    def read_forms():
        return [
            s.get(oid),
            s.get(oid, fields=("a",)),
            s.get_many([oid])[oid],
            s.get_many([oid], fields=("b", "a"))[oid],
        ]

    def check():
        for _ in range(2):
            whole, one, batched, both = read_forms()
            assert whole == batched == both == expected
            assert one == {"a": expected["a"]}
            for result in (whole, one, batched, both):
                _scribble(result)
        with pytest.raises(SchemaError):
            s.get(oid, fields=("a", "ghost"))
        with pytest.raises(SchemaError):
            s.get_many([oid], fields=("a", "ghost"))

    check()  # buffered in the creating transaction
    s.commit()
    check()  # decode-cache miss, then hits
    s.drop_cache()
    assert s.get_many([oid], fields=("a",))[oid] == {"a": a}  # batched miss
    check()
    s.update(oid, {"b": a})
    expected = {"a": a, "b": a}
    check()  # buffered over a committed record
    s.commit()
    check()
    s.close()


class TestTransactions:
    def test_explicit_commit_and_abort(self, store):
        oid = store.new("Item", {"value": 5})
        store.commit()
        assert store.get(oid)["value"] == 5

        store.update(oid, {"value": 6})
        assert store.get(oid)["value"] == 6  # own writes visible
        store.abort()
        assert store.current_transaction() is None
        assert store.get(oid)["value"] == 5

    def test_context_manager_aborts_on_exception(self, store):
        oid = store.new("Item", {"value": 1})
        store.commit()
        with pytest.raises(RuntimeError):
            with store:
                store.update(oid, {"value": 2})
                raise RuntimeError("boom")
        assert not store.is_open
        store.open()
        assert store.get(oid)["value"] == 1

    def test_only_one_active_transaction(self, store):
        """Every write until commit or abort joins the handle's one
        implicit transaction; the next write starts a fresh one."""
        assert store.current_transaction() is None
        a = store.new("Item", {})
        txn = store.current_transaction()
        store.update(a, {"value": 2})
        b = store.new("Item", {})
        assert store.current_transaction() is txn
        assert set(txn.write_set) == {a, b}
        store.commit()
        assert store.current_transaction() is None
        store.delete(a)
        assert store.current_transaction().txid > txn.txid
        store.abort()

    @pytest.mark.parametrize(
        "index, bad",
        [pytest.param(True, "x", id="index-refused"),
         pytest.param(False, {1, 2}, id="unencodable")],
    )
    def test_rejected_commit_applies_nothing(self, store, tmp_path, index, bad):
        """A refused write set is refused whole: the valid object before
        the bad one must not reach a page that the next commit would
        make durable — whether an index refuses the bad value before
        any page is touched or the serializer fails halfway through."""
        if index:
            store.create_index("Item", "value")
        a, b = store.new("Item", {"value": 6}), store.new("Item", {"value": 6})
        store.commit()
        timestamp, aborts = store.commit_timestamp, store.stats.aborts
        store.update(a, {"value": 7})
        store.update(b, {"value": bad})
        with pytest.raises(StorageError):
            store.commit()
        assert store.current_transaction() is None
        assert store.stats.aborts == aborts + 1
        assert store.commit_timestamp == timestamp

        def unchanged(s):
            assert s.get(a)["value"] == s.get(b)["value"] == 6
            if index:
                assert sorted(s.index_lookup("Item", "value", 6)) == [a, b]
                assert s.index_lookup("Item", "value", 7) == []

        unchanged(store)
        store.new("Item", {"value": 1})  # an unrelated commit
        store.commit()
        unchanged(store)
        store.close()
        reopened = _make_store(tmp_path)
        reopened.open()
        unchanged(reopened)
        reopened.close()

    def test_created_object_visible_in_scan_before_commit(self, store):
        oid = store.new("Item", {})
        assert oid in list(store.scan_class("Item"))

    def test_deleted_object_hidden_before_commit(self, store):
        oid = store.new("Item", {})
        store.commit()
        store.delete(oid)
        assert oid not in list(store.scan_class("Item"))
        with pytest.raises(RecordNotFoundError):
            store.delete(oid)  # already deleted by this transaction
        store.abort()
        assert oid in list(store.scan_class("Item"))

    def test_commit_without_changes_is_cheap_noop(self, store):
        commits = store.stats.commits
        store.commit()  # no active txn
        assert store.stats.commits == commits


class TestExtents:
    def test_scan_includes_subclasses(self, store):
        store.define_class("Special", [FieldDefinition("extra", default=0)],
                           base="Item")
        a = store.new("Item", {})
        b = store.new("Special", {})
        store.commit()
        assert set(store.scan_class("Item")) == {a, b}
        assert set(store.scan_class("Item", include_subclasses=False)) == {a}
        assert set(store.scan_class("Special")) == {b}


class TestIndexes:
    def test_index_lookup_and_range(self, store):
        store.create_index("Item", "value")
        oids = [store.new("Item", {"value": v}) for v in (5, 3, 9, 3)]
        store.commit()
        assert set(store.index_lookup("Item", "value", 3)) == {oids[1], oids[3]}
        assert set(store.index_range("Item", "value", 4, 10)) == {
            oids[0], oids[2],
        }

    def test_index_backfills_existing_objects(self, store):
        oid = store.new("Item", {"value": 7})
        store.commit()
        store.create_index("Item", "value")
        assert store.index_lookup("Item", "value", 7) == [oid]

    def test_index_maintained_on_update_and_delete(self, store):
        store.create_index("Item", "value")
        oid = store.new("Item", {"value": 1})
        store.commit()
        store.update(oid, {"value": 2})
        store.commit()
        assert store.index_lookup("Item", "value", 1) == []
        assert store.index_lookup("Item", "value", 2) == [oid]
        store.delete(oid)
        store.commit()
        assert store.index_lookup("Item", "value", 2) == []

    def test_index_covers_subclasses(self, store):
        store.create_index("Item", "value")
        store.define_class("Special", [], base="Item")
        oid = store.new("Special", {"value": 11})
        store.commit()
        assert store.index_lookup("Item", "value", 11) == [oid]

    def test_non_integer_values_rejected(self, store):
        store.create_index("Item", "name")  # name is a str field
        with pytest.raises(SchemaError):
            store.new("Item", {"name": "text"})
            store.commit()
        store.abort()

    def test_duplicate_index_rejected(self, store):
        store.create_index("Item", "value")
        with pytest.raises(SchemaError):
            store.create_index("Item", "value")

    def test_index_sharing_a_header_root_rejected(self, store):
        """``ix.<class id>.<field>`` is cut to 16 bytes, so these two
        fields would map to one root and one index would reopen onto
        the other's tree."""
        store.define_class(
            "Doc",
            [
                FieldDefinition("description_a", default=0),
                FieldDefinition("description_b", default=0),
            ],
        )
        store.create_index("Doc", "description_a")
        with pytest.raises(SchemaError) as excinfo:
            store.create_index("Doc", "description_b")
        message = str(excinfo.value)
        assert "description_a" in message and "description_b" in message
        oids = [store.new("Doc", {"description_a": v, "description_b": -v})
                for v in range(50)]
        store.commit()
        store.close()
        store.open()
        assert store.index_lookup("Doc", "description_a", 5) == [oids[5]]

    def test_missing_index_rejected(self, store):
        with pytest.raises(SchemaError):
            store.index_range("Item", "value", 1, 2)


class TestPersistenceAndRecovery:
    def test_state_survives_clean_close(self, tmp_path):
        store = _make_store(tmp_path, "clean.hmdb")
        store.open()
        store.define_class("Item", [FieldDefinition("value", default=0)])
        store.create_index("Item", "value")
        oid = store.new("Item", {"value": 123})
        store.commit()
        store.close()

        store.open()
        assert store.get(oid)["value"] == 123
        assert store.index_lookup("Item", "value", 123) == [oid]
        store.close()

    def test_crash_recovery_replays_committed_work(self, tmp_path):
        """Simulated crash: committed work is never checkpointed, the
        process 'dies' (no close), and a new store must recover it
        from the WAL alone."""
        path = os.path.join(str(tmp_path), "crash.hmdb")
        store = ObjectStore(path, sync_commits=False)
        store.open()
        store.define_class("Item", [FieldDefinition("value", default=0)])
        oid = store.new("Item", {"value": 77})
        store.commit()
        # Crash: abandon the handles without close/checkpoint.  Reach in
        # and close the raw files so the OS lets us reopen them.
        store._wal._file.flush()
        store._wal._file.close()
        store._wal._file = None
        store._file._file.close()
        store._file._file = None

        recovered = ObjectStore(path, sync_commits=False)
        recovered.open()
        assert recovered.stats.recovered_transactions >= 1
        assert recovered.get(oid)["value"] == 77
        recovered.close()

    def test_uncommitted_work_lost_on_crash(self, tmp_path):
        path = os.path.join(str(tmp_path), "crash2.hmdb")
        store = ObjectStore(path, sync_commits=False)
        store.open()
        store.define_class("Item", [FieldDefinition("value", default=0)])
        committed = store.new("Item", {"value": 1})
        store.commit()
        store.new("Item", {"value": 2})  # never committed
        store._wal._file.flush()
        store._wal._file.close()
        store._wal._file = None
        store._file._file.close()
        store._file._file = None

        recovered = ObjectStore(path, sync_commits=False)
        recovered.open()
        oids = list(recovered.scan_class("Item"))
        assert oids == [committed]
        recovered.close()


def _chain_distance(store, page_a, page_b):
    """Distance between two pages in the heap's chain order."""
    order = {pid: i for i, pid in enumerate(store._heap.page_ids())}
    return abs(order[page_a] - order[page_b])


class TestClustering:
    def test_near_hint_places_on_same_or_adjacent_page(self, tmp_path):
        store = _make_store(tmp_path, "cluster.hmdb", clustered=True)
        store.open()
        store.define_class("Item", [FieldDefinition("value", default=0)])
        anchor = store.new("Item", {"value": 1})
        store.commit()
        # Scatter unrelated records so the tail drifts far away.
        for i in range(200):
            store.new("Item", {"value": i})
        store.commit()
        near = store.new("Item", {"value": 2}, near=anchor)
        store.commit()
        distance = _chain_distance(
            store, store.page_of(near), store.page_of(anchor)
        )
        assert distance <= 1  # same page, or spliced right after it
        store.close()

    def test_relocate_near_moves_record(self, tmp_path):
        store = _make_store(tmp_path, "reloc.hmdb", clustered=True)
        store.open()
        store.define_class("Item", [FieldDefinition("value", default=0)])
        anchor = store.new("Item", {"value": 1})
        for i in range(200):
            # A payload, so the fillers span several pages.
            store.new("Item", {"value": bytes(64)})
        stray = store.new("Item", {"value": 99})
        store.commit()
        assert _chain_distance(
            store, store.page_of(stray), store.page_of(anchor)
        ) > 1
        store.relocate_near(stray, anchor)
        store.commit()
        assert _chain_distance(
            store, store.page_of(stray), store.page_of(anchor)
        ) <= 1
        assert store.get(stray)["value"] == 99
        store.close()

    def test_unclustered_store_ignores_hints(self, tmp_path):
        store = _make_store(tmp_path, "uncluster.hmdb", clustered=False)
        store.open()
        store.define_class("Item", [FieldDefinition("value", default=0)])
        anchor = store.new("Item", {"value": 1})
        stray = store.new("Item", {"value": 2})
        store.commit()
        page_before = store.page_of(stray)
        store.relocate_near(stray, anchor)
        store.commit()
        assert store.page_of(stray) == page_before
        store.close()

    def test_commit_writes_hinted_records_in_pre_order(self, tmp_path):
        # Records hinted along a 1-N forest land subtree by subtree,
        # each right after the one written before it.
        store = _make_store(tmp_path, "preorder.hmdb", clustered=True)
        store.open()
        store.define_class("Item", [FieldDefinition("value", default=0)])
        root = store.new("Item", {"value": bytes(900)})
        children = [store.new("Item", {"value": bytes(900)}) for _ in range(3)]
        grandchildren = [
            [store.new("Item", {"value": bytes(900)}) for _ in range(3)]
            for _ in children
        ]
        store.commit()
        for child in children:  # breadth first, as the generator links
            store.relocate_near(child, root)
        for child, below in zip(children, grandchildren):
            for grandchild in below:
                store.relocate_near(grandchild, child)
        store.commit()
        preorder = [
            oid for child, below in zip(children, grandchildren)
            for oid in (child, *below)
        ]
        pages = [store.page_of(oid) for oid in preorder]
        order = {pid: i for i, pid in enumerate(store._heap.page_ids())}
        chain = [order[page] for page in pages]
        assert chain == sorted(chain)
        assert sorted(set(chain)) == list(range(chain[0], chain[-1] + 1))
        store.close()

    def test_scan_reads_the_heap_in_page_order(self, tmp_path):
        store = _make_store(tmp_path, "scan.hmdb", cache_pages=16)
        store.open()
        store.define_class("Item", [FieldDefinition("value", default=0)])
        oids = [store.new("Item", {"value": bytes(200)}) for _ in range(120)]
        store.commit()
        for oid in oids[::3]:  # grown out of their pages, to the tail
            store.update(oid, {"value": bytes(400)})
        store.commit()
        store.drop_cache()
        scanned = list(store.scan_states("Item"))
        assert dict(scanned) == {oid: store.get(oid) for oid in oids}
        pages = [store.page_of(oid) for oid, _state in scanned]
        assert pages == sorted(pages) != [store.page_of(oid) for oid in oids]
        store.close()

    def test_a_commit_during_a_scan_is_read_after_it(self, tmp_path):
        store = _make_store(
            tmp_path, "scan2.hmdb", cache_pages=16, decode_cache_size=0
        )
        store.open()
        store.define_class("Item", [FieldDefinition("value", default=0)])
        oids = [store.new("Item", {"value": i}) for i in range(100)]
        store.commit()
        scan = store.scan_states("Item")
        first, _ = next(scan)  # the first window of 16 is read
        for oid in oids:  # every record grows out of its slot
            store.update(oid, {"value": bytes(300)})
        store.commit()
        rest = dict(scan)
        assert sorted([first, *rest]) == oids
        assert all(rest[oid]["value"] == bytes(300) for oid in oids[16:])
        store.close()


class TestSchemaEvolutionOnLiveData:
    def test_existing_objects_gain_new_field_lazily(self, store):
        oid = store.new("Item", {"value": 1})
        store.commit()
        store.add_field("Item", FieldDefinition("grade", default="B"))
        assert store.get(oid)["grade"] == "B"

    def test_draw_node_style_subclass_addition(self, store):
        store.define_class(
            "DrawItem",
            [
                FieldDefinition("circles", default=0),
                FieldDefinition("rectangles", default=0),
            ],
            base="Item",
        )
        oid = store.new("DrawItem", {"circles": 3})
        store.commit()
        state = store.get(oid)
        assert state["circles"] == 3
        assert state["value"] == 0  # inherited default

    def test_base_addition_reaches_earlier_subclass_records(self, store):
        store.define_class(
            "TextItem", [FieldDefinition("text", default="")], base="Item"
        )
        oid = store.new("TextItem", {"value": 1, "text": "hi"})
        store.commit()
        store.add_field("Item", FieldDefinition("extra", default=5))
        expected = {"name": "", "value": 1, "text": "hi", "extra": 5}
        assert store.get(oid) == expected
        store.close()
        store.open()
        assert store.get(oid) == expected
        store.vacuum()
        assert store.get(oid) == expected
        store.add_field("TextItem", FieldDefinition("more", default=[]))
        assert store.get(oid) == {**expected, "more": []}

    def test_writes_naming_a_field_the_class_lacks_are_refused(self, store):
        # A record has a slot only for the fields of its class's layout.
        oid = store.new("Item", {"value": 1})
        store.commit()
        with pytest.raises(SchemaError):
            store.update(oid, {"ghost": 1, "value": 2})
        with pytest.raises(SchemaError):
            store.put(oid, {"ghost": 1})
        store.put(oid, {"value": 2})  # a field left out reads its default
        store.commit()
        assert store.get(oid) == {"name": "", "value": 2}

    def test_a_record_is_its_class_and_values_in_layout_order(self, store):
        oid = store.new("Item", {"name": "a", "value": 7})
        store.commit()
        record = serializer.decode(store._heap.read(store._rid_of(oid)))
        class_id = store.catalog.get("Item").class_id
        # class, version, version-chain head, commit timestamp, values
        assert record == [class_id, 1, 0, store.commit_timestamp, "a", 7]


class TestOpenFailureCleanup:
    """Regression: a failed open() must not leak the WAL handle."""

    def _write_corrupt_wal(self, path):
        """A frame whose CRC checks out but whose payload is garbage."""
        import struct
        import zlib

        payload = b"\xff\xfe\xfd\xfc not a serialized record"
        frame = struct.pack(
            "<II", len(payload), zlib.crc32(payload) & 0xFFFFFFFF
        )
        with open(path + ".wal", "wb") as f:
            f.write(frame + payload)

    def test_recovery_error_releases_handles(self, tmp_path):
        from repro.errors import RecoveryError

        path = os.path.join(str(tmp_path), "corrupt.hmdb")
        self._write_corrupt_wal(path)
        store = ObjectStore(path, sync_commits=False)
        with pytest.raises(RecoveryError):
            store.open()
        # The leak: _wal used to keep its descriptor open here, and
        # close() (a no-op on a closed store) never released it.
        assert store._wal is None
        assert store._file is None
        assert not store.is_open

    def test_store_reopens_after_fixing_the_wal(self, tmp_path):
        from repro.errors import RecoveryError

        path = os.path.join(str(tmp_path), "corrupt2.hmdb")
        self._write_corrupt_wal(path)
        store = ObjectStore(path, sync_commits=False)
        with pytest.raises(RecoveryError):
            store.open()
        os.remove(path + ".wal")  # operator repair: discard the bad log
        store.open()
        store.define_class("Item", [FieldDefinition("value", default=0)])
        oid = store.new("Item", {"value": 5})
        store.commit()
        assert store.get(oid)["value"] == 5
        store.close()


class TestCloseDropCacheContract:
    """close() silently aborts; drop_cache() raises.  Both are pinned."""

    def test_close_silently_discards_uncommitted_writes(self, store):
        oid = store.new("Item", {"value": 1})
        store.commit()
        store.update(oid, {"value": 99})  # uncommitted
        store.close()  # no exception: end-of-session discard
        store.open()
        assert store.get(oid)["value"] == 1

    def test_drop_cache_raises_on_uncommitted_writes(self, store):
        oid = store.new("Item", {"value": 1})
        store.commit()
        store.update(oid, {"value": 99})  # uncommitted
        with pytest.raises(TransactionError):
            store.drop_cache()
        store.commit()
        store.drop_cache()  # fine once the writes are committed
        assert store.get(oid)["value"] == 99

    def test_drop_cache_allows_read_only_transaction(self, store):
        oid = store.new("Item", {"value": 7})
        store.commit()
        store.get(oid)  # read-only implicit transaction
        store.drop_cache()  # reads buffered nothing: allowed
        assert store.get(oid)["value"] == 7


class TestVfsThreading:
    def test_engine_io_counters_flow_from_store(self, tmp_path):
        from repro.obs import Instrumentation

        instr = Instrumentation()
        store = _make_store(tmp_path, "io.hmdb", instrumentation=instr)
        store.open()
        store.define_class("Item", [FieldDefinition("value", default=0)])
        store.new("Item", {"value": 1})
        store.commit()
        store.close()
        counters = instr.snapshot()
        assert counters.get("engine.io.opens") >= 2  # data file + WAL
        assert counters.get("engine.io.writes") > 0
        assert counters.get("engine.io.bytes_written") > 0
        assert counters.get("engine.io.syncs") > 0

    def test_injected_crash_mid_commit_recovers_cleanly(self, tmp_path):
        from repro.engine.vfs import FaultInjectingVFS, SimulatedCrash

        path = os.path.join(str(tmp_path), "inject.hmdb")
        # First pass: count the I/O of one committed transaction.
        probe = FaultInjectingVFS()
        store = ObjectStore(path, sync_commits=True, vfs=probe)
        store.open()
        store.define_class("Item", [FieldDefinition("value", default=0)])
        oid = store.new("Item", {"value": 1})
        store.commit()
        ops_through_first_commit = probe.mutation_ops
        store._dispose_handles()
        os.remove(path)
        os.remove(path + ".wal")

        # Second pass: crash during the *second* commit's I/O.
        vfs = FaultInjectingVFS().crash_at(ops_through_first_commit + 2)
        store = ObjectStore(path, sync_commits=True, vfs=vfs)
        store.open()
        store.define_class("Item", [FieldDefinition("value", default=0)])
        oid = store.new("Item", {"value": 1})
        store.commit()
        store.new("Item", {"value": 2})
        with pytest.raises(SimulatedCrash):
            store.commit()
        store._dispose_handles()

        recovered = ObjectStore(path)  # fresh RealVFS
        recovered.open()
        values = sorted(
            recovered.get(o)["value"]
            for o in recovered.scan_class("Item")
        )
        assert values in ([1], [1, 2])  # atomic: never a torn mix
        assert recovered.get(oid)["value"] == 1  # durable: commit 1 held
        recovered.close()


class StoreMachine(RuleBasedStateMachine):
    """One store handle against a dict model: ``committed`` is what a
    reopen must find, ``current`` what this handle reads meanwhile.

    A commit carrying an unencodable value is refused, and the model
    treats it as an abort: nothing of its write set may survive, not
    even the writes buffered before the bad one.  Fields added to
    ``Item`` or its subclass ``Sub`` reach every object of the class
    and its subclasses, with the field's default.
    """

    def __init__(self):
        super().__init__()
        self.store = ObjectStore("m.hmdb", vfs=MemoryVFS(), sync_commits=False)
        self.store.open()
        self.store.define_class("Item", [FieldDefinition("value", default=0)])
        self.store.define_class(
            "Sub", [FieldDefinition("tag", default=-1)], base="Item"
        )
        #: class -> {field: default}, inherited fields included.
        self.defaults = {"Item": {"value": 0}, "Sub": {"value": 0, "tag": -1}}
        self.classes = {}
        self.committed = {}
        self.current = {}

    def _pending(self):
        return self.store.current_transaction() is not None

    def _end(self, committed):
        if committed:
            self.committed = {o: dict(s) for o, s in self.current.items()}
        else:
            self.current = {o: dict(s) for o, s in self.committed.items()}

    @rule(cls=st.sampled_from(["Item", "Sub"]), value=st.integers(-3, 3))
    def new(self, cls, value):
        oid = self.store.new(cls, {"value": value})
        assert oid not in self.current
        self.classes[oid] = cls
        self.current[oid] = {**self.defaults[cls], "value": value}

    @precondition(lambda self: self.current)
    @rule(data=st.data(), value=st.integers(-3, 3))
    def update(self, data, value):
        oid = data.draw(st.sampled_from(sorted(self.current)))
        self.store.update(oid, {"value": value})
        self.current[oid]["value"] = value

    @precondition(lambda self: self.current)
    @rule(data=st.data())
    def delete(self, data):
        oid = data.draw(st.sampled_from(sorted(self.current)))
        self.store.delete(oid)
        del self.current[oid]

    @precondition(lambda self: not self._pending())
    @rule(cls=st.sampled_from(["Item", "Sub"]), default=st.integers(-3, 3))
    def add_field(self, cls, default):
        name = f"f{sum(map(len, self.defaults.values()))}"
        self.store.add_field(cls, FieldDefinition(name, default=default))
        touched = ["Item", "Sub"] if cls == "Item" else ["Sub"]
        for other in touched:
            self.defaults[other][name] = default
        for model in (self.committed, self.current):
            for oid, state in model.items():
                if self.classes[oid] in touched:
                    state[name] = default

    @rule()
    def commit(self):
        self.store.commit()
        self._end(committed=True)

    @rule()
    def abort(self):
        self.store.abort()
        self._end(committed=False)

    @precondition(lambda self: not self._pending())
    @rule()
    def drop_cache(self):
        self.store.drop_cache()

    @rule()
    def reopen(self):
        self.store.close()
        self.store.open()
        self._end(committed=False)

    @rule()
    def commit_unencodable(self):
        self.store.new("Item", {"value": {1, 2}})
        with pytest.raises(StorageError):
            self.store.commit()
        assert not self._pending()
        self._end(committed=False)

    @invariant()
    def reads_match_model(self):
        for oid, state in self.current.items():
            assert self.store.get(oid) == state
        assert sorted(self.store.scan_class("Item")) == sorted(self.current)
        assert dict(self.store.scan_states("Item")) == self.current

    def teardown(self):
        self.store.close()


TestStoreStateMachine = StoreMachine.TestCase
TestStoreStateMachine.settings = settings(
    derandomize=True, max_examples=30, stateful_step_count=25, deadline=None
)
