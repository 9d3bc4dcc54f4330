"""Garbage collection and backup/restore (requirement R10)."""

import os

import pytest

from repro.backends.oodb import OodbDatabase
from repro.core.model import LinkAttributes, NodeData
from repro.engine.catalog import FieldDefinition
from repro.engine.gc import collect_garbage, mark
from repro.engine.store import ObjectStore
from repro.errors import NodeNotFoundError, TransactionError


def _node(uid):
    return NodeData(unique_id=uid, ten=1, hundred=1, million=1)


@pytest.fixture
def store(tmp_path):
    s = ObjectStore(os.path.join(str(tmp_path), "gc.hmdb"), sync_commits=False)
    s.open()
    s.define_class(
        "Cell", [FieldDefinition("next", default=0), FieldDefinition("tag", default="")]
    )
    yield s
    if s.is_open:
        s.close()


def _extract(class_name, state):
    return [state["next"]] if state["next"] else []


class TestEngineGc:
    def test_mark_follows_chains(self, store):
        c3 = store.new("Cell", {"tag": "c"})
        c2 = store.new("Cell", {"tag": "b", "next": c3})
        c1 = store.new("Cell", {"tag": "a", "next": c2})
        orphan = store.new("Cell", {"tag": "x"})
        store.commit()
        marked = mark(store, [c1], _extract)
        assert marked == {c1, c2, c3}
        assert orphan not in marked

    def test_sweep_deletes_unreachable_only(self, store):
        keep = store.new("Cell", {})
        lose_a = store.new("Cell", {})
        lose_b = store.new("Cell", {"next": lose_a})
        store.commit()
        stats = collect_garbage(store, [keep], _extract, classes=["Cell"])
        assert stats.collected == 2
        assert stats.live == 1
        assert store.exists(keep)
        assert not store.exists(lose_a)
        assert not store.exists(lose_b)

    def test_cycles_are_collected_when_unrooted(self, store):
        a = store.new("Cell", {})
        b = store.new("Cell", {"next": a})
        store.update(a, {"next": b})  # a <-> b cycle
        store.commit()
        stats = collect_garbage(store, [], _extract, classes=["Cell"])
        assert stats.collected == 2

    def test_cycles_survive_when_rooted(self, store):
        a = store.new("Cell", {})
        b = store.new("Cell", {"next": a})
        store.update(a, {"next": b})
        store.commit()
        stats = collect_garbage(store, [a], _extract, classes=["Cell"])
        assert stats.collected == 0
        assert store.exists(b)

    def test_pending_writes_refused(self, store):
        keep = store.new("Cell", {})
        lose = store.new("Cell", {})
        store.commit()
        store.update(keep, {"tag": "pending"})
        with pytest.raises(TransactionError):
            collect_garbage(store, [keep], _extract, classes=["Cell"])
        assert store.exists(lose)
        store.commit()
        stats = collect_garbage(store, [keep], _extract, classes=["Cell"])
        assert stats.collected == 1

    def test_dangling_reference_in_root_set_ignored(self, store):
        keep = store.new("Cell", {})
        store.commit()
        stats = collect_garbage(store, [keep, 99999], _extract, classes=["Cell"])
        assert stats.live == 1


class TestHyperModelGc:
    @pytest.fixture
    def db(self, tmp_path):
        db = OodbDatabase(os.path.join(str(tmp_path), "hm.hmdb"))
        db.open()
        yield db
        if db.is_open:
            db.close()

    def test_detached_subtree_collected(self, db):
        root = db.create_node(_node(1))
        child = db.create_node(_node(2))
        grandchild = db.create_node(_node(3))
        db.add_child(root, child)
        db.add_child(child, grandchild)
        detached = db.create_node(_node(10))
        detached_leaf = db.create_node(_node(11))
        db.add_child(detached, detached_leaf)
        db.commit()

        stats = db.collect_garbage(roots=[root])
        assert stats.collected == 2
        assert db.node_count() == 3
        with pytest.raises(NodeNotFoundError):
            db.lookup(10)

    def test_node_kept_alive_by_outgoing_reference(self, db):
        root = db.create_node(_node(1))
        target = db.create_node(_node(2))
        db.add_reference(root, target, LinkAttributes(1, 1))
        db.commit()
        stats = db.collect_garbage(roots=[root])
        assert stats.collected == 0  # refTo keeps the target live

    def test_inverse_reference_does_not_keep_alive(self, db):
        root = db.create_node(_node(1))
        referrer = db.create_node(_node(2))
        db.add_reference(referrer, root, LinkAttributes(1, 1))
        db.commit()
        stats = db.collect_garbage(roots=[root])
        # `referrer` points AT the root but nothing owns it: collected.
        assert stats.collected == 1
        # The survivor's refFrom was scrubbed of the dead oid.
        assert db.refs_from(db.lookup(1)) == []

    def test_stored_node_lists_are_roots(self, db):
        root = db.create_node(_node(1))
        precious = db.create_node(_node(2))
        db.store_node_list("bookmarks", [precious])
        db.commit()
        stats = db.collect_garbage(roots=[root])
        assert stats.collected == 0
        assert db.get_attribute(db.lookup(2), "ten") == 1

    def test_shared_part_survives_via_either_owner(self, db):
        root = db.create_node(_node(1))
        other = db.create_node(_node(2))
        shared = db.create_node(_node(3))
        db.add_part(root, shared)
        db.add_part(other, shared)
        db.commit()
        stats = db.collect_garbage(roots=[root])
        assert stats.collected == 1  # `other` goes; `shared` stays
        assert db.part_of(db.lookup(3)) == [db.lookup(1)]


class TestBackupRestore:
    def test_backup_and_restore_roundtrip(self, tmp_path):
        path = os.path.join(str(tmp_path), "main.hmdb")
        backup_path = os.path.join(str(tmp_path), "snapshot.hmdb")
        db = OodbDatabase(path)
        db.open()
        db.create_node(_node(1))
        db.commit()
        db.backup(backup_path)
        assert os.path.exists(backup_path)

        # Damage the live database after the snapshot.
        db.set_attribute(db.lookup(1), "ten", 9)
        db.create_node(_node(2))
        db.commit()
        db.close()

        ObjectStore.restore(backup_path, path)
        restored = OodbDatabase(path)
        restored.open()
        assert restored.node_count() == 1
        assert restored.get_attribute(restored.lookup(1), "ten") == 1
        restored.close()

    def test_backup_with_uncommitted_writes_rejected(self, tmp_path):
        from repro.errors import TransactionError

        path = os.path.join(str(tmp_path), "busy.hmdb")
        db = OodbDatabase(path)
        db.open()
        db.create_node(_node(1))  # uncommitted
        with pytest.raises(TransactionError):
            db.backup(os.path.join(str(tmp_path), "never.hmdb"))
        db.commit()
        db.close()

    def test_backup_is_openable_directly(self, tmp_path):
        path = os.path.join(str(tmp_path), "src.hmdb")
        snapshot = os.path.join(str(tmp_path), "copy.hmdb")
        db = OodbDatabase(path)
        db.open()
        db.create_node(_node(7))
        db.commit()
        db.backup(snapshot)
        db.close()

        clone = OodbDatabase(snapshot)
        clone.open()
        assert clone.get_attribute(clone.lookup(7), "uniqueId") == 7
        clone.close()
