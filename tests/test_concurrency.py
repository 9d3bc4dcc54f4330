"""Cooperative check-out/check-in workspaces (R9).

Optimistic validation (R8) is the server's and is tested on the real
stack in ``test_occ.py``; the section 7 disjoint-update scenario is
``MultiUserHarness.run_disjoint_updates`` in ``test_multiuser.py``.
"""

import pytest

from repro.concurrency import SharedStore
from repro.errors import CheckOutConflictError, WorkspaceError


@pytest.fixture
def shared(memory_populated):
    db, gen = memory_populated
    return SharedStore(db), db, gen


class TestWorkspaces:
    def test_check_out_reserves(self, shared):
        store, _db, gen = shared
        alice = store.workspace("alice")
        uid = gen.text_uids[0]
        alice.check_out(uid)
        assert store.holder_of(uid) == "alice"
        assert alice.checked_out == [uid]

    def test_conflicting_check_out_rejected(self, shared):
        store, _db, gen = shared
        alice, bob = store.workspace("alice"), store.workspace("bob")
        uid = gen.text_uids[0]
        alice.check_out(uid)
        with pytest.raises(CheckOutConflictError):
            bob.check_out(uid)

    def test_re_check_out_by_holder_is_fine(self, shared):
        store, _db, gen = shared
        alice = store.workspace("alice")
        uid = gen.text_uids[0]
        alice.check_out(uid)
        alice.check_out(uid)
        assert store.checked_out_count() == 1

    def test_private_edits_invisible_until_check_in(self, shared):
        store, db, gen = shared
        alice = store.workspace("alice")
        uid = gen.text_uids[0]
        original = db.get_text(db.lookup(uid))
        alice.check_out(uid)
        alice.set_text(uid, "version1 private version1 draft version1")
        # Shared state unchanged; the workspace sees its own draft.
        assert db.get_text(db.lookup(uid)) == original
        assert "private" in alice.get_text(uid)
        published = alice.check_in()
        assert published == [uid]
        assert "private" in db.get_text(db.lookup(uid))

    def test_check_in_releases_reservations(self, shared):
        store, _db, gen = shared
        alice = store.workspace("alice")
        uid = gen.text_uids[0]
        alice.check_out(uid)
        alice.check_in()
        assert store.holder_of(uid) is None
        bob = store.workspace("bob")
        bob.check_out(uid)  # now available

    def test_abandon_discards_edits(self, shared):
        store, db, gen = shared
        alice = store.workspace("alice")
        uid = gen.text_uids[0]
        original = db.get_text(db.lookup(uid))
        alice.check_out(uid)
        alice.set_text(uid, "version1 gone version1 soon version1")
        alice.abandon()
        assert db.get_text(db.lookup(uid)) == original
        assert store.checked_out_count() == 0

    def test_editing_without_check_out_rejected(self, shared):
        store, _db, gen = shared
        alice = store.workspace("alice")
        with pytest.raises(WorkspaceError):
            alice.set_text(gen.text_uids[0], "nope")

    def test_attribute_and_bitmap_edits(self, shared):
        store, db, gen = shared
        alice = store.workspace("alice")
        text_uid, form_uid = gen.text_uids[0], gen.form_uids[0]
        alice.check_out(text_uid)
        alice.check_out(form_uid)
        alice.set_attribute(text_uid, "ten", 9)
        alice.edit_bitmap(form_uid).invert_rect(0, 0, 4, 4)
        assert alice.dirty_count == 2
        alice.check_in()
        assert db.get_attribute(db.lookup(text_uid), "ten") == 9
        assert db.get_bitmap(db.lookup(form_uid)).popcount() == 16

    def test_clean_drafts_not_published(self, shared):
        store, _db, gen = shared
        alice = store.workspace("alice")
        alice.check_out(gen.text_uids[0])
        assert alice.check_in() == []


class TestWorkspacesOverPersistentBackend:
    def test_check_in_is_durable_on_the_oodb(self, tmp_path):
        """Workspace publication commits through the engine and
        survives a close/reopen (R9 on a persistent store)."""
        import os

        from repro.backends.oodb import OodbDatabase
        from repro.core.config import HyperModelConfig
        from repro.core.generator import DatabaseGenerator

        path = os.path.join(str(tmp_path), "ws.hmdb")
        db = OodbDatabase(path)
        db.open()
        gen = DatabaseGenerator(HyperModelConfig(levels=2, seed=1)).generate(db)
        db.commit()

        shared = SharedStore(db)
        alice = shared.workspace("alice")
        uid = gen.text_uids[0]
        alice.check_out(uid)
        alice.set_text(uid, "version1 durable version1 edit version1")
        alice.check_in()
        db.close()

        reopened = OodbDatabase(path)
        reopened.open()
        assert "durable" in reopened.get_text(reopened.lookup(uid))
        reopened.close()
