"""Optimistic concurrency on the client/server backend.

Two (or more) handles share one :class:`ObjectServer` in
``concurrency="optimistic"`` mode: reads pin the version the client
saw, ``commit()`` ships the write set plus the pinned read versions in
one validated request, and the first committer wins — the loser's
commit raises, its stale cache entries are invalidated, and a retry
re-reads fresh state.
"""

import os

import pytest

from repro.backends.clientserver import ClientServerDatabase
from repro.core.config import HyperModelConfig
from repro.core.generator import DatabaseGenerator
from repro.core.model import NodeData
from repro.engine.catalog import FieldDefinition
from repro.engine.store import ObjectStore
from repro.engine.txn import stale_reads
from repro.errors import CommitConflictError, ConflictError
from repro.netsim.config import NetworkConfig
from repro.netsim.server import ObjectServer
from repro.obs import Instrumentation

OPTIMISTIC = NetworkConfig(concurrency="optimistic")


@pytest.fixture
def shared():
    server = ObjectServer()
    loader = ClientServerDatabase(server=server)
    loader.open()
    gen = DatabaseGenerator(HyperModelConfig(levels=3, seed=17)).generate(
        loader
    )
    loader.commit()
    loader.close()
    server.stats.reset()
    return server, gen


def _client(server, client_id=None):
    db = ClientServerDatabase(
        network=OPTIMISTIC, server=server, client_id=client_id
    )
    db.open()
    return db


class TestOptimisticCommit:
    def test_stale_read_conflicts(self, shared):
        server, gen = shared
        target = gen.text_uids[0]
        a, b = _client(server, "a"), _client(server, "b")
        # Both read the same node; b commits first.
        a.get_text(a.lookup(target))
        b.set_text(b.lookup(target), "b wins")
        b.commit()
        a.set_text(target, "a loses")
        with pytest.raises(CommitConflictError) as info:
            a.commit()
        assert target in info.value.conflicts
        assert server.stats.commit_conflicts == 1

    def test_conflict_is_a_conflict_error(self, shared):
        server, gen = shared
        assert issubclass(CommitConflictError, ConflictError)

    def test_retry_after_conflict_succeeds(self, shared):
        server, gen = shared
        target = gen.text_uids[1]
        a, b = _client(server, "a"), _client(server, "b")
        a.get_text(a.lookup(target))
        b.set_text(b.lookup(target), "first")
        b.commit()
        a.set_text(target, "second attempt")
        with pytest.raises(CommitConflictError):
            a.commit()
        # The abort invalidated a's stale copy: the retry re-reads the
        # committed state and wins.
        assert a.get_text(a.lookup(target)) == "first"
        a.set_text(target, "second attempt")
        a.commit()
        assert b.get_text(b.lookup(target)) == "second attempt"

    def test_disjoint_writes_do_not_conflict(self, shared):
        server, gen = shared
        a, b = _client(server, "a"), _client(server, "b")
        a.set_text(a.lookup(gen.text_uids[0]), "a's node")
        b.set_text(b.lookup(gen.text_uids[1]), "b's node")
        a.commit()
        b.commit()
        assert server.stats.commit_conflicts == 0
        assert server.stats.commits == 2

    def test_read_only_commit_is_a_no_op(self, shared):
        server, gen = shared
        a = _client(server, "a")
        a.get_text(a.lookup(gen.text_uids[0]))
        commits_before = server.stats.commits
        a.commit()  # nothing written: no validation round trip
        assert server.stats.commits == commits_before

    def test_write_without_stale_read_commits(self, shared):
        """Blind read-modify-write in one txn: versions are current."""
        server, gen = shared
        a = _client(server, "a")
        target = gen.text_uids[2]
        a.set_text(a.lookup(target), "fresh")
        a.commit()
        assert server.stats.commit_conflicts == 0

    def test_create_create_race_conflicts(self, shared):
        server, gen = shared
        a, b = _client(server, "a"), _client(server, "b")
        data = NodeData(unique_id=77_000_001, ten=1, hundred=1, million=1)
        a.create_node(data)
        b.create_node(data)
        a.commit()
        with pytest.raises(CommitConflictError):
            b.commit()

    def test_blind_write_race_conflicts(self, shared):
        """Neither client reads first: the write's own fetch pins the
        version, so the second committer still loses."""
        server, gen = shared
        target = gen.text_uids[4]
        a, b = _client(server, "a"), _client(server, "b")
        a.set_text(a.lookup(target), "a's blind write")
        b.set_text(b.lookup(target), "b's blind write")
        a.commit()
        with pytest.raises(CommitConflictError):
            b.commit()
        fresh = _client(server, "c")
        assert fresh.get_text(fresh.lookup(target)) == "a's blind write"

    def test_own_write_visible_before_commit(self, shared):
        server, gen = shared
        target = gen.text_uids[5]
        a, b = _client(server, "a"), _client(server, "b")
        original = b.get_text(b.lookup(target))
        a.set_text(a.lookup(target), "a's draft")
        assert a.get_text(a.lookup(target)) == "a's draft"
        assert b.get_text(b.lookup(target)) == original
        a.commit()
        assert b.get_text(b.lookup(target)) == "a's draft"

    def test_abort_clears_pinned_reads(self, shared):
        server, gen = shared
        target = gen.text_uids[0]
        a, b = _client(server, "a"), _client(server, "b")
        original = a.get_text(a.lookup(target))
        a.set_text(target, "discarded")
        a.abort()
        assert b.get_text(b.lookup(target)) == original  # nothing landed
        b.set_text(b.lookup(target), "new")
        b.commit()
        # a's aborted transaction pinned nothing: a fresh read-write
        # cycle sees the new version and commits cleanly.
        assert a.get_text(a.lookup(target)) == "new"
        a.set_text(target, "newer")
        a.commit()

    def test_conflicting_cache_entries_invalidated_on_abort(self, shared):
        server, gen = shared
        target = gen.text_uids[3]
        a, b = _client(server, "a"), _client(server, "b")
        a.get_text(a.lookup(target))
        assert target in a.cache
        b.set_text(b.lookup(target), "winner")
        b.commit()
        a.set_text(target, "loser")
        with pytest.raises(CommitConflictError):
            a.commit()
        assert target not in a.cache

    def test_versions_flow_through_batched_reads(self, shared):
        """fetch_many / traverse replies also pin read versions."""
        server, gen = shared
        a, b = _client(server, "a"), _client(server, "b")
        root = a.lookup(gen.root_uid)
        children = a.children(root)  # batched fetch of the child level
        victim = children[0]
        a.get_attribute(victim, "hundred")
        b.set_attribute(b.lookup(victim), "hundred", 99)
        b.commit()
        a.set_attribute(victim, "hundred", 1)
        with pytest.raises(CommitConflictError):
            a.commit()

    def test_legacy_mode_unaffected(self, shared):
        """concurrency='none' keeps last-writer-wins semantics."""
        server, gen = shared
        target = gen.text_uids[0]
        a = ClientServerDatabase(server=server)
        b = ClientServerDatabase(server=server)
        a.open(), b.open()
        a.get_text(a.lookup(target))
        b.set_text(b.lookup(target), "b")
        b.commit()
        a.set_text(target, "a")
        a.commit()  # no validation: last writer wins silently
        assert server.stats.commit_conflicts == 0


class TestDecodeCacheCoherence:
    """First-committer-wins must stay correct with the decode cache on.

    The server's validation kernel, :func:`~repro.engine.txn.stale_reads`,
    runs here over :meth:`ObjectStore.record_timestamp`, which is served
    from the ``oid -> (rid, lsn, record)`` decode cache.  Two read sets
    standing in for two clients race on one object: the cache may serve
    the timestamp read, but it must never serve a *stale* one — a
    committed write invalidates the entry, so the loser is still caught.
    """

    @pytest.fixture
    def occ_store(self, tmp_path):
        instr = Instrumentation()
        store = ObjectStore(
            os.path.join(str(tmp_path), "occ.hmdb"),
            sync_commits=False,
            instrumentation=instr,
        )
        store.open()
        store.define_class("Doc", [FieldDefinition("body", default="")])
        oid = store.new("Doc", {"body": "v0"})
        store.commit()
        yield store, oid, instr
        store.close()

    @staticmethod
    def _pin(store, oid):
        """A client's read: the version it based its work on."""
        return {oid: store.record_timestamp(oid)}

    def test_stale_timestamp_never_served_across_clients(self, occ_store):
        store, oid, instr = occ_store
        # Client A's read warms the decode cache with the v0 record.
        assert store.get(oid)["body"] == "v0"
        a = self._pin(store, oid)
        store.update(oid, {"body": "b committed"})  # client B commits
        store.commit()
        # A's validation re-reads the timestamp through the cache; the
        # committed write invalidated the entry, so the conflict with
        # A's pinned version is detected, not masked by a stale hit.
        assert stale_reads(a, store.record_timestamp) == [oid]
        assert store.get(oid)["body"] == "b committed"

    def test_validation_is_served_from_cache_when_unchanged(self, occ_store):
        store, oid, instr = occ_store
        a = self._pin(store, oid)  # populates the cache for oid
        before = instr.snapshot()
        # The validation timestamp read: a cache hit, and correct.
        assert stale_reads(a, store.record_timestamp) == []
        delta = instr.snapshot().delta(before)
        assert delta.get("engine.decode_cache.hits", 0) >= 1
        store.update(oid, {"body": "clean commit"})
        store.commit()
        assert store.get(oid)["body"] == "clean commit"

    def test_repeated_races_stay_coherent(self, occ_store):
        """Each round's loser must observe the winner's committed state
        on re-read — across many invalidate/refill cycles."""
        store, oid, instr = occ_store
        conflicts = 0
        for round_no in range(5):
            winner, loser = self._pin(store, oid), self._pin(store, oid)
            expected = f"round {round_no}"
            assert stale_reads(winner, store.record_timestamp) == []
            store.update(oid, {"body": expected})
            store.commit()
            conflicts += len(stale_reads(loser, store.record_timestamp))
            # A fresh read after the conflict sees the winner's commit:
            # the refilled cache entry carries the new state.
            assert store.get(oid)["body"] == expected
        assert conflicts == 5
        counters = instr.snapshot()
        assert counters.get("engine.decode_cache.invalidations", 0) >= 5
