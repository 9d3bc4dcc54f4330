"""End-to-end integration: cross-backend agreement, level-4 scale,
clustering locality, crash recovery of a whole benchmark database, a
refused commit leaving it intact."""

import os
import random

import pytest

from repro.backends.memory import MemoryDatabase
from repro.backends.oodb import OodbDatabase
from repro.backends.sqlite_backend import SqliteDatabase
from repro.core.config import HyperModelConfig
from repro.core.generator import DatabaseGenerator
from repro.core.model import NodeData
from repro.core.operations import CATALOG, Operations
from repro.core.verification import verify_database
from repro.errors import InvalidOperationError, SchemaError
from repro.obs import Instrumentation


class TestCrossBackendAgreement:
    """Deterministic operations must return identical *logical* results
    on every backend (references differ; uniqueIds must not)."""

    @pytest.fixture(scope="class")
    def pair(self, tmp_path_factory):
        config = HyperModelConfig(levels=3, seed=123)
        memory = MemoryDatabase()
        memory.open()
        gen_memory = DatabaseGenerator(config).generate(memory)
        oodb = OodbDatabase(
            os.path.join(str(tmp_path_factory.mktemp("agree")), "a.hmdb")
        )
        oodb.open()
        gen_oodb = DatabaseGenerator(config).generate(oodb)
        oodb.commit()
        yield (memory, gen_memory), (oodb, gen_oodb), config
        oodb.close()

    def _uids(self, db, refs):
        return [db.get_attribute(r, "uniqueId") for r in refs]

    def test_closures_agree(self, pair):
        (memory, gen_m), (oodb, _gen_o), config = pair
        ops_m = Operations(memory, config)
        ops_o = Operations(oodb, config)
        for uid in gen_m.uids_by_level[2][:5]:
            closure_m = self._uids(memory, ops_m.closure_1n(memory.lookup(uid)))
            closure_o = self._uids(oodb, ops_o.closure_1n(oodb.lookup(uid)))
            assert closure_m == closure_o
            mn_m = sorted(self._uids(memory, ops_m.closure_mn(memory.lookup(uid))))
            mn_o = sorted(self._uids(oodb, ops_o.closure_mn(oodb.lookup(uid))))
            assert mn_m == mn_o

    def test_attribute_sums_agree(self, pair):
        (memory, gen_m), (oodb, _), config = pair
        ops_m = Operations(memory, config)
        ops_o = Operations(oodb, config)
        for uid in gen_m.uids_by_level[2][:5]:
            assert ops_m.closure_1n_att_sum(
                memory.lookup(uid)
            ) == ops_o.closure_1n_att_sum(oodb.lookup(uid))

    def test_range_lookups_agree(self, pair):
        (memory, _), (oodb, _), config = pair
        for x in (5, 41, 88):
            uids_m = sorted(self._uids(memory, memory.range_hundred(x, x + 9)))
            uids_o = sorted(self._uids(oodb, oodb.range_hundred(x, x + 9)))
            assert uids_m == uids_o


class TestLevel4Scale:
    """The paper's smallest real level (781 nodes) on the two backends
    with the most machinery."""

    @pytest.mark.parametrize("backend", ["sqlite", "oodb"])
    def test_generate_verify_and_operate(self, backend, tmp_path):
        config = HyperModelConfig(levels=4, seed=7)
        if backend == "sqlite":
            db = SqliteDatabase(str(tmp_path / "l4.db"))
        else:
            db = OodbDatabase(str(tmp_path / "l4.hmdb"))
        db.open()
        gen = DatabaseGenerator(config).generate(db)
        db.commit()
        assert gen.total_nodes == 781
        verify_database(db, gen, content_sample=10).raise_if_failed()

        ops = Operations(db, config)
        rng = random.Random(1)
        start = db.lookup(gen.random_uid_at_level(rng, 3))
        assert len(ops.closure_1n(start)) == 6
        assert len(ops.closure_mnatt(start)) == 25
        assert ops.seq_scan() == 781
        db.close()


class TestClusteringLocality:
    def test_clustered_subtrees_span_fewer_pages(self, tmp_path):
        """Section 5.2's prediction: clustering along the 1-N hierarchy
        concentrates a subtree onto few pages."""
        config = HyperModelConfig(levels=4, seed=11)

        def subtree_pages(db, gen):
            ops = Operations(db, config)
            rng = random.Random(2)
            pages = []
            for _ in range(10):
                start = db.lookup(gen.random_uid_at_level(rng, 2))
                closure = ops.closure_1n(start)  # 31 nodes
                pages.append(len({db.store.page_of(int(r)) for r in closure}))
            return sum(pages) / len(pages)

        clustered = OodbDatabase(str(tmp_path / "c.hmdb"), clustered=True)
        clustered.open()
        gen_c = DatabaseGenerator(config).generate(clustered)
        clustered.commit()
        scattered = OodbDatabase(str(tmp_path / "u.hmdb"), clustered=False)
        scattered.open()
        gen_u = DatabaseGenerator(config).generate(scattered)
        scattered.commit()

        clustered_pages = subtree_pages(clustered, gen_c)
        scattered_pages = subtree_pages(scattered, gen_u)
        assert clustered_pages < scattered_pages
        clustered.close()
        scattered.close()

    def test_level4_clustered_page_span_is_pinned(self, tmp_path):
        """The test above, as exact numbers: ten level-2 subtrees of 31
        nodes span 51 heap pages in all, written in pre-order by the
        rel-1-N commit."""
        db, span = self._level4_span(tmp_path)
        assert span() == 51
        db.close()

    def test_vacuum_keeps_the_clustering(self, tmp_path):
        """Vacuum copies records in heap order, not in OID (creation)
        order, so the compacted file spans no more pages than before."""
        db, span = self._level4_span(tmp_path)
        before = span()
        db.store.vacuum()
        assert span() <= before
        db.close()

    @staticmethod
    def _level4_span(tmp_path):
        """A clustered level-4 ``oodb`` and a function that counts the
        heap pages ten level-2 subtrees span."""
        config = HyperModelConfig(levels=4, seed=11)
        db = OodbDatabase(str(tmp_path / "c.hmdb"), clustered=True)
        db.open()
        gen = DatabaseGenerator(config).generate(db)
        db.commit()
        ops = Operations(db, config)

        def span():
            rng = random.Random(2)
            return sum(
                len({db.store.page_of(int(r)) for r in ops.closure_1n(
                    db.lookup(gen.random_uid_at_level(rng, 2)))})
                for _ in range(10)
            )

        return db, span


class TestCrashRecoveryEndToEnd:
    def test_benchmark_database_survives_crash(self, tmp_path):
        """Generate, commit, 'crash' without checkpointing, reopen:
        the whole structure must verify (R10)."""
        path = str(tmp_path / "crash.hmdb")
        config = HyperModelConfig(levels=2, seed=3)
        db = OodbDatabase(path)
        db.open()
        gen = DatabaseGenerator(config).generate(db)
        db.commit()
        # Simulate the crash: close raw files without checkpoint/close.
        store = db.store
        store._wal._file.flush()
        store._wal._file.close()
        store._wal._file = None
        store._file._file.close()
        store._file._file = None

        recovered = OodbDatabase(path)
        recovered.open()
        assert recovered.store.stats.recovered_transactions > 0
        verify_database(recovered, gen, content_sample=5).raise_if_failed()
        recovered.close()


class TestRefusedCommitEndToEnd:
    def test_refused_commit_leaves_a_verifying_structure(self, tmp_path):
        """A value the oodb's index refuses aborts the whole commit: a
        node created in it can be created again, and the structure
        still verifies after a close/reopen.  The value goes in through
        the engine store, beneath the backend's write check."""
        path = str(tmp_path / "refused.hmdb")
        db = OodbDatabase(path)
        db.open()
        gen = DatabaseGenerator(HyperModelConfig(levels=2, seed=3)).generate(db)
        db.commit()
        node = NodeData(unique_id=gen.max_uid + 1, ten=1, hundred=1, million=1)
        db.create_node(node)
        db.store.update(int(db.lookup(gen.text_uids[0])), {"hundred": "x"})
        with pytest.raises(SchemaError):
            db.commit()
        db.create_node(node)
        db.abort()
        db.close()
        reopened = OodbDatabase(path)
        reopened.open()
        verify_database(reopened, gen).raise_if_failed()
        reopened.close()

    def test_backend_refuses_the_value_before_the_engine(self, tmp_path):
        """Through ``set_attribute`` the same value never reaches the
        store: nothing is aborted and the next commit goes through."""
        db = OodbDatabase(str(tmp_path / "boundary.hmdb"))
        db.open()
        gen = DatabaseGenerator(HyperModelConfig(levels=2, seed=3)).generate(db)
        db.commit()
        aborts = db.store.stats.aborts
        ref = db.lookup(gen.text_uids[0])
        with pytest.raises(InvalidOperationError):
            db.set_attribute(ref, "hundred", "x")
        db.commit()
        assert db.store.stats.aborts == aborts
        verify_database(db, gen).raise_if_failed()
        db.close()


class TestSmallBufferPool:
    def test_generation_survives_pool_overcommit(self, tmp_path):
        """A 16-page pool is far smaller than a level-3 commit's dirty
        set: the pool must overcommit during the apply phase (dirty
        pages cannot be evicted before logging) and trim afterwards."""
        db = OodbDatabase(str(tmp_path / "tiny.hmdb"), cache_pages=16)
        db.open()
        config = HyperModelConfig(levels=3, seed=13)
        gen = DatabaseGenerator(config).generate(db)
        db.commit()
        verify_database(db, gen, content_sample=3).raise_if_failed()
        pool = db.store._pool
        assert pool.cached_pages <= pool.capacity  # trimmed back
        assert pool.stats.evictions > 0  # the small pool really churned
        db.close()

        # And the data survives a cold reopen through the same small pool.
        db.open()
        assert db.node_count() == 156
        db.close()


class TestLevel5Scale:
    def test_level5_generates_and_verifies_in_memory(self):
        """The paper's mid-size database: 3 906 nodes, closures of 31."""
        config = HyperModelConfig(levels=5, seed=21)
        db = MemoryDatabase()
        db.open()
        gen = DatabaseGenerator(config).generate(db)
        assert gen.total_nodes == 3906
        assert len(gen.text_uids) == 3100
        assert len(gen.form_uids) == 25
        verify_database(db, gen, content_sample=5).raise_if_failed()
        ops = Operations(db, config)
        start = db.lookup(gen.random_uid_at_level(random.Random(2), 3))
        assert len(ops.closure_1n(start)) == 31
        db.close()


class TestColdWarmShape:
    def test_clientserver_cold_run_pays_network_warm_does_not(self):
        """The core shape the paper's protocol exposes."""
        from repro.backends.clientserver import ClientServerDatabase
        from repro.core.operations import CATALOG
        from repro.harness.protocol import run_operation_sequence

        db = ClientServerDatabase()
        db.open()
        gen = DatabaseGenerator(HyperModelConfig(levels=3, seed=5)).generate(db)
        db.commit()
        result = run_operation_sequence(
            db, CATALOG.get("10"), gen, repetitions=10, seed=6
        )
        assert result.cold.mean > result.warm.mean
        assert result.warm_speedup > 5  # network dominates the cold run


class TestWarmReadPath:
    """What a read of an object the decode cache holds may touch."""

    #: The read-only operations that fetch records (03/04/09 are
    #: index-only or a full scan; 12, 16, 17 write).
    OPS = ("01", "02", "05A", "05B", "06", "07A", "07B", "08",
           "10", "11", "13", "14", "15", "18")

    def test_warm_read_touches_no_btree(self, tmp_path):
        """A decode-cache hit is a dict hit: no OID-directory descent,
        no page pin.  Only op 01's own ``uniqueId`` index probe may move
        a B+tree or buffer-pool counter on the warm pass."""
        instr = Instrumentation()
        db = OodbDatabase(
            os.path.join(str(tmp_path), "w.hmdb"), instrumentation=instr
        )
        db.open()
        config = HyperModelConfig(levels=2, seed=42)
        gen = DatabaseGenerator(config).generate(db)
        db.commit()
        db.drop_cache()
        ops = Operations(db, config)
        rng = random.Random(7)
        inputs = {
            op: [CATALOG.get(op).make_input(gen, rng, db) for _ in range(5)]
            for op in self.OPS
        }

        def storage(delta):
            return {
                name: count for name, count in delta.items()
                if name.startswith(("engine.btree.", "engine.buffer."))
            }

        start = instr.snapshot()
        for warm in (False, True):
            for op in self.OPS:
                for args in inputs[op]:
                    before = instr.snapshot()
                    CATALOG.get(op).run(ops, args)
                    if not warm:
                        continue
                    delta = instr.delta_since(before)
                    assert delta.get("engine.decode_cache.hits", 0) > 0
                    assert delta.get("engine.decode_cache.misses", 0) == 0
                    probe = {}
                    if op == "01":
                        before = instr.snapshot()
                        db.lookup(*args)
                        probe = storage(instr.delta_since(before))
                        assert probe  # the index descent itself
                    assert storage(delta) == probe, op
        # Same work as before the cache was keyed by OID — these three
        # read 940 / 909 / 31 at the parent commit for this script.
        total = instr.delta_since(start)
        assert total["engine.store.objects_read"] == 940
        assert total["engine.decode_cache.hits"] == 909
        assert total["engine.decode_cache.misses"] == 31
        db.close()
