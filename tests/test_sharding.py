"""Sharding layer: placement, scatter-gather, 2PC, coherence.

Covers the acceptance criteria of the sharded object store:

* placement policies are deterministic, total and subtree-affine where
  promised;
* ``shards=1`` keeps the classic single-server stack (bit-identical
  timings, same server class);
* scatter-gather closure push-down is O(shards × depth-crossing
  rounds), pinned with counters on the paper's op-10 closure at
  level 6 over 4 shards;
* a write on one shard invalidates cache entries another client
  admitted via a traverse served by a *different* shard;
* two-phase commit survives coordinator and participant crashes at
  every scripted seam with zero atomicity violations;
* the ``repro bench-sharded`` document is deterministic.
"""

from __future__ import annotations

import pytest

from repro.backends.clientserver import ClientServerDatabase
from repro.backends.registry import create_backend
from repro.core.config import HyperModelConfig
from repro.core.generator import DatabaseGenerator
from repro.core.operations import Operations
from repro.errors import CommitConflictError, ConfigurationError
from repro.netsim.config import NetworkConfig, ShardConfig
from repro.netsim.server import ObjectServer
from repro.obs import Instrumentation
from repro.sharding.placement import (
    HashPlacement,
    SubtreeAffinePlacement,
    make_placement,
)
from repro.sharding.router import ShardRouter


def _sharded_db(
    shards: int,
    placement: str = "hash",
    instrumentation: Instrumentation = None,
    **net,
) -> ClientServerDatabase:
    return ClientServerDatabase(
        network=NetworkConfig(
            sharding=ShardConfig(shards=shards, placement=placement), **net
        ),
        instrumentation=instrumentation,
    )


# ----------------------------------------------------------------------
# Placement policies
# ----------------------------------------------------------------------


class TestPlacement:
    def test_hash_is_deterministic_and_total(self):
        a = HashPlacement(4)
        b = HashPlacement(4)
        for uid in range(1, 2000):
            shard = a.shard_of(uid)
            assert 0 <= shard < 4
            assert shard == b.shard_of(uid)

    def test_hash_balances_reasonably(self):
        placement = HashPlacement(4)
        counts = [0, 0, 0, 0]
        for uid in range(1, 4001):
            counts[placement.shard_of(uid)] += 1
        assert min(counts) > 0
        # Consistent hashing with 64 vnodes: no shard owns everything.
        assert max(counts) < 4000 * 0.6

    def test_hash_independent_of_pythonhashseed(self):
        # blake2b digests, not hash(): the ring is stable across runs.
        placement = HashPlacement(3)
        sample = [placement.shard_of(uid) for uid in range(1, 32)]
        assert sample == [
            HashPlacement(3).shard_of(uid) for uid in range(1, 32)
        ]

    def test_affine_keeps_subtrees_together(self):
        # fanout 5, affinity level 1: all descendants of one level-1
        # node land on that node's shard.
        placement = SubtreeAffinePlacement(4, fanout=5, first_uid=1)
        gen = DatabaseGenerator(HyperModelConfig(levels=3, seed=5))
        from repro.backends.memory import MemoryDatabase

        db = MemoryDatabase()
        db.open()
        info = gen.generate(db)
        level1 = sorted(info.uids_by_level[1])
        for top in level1:
            home = placement.shard_of(top)
            closure = Operations(db).closure_1n(db.lookup(top))
            for ref in closure:
                uid = db.get_attribute(ref, "uniqueId")
                assert placement.shard_of(uid) == home
        db.close()

    def test_affine_spreads_level1_round_robin(self):
        placement = SubtreeAffinePlacement(5, fanout=5, first_uid=1)
        level1 = [2, 3, 4, 5, 6]
        assert sorted(placement.shard_of(uid) for uid in level1) == [
            0, 1, 2, 3, 4,
        ]

    def test_partition_preserves_order(self):
        placement = HashPlacement(2)
        uids = list(range(1, 40))
        groups = placement.partition(uids)
        for shard, members in groups.items():
            assert members == [
                uid for uid in uids if placement.shard_of(uid) == shard
            ]

    def test_make_placement_dispatch(self):
        assert isinstance(
            make_placement(ShardConfig(shards=2, placement="hash")),
            HashPlacement,
        )
        assert isinstance(
            make_placement(ShardConfig(shards=2, placement="affine")),
            SubtreeAffinePlacement,
        )

    def test_shard_config_validates(self):
        with pytest.raises(ConfigurationError):
            ShardConfig(shards=0)
        with pytest.raises(ConfigurationError):
            ShardConfig(shards=2, placement="modulo")


# ----------------------------------------------------------------------
# shards=1 keeps the classic stack
# ----------------------------------------------------------------------


class TestSingleShardIdentity:
    def test_shards_one_uses_plain_server(self):
        db = _sharded_db(1)
        db.open()
        assert isinstance(db.server, ObjectServer)
        db.close()

    def test_shards_one_timings_bit_identical(self):
        def run(network):
            db = ClientServerDatabase(network=network)
            db.open()
            gen = DatabaseGenerator(
                HyperModelConfig(levels=2, seed=9)
            ).generate(db)
            db.commit()
            db.cache.clear()
            db.prefetch_closure(gen.root_uid, "children", None)
            now = db.simulated_clock.now
            db.close()
            return now

        plain = run(NetworkConfig())
        sharded = run(NetworkConfig(sharding=ShardConfig(shards=1)))
        assert plain == sharded


# ----------------------------------------------------------------------
# Scatter-gather closure push-down
# ----------------------------------------------------------------------


class TestScatterGather:
    @pytest.mark.parametrize("placement", ["hash", "affine"])
    def test_closure_complete_across_shards(self, placement):
        instr = Instrumentation()
        db = _sharded_db(4, placement, instr)
        db.open()
        gen = DatabaseGenerator(HyperModelConfig(levels=3, seed=5)).generate(
            db
        )
        db.commit()
        db.cache.clear()
        closure = Operations(db).closure_1n(db.lookup(gen.root_uid))
        assert len(closure) == gen.total_nodes == 156
        db.close()

    def test_op10_level6_rpc_bound_on_four_shards(self):
        """The tentpole bound: RPCs are O(shards × depth crossings),
        never O(nodes) — pinned on the paper's op-10 closure."""
        instr = Instrumentation()
        db = _sharded_db(4, "affine", instr, cache_capacity=32768)
        db.open()
        gen = DatabaseGenerator(HyperModelConfig(levels=6, seed=3)).generate(
            db
        )
        db.commit()
        db.cache.clear()
        before = instr.snapshot()
        assert db.prefetch_closure(gen.root_uid, "children", None)
        delta = instr.delta_since(before)
        rounds = delta["backend.rpc.scatter.rounds"]
        round_trips = delta["backend.rpc.round_trips"]
        # Affine placement: one depth crossing (root → level-1
        # subtrees), so the whole 19 531-node closure takes ≤ 4 × 2
        # shard calls.  The O(nodes) failure mode would be ~19 531.
        assert rounds <= 2
        assert round_trips <= 4 * (rounds + 1)
        assert round_trips < 20
        db.close()

    def test_hash_placement_rounds_bounded_by_depth(self):
        instr = Instrumentation()
        db = _sharded_db(4, "hash", instr, cache_capacity=8192)
        db.open()
        gen = DatabaseGenerator(HyperModelConfig(levels=4, seed=3)).generate(
            db
        )
        db.commit()
        db.cache.clear()
        before = instr.snapshot()
        assert db.prefetch_closure(gen.root_uid, "children", None)
        delta = instr.delta_since(before)
        # Hash placement crosses shards at ~every level: rounds ≤
        # depth + 1 and calls ≤ shards × rounds — still never O(nodes).
        rounds = delta["backend.rpc.scatter.rounds"]
        assert rounds <= 5
        assert delta["backend.rpc.round_trips"] <= 4 * rounds
        assert gen.total_nodes == 781
        db.close()

    def test_traverse_depth_limit_respected(self):
        db = _sharded_db(2, "hash")
        db.open()
        gen = DatabaseGenerator(HyperModelConfig(levels=3, seed=5)).generate(
            db
        )
        db.commit()
        records = db.server.traverse(gen.root_uid, "children", depth=1)
        assert len(records) == 6  # root + its 5 children
        db.close()

    def test_readahead_across_shards(self):
        db = _sharded_db(2, "hash")
        db.open()
        gen = DatabaseGenerator(HyperModelConfig(levels=3, seed=5)).generate(
            db
        )
        db.commit()
        got = db.server.readahead([gen.root_uid], depth=1)
        assert gen.root_uid in got
        assert len(got) >= 6
        db.close()

    def test_per_shard_counters_emitted(self):
        instr = Instrumentation()
        db = _sharded_db(2, "hash", instr)
        db.open()
        gen = DatabaseGenerator(HyperModelConfig(levels=2, seed=9)).generate(
            db
        )
        db.commit()
        counters = instr.counters
        for shard in (0, 1):
            assert counters.get(f"backend.shard.{shard}.rpc.round_trips", 0) > 0
            assert counters.get(f"backend.shard.{shard}.rpc.payload_bytes", 0) > 0
        db.close()


# ----------------------------------------------------------------------
# Cross-shard cache invalidation (satellite 2)
# ----------------------------------------------------------------------


class TestCrossShardInvalidation:
    def test_write_on_owner_invalidates_traverse_admitted_copy(self):
        """Client A admits a record via a scatter traverse; client B
        commits to its owning shard; A must see the new value."""
        network = NetworkConfig(
            sharding=ShardConfig(shards=2, placement="hash")
        )
        client_a = ClientServerDatabase(network=network)
        client_a.open()
        gen = DatabaseGenerator(HyperModelConfig(levels=3, seed=5)).generate(
            client_a
        )
        client_a.commit()
        router = client_a.server
        assert isinstance(router, ShardRouter)
        client_b = ClientServerDatabase(server=router)
        client_b.open()

        # A caches the whole closure (records from both shards).
        client_a.cache.clear()
        client_a.prefetch_closure(gen.root_uid, "children", None)
        # Pick a non-root uid and make sure it is cache-resident in A.
        victim = sorted(gen.uids_by_level[2])[0]
        assert client_a.get_attribute(client_a.lookup(victim), "ten") is not None
        assert victim in client_a.cache

        # B rewrites the victim through the victim's owning shard.
        node_b = client_b.lookup(victim)
        client_b.set_attribute(node_b, "ten", 777)
        client_b.commit()

        # A's cached copy was dropped by the owning shard's broadcast
        # (the admit may have been served by the *other* shard), and
        # the next read refetches B's write.
        assert victim not in client_a.cache
        node_a = client_a.lookup(victim)
        assert client_a.get_attribute(node_a, "ten") == 777
        client_b.close()
        client_a.close()


# ----------------------------------------------------------------------
# Two-phase commit
# ----------------------------------------------------------------------


class TestTwoPhaseCommit:
    def _populated_router(self, shards=2, placement="hash"):
        network = NetworkConfig(
            concurrency="optimistic",
            sharding=ShardConfig(shards=shards, placement=placement),
        )
        db = ClientServerDatabase(network=network)
        db.open()
        gen = DatabaseGenerator(HyperModelConfig(levels=3, seed=5)).generate(
            db
        )
        db.commit()
        return db, gen

    def _cross_shard_pair(self, router, gen):
        placement = router.placement
        by_shard = {}
        for uid in sorted(gen.uids_by_level[2]):
            by_shard.setdefault(placement.shard_of(uid), uid)
            if len(by_shard) == len(router.shards):
                break
        uids = sorted(by_shard.values())
        assert len(uids) >= 2
        return uids[0], uids[1]

    def test_multi_shard_commit_runs_2pc(self):
        instr = Instrumentation()
        network = NetworkConfig(
            concurrency="optimistic",
            sharding=ShardConfig(shards=2, placement="hash"),
        )
        db = ClientServerDatabase(network=network, instrumentation=instr)
        db.open()
        gen = DatabaseGenerator(HyperModelConfig(levels=3, seed=5)).generate(
            db
        )
        db.commit()
        a, b = self._cross_shard_pair(db.server, gen)
        before = instr.snapshot()
        db.set_attribute(db.lookup(a), "ten", 1)
        db.set_attribute(db.lookup(b), "ten", 2)
        db.commit()
        delta = instr.delta_since(before)
        assert delta.get("backend.2pc.transactions", 0) == 1
        assert delta.get("backend.2pc.commits", 0) == 1
        stats = db.server.stats
        assert stats.prepares >= 2 and stats.decisions >= 2
        db.close()

    def test_single_shard_commit_skips_2pc(self):
        instr = Instrumentation()
        network = NetworkConfig(
            concurrency="optimistic",
            sharding=ShardConfig(shards=2, placement="affine"),
        )
        db = ClientServerDatabase(network=network, instrumentation=instr)
        db.open()
        gen = DatabaseGenerator(HyperModelConfig(levels=3, seed=5)).generate(
            db
        )
        db.commit()
        # A leaf and its parent share an affine subtree → one shard.
        leaf = sorted(gen.uids_by_level[2])[0]
        before = instr.snapshot()
        db.set_attribute(db.lookup(leaf), "ten", 3)
        db.commit()
        delta = instr.delta_since(before)
        assert delta.get("backend.2pc.transactions", 0) == 0
        db.close()

    def test_conflicting_cross_shard_commit_aborts_cleanly(self):
        db, gen = self._populated_router()
        router = db.server
        second = ClientServerDatabase(
            server=router,
            network=NetworkConfig(concurrency="optimistic"),
        )
        second.open()
        a, b = self._cross_shard_pair(router, gen)
        # Both clients read both uids and stage writes; the first
        # commit wins, making the second's staged read set stale.
        for client in (db, second):
            client.get_attribute(client.lookup(a), "ten")
            client.get_attribute(client.lookup(b), "ten")
        second.set_attribute(second.lookup(a), "ten", 20)
        second.set_attribute(second.lookup(b), "ten", 20)
        db.set_attribute(db.lookup(a), "ten", 10)
        db.set_attribute(db.lookup(b), "ten", 10)
        db.commit()
        with pytest.raises(CommitConflictError):
            second.commit()
        second.abort()
        # The loser left nothing pinned: a clean retry succeeds.
        second.set_attribute(second.lookup(a), "ten", 30)
        second.set_attribute(second.lookup(b), "ten", 30)
        second.commit()
        assert db.server.fetch(a)["ten"] == 30
        second.close()
        db.close()


class TestTwoPhaseCrashRecovery:
    """Crash-matrix invariants, driven through the harness."""

    @pytest.mark.parametrize("placement", ["hash", "affine"])
    def test_matrix_has_zero_violations(self, placement, tmp_path):
        from repro.harness.shardcrash import run_two_phase_crash_matrix

        document = run_two_phase_crash_matrix(
            shards=2,
            placement=placement,
            transactions=2,
            base_dir=str(tmp_path),
        )
        assert document["violation_count"] == 0, document["violations"]
        assert document["crash_points_tested"] >= 12
        # Every scenario actually ran.
        for scenario, count in document["cells_by_scenario"].items():
            assert count > 0, scenario

    def test_coordinator_crash_before_decision_aborts(self, tmp_path):
        import os

        from repro.engine.wal import WriteAheadLog
        from repro.netsim.latency import SimulatedClock

        clock = SimulatedClock()
        config = ShardConfig(shards=2, placement="hash")
        wal_paths = [str(tmp_path / f"s{i}.wal") for i in range(2)]
        servers = [
            ObjectServer(clock, wal=WriteAheadLog(p), shard_id=i)
            for i, p in enumerate(wal_paths)
        ]
        decision_path = str(tmp_path / "decision.wal")
        router = ShardRouter(
            config,
            servers=servers,
            decision_log=WriteAheadLog(decision_path),
        )
        base = {
            uid: {"uid": uid, "ten": 0, "children": [], "parts": [],
                  "refTo": []}
            for uid in range(1, 40)
        }
        router.load_records(base)
        placement = router.placement
        by_shard = {}
        for uid in sorted(base):
            by_shard.setdefault(placement.shard_of(uid), uid)
        a, b = sorted(by_shard.values())[:2]
        writes = {
            a: {**base[a], "ten": 5},
            b: {**base[b], "ten": 6},
        }
        # Prepare both participants; the coordinator then "crashes"
        # before logging any decision.
        for index, group in placement.partition(writes).items():
            servers[index].prepare_batch(
                1, {uid: writes[uid] for uid in group}, {}
            )
        for server in servers:
            server.wal.close()
        router.decision_log.close()

        # Site restart: recover shards from their WALs, resolve.
        recovered = [
            ObjectServer(clock, wal=WriteAheadLog(p), shard_id=i)
            for i, p in enumerate(wal_paths)
        ]
        groups = placement.partition(base)
        for i, server in enumerate(recovered):
            server.recover_from_wal(
                {uid: base[uid] for uid in groups.get(i, ())}
            )
        assert any(server.in_doubt() for server in recovered)
        router2 = ShardRouter(
            config,
            servers=recovered,
            decision_log=WriteAheadLog(decision_path),
        )
        outcomes = router2.resolve_in_doubt()
        assert outcomes == {1: "aborted"}
        assert router2.fetch(a)["ten"] == 0
        assert router2.fetch(b)["ten"] == 0
        # The txid is not reused after restart (participants memoized
        # the abort): a follow-up cross-shard commit succeeds.
        applied = router2.commit_batch(writes, {})
        assert applied
        assert router2.fetch(a)["ten"] == 5
        for server in recovered:
            server.wal.close()
        router2.decision_log.close()

    def test_local_commit_cannot_shadow_in_doubt_txid(self, tmp_path):
        """A participant's local ``commit_batch`` must never log under a
        txid it holds prepared: recovery would read the local COMMIT
        as the in-doubt slice's decision and drop the slice."""
        from repro.engine.wal import WriteAheadLog

        path = str(tmp_path / "shard.wal")
        base = {
            uid: {"uid": uid, "ten": 0, "children": [], "parts": [],
                  "refTo": []}
            for uid in (1, 2)
        }
        server = ObjectServer(wal=WriteAheadLog(path), shard_id=0)
        server.load_records(base)
        server.prepare_batch(1, {1: {**base[1], "ten": 5}}, {})
        server.commit_batch({2: {**base[2], "ten": 6}}, {})
        server.wal.close()  # crash

        recovered = ObjectServer(wal=WriteAheadLog(path), shard_id=0)
        assert recovered.recover_from_wal(base) == [1]
        assert recovered.in_doubt() == [1]
        assert recovered.fetch(2)["ten"] == 6
        assert recovered.fetch(1)["ten"] == 0
        assert set(recovered.commit_prepared(1)) == {1}
        assert recovered.fetch(1)["ten"] == 5
        recovered.wal.close()


# ----------------------------------------------------------------------
# Registry ablations and the bench document
# ----------------------------------------------------------------------


class TestShardedRegistry:
    @pytest.mark.parametrize(
        "name", ["clientserver-sharded-hash", "clientserver-sharded-affine"]
    )
    def test_registry_builds_sharded_backend(self, name):
        db = create_backend(name)
        db.open()
        assert isinstance(db.server, ShardRouter)
        assert len(db.server.shards) == 2
        gen = DatabaseGenerator(HyperModelConfig(levels=2, seed=9)).generate(
            db
        )
        db.commit()
        closure = Operations(db).closure_1n(db.lookup(gen.root_uid))
        assert len(closure) == gen.total_nodes
        db.close()


class TestShardedBench:
    def test_document_shape_and_determinism(self):
        import json

        from repro.harness.shardbench import run_sharded_bench

        kwargs = dict(
            shard_counts=(1, 2), placements=("affine",), level=2,
            closures=3, updates=4,
        )
        first = run_sharded_bench(**kwargs)
        second = run_sharded_bench(**kwargs)
        for doc in (first, second):
            doc.pop("provenance")
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )
        assert set(first["cells"]) == {"shards1-affine", "shards2-affine"}
        for cell in first["cells"].values():
            for op in ("closure", "update"):
                leaf = cell[op]
                assert leaf["p50_ms"] >= 0
                assert leaf["p99_ms"] >= leaf["p50_ms"] >= 0
                assert "mode" in leaf

    def test_benchdiff_understands_the_document(self, tmp_path):
        from repro.harness.benchdiff import diff_documents, extract_cells
        from repro.harness.shardbench import run_sharded_bench

        document = run_sharded_bench(
            shard_counts=(2,), placements=("hash",), level=2,
            closures=2, updates=3,
        )
        assert extract_cells(document)
        assert diff_documents(document, document) == []
