"""Replication: WAL shipping, session-token routing, failover.

Unit tests for the shipper's transaction framing, the group's bounded
staleness, the router's policies and read-your-writes token, the
promote-on-primary-crash drill, and the staleness-vs-throughput
benchmark's acceptance floor.  A Hypothesis property drives random
write/read/advance interleavings against the session-token contract.
"""

import pytest

from repro.engine.vfs import FaultInjectingVFS, MemoryVFS, SimulatedCrash
from repro.errors import InvalidOperationError
from repro.netsim.config import NetworkConfig, ReplicationConfig
from repro.netsim.latency import SimulatedClock
from repro.obs import Instrumentation
from repro.replication import ReplicaRouter, ReplicationGroup


def _record(uid, value=0):
    return {"uid": uid, "ten": 0, "hundred": 0, "million": value}


def _group(replicas=2, lag=0.0, instr=None, vfs=None):
    clock = SimulatedClock()
    group = ReplicationGroup(
        ReplicationConfig(replicas=replicas, apply_lag_seconds=lag),
        clock=clock,
        instrumentation=instr,
        vfs=vfs,
    )
    group.load_records({uid: _record(uid) for uid in (1, 2, 3, 4)})
    return group, clock


class TestWalShipper:
    def test_store_and_commit_batch_both_ship(self):
        group, _ = _group()
        router = ReplicaRouter(group)
        router.store(1, _record(1, 5))
        assert group.shipper.primary_lsn == 1
        router.commit_batch({2: _record(2, 6), 3: _record(3, 7)}, {})
        assert group.shipper.primary_lsn == 2  # one LSN per transaction
        lsn, _ship, operations = group.shipper.txns[1]
        assert lsn == 2
        assert sorted(op.oid for op in operations) == [2, 3]

    def test_ship_time_is_commit_time(self):
        group, clock = _group()
        router = ReplicaRouter(group)
        clock.advance(1.5)
        router.store(1, _record(1, 5))
        _lsn, ship_time, _ops = group.shipper.txns[0]
        # Shipped at commit time: after the advance, plus only the
        # simulated service time of the store itself.
        assert 1.5 <= ship_time < 1.6

    def test_torn_tail_never_ships(self):
        vfs = FaultInjectingVFS(MemoryVFS(), seed=7)
        group, _ = _group(vfs=vfs)
        router = ReplicaRouter(group)
        router.store(1, _record(1, 5))
        # Crash inside the next commit's WAL append: the partial
        # transaction must never become shippable.
        vfs.crash_at(vfs.mutation_ops + 2, torn=True)
        with pytest.raises(SimulatedCrash):
            router.store(2, _record(2, 6))
        group.shipper.poll()
        assert group.shipper.primary_lsn == 1

    def test_load_records_rebases_history(self):
        group, _ = _group()
        router = ReplicaRouter(group)
        router.store(1, _record(1, 5))
        generation = group.generation
        group.load_records({uid: _record(uid) for uid in (1, 2)})
        assert group.shipper.primary_lsn == 0
        assert group.generation == generation + 1
        router.fetch(1)  # the stale token resets on the next read
        assert router.session_lsn == 0


class TestBoundedStaleness:
    def test_lag_delays_apply_deterministically(self):
        group, clock = _group(lag=0.5)
        router = ReplicaRouter(group)
        router.store(1, _record(1, 5))
        group.catch_up()
        assert group.applied_lsns == [0, 0]  # inside the lag window
        clock.advance(0.49)
        group.catch_up()
        assert group.applied_lsns == [0, 0]
        clock.advance(0.01)
        group.catch_up()
        assert group.applied_lsns == [1, 1]

    def test_zero_lag_applies_at_commit_time(self):
        group, _ = _group(lag=0.0)
        router = ReplicaRouter(group)
        router.store(1, _record(1, 5))
        assert group.eligible_replicas(1)  # fresh enough immediately
        assert group.applied_lsns == [1, 1]

    def test_replica_records_carry_origin_versions(self):
        group, _ = _group()
        router = ReplicaRouter(group)
        router.commit_batch({2: _record(2, 9)}, {})
        group.catch_up()
        primary_version = group.primary._versions[2]
        for replica in group.replicas:
            assert replica._versions[2] == primary_version


class TestReplicaRouter:
    def test_round_robin_spreads_reads(self):
        instr = Instrumentation()
        group, _ = _group(instr=instr)
        router = ReplicaRouter(group, instrumentation=instr)
        for _ in range(6):
            router.fetch(1)
        counters = instr.counters.snapshot()
        assert counters["backend.replica.0.reads"] == 3
        assert counters["backend.replica.1.reads"] == 3
        assert counters["backend.replica.reads"] == 6

    def test_session_token_forces_primary_until_caught_up(self):
        instr = Instrumentation()
        group, clock = _group(lag=1.0, instr=instr)
        router = ReplicaRouter(group, instrumentation=instr)
        router.store(1, _record(1, 5))
        assert router.session_lsn == 1
        assert router.fetch(1)["million"] == 5  # primary fallback
        counters = instr.counters.snapshot()
        assert counters["backend.replica.fallbacks"] == 1
        assert "backend.replica.reads" not in counters
        clock.advance(1.0)
        assert router.fetch(1)["million"] == 5  # replicas caught up
        assert instr.counters.snapshot()["backend.replica.reads"] == 1

    def test_other_clients_keep_reading_replicas(self):
        instr = Instrumentation()
        group, _ = _group(lag=1.0, instr=instr)
        writer = ReplicaRouter(group, instrumentation=instr)
        reader = ReplicaRouter(group, instrumentation=instr)
        writer.store(1, _record(1, 5))
        reader.fetch(2)  # no session debt: replica-served
        assert instr.counters.snapshot()["backend.replica.reads"] == 1

    def test_force_primary_ablation(self):
        instr = Instrumentation()
        group, _ = _group(instr=instr)
        router = ReplicaRouter(group, instrumentation=instr)
        router.force_primary = True
        router.fetch(1)
        counters = instr.counters.snapshot()
        assert counters["backend.replica.forced_primary"] == 1
        assert "backend.replica.reads" not in counters

    def test_read_verbs_route_and_writes_hit_primary(self):
        group, _ = _group()
        router = ReplicaRouter(group)
        router.commit_batch({1: _record(1, 8)}, {})
        assert router.fetch(1)["million"] == 8
        assert set(router.fetch_many([1, 2])) == {1, 2}
        assert 1 in router
        stats = router.stats
        assert stats.fetches >= 1


class TestFailover:
    def test_promote_elects_highest_applied_lsn(self):
        group, _ = _group()
        router = ReplicaRouter(group)
        router.store(1, _record(1, 5))
        router.store(2, _record(2, 6))
        winner = group.promote()
        assert group.failed_over
        assert group.promoted_index is not None
        lsns = group.applied_lsns
        assert lsns[group.promoted_index] == max(lsns) == 2
        assert winner.fetch(1)["million"] == 5
        with pytest.raises(InvalidOperationError):
            group.promote()

    def test_reads_pin_to_new_primary_after_failover(self):
        instr = Instrumentation()
        group, _ = _group(instr=instr)
        router = ReplicaRouter(group)
        router.store(1, _record(1, 5))
        group.promote()
        assert router.fetch(1)["million"] == 5
        router.store(1, _record(1, 9))
        assert router.fetch(1)["million"] == 9
        assert instr.counters.snapshot()["backend.replica.promotions"] == 1

    def test_drill_passes_at_every_crash_point(self):
        from repro.harness.replicacrash import run_failover_drill

        document = run_failover_drill(transactions=2, seed=11)
        assert document["crash_points_tested"] > 0
        assert document["violation_count"] == 0
        for cell in document["cells"]:
            assert cell["promoted_index"] is not None

    def test_drill_trace_contains_failover_span(self, tmp_path):
        from repro.harness.replicacrash import run_failover_drill

        trace_path = str(tmp_path / "failover.json")
        document = run_failover_drill(
            transactions=1, seed=11, trace_path=trace_path
        )
        assert document["violation_count"] == 0
        import json

        with open(trace_path) as handle:
            trace = json.load(handle)
        names = {
            event.get("name")
            for event in trace["traceEvents"]
            if event.get("ph") == "X"
        }
        assert "replication.failover" in names


class TestReplicatedBackend:
    def test_clientserver_replicated_end_to_end(self):
        from repro.backends.clientserver import ClientServerDatabase
        from repro.core.config import HyperModelConfig
        from repro.core.generator import DatabaseGenerator

        instr = Instrumentation()
        db = ClientServerDatabase(
            network=NetworkConfig(
                replication=ReplicationConfig(replicas=2)
            ),
            instrumentation=instr,
        )
        db.open()
        gen = DatabaseGenerator(
            HyperModelConfig(levels=2, seed=42)
        ).generate(db)
        db.commit()
        root = db.lookup(gen.root_uid)
        assert db.get_attribute(root, "uniqueId") == gen.root_uid
        db.set_attribute(root, "ten", 7)
        db.commit()
        db.cache.clear()
        assert db.get_attribute(root, "ten") == 7
        assert isinstance(db.server, ReplicaRouter)
        db.close()


class TestReplicaBenchmark:
    def test_scaling_meets_acceptance_floor(self):
        from repro.harness.replicabench import run_replica_bench

        document = run_replica_bench(
            replica_counts=(1, 4),
            write_rates=(40.0,),
            lags=(0.0,),
            level=4,
            reads_per_reader=6,
            routing_closures=2,
            seed=1989,
        )
        assert document["scaling"]["write40-lag0ms"] >= 2.5

    def test_document_is_deterministic(self):
        from repro.harness.replicabench import run_replica_bench

        kwargs = dict(
            replica_counts=(1, 2),
            write_rates=(0.0,),
            lags=(0.02,),
            level=2,
            reads_per_reader=3,
            routing_closures=2,
            seed=7,
        )
        first = run_replica_bench(**kwargs)
        second = run_replica_bench(**kwargs)
        assert first["cells"] == second["cells"]
        assert first["scaling"] == second["scaling"]
        routing = first["cells"]["routing"]
        assert set(routing) == {"replica_cold", "primary_cold", "warm"}
        assert routing["warm"]["p50_ms"] <= routing["replica_cold"]["p50_ms"]


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    _HAS_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships in CI
    _HAS_HYPOTHESIS = False


if _HAS_HYPOTHESIS:
    _UIDS = (1, 2, 3, 4)
    _OPS = st.lists(
        st.one_of(
            st.tuples(
                st.just("write"),
                st.sampled_from((0, 1)),
                st.sampled_from(_UIDS),
            ),
            st.tuples(
                st.just("read"),
                st.sampled_from((0, 1)),
                st.sampled_from(_UIDS),
            ),
            st.tuples(
                st.just("advance"),
                st.just(0),
                st.integers(min_value=1, max_value=50),
            ),
        ),
        min_size=1,
        max_size=40,
    )

    class TestReadYourWritesProperty:
        @settings(max_examples=40, deadline=None)
        @given(
            ops=_OPS,
            lag_ms=st.integers(min_value=0, max_value=60),
        )
        def test_session_token_never_serves_stale_own_write(
            self, ops, lag_ms
        ):
            """Under any interleaving of two clients' writes, reads and
            clock advances, a client never reads a value older than its
            own last write — regardless of the replica apply lag."""
            group, clock = _group(lag=lag_ms / 1000.0)
            routers = [ReplicaRouter(group), ReplicaRouter(group)]
            own = [{}, {}]  # per client: uid -> last value written
            stamp = 0
            for kind, client, arg in ops:
                if kind == "advance":
                    clock.advance(arg / 1000.0)
                elif kind == "write":
                    stamp += 1
                    routers[client].store(arg, _record(arg, stamp))
                    own[client][arg] = stamp
                else:
                    seen = routers[client].fetch(arg)["million"]
                    floor = own[client].get(arg, 0)
                    assert seen >= floor, (
                        f"client {client} read {seen} for uid {arg} "
                        f"after writing {floor} (lag {lag_ms}ms)"
                    )
