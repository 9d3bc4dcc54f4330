"""The network simulation: virtual clock, cost model, cache, server."""

import pytest

from repro.errors import NodeNotFoundError
from repro.netsim import LatencyModel, ObjectServer, SimulatedClock, WorkstationCache
from repro.netsim.latency import ZERO_COST


class TestClock:
    def test_advances_monotonically(self):
        clock = SimulatedClock()
        clock.advance(0.5)
        clock.advance(0.25)
        assert clock.now == pytest.approx(0.75)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SimulatedClock().advance(-1)

    def test_reset(self):
        clock = SimulatedClock()
        clock.advance(3)
        clock.reset()
        assert clock.now == 0.0


class TestLatencyModel:
    def test_cost_combines_round_trip_and_transfer(self):
        model = LatencyModel(round_trip_seconds=0.001, bandwidth_bytes_per_second=1000)
        assert model.request_cost(0) == pytest.approx(0.001)
        assert model.request_cost(500) == pytest.approx(0.501)

    def test_zero_cost_model(self):
        assert ZERO_COST.request_cost(1_000_000) == 0.0

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel().request_cost(-1)


class TestWorkstationCache:
    def test_hit_miss_accounting(self):
        cache = WorkstationCache(capacity=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_ratio == 0.5

    def test_lru_eviction_order(self):
        cache = WorkstationCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now LRU
        cache.put("c", 3)
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.stats.evictions == 1

    def test_invalidate_and_clear(self):
        cache = WorkstationCache(capacity=4)
        cache.put("a", 1)
        cache.invalidate("a")
        assert "a" not in cache
        assert cache.stats.invalidations == 1
        cache.put("b", 2)
        cache.clear()
        assert len(cache) == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            WorkstationCache(capacity=0)


class TestObjectServer:
    def _record(self, uid, **extra):
        record = {
            "uid": uid, "kind": "node", "ten": 1, "hundred": 2,
            "million": 3, "struct": 1, "children": [], "parent": 0,
            "parts": [], "partOf": [], "refTo": [], "refFrom": [],
        }
        record.update(extra)
        return record

    def test_store_and_fetch_charge_the_clock(self):
        server = ObjectServer()
        server.store(1, self._record(1))
        after_store = server.clock.now
        assert after_store > 0
        fetched = server.fetch(1)
        assert fetched["uid"] == 1
        assert server.clock.now > after_store
        assert server.stats.fetches == 1
        assert server.stats.bytes_sent > 0

    def test_fetch_returns_a_copy(self):
        server = ObjectServer()
        server.store(1, self._record(1))
        server.fetch(1)["ten"] = 99
        assert server.fetch(1)["ten"] == 1

    def test_missing_fetch_still_charged(self):
        server = ObjectServer()
        before = server.clock.now
        with pytest.raises(NodeNotFoundError):
            server.fetch(404)
        assert server.clock.now > before

    def test_exists_probe(self):
        server = ObjectServer()
        server.store(5, self._record(5))
        assert server.exists(5)
        assert not server.exists(6)
        assert server.stats.probes == 2

    def test_range_query_server_side(self):
        server = ObjectServer()
        for uid in range(1, 11):
            server.store(uid, self._record(uid, hundred=uid * 10))
        result = server.range_query("hundred", 25, 65)
        assert sorted(result) == [3, 4, 5, 6]

    def test_scan_structure_filters_and_sorts(self):
        server = ObjectServer()
        server.store(3, self._record(3, struct=1))
        server.store(1, self._record(1, struct=1))
        server.store(2, self._record(2, struct=2))
        assert server.scan_structure(1) == [1, 3]
        assert server.count(1) == 2

    def test_bigger_records_cost_more(self):
        server = ObjectServer()
        small = self._record(1)
        big = self._record(2, bits=b"\x00" * 10_000, kind="form")
        server.store(1, small)
        small_cost = server.clock.now
        server.store(2, big)
        big_cost = server.clock.now - small_cost
        assert big_cost > small_cost

    def test_named_lists(self):
        server = ObjectServer()
        server.store_list("toc", [3, 1, 2])
        assert server.load_list("toc") == [3, 1, 2]
        with pytest.raises(NodeNotFoundError):
            server.load_list("ghost")

    def test_shared_clock_injection(self):
        clock = SimulatedClock()
        server = ObjectServer(clock, ZERO_COST)
        server.store(1, self._record(1))
        assert clock.now == 0.0  # zero-cost model charges nothing

    def test_acked_store_survives_recovery(self):
        """Log-before-apply holds for plain ``store`` on the base
        server: an acked write is in the WAL, so recovery returns it
        (without waiting on — or charging — the fsync)."""
        from repro.engine.vfs import MemoryVFS
        from repro.engine.wal import WriteAheadLog

        wal = WriteAheadLog("server.wal", vfs=MemoryVFS())
        server = ObjectServer(wal=wal, fsync_seconds=1.0)
        base = {1: self._record(1)}
        server.load_records(base)
        server.store(2, self._record(2, ten=7))
        assert server.clock.now < 1.0
        server.recover_from_wal(base)
        assert server.fetch(2)["ten"] == 7
        assert server.fetch(1)["ten"] == 1


class TestVerbSurface:
    """``netsim/verbs.py`` is the one written-down verb table."""

    def test_table_is_exactly_the_servers_public_methods(self):
        import inspect

        from repro.netsim import verbs

        public = {
            name: member
            for name, member in vars(ObjectServer).items()
            if inspect.isfunction(member) and not name.startswith("_")
        }
        served = {
            name
            for name, member in public.items()
            if "self._serve(" in inspect.getsource(member)
        }
        assert served == set(verbs.SERVED_VERBS)
        assert len(verbs.SERVED_VERBS) == len(served)  # no verb in two roles
        assert set(public) - served == set(verbs.ADMIN_VERBS) | set(
            verbs.PLUMBING
        )

    def test_generated_forwarders_keep_the_verb_name(self):
        """The client names its ``rpc.<verb>`` spans from
        ``func.__name__``; a forwarder called ``forward`` would
        silently rewrite every timeline."""
        from repro.netsim import verbs
        from repro.replication.router import ReplicaRouter
        from repro.sharding.router import ShardRouter

        table = verbs.SERVED_VERBS + verbs.ADMIN_VERBS
        for router in (ReplicaRouter, ShardRouter):
            assert router.forwards
            for verb in router.forwards:
                assert verb in table
                assert getattr(router, verb).__name__ == verb
            # Whatever a router answers at all, it answers by name.
            for verb in table:
                member = getattr(router, verb, None)
                assert member is None or member.__name__ == verb


class TestFaultModel:
    def test_same_seed_same_fault_sequence(self):
        from repro.netsim.faults import FaultModel

        decisions = []
        for _ in range(2):
            model = FaultModel(seed=11, drop_rate=0.3, timeout_rate=0.2)
            decisions.append([model.next_fault() for _ in range(50)])
        assert decisions[0] == decisions[1]
        assert "drop" in decisions[0] and "timeout" in decisions[0]

    def test_zero_rates_never_fault(self):
        from repro.netsim.faults import FaultModel

        model = FaultModel(seed=1)
        assert all(model.next_fault() is None for _ in range(100))

    def test_reset_replays(self):
        from repro.netsim.faults import FaultModel

        model = FaultModel(seed=5, drop_rate=0.5)
        first = [model.next_fault() for _ in range(20)]
        model.reset()
        assert [model.next_fault() for _ in range(20)] == first
        assert model.drops == first.count("drop")

    def test_rate_validation(self):
        from repro.netsim.faults import FaultModel

        with pytest.raises(ValueError):
            FaultModel(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultModel(timeout_seconds=-1)

    def test_raise_fault_kinds(self):
        from repro.errors import RpcDroppedError, RpcTimeoutError
        from repro.netsim.faults import FaultModel

        model = FaultModel()
        with pytest.raises(RpcDroppedError):
            model.raise_fault("drop", "fetch")
        with pytest.raises(RpcTimeoutError):
            model.raise_fault("timeout", "fetch")
        with pytest.raises(ValueError):
            model.raise_fault("gremlin", "fetch")


class TestServerFaults:
    def _server(self, **kwargs):
        from repro.netsim.faults import FaultModel

        return ObjectServer(fault_model=FaultModel(**kwargs))

    def test_faulted_request_charges_time_but_not_state(self):
        from repro.errors import RpcDroppedError

        server = self._server(seed=0, drop_rate=1.0)
        before = server.clock.now
        with pytest.raises(RpcDroppedError):
            server.store(1, {"uid": 1, "kind": "node"})
        assert server.clock.now > before  # the wasted round trip
        assert 1 not in server  # the request never touched state

    def test_timeout_charges_the_timeout_window(self):
        from repro.errors import RpcTimeoutError

        server = self._server(seed=0, timeout_rate=1.0, timeout_seconds=0.25)
        with pytest.raises(RpcTimeoutError):
            server.exists(1)
        assert server.clock.now >= 0.25

    def test_no_fault_model_serves_normally(self):
        server = ObjectServer()
        server.store(1, {"uid": 1, "kind": "node"})
        assert server.fetch(1)["uid"] == 1


class TestClientRetries:
    def _client(self, **kwargs):
        from repro.backends.clientserver import ClientServerDatabase
        from repro.netsim.config import NetworkConfig
        from repro.netsim.faults import FaultModel
        from repro.obs import Instrumentation

        instr = Instrumentation()
        fault_kwargs = kwargs.pop("faults", {})
        network = NetworkConfig(
            fault_model=FaultModel(**fault_kwargs) if fault_kwargs else None,
            **kwargs,
        )
        db = ClientServerDatabase(network=network, instrumentation=instr)
        db.open()
        return db, instr

    def _store_one(self, db, uid=1):
        from repro.core.model import NodeData, NodeKind

        db.create_node(
            NodeData(
                unique_id=uid,
                ten=1,
                hundred=1,
                million=1,
                kind=NodeKind.NODE,
            )
        )
        db.commit()

    def test_lossy_wire_is_survivable(self):
        db, instr = self._client(faults=dict(seed=3, drop_rate=0.2))
        for uid in range(1, 30):
            self._store_one(db, uid)
        db.cache.clear()
        for uid in range(1, 30):
            assert db.lookup(uid) == uid
        counters = instr.snapshot()
        assert counters.get("backend.rpc.retries") > 0
        assert counters.get("backend.rpc.faults") > 0
        db.close()

    def test_retries_charge_backoff_to_the_clock(self):
        db, instr = self._client(
            faults=dict(seed=1, drop_rate=0.3),
            rpc_retries=8,
            rpc_backoff_seconds=0.01,
        )
        for uid in range(1, 20):
            self._store_one(db, uid)
        counters = instr.snapshot()
        assert counters.get("backend.rpc.retries") > 0
        assert counters.get("backend.rpc.backoff_ms") > 0
        db.close()

    def test_exhausted_retries_raise(self):
        from repro.errors import RpcExhaustedError

        db, _instr = self._client(
            faults=dict(seed=0, drop_rate=1.0), rpc_retries=2
        )
        with pytest.raises(RpcExhaustedError):
            db.lookup(1)
        db._open = False  # close() would commit over the dead wire

    def test_not_found_passes_through_untouched(self):
        db, instr = self._client()
        with pytest.raises(NodeNotFoundError):
            db.lookup(404)
        assert instr.snapshot().get("backend.rpc.retries") == 0
        db.close()

    def test_retry_of_store_is_idempotent(self):
        db, _instr = self._client(faults=dict(seed=7, drop_rate=0.3))
        for uid in range(1, 15):
            self._store_one(db, uid)
        assert db.server.stats.stores >= 14  # retried stores re-count ...
        for uid in range(1, 15):
            record = db._rpc(db.server.fetch, uid)
            assert record["uid"] == uid  # ... but state is clean
        db.close()

    def test_invalid_retry_configuration_rejected(self):
        from repro.errors import ConfigurationError
        from repro.netsim.config import NetworkConfig

        with pytest.raises(ConfigurationError):
            NetworkConfig(rpc_retries=-1)
        with pytest.raises(ConfigurationError):
            NetworkConfig(rpc_backoff_seconds=-0.1)

    def test_registry_forwards_fault_options(self):
        from repro.backends.registry import create_backend
        from repro.netsim.config import NetworkConfig
        from repro.netsim.faults import FaultModel

        db = create_backend(
            "clientserver",
            network=NetworkConfig(
                fault_model=FaultModel(seed=2, drop_rate=0.1),
                rpc_retries=6,
                rpc_backoff_seconds=0.001,
            ),
        )
        assert db.rpc_retries == 6
        assert db.server.fault_model is not None
