"""The batched navigation API: conformance, round trips, partial hits.

Three contracts are pinned here:

1. **Conformance** — every backend's *native* ``children_many`` /
   ``parts_many`` / ``refs_to_many`` / ``get_attributes_many`` returns
   exactly what the per-item default implementation on
   :class:`~repro.core.interface.HyperModelDatabase` returns, for the
   full node population, the empty frontier, and frontiers with
   duplicate refs.  Third-party backends that implement only the
   per-item verbs inherit the defaults, so default == native is the
   compatibility guarantee.

2. **Round-trip collapse** — on the client/server backend, a 1-N
   closure (op 10) costs O(tree depth) round trips, not O(nodes):
   a whole BFS frontier rides one batch RPC.  A counter-delta test on
   a level-4 database (781 nodes, depth 4) demonstrates the drop, and
   the batched closure's result is byte-identical to a reference
   per-item depth-first traversal.

3. **Partial cache hits** — a batch fetch through the workstation
   cache ships *only* the missing refs to the server; resident refs
   are served locally and refresh their recency.
"""

from __future__ import annotations

import pytest

from repro.backends.clientserver import ClientServerDatabase
from repro.core.config import HyperModelConfig
from repro.core.generator import DatabaseGenerator
from repro.core.interface import HyperModelDatabase
from repro.core.operations import Operations
from repro.errors import NodeNotFoundError
from repro.netsim.cache import WorkstationCache
from repro.obs import Instrumentation


def _all_refs(db, gen):
    """Every node of the generated structure, in scan order."""
    return list(db.iter_nodes(gen.structure_id))


def _reference_closure_1n(db, ref):
    """The pre-batch op 10: per-item depth-first, reversed extend."""
    result = []
    stack = [ref]
    while stack:
        node = stack.pop()
        result.append(node)
        stack.extend(reversed(db.children(node)))
    return result


# ----------------------------------------------------------------------
# 1. Native batch == per-item default, on every backend
# ----------------------------------------------------------------------


class TestBatchConformance:
    """db.*_many(refs) must equal HyperModelDatabase.*_many(db, refs)."""

    def test_children_many_matches_default(self, populated):
        db, gen = populated
        refs = _all_refs(db, gen)
        assert db.children_many(refs) == HyperModelDatabase.children_many(
            db, refs
        )

    def test_parts_many_matches_default(self, populated):
        db, gen = populated
        refs = _all_refs(db, gen)
        assert db.parts_many(refs) == HyperModelDatabase.parts_many(db, refs)

    def test_refs_to_many_matches_default(self, populated):
        db, gen = populated
        refs = _all_refs(db, gen)
        assert db.refs_to_many(refs) == HyperModelDatabase.refs_to_many(
            db, refs
        )

    @pytest.mark.parametrize(
        "name", ["uniqueId", "ten", "hundred", "million"]
    )
    def test_get_attributes_many_matches_default(self, populated, name):
        db, gen = populated
        refs = _all_refs(db, gen)
        assert db.get_attributes_many(
            refs, name
        ) == HyperModelDatabase.get_attributes_many(db, refs, name)

    def test_empty_frontier(self, populated):
        db, _gen = populated
        assert db.children_many([]) == []
        assert db.parts_many([]) == []
        assert db.refs_to_many([]) == []
        assert db.get_attributes_many([], "hundred") == []

    def test_duplicate_refs_answered_per_occurrence(self, populated):
        db, gen = populated
        root = db.lookup(gen.root_uid)
        child = db.children(root)[0]
        refs = [root, child, root, root, child]
        for batch, single in (
            (db.children_many(refs), db.children),
            (db.parts_many(refs), db.parts),
            (db.refs_to_many(refs), db.refs_to),
        ):
            assert batch == [single(ref) for ref in refs]
        assert db.get_attributes_many(refs, "million") == [
            db.get_attribute(ref, "million") for ref in refs
        ]

    def test_unknown_ref_behaves_like_per_item(self, populated):
        """Whatever the per-item verb does for a bogus ref, batch does.

        Every backend raises :class:`NodeNotFoundError` per item
        (``test_backend_conformance.TestMissingNode``); the batch verb
        must mirror its own backend, not impose a new contract.
        """

        def outcome(fn, *args):
            try:
                return ("ok", fn(*args))
            except NodeNotFoundError:
                return ("err", NodeNotFoundError)

        db, _gen = populated
        bogus = 987_654_321  # no backend ever allocates this ref
        pairs = [
            (lambda: db.children(bogus), lambda: db.children_many([bogus])),
            (lambda: db.parts(bogus), lambda: db.parts_many([bogus])),
            (lambda: db.refs_to(bogus), lambda: db.refs_to_many([bogus])),
            (
                lambda: db.get_attribute(bogus, "hundred"),
                lambda: db.get_attributes_many([bogus], "hundred"),
            ),
        ]
        for single, batch in pairs:
            kind, value = outcome(single)
            bkind, bvalue = outcome(batch)
            assert bkind == kind
            if kind == "ok":
                assert bvalue == [value]
            else:
                assert bvalue is NodeNotFoundError

    def test_unknown_attribute_raises(self, populated):
        db, gen = populated
        root = db.lookup(gen.root_uid)
        with pytest.raises(KeyError):
            db.get_attributes_many([root], "nonesuch")

    def test_batch_counters_recorded(self, tmp_path):
        """Native batch paths emit backend.batch.calls/items."""
        from repro.backends.memory import MemoryDatabase
        from repro.backends.oodb import OodbDatabase
        from repro.backends.sqlite_backend import SqliteDatabase

        def build(name, instr):
            if name == "memory":
                return MemoryDatabase(instrumentation=instr)
            if name == "sqlite":
                return SqliteDatabase(":memory:", instrumentation=instr)
            if name == "oodb":
                return OodbDatabase(
                    str(tmp_path / "batch.hmdb"), instrumentation=instr
                )
            return ClientServerDatabase(instrumentation=instr)

        for name in ("memory", "sqlite", "oodb", "clientserver"):
            instr = Instrumentation()
            db = build(name, instr)
            db.open()
            try:
                gen = DatabaseGenerator(
                    HyperModelConfig(levels=2, seed=7)
                ).generate(db)
                db.commit()
                before = instr.snapshot()
                root = db.lookup(gen.root_uid)
                db.children_many([root])
                delta = instr.delta_since(before)
                assert delta.get("backend.batch.calls", 0) == 1, name
                assert delta.get("backend.batch.items", 0) == 1, name
            finally:
                db.close()


# ----------------------------------------------------------------------
# 2. Closure results are unchanged, closure round trips collapse
# ----------------------------------------------------------------------


class TestClosureSemantics:
    """Frontier-BFS closures return exactly what per-item DFS returned."""

    def test_closure_1n_matches_reference_dfs(self, populated):
        db, gen = populated
        ops = Operations(db)
        root = db.lookup(gen.root_uid)
        assert ops.closure_1n(root) == _reference_closure_1n(db, root)

    def test_closure_1n_pred_unpruned_equals_closure(self, populated):
        db, gen = populated
        ops = Operations(db)
        root = db.lookup(gen.root_uid)
        # A window beyond every generated million value: nothing pruned.
        assert ops.closure_1n_pred(root, 2_000_000) == ops.closure_1n(root)


class TestRoundTripCollapse:
    """Op 10 on client/server: O(depth) round trips for O(nodes) work."""

    @pytest.fixture()
    def level4(self):
        instr = Instrumentation()
        db = ClientServerDatabase(instrumentation=instr)
        db.open()
        gen = DatabaseGenerator(
            HyperModelConfig(levels=4, seed=42)
        ).generate(db)
        db.commit()
        yield db, gen, instr
        db.close()

    def test_op10_round_trips_scale_with_depth_not_nodes(self, level4):
        db, gen, instr = level4
        root = db.lookup(gen.root_uid)
        # Cold workstation: drop the cache so every record must travel.
        db.cache.clear()
        before = instr.snapshot()
        result = Operations(db).closure_1n(root)
        delta = instr.delta_since(before)
        nodes = len(result)
        assert nodes == 781  # the whole level-4 structure
        round_trips = delta.get("backend.rpc.round_trips", 0)
        # Depth 4 => one batch RPC per level below the (cached-by-lookup)
        # root, plus slack for the root fetch itself.  The per-item
        # formulation needed ~781 round trips.
        assert 0 < round_trips <= 6, delta
        assert delta.get("backend.batch.calls", 0) >= 4
        assert delta.get("backend.batch.items", 0) >= nodes

    def test_op10_result_identical_to_per_item_reference(self, level4):
        db, gen, _instr = level4
        root = db.lookup(gen.root_uid)
        assert Operations(db).closure_1n(root) == _reference_closure_1n(
            db, root
        )


# ----------------------------------------------------------------------
# 3. Partial cache hits ship only the missing refs
# ----------------------------------------------------------------------


class TestPartialCacheHits:
    def test_get_many_splits_found_and_missing(self):
        cache = WorkstationCache(capacity=8)
        cache.put(1, "one")
        cache.put(2, "two")
        found, missing = cache.get_many([1, 3, 2, 4, 3, 1])
        assert found == {1: "one", 2: "two"}
        assert missing == [3, 4]  # deduped, first-seen order
        assert cache.stats.hits == 2
        assert cache.stats.misses == 2

    def test_get_many_refreshes_recency(self):
        cache = WorkstationCache(capacity=2)
        cache.put(1, "one")
        cache.put(2, "two")
        cache.get_many([1])  # 1 becomes most recent
        cache.put(3, "three")  # evicts 2, not 1
        assert cache.get(1) == "one"
        assert cache.get(2) is None

    def test_batch_fetch_ships_only_missing_refs(self):
        instr = Instrumentation()
        db = ClientServerDatabase(instrumentation=instr)
        db.open()
        try:
            gen = DatabaseGenerator(
                HyperModelConfig(levels=2, seed=42)
            ).generate(db)
            db.commit()
            root = db.lookup(gen.root_uid)
            kids = db.children(root)
            # Warm exactly half the frontier through per-item reads.
            warm, cold = kids[: len(kids) // 2], kids[len(kids) // 2 :]
            db.cache.clear()
            for uid in warm:
                db.get_attribute(uid, "ten")
            before_batched = db.server.stats.batched_objects
            before = instr.snapshot()
            db.get_attributes_many(kids, "ten")
            delta = instr.delta_since(before)
            shipped = db.server.stats.batched_objects - before_batched
            assert shipped == len(cold)  # only the misses travel
            assert delta.get("backend.rpc.round_trips", 0) == 1
            assert delta.get("netsim.cache.hit", 0) == len(warm)
            assert delta.get("netsim.cache.miss", 0) == len(cold)
        finally:
            db.close()

    def test_fully_warm_batch_makes_no_round_trip(self):
        instr = Instrumentation()
        db = ClientServerDatabase(instrumentation=instr)
        db.open()
        try:
            gen = DatabaseGenerator(
                HyperModelConfig(levels=2, seed=42)
            ).generate(db)
            db.commit()
            root = db.lookup(gen.root_uid)
            kids = db.children(root)
            db.children_many(kids)  # warm the whole frontier
            before = instr.snapshot()
            db.children_many(kids)
            delta = instr.delta_since(before)
            assert delta.get("backend.rpc.round_trips", 0) == 0
        finally:
            db.close()
