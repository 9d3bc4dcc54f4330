"""Backend conformance: every backend honours the interface contract.

These tests run parametrized over every registered preset (see the
``any_backend`` / ``populated`` fixtures) so a new backend gets the
full contract for free.
"""

import random

import pytest

from repro.backends import available_backends
from repro.core.bitmap import Bitmap
from repro.core.model import LinkAttributes, NodeData, NodeKind
from repro.core.verification import verify_database
from repro.errors import (
    InvalidOperationError,
    NodeNotFoundError,
)
from repro.obs import (
    NO_OP,
    Instrumentation,
    get_instrumentation,
    set_instrumentation,
)
from tests.conftest import make_backend


def _node(uid, **kw):
    base = dict(unique_id=uid, ten=1, hundred=2, million=3)
    base.update(kw)
    return NodeData(**base)


class TestCreation:
    def test_create_and_lookup(self, any_backend):
        db = any_backend
        ref = db.create_node(_node(1))
        db.commit()
        assert db.get_attribute(db.lookup(1), "uniqueId") == 1
        assert db.kind_of(ref) is NodeKind.NODE

    def test_duplicate_unique_id_rejected(self, any_backend):
        db = any_backend
        db.create_node(_node(1))
        with pytest.raises(InvalidOperationError):
            db.create_node(_node(1))

    def test_lookup_missing_raises(self, any_backend):
        with pytest.raises(NodeNotFoundError):
            any_backend.lookup(12345)

    def test_child_cannot_have_two_parents(self, any_backend):
        db = any_backend
        a = db.create_node(_node(1))
        b = db.create_node(_node(2))
        c = db.create_node(_node(3))
        db.add_child(a, c)
        with pytest.raises(InvalidOperationError):
            db.add_child(b, c)


class TestAttributes:
    def test_set_and_get_each_mutable_attribute(self, any_backend):
        db = any_backend
        ref = db.create_node(_node(1))
        for name, value in (("ten", 9), ("hundred", 88), ("million", 777)):
            db.set_attribute(ref, name, value)
            assert db.get_attribute(ref, name) == value

    def test_unique_id_immutable(self, any_backend):
        db = any_backend
        ref = db.create_node(_node(1))
        with pytest.raises(InvalidOperationError):
            db.set_attribute(ref, "uniqueId", 2)

    def test_unknown_attribute_rejected(self, any_backend):
        db = any_backend
        ref = db.create_node(_node(1))
        with pytest.raises(KeyError):
            db.get_attribute(ref, "thousand")
        with pytest.raises(KeyError):
            db.set_attribute(ref, "thousand", 1)
        with pytest.raises(KeyError):
            db.get_attributes_many([], "thousand")


#: Values no integer attribute holds (``True`` is an int to Python).
NON_INTS = ("x", 1.5, True, None)


class TestAttributeWrites:
    """One write check on every preset: types are refused before any
    change; the section 5.1 domains are not write constraints (op 12
    writes ``99 - hundred``)."""

    def test_non_int_values_refused_before_any_change(self, populated):
        db, gen = populated
        ref = db.lookup(gen.text_uids[0])
        for name in ("ten", "hundred", "million"):
            before = db.get_attribute(ref, name)
            for value in NON_INTS:
                with pytest.raises(InvalidOperationError):
                    db.set_attribute(ref, name, value)
                assert db.get_attribute(ref, name) == before
        db.commit()
        verify_database(db, gen, content_sample=5).raise_if_failed()

    @pytest.mark.parametrize("value", (-1, 0, 9999))
    def test_out_of_domain_ints_accepted(self, any_backend, value):
        db = any_backend
        ref = db.create_node(_node(1))
        for name in ("ten", "hundred", "million"):
            db.set_attribute(ref, name, value)
        db.commit()
        assert db.get_attributes_many([ref] * 3, "hundred") == [value] * 3
        assert db.get_attribute(ref, "million") == value


class TestRelationships:
    def test_children_keep_insertion_order(self, any_backend):
        db = any_backend
        parent = db.create_node(_node(1))
        kids = [db.create_node(_node(uid)) for uid in (5, 3, 9, 2)]
        for kid in kids:
            db.add_child(parent, kid)
        ordered = [db.get_attribute(r, "uniqueId") for r in db.children(parent)]
        assert ordered == [5, 3, 9, 2]

    def test_parent_is_inverse_of_children(self, any_backend):
        db = any_backend
        parent = db.create_node(_node(1))
        child = db.create_node(_node(2))
        db.add_child(parent, child)
        assert db.get_attribute(db.parent(child), "uniqueId") == 1
        assert db.parent(parent) is None

    def test_parts_and_part_of_are_inverses(self, any_backend):
        db = any_backend
        whole_a = db.create_node(_node(1))
        whole_b = db.create_node(_node(2))
        shared = db.create_node(_node(3))
        db.add_part(whole_a, shared)
        db.add_part(whole_b, shared)
        owners = {
            db.get_attribute(r, "uniqueId") for r in db.part_of(shared)
        }
        assert owners == {1, 2}
        assert len(db.parts(whole_a)) == 1

    def test_references_carry_attributes_and_inverse(self, any_backend):
        db = any_backend
        src = db.create_node(_node(1))
        dst = db.create_node(_node(2))
        db.add_reference(src, dst, LinkAttributes(3, 8))
        (target, attrs), = db.refs_to(src)
        assert db.get_attribute(target, "uniqueId") == 2
        assert (attrs.offset_from, attrs.offset_to) == (3, 8)
        referrers = db.refs_from(dst)
        assert [db.get_attribute(r, "uniqueId") for r in referrers] == [1]
        assert db.refs_from(src) == []


#: The navigation verbs, each called with a missing node among its refs.
NAVIGATION = {
    "children": lambda db, ref, missing: db.children(missing),
    "parts": lambda db, ref, missing: db.parts(missing),
    "refs_to": lambda db, ref, missing: db.refs_to(missing),
    "part_of": lambda db, ref, missing: db.part_of(missing),
    "refs_from": lambda db, ref, missing: db.refs_from(missing),
    "children_many": lambda db, ref, missing: db.children_many([ref, missing]),
    "parts_many": lambda db, ref, missing: db.parts_many([ref, missing]),
    "refs_to_many": lambda db, ref, missing: db.refs_to_many([ref, missing]),
}


class TestMissingNode:
    @pytest.mark.parametrize("verb", sorted(NAVIGATION))
    def test_navigation_of_a_missing_node_raises(self, any_backend, verb):
        db = any_backend
        ref = db.create_node(_node(1))
        db.commit()
        missing = 987_654_321  # no backend ever allocates this ref
        with pytest.raises(NodeNotFoundError):
            NAVIGATION[verb](db, ref, missing)


class TestContent:
    TEXT = "version1 middle version1 end version1"

    def test_text_node_roundtrip(self, any_backend):
        db = any_backend
        ref = db.create_node(_node(1, kind=NodeKind.TEXT, text=self.TEXT))
        assert db.get_text(ref) == self.TEXT
        db.set_text(ref, self.TEXT + " more")
        assert db.get_text(ref).endswith("more")

    def test_bitmap_roundtrip_including_large(self, any_backend):
        db = any_backend
        big = Bitmap(400, 400)  # ~20 kB: exercises overflow paths
        big.invert_rect(50, 50, 25, 25)
        ref = db.create_node(_node(1, kind=NodeKind.FORM, bitmap=big))
        db.commit()
        loaded = db.get_bitmap(ref)
        assert loaded == big
        loaded.invert_rect(50, 50, 25, 25)
        db.set_bitmap(ref, loaded)
        assert db.get_bitmap(ref).is_white()

    def test_content_access_on_wrong_kind_rejected(self, any_backend):
        db = any_backend
        plain = db.create_node(_node(1))
        with pytest.raises(InvalidOperationError):
            db.get_text(plain)
        with pytest.raises(InvalidOperationError):
            db.get_bitmap(plain)
        with pytest.raises(InvalidOperationError):
            db.set_text(plain, "x")
        with pytest.raises(InvalidOperationError):
            db.set_bitmap(plain, Bitmap(8, 8))


class TestRangeAndScan:
    def test_range_lookups_match_brute_force(self, populated):
        db, gen = populated
        rng = random.Random(13)
        for _ in range(5):
            x = rng.randint(1, 90)
            result = {
                db.get_attribute(r, "uniqueId")
                for r in db.range_hundred(x, x + 9)
            }
            brute = {
                db.get_attribute(n, "uniqueId")
                for n in db.iter_nodes()
                if x <= db.get_attribute(n, "hundred") <= x + 9
            }
            assert result == brute

    def test_scan_counts_every_node(self, populated):
        db, gen = populated
        assert db.scan_ten() == gen.total_nodes
        assert db.node_count() == gen.total_nodes

    def test_structure_of_reports_tag(self, populated):
        db, gen = populated
        assert db.structure_of(db.lookup(gen.root_uid)) == 1


class TestNodeLists:
    def test_store_and_load_preserves_order(self, populated):
        db, gen = populated
        refs = [db.lookup(uid) for uid in (5, 2, 9, 1)]
        db.store_node_list("toc", refs)
        loaded = db.load_node_list("toc")
        assert [db.get_attribute(r, "uniqueId") for r in loaded] == [5, 2, 9, 1]

    def test_overwrite_replaces(self, populated):
        db, gen = populated
        db.store_node_list("toc", [db.lookup(1)])
        db.store_node_list("toc", [db.lookup(2), db.lookup(3)])
        loaded = db.load_node_list("toc")
        assert [db.get_attribute(r, "uniqueId") for r in loaded] == [2, 3]

    def test_empty_list_round_trips(self, populated):
        db, _gen = populated
        db.store_node_list("none", [])
        assert db.load_node_list("none") == []
        db.commit()
        db.close()
        db.open()
        assert db.load_node_list("none") == []

    def test_missing_list_raises(self, populated):
        db, _gen = populated
        with pytest.raises(NodeNotFoundError):
            db.load_node_list("ghost")

    def test_list_survives_commit_and_reopen(self, populated):
        db, _gen = populated
        db.store_node_list("toc", [db.lookup(4)])
        db.commit()
        db.close()
        db.open()
        loaded = db.load_node_list("toc")
        assert [db.get_attribute(r, "uniqueId") for r in loaded] == [4]


class TestFullStructure:
    def test_generated_structure_verifies_on_every_backend(self, populated):
        db, gen = populated
        verify_database(db, gen, content_sample=5).raise_if_failed()

    def test_structure_survives_close_and_reopen(self, populated):
        db, gen = populated
        db.close()
        db.open()
        verify_database(db, gen, content_sample=5).raise_if_failed()


class TestContextManager:
    def test_with_block_opens_and_closes(self, any_backend_name, tmp_path):
        db = make_backend(any_backend_name, tmp_path)
        assert not db.is_open
        with db as entered:
            assert entered is db
            assert db.is_open
            db.create_node(_node(1))
            db.commit()
        assert not db.is_open

    def test_exception_aborts_and_closes(self, any_backend_name, tmp_path):
        db = make_backend(any_backend_name, tmp_path)
        with pytest.raises(RuntimeError):
            with db:
                db.create_node(_node(1))
                raise RuntimeError("boom")
        assert not db.is_open
        if any_backend_name == "memory":
            return  # the in-process object graph has no rollback to observe
        # The open-create-raise block must not have committed node 1.
        with db:
            with pytest.raises(NodeNotFoundError):
                db.lookup(1)


@pytest.fixture(params=sorted(set(["memory", "sqlite", "sqlite-file",
                                   "oodb", "oodb-unclustered",
                                   "clientserver", "clientserver-bfs"])))
def any_backend_name(request):
    assert request.param in available_backends()
    return request.param


def _tiny_workload(db):
    """A few nodes, relationships, content and a commit — every counter
    family a backend emits fires at least once somewhere in here."""
    a = db.create_node(_node(1))
    b = db.create_node(_node(2, kind=NodeKind.TEXT, text="version1 x"))
    db.add_child(a, b)
    db.commit()
    assert db.get_attribute(db.lookup(1), "uniqueId") == 1
    assert "version1" in db.get_text(db.lookup(2))
    db.range_hundred(1, 10)
    db.scan_ten()


class TestInstrumentedConformance:
    """Every backend works with a live handle AND the no-op singleton."""

    def test_explicit_instrumentation_records(self, any_backend_name, tmp_path):
        instr = Instrumentation()
        with make_backend(
            any_backend_name, tmp_path, instrumentation=instr
        ) as db:
            assert db.instrumentation is instr
            _tiny_workload(db)
        assert instr.counters.total("") > 0, (
            f"{any_backend_name}: expected some counter activity"
        )

    def test_noop_instrumentation_stays_silent(self, any_backend_name, tmp_path):
        with make_backend(
            any_backend_name, tmp_path, instrumentation=NO_OP
        ) as db:
            assert db.instrumentation is NO_OP
            _tiny_workload(db)
        assert len(NO_OP.counters) == 0
        assert len(NO_OP.spans) == 0

    def test_default_resolves_to_the_global_handle(
        self, any_backend_name, tmp_path
    ):
        live = Instrumentation()
        previous = set_instrumentation(live)
        try:
            with make_backend(any_backend_name, tmp_path) as db:
                assert db.instrumentation is live
                _tiny_workload(db)
        finally:
            set_instrumentation(previous)
        assert live.counters.total("") > 0

    def test_default_without_global_is_the_noop(
        self, any_backend_name, tmp_path
    ):
        assert get_instrumentation() is NO_OP  # the suite never leaks one
        with make_backend(any_backend_name, tmp_path) as db:
            assert db.instrumentation is NO_OP
            _tiny_workload(db)

    def test_expected_counter_families(self, any_backend_name, tmp_path):
        """Each backend emits the counter family its docs promise."""
        instr = Instrumentation()
        with make_backend(
            any_backend_name, tmp_path, instrumentation=instr
        ) as db:
            _tiny_workload(db)
        counters = instr.counters
        if any_backend_name in ("memory", "sqlite", "sqlite-file"):
            assert counters.total("backend.op") > 0
        if any_backend_name in ("oodb", "oodb-unclustered"):
            assert counters.total("engine.buffer") > 0
            assert counters.total("engine.wal") > 0
            assert counters.get("engine.store.commits") >= 1
        if any_backend_name in ("clientserver", "clientserver-bfs"):
            assert counters.get("backend.rpc.round_trips") > 0
            assert counters.total("netsim.cache") > 0
