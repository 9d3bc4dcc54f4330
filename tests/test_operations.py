"""Semantics of the twenty benchmark operations (section 6)."""

import random

import pytest

from repro.core.operations import CATALOG, Operations
from repro.core.text import VERSION_1, VERSION_2


@pytest.fixture
def ops(memory_populated):
    db, gen = memory_populated
    return Operations(db, gen.config), db, gen


def _level3_start(db, gen, seed=5):
    rng = random.Random(seed)
    return db.lookup(gen.random_uid_at_level(rng, 2))  # deepest internal level


class TestNameLookup:
    def test_op01_returns_hundred_by_key(self, ops):
        operations, db, gen = ops
        node = db.lookup(77)
        assert operations.name_lookup(77) == db.get_attribute(node, "hundred")

    def test_op02_returns_hundred_by_reference(self, ops):
        operations, db, _gen = ops
        node = db.lookup(42)
        assert operations.name_oid_lookup(node) == db.get_attribute(node, "hundred")


class TestRangeLookup:
    def test_op03_ten_percent_selectivity_shape(self, ops):
        operations, db, gen = ops
        result = operations.range_lookup_hundred(41)
        for ref in result:
            assert 41 <= db.get_attribute(ref, "hundred") <= 50
        brute = [
            n
            for n in db.iter_nodes()
            if 41 <= db.get_attribute(n, "hundred") <= 50
        ]
        assert len(result) == len(brute)

    def test_op04_million_range(self, ops):
        operations, db, _gen = ops
        result = operations.range_lookup_million(100_000)
        for ref in result:
            assert 100_000 <= db.get_attribute(ref, "million") <= 109_999


class TestGroupLookup:
    def test_op05a_returns_five_ordered_children(self, ops):
        operations, db, gen = ops
        node = _level3_start(db, gen)
        children = operations.group_lookup_1n(node)
        assert len(children) == 5
        assert children == db.children(node)  # ordered, stable

    def test_op05b_returns_five_parts(self, ops):
        operations, db, gen = ops
        node = _level3_start(db, gen)
        assert len(operations.group_lookup_mn(node)) == 5

    def test_op06_returns_single_referenced_node(self, ops):
        operations, db, gen = ops
        node = db.lookup(gen.random_uid(random.Random(8)))
        assert len(operations.group_lookup_mnatt(node)) == 1


class TestReferenceLookup:
    def test_op07a_parent_of_non_root(self, ops):
        operations, db, gen = ops
        node = db.lookup(gen.random_non_root_uid(random.Random(9)))
        parents = operations.ref_lookup_1n(node)
        assert len(parents) == 1
        assert node in db.children(parents[0])

    def test_op07a_root_has_no_parent(self, ops):
        operations, db, gen = ops
        assert operations.ref_lookup_1n(db.lookup(gen.root_uid)) == []

    def test_op07b_inverse_of_parts(self, ops):
        operations, db, gen = ops
        node = _level3_start(db, gen)
        for part in db.parts(node):
            assert node in operations.ref_lookup_mn(part)

    def test_op08_possibly_empty_inverse_references(self, ops):
        operations, db, gen = ops
        total = 0
        for uid in range(1, 157):
            node = db.lookup(uid)
            referrers = operations.ref_lookup_mnatt(node)
            for referrer in referrers:
                targets = [t for t, _a in db.refs_to(referrer)]
                assert node in targets
            total += len(referrers)
        assert total == 156  # one outgoing ref per node, globally


class TestSeqScan:
    def test_op09_visits_every_node_once(self, ops):
        operations, _db, gen = ops
        assert operations.seq_scan() == gen.total_nodes


class TestClosureTraversals:
    def test_op10_preorder_order_and_size(self, ops):
        operations, db, gen = ops
        start = _level3_start(db, gen)
        result = operations.closure_1n(start)
        assert len(result) == 6  # level-3 node + 5 leaves at this scale
        assert result[0] is start
        assert result[1:] == db.children(start)

    def test_op10_preorder_from_root_is_depth_first(self, ops):
        operations, db, gen = ops
        root = db.lookup(gen.root_uid)
        result = operations.closure_1n(root)
        assert len(result) == gen.total_nodes
        # Pre-order: the second element is the first child, and that
        # child's whole subtree precedes the second child.
        first_child, second_child = db.children(root)[:2]
        assert result[1] is first_child
        subtree_size = 1 + 5 + 25  # child at level 1 in a level-3 db
        assert result[1 + subtree_size] is second_child

    def test_op14_counts_visits_not_distinct_nodes(self, ops):
        operations, db, gen = ops
        start = _level3_start(db, gen)
        result = operations.closure_mn(start)
        assert len(result) == 6  # 1 + 5 parts (leaves have none)

    def test_op14_from_root_matches_paper_arithmetic(self, ops):
        operations, db, gen = ops
        root = db.lookup(gen.root_uid)
        # Visits: 1 + 5 + 25 + 125 regardless of sharing.
        assert len(operations.closure_mn(root)) == 156

    def test_op15_depth_limited_walk(self, ops):
        operations, db, gen = ops
        start = _level3_start(db, gen)
        assert len(operations.closure_mnatt(start)) == 25
        assert len(operations.closure_mnatt(start, depth=7)) == 7

    def test_op15_follows_the_single_reference_chain(self, ops):
        operations, db, gen = ops
        start = _level3_start(db, gen)
        result = operations.closure_mnatt(start, depth=3)
        node = start
        for expected in result:
            (target, _attrs), = db.refs_to(node)
            assert target is expected
            node = target


class TestClosureOperations:
    def test_op11_sum_matches_manual_walk(self, ops):
        operations, db, gen = ops
        start = _level3_start(db, gen)
        manual = sum(
            db.get_attribute(n, "hundred")
            for n in operations.closure_1n(start)
        )
        assert operations.closure_1n_att_sum(start) == manual

    def test_op12_set_is_self_inverse(self, ops):
        operations, db, gen = ops
        start = _level3_start(db, gen)
        before = [
            db.get_attribute(n, "hundred") for n in operations.closure_1n(start)
        ]
        count = operations.closure_1n_att_set(start)
        assert count == 6
        during = [
            db.get_attribute(n, "hundred") for n in operations.closure_1n(start)
        ]
        assert during == [99 - v for v in before]
        operations.closure_1n_att_set(start)
        after = [
            db.get_attribute(n, "hundred") for n in operations.closure_1n(start)
        ]
        assert after == before

    def test_op13_excludes_and_prunes(self, ops):
        operations, db, gen = ops
        root = db.lookup(gen.root_uid)
        # Pick a window that is guaranteed to hit at least one node.
        some_million = db.get_attribute(db.lookup(40), "million")
        x = max(1, some_million - 5000)

        def expected(node):
            if x <= db.get_attribute(node, "million") <= x + 9999:
                return []  # excluded AND recursion terminates here
            collected = [node]
            for child in db.children(node):
                collected.extend(expected(child))
            return collected

        result = operations.closure_1n_pred(root, x)
        assert {db.get_attribute(n, "uniqueId") for n in result} == {
            db.get_attribute(n, "uniqueId") for n in expected(root)
        }
        assert len(result) < gen.total_nodes  # something was pruned

    def test_op13_no_matches_returns_whole_closure(self, ops):
        operations, db, gen = ops
        start = _level3_start(db, gen)
        closure = operations.closure_1n(start)
        if all(
            not (990_000 <= db.get_attribute(n, "million") <= 999_999)
            for n in closure
        ):
            assert operations.closure_1n_pred(start, 990_000) == closure

    def test_op18_distances_accumulate_offset_to(self, ops):
        operations, db, gen = ops
        start = _level3_start(db, gen)
        pairs = operations.closure_mnatt_linksum(start, depth=5)
        assert len(pairs) == 5
        node, running = start, 0
        for reached, distance in pairs:
            (target, attrs), = db.refs_to(node)
            running += attrs.offset_to
            assert reached is target
            assert distance == running
            node = target


class TestEditing:
    def test_op16_alternates_and_round_trips(self, ops):
        operations, db, gen = ops
        node = db.lookup(gen.random_text_uid(random.Random(3)))
        original = db.get_text(node)
        operations.text_node_edit(node)
        assert VERSION_2 in db.get_text(node)
        assert VERSION_1 not in db.get_text(node).split(" ")
        operations.text_node_edit(node)
        assert db.get_text(node) == original

    def test_op17_inverts_the_same_rectangle(self, ops):
        operations, db, gen = ops
        node = db.lookup(gen.random_form_uid(random.Random(4)))
        operations.form_node_edit(node)
        assert db.get_bitmap(node).popcount() == 625
        operations.form_node_edit(node)
        assert db.get_bitmap(node).is_white()


def _closure_size(gen):
    return gen.config.closure_1n_size(min(3, gen.config.levels - 1))


#: What an operation returns when its input comes from the catalog's own
#: input maker (the section 5.3(a) draw ``repro run`` uses), for the
#: operations whose tests above pick their inputs by hand.
CATALOG_SHAPES = {
    "03": lambda r, gen: len(r) >= 1,  # a 10% window is never empty
    "07A": lambda r, gen: len(r) == 1,  # the draw excludes the root
    "10": lambda r, gen: len(r) == _closure_size(gen),  # a level-3 start
    "11": lambda r, gen: r > 0,
    "14": lambda r, gen: len(r) == _closure_size(gen),
    "18": lambda r, gen: len(r) == gen.config.closure_depth
    and all(distance >= 0 for _node, distance in r),
}


class TestCatalog:
    def test_all_twenty_operations_present(self):
        assert len(CATALOG) == 20
        assert CATALOG.op_ids == [
            "01", "02", "03", "04", "05A", "05B", "06", "07A", "07B",
            "08", "09", "10", "11", "12", "13", "14", "15", "16", "17", "18",
        ]

    def test_seven_categories_in_paper_order(self):
        assert CATALOG.categories == [
            "Name Lookup",
            "Range Lookup",
            "Group Lookup",
            "Reference Lookup",
            "Sequential Scan",
            "Closure Traversal",
            "Closure Operation",
            "Editing",
        ]

    def test_category_membership(self):
        assert [s.op_id for s in CATALOG.in_category("Editing")] == ["16", "17"]
        assert [s.op_id for s in CATALOG.in_category("Closure Traversal")] == [
            "10", "14", "15",
        ]

    def test_mutating_flags(self):
        for op_id in ("12", "16", "17"):
            assert CATALOG.get(op_id).mutates
        for op_id in ("01", "10", "15"):
            assert not CATALOG.get(op_id).mutates

    def test_op17_reuses_one_input(self):
        assert CATALOG.get("17").same_input_every_repetition
        assert not CATALOG.get("16").same_input_every_repetition

    def test_unknown_op_id_raises(self):
        with pytest.raises(KeyError):
            CATALOG.get("99")

    @pytest.mark.parametrize("op_id", sorted(CATALOG_SHAPES))
    def test_catalog_inputs_give_the_papers_result_shape(
        self, memory_populated, op_id
    ):
        db, gen = memory_populated
        rng = random.Random(1988)
        operations = Operations(db, gen.config)
        spec = CATALOG.get(op_id)
        for _ in range(50):  # the paper's repetition count
            result = spec.run(operations, spec.make_input(gen, rng, db))
            assert CATALOG_SHAPES[op_id](result, gen), (op_id, result)

    def test_input_makers_produce_valid_inputs(self, memory_populated):
        db, gen = memory_populated
        rng = random.Random(0)
        operations = Operations(db, gen.config)
        for spec in CATALOG:
            args = spec.make_input(gen, rng, db)
            result = spec.run(operations, args)
            assert spec.result_size(result, gen) >= 1
