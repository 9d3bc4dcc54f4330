"""The B+tree: splits, duplicates, ranges, deletes and invariants."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import btree
from repro.engine.btree import ORDER, BTree
from repro.engine.buffer import BufferPool
from repro.engine.pages import PageFile
from repro.errors import PageError


@pytest.fixture
def tree(tmp_path):
    pf = PageFile(str(tmp_path / "t.db"))
    pool = BufferPool(pf, capacity=64)
    tree = BTree(pool, 0)
    yield tree
    pool.flush_all()
    pf.close()


class TestBasics:
    def test_empty_tree(self, tree):
        assert tree.search(1) == []
        assert tree.search_unique(1) is None
        assert len(tree) == 0

    def test_insert_and_search(self, tree):
        tree.insert(10, 100)
        tree.insert(20, 200)
        assert tree.search_unique(10) == 100
        assert tree.search_unique(20) == 200
        assert tree.search_unique(15) is None

    def test_exact_duplicate_entry_rejected(self, tree):
        tree.insert(5, 50)
        with pytest.raises(PageError):
            tree.insert(5, 50)

    def test_duplicate_keys_with_distinct_values(self, tree):
        for value in (7, 3, 9):
            tree.insert(1, value)
        assert tree.search(1) == [3, 7, 9]  # discriminator order

    def test_negative_keys_supported(self, tree):
        tree.insert(-100, 1)
        tree.insert(0, 2)
        tree.insert(100, 3)
        assert [k for k, _v in tree.scan_all()] == [-100, 0, 100]

    def test_contains(self, tree):
        tree.insert(4, 44)
        assert tree.contains(4, 44)
        assert not tree.contains(4, 45)
        assert not tree.contains(5, 44)


class TestSplits:
    def test_many_sequential_inserts(self, tree):
        # Leaf splits under one root only: ~12 leaves.  An internal
        # split needs > 14 000 keys at the real ORDER — see
        # test_property_small_order_tree_matches_model below.
        count = ORDER * 6
        for key in range(count):
            tree.insert(key, key * 2)
        assert len(tree) == count
        for key in (0, 1, ORDER, count - 1, count // 2):
            assert tree.search_unique(key) == key * 2
        tree.check_invariants()

    def test_many_random_inserts(self, tree):
        rng = random.Random(8)
        keys = list(range(ORDER * 4))
        rng.shuffle(keys)
        for key in keys:
            tree.insert(key, key)
        assert [k for k, _v in tree.scan_all()] == sorted(keys)
        tree.check_invariants()

    def test_root_grows_in_height(self, tree):
        first_root = tree.root
        for key in range(ORDER + 1):
            tree.insert(key, key)
        assert tree.root != first_root


class TestNodeCache:
    def test_cache_fills_on_reads_and_serves_hits(self, tree):
        for key in range(ORDER * 3):
            tree.insert(key, key)
        tree._nodes.clear()
        assert tree.search_unique(5) == 5
        cached = len(tree._nodes)
        assert cached > 0
        assert tree.search_unique(5) == 5  # same path: no new entries
        assert len(tree._nodes) == cached

    def test_write_invalidates_touched_nodes(self, tree):
        """A dirty unpin bumps the frame LSN; the cached view for that
        page must be rebuilt, not served stale."""
        for key in range(ORDER * 3):
            tree.insert(key, key)
        assert tree.search_unique(1) == 1  # populate node views
        tree.update_value(1, 1, 999)
        assert tree.search_unique(1) == 999

    def test_results_identical_with_and_without_cache(self, tree):
        rng = random.Random(31)
        keys = list(range(ORDER * 4))
        rng.shuffle(keys)
        for key in keys:
            tree.insert(key, key * 3)
        with_cache = list(tree.scan_range(10, ORDER * 2))
        tree._nodes.clear()
        assert list(tree.scan_range(10, ORDER * 2)) == with_cache

    def test_cache_survives_interleaved_deletes(self, tree):
        for key in range(ORDER * 2):
            tree.insert(key, key)
        assert tree.search_unique(3) == 3
        tree.delete(3, 3)
        assert tree.search_unique(3) is None
        assert tree.search_unique(4) == 4
        tree.check_invariants()


class TestRangeScan:
    def test_range_bounds_inclusive(self, tree):
        for key in range(1, 101):
            tree.insert(key, key * 10)
        result = list(tree.scan_range(40, 49))
        assert [k for k, _v in result] == list(range(40, 50))
        assert result[0] == (40, 400)

    def test_range_crossing_leaves(self, tree):
        for key in range(ORDER * 3):
            tree.insert(key, key)
        span = list(tree.scan_range(ORDER - 5, ORDER + 5))
        assert [k for k, _v in span] == list(range(ORDER - 5, ORDER + 6))

    def test_empty_range(self, tree):
        tree.insert(1, 1)
        tree.insert(100, 100)
        assert list(tree.scan_range(10, 50)) == []

    def test_range_with_duplicates(self, tree):
        for value in range(5):
            tree.insert(7, value)
        assert [v for _k, v in tree.scan_range(7, 7)] == [0, 1, 2, 3, 4]


class TestDelete:
    def test_delete_present_and_absent(self, tree):
        tree.insert(1, 10)
        assert tree.delete(1, 10)
        assert not tree.delete(1, 10)
        assert tree.search(1) == []

    def test_delete_one_duplicate_keeps_others(self, tree):
        for value in (1, 2, 3):
            tree.insert(9, value)
        tree.delete(9, 2)
        assert tree.search(9) == [1, 3]

    def test_mass_delete_then_reinsert(self, tree):
        for key in range(ORDER * 2):
            tree.insert(key, key)
        for key in range(0, ORDER * 2, 2):
            assert tree.delete(key, key)
        assert len(tree) == ORDER
        for key in range(0, ORDER * 2, 2):
            tree.insert(key, key + 1)
        assert len(tree) == ORDER * 2
        tree.check_invariants()


class TestUpdateValue:
    def test_update_value_in_place(self, tree):
        tree.insert(3, 30, disc=0)
        assert tree.update_value(3, 0, 99)
        assert tree.search_unique(3) == 99

    def test_update_missing_returns_false(self, tree):
        assert not tree.update_value(3, 0, 99)


class TestPersistence:
    def test_tree_survives_reopen(self, tmp_path):
        path = str(tmp_path / "persist.db")
        pf = PageFile(path)
        pool = BufferPool(pf, capacity=64)
        tree = BTree(pool, 0)
        for key in range(500):
            tree.insert(key, key * 3)
        root = tree.root
        pool.flush_all()
        pf.sync()
        pf.close()

        pf2 = PageFile(path)
        tree2 = BTree(BufferPool(pf2, capacity=64), root)
        assert tree2.search_unique(123) == 369
        assert len(tree2) == 500
        pf2.close()


@settings(max_examples=30, deadline=None)
@given(
    entries=st.lists(
        st.tuples(st.integers(-1000, 1000), st.integers(0, 100_000)),
        max_size=400,
        unique=True,
    ),
    deletions=st.sets(st.integers(0, 399), max_size=200),
)
def test_property_btree_matches_sorted_model(tmp_path_factory, entries, deletions):
    """Insert/delete sequences agree with a sorted-list reference model."""
    base = tmp_path_factory.mktemp("btree-prop")
    pf = PageFile(str(base / "m.db"))
    tree = BTree(BufferPool(pf, capacity=64), 0)
    model = []
    for key, value in entries:
        tree.insert(key, value)
        model.append((key, value))
    for index in sorted(deletions, reverse=True):
        if index < len(model):
            key, value = model.pop(index)
            assert tree.delete(key, value)
    model.sort()
    assert list(tree.scan_all()) == model
    tree.check_invariants()
    if model:
        low = model[len(model) // 3][0]
        high = model[2 * len(model) // 3][0]
        if low <= high:
            expected = [(k, v) for k, v in model if low <= k <= high]
            assert list(tree.scan_range(low, high)) == expected
    pf.close()


def _height(tree):
    height, pid = 1, tree.root
    while tree._node(pid).node_type != btree._LEAF:
        height, pid = height + 1, tree._node(pid).link
    return height


@settings(max_examples=25, deadline=None)
@given(order=st.integers(4, 8), seed=st.integers(0, 2**32 - 1))
def test_property_small_order_tree_matches_model(tmp_path_factory, order, seed):
    """Interleaved insert / delete / update_value on a tree whose nodes
    hold 4-8 entries, so internal nodes split (and the root splits
    twice) within a few hundred steps.  Few keys, many discriminators:
    duplicate keys straddle leaves and separators; deleted pairs come
    back.  Every step is checked against a ``{(key, disc): value}``
    model and ``check_invariants``; the tree is then re-read from disk.
    """
    rng = random.Random(seed)
    path = str(tmp_path_factory.mktemp("btree-small") / "s.db")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(btree, "ORDER", order)
        pf = PageFile(path)
        pool = BufferPool(pf, capacity=8)
        tree = BTree(pool, 0)
        model, graveyard = {}, []

        def expected():
            return [(key, model[key, disc]) for key, disc in sorted(model)]

        for step in range(400):
            roll = rng.random()
            if roll < 0.6 or not model:
                if graveyard and rng.random() < 0.3:
                    pair = graveyard.pop(rng.randrange(len(graveyard)))
                else:
                    pair = (rng.randrange(16), rng.randrange(40))
                if pair in model:
                    with pytest.raises(PageError):
                        tree.insert(pair[0], step, disc=pair[1])
                else:
                    tree.insert(pair[0], step, disc=pair[1])
                    model[pair] = step
            elif roll < 0.85:
                pair = rng.choice(sorted(model))
                assert tree.delete(pair[0], model.pop(pair), disc=pair[1])
                assert not tree.delete(pair[0], 0, disc=pair[1])
                graveyard.append(pair)
            elif roll < 0.98:
                pair = rng.choice(sorted(model))
                assert tree.update_value(pair[0], pair[1], -step)
                model[pair] = -step
                assert not tree.update_value(16, pair[1], 0)
            else:
                pool.flush_all()  # clean frames: evictions and reloads follow
            tree.check_invariants()
            assert list(tree.scan_all()) == expected()
        assert _height(tree) >= 3
        for key in range(16):
            assert tree.search(key) == [v for k, v in expected() if k == key]
        assert all(tree.contains(k, 0, disc=d) for k, d in model)
        root = tree.root
        pool.flush_all()
        pf.sync()
        pf.close()

        pf = PageFile(path)
        reopened = BTree(BufferPool(pf, capacity=8), root)
        reopened.check_invariants()
        assert list(reopened.scan_all()) == expected()
        pf.close()
