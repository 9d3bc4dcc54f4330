"""The section-7 parallel multi-user loads over one shared server."""

import pytest

from repro.backends.clientserver import ClientServerDatabase
from repro.concurrency.multiuser import MultiUserHarness
from repro.core.config import HyperModelConfig
from repro.core.generator import DatabaseGenerator
from repro.netsim.config import NetworkConfig
from repro.netsim.server import ObjectServer


@pytest.fixture
def shared_server():
    server = ObjectServer()
    loader = ClientServerDatabase(server=server)
    loader.open()
    gen = DatabaseGenerator(HyperModelConfig(levels=3, seed=17)).generate(loader)
    loader.commit()
    loader.close()
    return server, gen


def read_mix(shared, users, operations_per_user, seed=1989):
    harness = MultiUserHarness(*shared, users=users, seed=seed)
    return harness.run_read_mix(operations_per_user=operations_per_user)


def disjoint_updates(shared, users, edits_per_user, concurrency="none"):
    harness = MultiUserHarness(
        *shared,
        users=users,
        seed=1990,
        network=NetworkConfig(concurrency=concurrency),
    )
    return harness.run_disjoint_updates(edits_per_user=edits_per_user)


class TestReadLoad:
    def test_single_user_baseline(self, shared_server):
        result = read_mix(shared_server, users=1, operations_per_user=20)
        assert result.total_operations == 20
        assert result.server_seconds > 0
        assert len(result.per_user_cache_hit_ratio) == 1

    def test_more_users_more_server_time(self, shared_server):
        one = read_mix(shared_server, users=1, operations_per_user=20, seed=3)
        four = read_mix(shared_server, users=4, operations_per_user=20, seed=3)
        # The shared server serializes requests: total time grows with
        # users (R6's centralized-control cost) ...
        assert four.server_seconds > one.server_seconds
        # ... while aggregate throughput stays in the same ballpark
        # (each user's working set caches independently).
        assert four.total_operations == 80

    def test_caches_warm_up_per_user(self, shared_server):
        result = read_mix(shared_server, users=2, operations_per_user=40)
        for hit_ratio in result.per_user_cache_hit_ratio:
            assert hit_ratio > 0.3  # repeated inputs hit the cache

    def test_deterministic_for_seed(self, shared_server):
        kwargs = dict(users=2, operations_per_user=10, seed=9)
        first = read_mix(shared_server, **kwargs)
        second = read_mix(shared_server, **kwargs)
        assert first.server_seconds == pytest.approx(second.server_seconds)


class TestUpdateLoad:
    @pytest.mark.parametrize("concurrency", ["none", "optimistic"])
    def test_disjoint_edits_all_visible_everywhere(
        self, shared_server, concurrency
    ):
        """R9: users updating different nodes of one structure never
        conflict — under optimistic validation each user's commit is
        one validated ``commit_batch``."""
        stats = shared_server[0].stats
        commits, conflicts = stats.commits, stats.commit_conflicts
        result = disjoint_updates(
            shared_server, users=3, edits_per_user=2, concurrency=concurrency
        )
        assert result.total_edits == 6
        assert result.all_edits_visible_everywhere
        assert stats.commit_conflicts == conflicts
        validated = 3 if concurrency == "optimistic" else 0
        assert stats.commits - commits == validated

    def test_assignments_are_disjoint(self, shared_server):
        result = disjoint_updates(shared_server, users=4, edits_per_user=2)
        seen = set()
        for uids in result.published.values():
            for uid in uids:
                assert uid not in seen
                seen.add(uid)

    def test_too_many_users_rejected(self, shared_server):
        with pytest.raises(ValueError, match="too few text nodes"):
            disjoint_updates(shared_server, users=200, edits_per_user=10)
