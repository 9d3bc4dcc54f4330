"""R7: the latency-profile arithmetic, and the rates it predicts as
measured on the simulated clock."""

import random

import pytest

from repro.backends.clientserver import ClientServerDatabase
from repro.core.config import HyperModelConfig
from repro.core.generator import DatabaseGenerator
from repro.core.operations import Operations
from repro.netsim.config import NetworkConfig
from repro.netsim.latency import LatencyModel, ZERO_COST
from repro.netsim.profiles import (
    LAN_1990,
    LAN_MODERN,
    PROFILES,
    R7_MAXIMUM_OBJECTS_PER_SECOND,
    R7_MINIMUM_OBJECTS_PER_SECOND,
    WAN,
    assess_r7,
    objects_per_second,
    r7_table,
)


class TestObjectsPerSecond:
    def test_matches_request_cost(self):
        model = LatencyModel(0.01, 1_000_000)
        # 10 ms + 100/1e6 s = 10.1 ms -> ~99 objects/s
        assert objects_per_second(model) == pytest.approx(1 / 0.0101)

    def test_zero_cost_is_unbounded(self):
        assert objects_per_second(ZERO_COST) == float("inf")

    def test_profiles_are_ordered_sensibly(self):
        assert (
            objects_per_second(LAN_MODERN)
            > objects_per_second(LAN_1990)
            > objects_per_second(WAN)
        )


class TestR7Assessment:
    def test_1990_lan_needs_the_cache(self):
        """The paper's own conclusion: ~500 objects/s over a 2 ms LAN
        meets the floor but not the 10k ceiling — caching is needed."""
        assessment = assess_r7("lan-1990", LAN_1990)
        assert assessment.meets_minimum
        assert not assessment.meets_maximum
        assert assessment.cache_required
        assert 100 < assessment.uncached_objects_per_second < 1000

    def test_wan_misses_even_the_floor(self):
        assessment = assess_r7("wan", WAN)
        assert not assessment.meets_minimum
        assert assessment.uncached_objects_per_second < (
            R7_MINIMUM_OBJECTS_PER_SECOND
        )

    def test_modern_lan_reaches_the_ceiling(self):
        assessment = assess_r7("lan-modern", LAN_MODERN)
        assert assessment.meets_maximum
        assert assessment.uncached_objects_per_second > (
            R7_MAXIMUM_OBJECTS_PER_SECOND
        )
        assert not assessment.cache_required

    def test_table_lists_every_profile(self):
        table = r7_table()
        for name in PROFILES:
            assert name in table
        assert "needed" in table  # at least one profile needs the cache

    @pytest.mark.parametrize("pushdown", [True, False], ids=["pushdown", "bfs"])
    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_measured_cold_closure_rate_matches_the_model(self, name, pushdown):
        """30 cold ``closure1N`` on the simulated clock, per profile."""
        network = NetworkConfig(latency=PROFILES[name], pushdown=pushdown)
        db = ClientServerDatabase(network=network)
        db.open()
        gen = DatabaseGenerator(HyperModelConfig(levels=3)).generate(db)
        db.commit()
        ops, rng = Operations(db, gen.config), random.Random(31)
        clock, nodes, seconds = db.simulated_clock, 0, 0.0
        for _ in range(30):
            start = db.lookup(gen.random_uid_at_level(rng, 2))
            db.cache.clear()
            before = clock.now
            nodes += len(ops.closure_1n(start))
            seconds += clock.now - before
        measured = nodes / seconds
        assessment = assess_r7(name, PROFILES[name])
        assert (measured >= R7_MAXIMUM_OBJECTS_PER_SECOND) == (
            not assessment.cache_required
        )
        # Batching never loses to faulting one object per round trip.
        assert measured >= assessment.uncached_objects_per_second
        before = clock.now
        ops.closure_1n(start)  # warm: served by the cache
        assert clock.now == before
        db.close()
