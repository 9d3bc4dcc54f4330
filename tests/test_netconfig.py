"""Typed netsim configuration and the removed per-knob keywords."""

import pytest

from repro.backends import create_backend
from repro.backends.clientserver import ClientServerDatabase
from repro.errors import ConfigurationError
from repro.netsim.config import NetworkConfig, SimConfig
from repro.netsim.faults import FaultModel
from repro.netsim.latency import LatencyModel


class TestNetworkConfig:
    def test_defaults(self):
        config = NetworkConfig()
        assert config.cache_capacity == 4096
        assert config.pushdown is True
        assert config.concurrency == "none"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(cache_capacity=0)
        with pytest.raises(ConfigurationError):
            NetworkConfig(rpc_retries=-1)
        with pytest.raises(ConfigurationError):
            NetworkConfig(rpc_backoff_seconds=-0.1)
        with pytest.raises(ConfigurationError):
            NetworkConfig(readahead_depth=-1)
        with pytest.raises(ConfigurationError):
            NetworkConfig(concurrency="pessimistic")

    def test_replace(self):
        base = NetworkConfig()
        variant = base.replace(pushdown=False, cache_capacity=16)
        assert variant.pushdown is False
        assert variant.cache_capacity == 16
        assert base.pushdown is True  # frozen original untouched
        with pytest.raises(ConfigurationError):
            base.replace(concurrency="bogus")


class TestSimConfig:
    def test_defaults(self):
        sim = SimConfig()
        assert sim.think_time_seconds > 0
        assert sim.zipf_theta == pytest.approx(0.8)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SimConfig(think_time_seconds=-1)
        with pytest.raises(ConfigurationError):
            SimConfig(service_time_seconds=-0.1)
        with pytest.raises(ConfigurationError):
            SimConfig(fsync_seconds=-0.1)
        with pytest.raises(ConfigurationError):
            SimConfig(zipf_theta=-0.5)
        with pytest.raises(ConfigurationError):
            SimConfig(retry_backoff_seconds=-0.1)

    def test_replace(self):
        sim = SimConfig().replace(think_time_seconds=0.0)
        assert sim.think_time_seconds == 0.0


class TestDeprecatedKeywords:
    """The old per-knob constructor kwargs are gone: ``network=`` is
    the one way in."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cache_capacity": 64},
            {"latency": LatencyModel(round_trip_seconds=0.002)},
            {"fault_model": FaultModel(seed=1)},
            {"rpc_retries": 2},
            {"rpc_backoff_seconds": 0.001},
            {"pushdown": False},
            {"readahead_depth": 0},
        ],
    )
    def test_each_removed_kwarg_is_rejected(self, kwargs):
        with pytest.raises(TypeError):
            ClientServerDatabase(**kwargs)
        # ... and the typed config carries the same knob.
        db = ClientServerDatabase(network=NetworkConfig(**kwargs))
        (name, value), = kwargs.items()
        assert getattr(db.network, name) == value

    def test_network_config_does_not_warn(self, recwarn):
        ClientServerDatabase(network=NetworkConfig(cache_capacity=32))
        assert not [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]

    def test_registry_bfs_variant_does_not_warn(self, recwarn):
        db = create_backend("clientserver-bfs")
        assert db.pushdown is False
        assert not [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]

    def test_registry_accepts_network_option(self):
        db = create_backend(
            "clientserver", network=NetworkConfig(readahead_depth=0)
        )
        assert db.readahead_depth == 0


class TestReplicationConfig:
    def test_defaults(self):
        from repro.netsim.config import ReplicationConfig

        config = ReplicationConfig()
        assert config.replicas == 2
        assert config.apply_lag_seconds == 0.0

    def test_validation(self):
        from repro.netsim.config import ReplicationConfig

        with pytest.raises(ConfigurationError):
            ReplicationConfig(replicas=0)
        with pytest.raises(ConfigurationError):
            ReplicationConfig(apply_lag_seconds=-0.1)

    def test_replace(self):
        from repro.netsim.config import ReplicationConfig

        base = ReplicationConfig()
        variant = base.replace(replicas=4, apply_lag_seconds=0.5)
        assert variant.replicas == 4
        assert variant.apply_lag_seconds == 0.5
        assert base.replicas == 2

    def test_replication_and_sharding_exclusive(self):
        from repro.netsim.config import ReplicationConfig, ShardConfig

        with pytest.raises(ConfigurationError):
            NetworkConfig(
                replication=ReplicationConfig(),
                sharding=ShardConfig(shards=2),
            )
