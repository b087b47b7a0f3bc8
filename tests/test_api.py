"""Tests for the repro.api cluster façade."""

import pytest

from repro.api import SYSTEMS, Cluster, ScenarioFailed, system_spec
from repro.errors import ReproError
from repro.kv.client import KvClient, KvRequestFailed
from repro.shard.router import ShardRouter
from repro.sim import MS, SEC


def roundtrip(cluster):
    client = cluster.client()

    def scenario():
        yield from cluster.ready()
        yield from client.put(b"user:42", b"Ada Lovelace")
        value = yield from client.get(b"user:42")
        return value

    return cluster.run(scenario())


class TestBuild:
    def test_sift_roundtrip(self):
        cluster = Cluster.build("sift", seed=7)
        assert roundtrip(cluster) == b"Ada Lovelace"

    def test_sift_ec_roundtrip(self):
        cluster = Cluster.build("sift-ec", seed=7)
        assert roundtrip(cluster) == b"Ada Lovelace"

    def test_sift_recovery_partitions_knob_reaches_the_group(self):
        cluster = Cluster.build("sift", seed=7, recovery_partitions=4)
        assert cluster.inner.config.recovery_partitions == 4
        assert roundtrip(cluster) == b"Ada Lovelace"

    def test_raft_roundtrip(self):
        cluster = Cluster.build("raft-r", seed=7)
        assert roundtrip(cluster) == b"Ada Lovelace"

    def test_epaxos_roundtrip(self):
        cluster = Cluster.build("epaxos", seed=7)
        assert roundtrip(cluster) == b"Ada Lovelace"

    def test_sharded_roundtrip_and_client_type(self):
        cluster = Cluster.build("sharded", seed=7, shards=2, backups=1)
        assert isinstance(cluster.client(), ShardRouter)
        assert roundtrip(cluster) == b"Ada Lovelace"

    def test_non_sharded_client_is_kv_client(self):
        cluster = Cluster.build("sift")
        assert isinstance(cluster.client(), KvClient)

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            system_spec("spanner")
        assert "sharded" in SYSTEMS

    def test_shared_fabric_colocates_two_systems(self):
        first = Cluster.build("sift", seed=3)
        second = Cluster.build("sharded", fabric=first.fabric, shards=2)
        assert second.sim is first.sim
        assert roundtrip(first) == b"Ada Lovelace"
        assert roundtrip(second) == b"Ada Lovelace"


class TestRun:
    def test_wait_ready_and_preload(self):
        cluster = Cluster.build("sift", seed=5)
        cluster.wait_ready()
        cluster.preload([(b"pre:%d" % i, b"v%d" % i) for i in range(10)])
        client = cluster.client()

        def scenario():
            value = yield from client.get(b"pre:3")
            return value

        assert cluster.run(scenario()) == b"v3"

    def test_run_reraises_scenario_exception(self):
        cluster = Cluster.build("sift", seed=5)
        cluster.wait_ready()
        client = cluster.client(request_timeout_us=5 * MS, max_rounds=2)
        for node in list(cluster.inner.cpu_nodes):
            node.crash()

        def scenario():
            yield from client.put(b"k", b"v")

        with pytest.raises(KvRequestFailed) as excinfo:
            cluster.run(scenario())
        # Unified hierarchy: request failures are retryable ReproErrors.
        assert isinstance(excinfo.value, ReproError)
        assert excinfo.value.retryable

    def test_run_flags_unsettled_scenario(self):
        cluster = Cluster.build("sift", seed=5)

        def stall():
            while True:
                yield cluster.sim.timeout(1 * SEC)

        with pytest.raises(ScenarioFailed):
            cluster.run(stall(), deadline_us=2 * SEC)

    def test_run_without_process_advances_time(self):
        cluster = Cluster.build("sift", seed=5)
        target = cluster.sim.now + 1 * SEC
        cluster.run(until=target)
        assert cluster.sim.now == target


class TestLegacyKwargs:
    def test_legacy_duration_kwarg_is_rejected(self):
        # Durations are spelled *_us; the pre-rename names are gone.
        cluster = Cluster.build("sift", seed=5)
        with pytest.raises(TypeError, match="request_timeout"):
            cluster.client(request_timeout=7 * MS)
