"""Unit tests for the zipfian generator, YCSB workload and configuration."""

import random

import pytest

from repro.common.config import (
    DeploymentConfig,
    ProtocolConfig,
    WorkloadConfig,
    sequential_variant,
)
from repro.common.errors import ConfigurationError
from repro.workload import YcsbWorkload, ZipfianGenerator
from repro.workload.ycsb import VALUE_SIZE


class TestZipfian:
    def test_values_in_range(self):
        gen = ZipfianGenerator(100, 0.9, random.Random(1))
        for value in gen.sample(500):
            assert 0 <= value < 100

    def test_skew_concentrates_on_small_keys(self):
        gen = ZipfianGenerator(1000, 0.9, random.Random(1))
        sample = gen.sample(3000)
        top_fraction = sum(1 for v in sample if v < 100) / len(sample)
        assert top_fraction > 0.5

    def test_theta_zero_is_roughly_uniform(self):
        gen = ZipfianGenerator(10, 0.0, random.Random(1))
        sample = gen.sample(5000)
        counts = [sample.count(i) for i in range(10)]
        assert min(counts) > 300

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            ZipfianGenerator(0, 0.5, random.Random(1))
        with pytest.raises(ConfigurationError):
            ZipfianGenerator(10, 1.5, random.Random(1))

    def test_deterministic_given_seed(self):
        a = ZipfianGenerator(100, 0.9, random.Random(7)).sample(50)
        b = ZipfianGenerator(100, 0.9, random.Random(7)).sample(50)
        assert a == b


class TestYcsbWorkload:
    def make(self, write_fraction=0.5, seed=3):
        config = WorkloadConfig(num_clients=1, records=100,
                                write_fraction=write_fraction)
        return YcsbWorkload(config, random.Random(seed))

    def test_operations_reference_existing_keyspace(self):
        workload = self.make()
        for op in workload.next_operations(200):
            assert op.key.startswith("user")
            assert int(op.key[4:]) < 200  # zipfian can slightly overshoot bounds

    def test_write_fraction_respected(self):
        workload = self.make(write_fraction=1.0)
        assert all(op.action == "write" for op in workload.next_operations(50))
        workload = self.make(write_fraction=0.0)
        assert all(op.action == "read" for op in workload.next_operations(50))

    def test_write_values_have_configured_size(self):
        workload = self.make(write_fraction=1.0)
        op = workload.next_operation()
        assert len(op.value) == VALUE_SIZE

    def test_generated_counter(self):
        workload = self.make()
        workload.next_operations(10)
        assert workload.generated == 10


class TestDeterminism:
    """Same seed => identical streams; different seeds => different streams.

    Sharded experiments compare protocols across runs, so workload streams
    must be pure functions of (config, seed) — any hidden global state would
    silently skew a comparison.
    """

    def zipf_stream(self, seed, count=200):
        return ZipfianGenerator(500, 0.9, random.Random(seed)).sample(count)

    def ycsb_stream(self, seed, count=200):
        config = WorkloadConfig(num_clients=1, records=500, write_fraction=0.5)
        workload = YcsbWorkload(config, random.Random(seed))
        return [(op.action, op.key, op.value)
                for op in workload.next_operations(count)]

    def test_zipf_same_seed_identical(self):
        assert self.zipf_stream(11) == self.zipf_stream(11)

    def test_zipf_different_seeds_differ(self):
        assert self.zipf_stream(11) != self.zipf_stream(12)

    def test_ycsb_same_seed_identical(self):
        """Actions, keys and write payloads all replay identically."""
        assert self.ycsb_stream(3) == self.ycsb_stream(3)

    def test_ycsb_different_seeds_differ(self):
        assert self.ycsb_stream(3) != self.ycsb_stream(4)

    def test_ycsb_streams_are_independent_of_interleaving(self):
        """Two workloads drawn alternately equal two drawn back-to-back."""
        a1, b1 = (YcsbWorkload(WorkloadConfig(records=500), random.Random(s))
                  for s in (5, 6))
        interleaved_a, interleaved_b = [], []
        for _ in range(100):
            interleaved_a.append(a1.next_operation())
            interleaved_b.append(b1.next_operation())
        a2 = YcsbWorkload(WorkloadConfig(records=500), random.Random(5))
        b2 = YcsbWorkload(WorkloadConfig(records=500), random.Random(6))
        assert interleaved_a == a2.next_operations(100)
        assert interleaved_b == b2.next_operations(100)


class TestConfigValidation:
    def test_default_config_validates(self):
        config = DeploymentConfig(protocol="pbft", f=1)
        config.validate(n=4)

    def test_bad_write_fraction_rejected(self):
        config = DeploymentConfig(workload=WorkloadConfig(write_fraction=1.5))
        with pytest.raises(ConfigurationError):
            config.validate(n=4)

    def test_zero_clients_rejected(self):
        config = DeploymentConfig(workload=WorkloadConfig(num_clients=0))
        with pytest.raises(ConfigurationError):
            config.validate(n=4)

    def test_zero_requests_per_message_rejected(self):
        config = DeploymentConfig(
            workload=WorkloadConfig(requests_per_client_message=0))
        with pytest.raises(ConfigurationError):
            config.validate(n=4)

    def test_too_many_faults_rejected(self):
        from repro.common.config import FaultConfig
        config = DeploymentConfig(f=1, faults=FaultConfig(crashed=(0, 1)))
        with pytest.raises(ConfigurationError):
            config.validate(n=4)

    def test_bad_batch_size_rejected(self):
        config = DeploymentConfig(protocol_config=ProtocolConfig(batch_size=0))
        with pytest.raises(ConfigurationError):
            config.validate(n=4)

    def test_sequential_variant_pins_outstanding(self):
        config = ProtocolConfig(max_outstanding=64)
        assert sequential_variant(config).max_outstanding == 1

    def test_with_updates_is_functional(self):
        config = DeploymentConfig(protocol="pbft", f=1)
        updated = config.with_updates(protocol="minbft", f=2)
        assert (updated.protocol, updated.f) == ("minbft", 2)
        assert (config.protocol, config.f) == ("pbft", 1)
