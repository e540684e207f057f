"""Configuration validation tests."""

import pytest

from repro.common.config import (
    CacheGeometry,
    HTMConfig,
    LatencyModel,
    SignatureConfig,
    SystemConfig,
)
from repro.common.errors import ConfigError


class TestSystemConfig:
    def test_paper_defaults(self):
        cfg = SystemConfig()
        assert cfg.num_cores == 32
        assert cfg.clusters == 8
        assert cfg.l1.size_bytes == 32 * 1024
        assert cfg.l1.associativity == 4
        assert cfg.l2.size_bytes == 8 * 1024 * 1024
        assert cfg.l2_banks == 32
        assert cfg.memory_controllers == 4

    def test_cluster_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(num_cores=32, clusters=7, cores_per_cluster=4)

    def test_bank_interleave(self):
        cfg = SystemConfig()
        assert cfg.l2_bank_of(0) == 0
        assert cfg.l2_bank_of(33) == 1

    def test_cluster_of(self):
        cfg = SystemConfig()
        assert cfg.cluster_of(0) == 0
        assert cfg.cluster_of(31) == 7
        with pytest.raises(ConfigError):
            cfg.cluster_of(32)

    def test_scaled(self):
        cfg = SystemConfig().scaled(16)
        assert cfg.num_cores == 16
        assert cfg.clusters == 4
        with pytest.raises(ConfigError):
            SystemConfig().scaled(15)


class TestLatencyModel:
    def test_defaults_sane(self):
        lat = LatencyModel()
        assert lat.l1_hit < lat.l2_hit < lat.memory

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            LatencyModel(l1_hit=-1)


class TestSignatureConfig:
    def test_defaults(self):
        sig = SignatureConfig()
        assert sig.bits == 2048
        assert sig.num_hashes == 4
        assert sig.index_bits == 11

    def test_non_pow2_rejected(self):
        with pytest.raises(ConfigError):
            SignatureConfig(bits=1000)

    def test_zero_hashes_rejected(self):
        with pytest.raises(ConfigError):
            SignatureConfig(num_hashes=0)


class TestHTMConfig:
    def test_defaults(self):
        cfg = HTMConfig()
        assert cfg.tokens_per_block == 1 << 14
        assert cfg.max_backoff == 4096

    def test_tiny_token_count_rejected(self):
        with pytest.raises(ConfigError):
            HTMConfig(tokens_per_block=1)
