"""Tests for the cache manager (compression codecs) and the checkpoint manager."""

import pytest

from repro.core.cache import (
    CacheManager,
    available_codecs,
    estimate_cache_space,
    estimate_checkpoint_space,
)
from repro.core.checkpoint import CheckpointManager
from repro.core.dataset import NestedDataset
from repro.core.errors import ReproError


def dataset():
    return NestedDataset.from_list([{"text": "hello world " * 20, "meta": {"n": 1}}] * 10)


class TestCacheManager:
    def test_save_and_load_roundtrip(self, tmp_path):
        cache = CacheManager(tmp_path)
        key = CacheManager.make_shard_key("chain", "shard")
        cache.save(key, dataset())
        loaded = cache.load(key)
        assert loaded is not None
        assert loaded.to_list() == dataset().to_list()

    def test_miss_returns_none_and_counts(self, tmp_path):
        cache = CacheManager(tmp_path)
        assert cache.load("missing") is None
        assert cache.load_shard_rows("missing") is None

    def test_hit_counts(self, tmp_path):
        cache = CacheManager(tmp_path)
        cache.save("k", dataset())
        assert cache.load("k").to_list() == dataset().to_list()
        cache.save_shard_rows("s", [{"text": "a"}])
        assert cache.load_shard_rows("s") == [{"text": "a"}]

    def test_disabled_cache_is_noop(self, tmp_path):
        cache = CacheManager(tmp_path, enabled=False)
        assert cache.save("k", dataset()) is None
        assert cache.load("k") is None
        assert not cache.contains("k")

    @pytest.mark.parametrize("codec", ["zlib", "gzip", "lzma", "bz2"])
    def test_compression_roundtrip(self, tmp_path, codec):
        cache = CacheManager(tmp_path, compression=codec)
        cache.save("k", dataset())
        assert cache.load("k").to_list() == dataset().to_list()

    def test_compression_reduces_size(self, tmp_path):
        plain = CacheManager(tmp_path / "plain", compression="none")
        compressed = CacheManager(tmp_path / "zlib", compression="zlib")
        plain.save("k", dataset())
        compressed.save("k", dataset())
        assert compressed.total_bytes() < plain.total_bytes()

    def test_unknown_codec_raises(self, tmp_path):
        with pytest.raises(ReproError):
            CacheManager(tmp_path, compression="zstd-but-wrong")

    def test_available_codecs_contains_none(self):
        assert "none" in available_codecs()

    def test_clear_removes_entries(self, tmp_path):
        cache = CacheManager(tmp_path)
        cache.save("a", dataset())
        cache.save("b", dataset())
        assert cache.clear() == 2
        assert cache.total_bytes() == 0

    def test_shard_key_depends_on_chain_and_shard(self):
        key = CacheManager.make_shard_key("chain", "shard")
        assert key != CacheManager.make_shard_key("other-chain", "shard")
        assert key != CacheManager.make_shard_key("chain", "other-shard")

    def test_resolve_key_depends_on_shard_order_and_pairs(self):
        key = CacheManager.make_resolve_key("chain", ["a", "b"], 0)
        assert key != CacheManager.make_resolve_key("chain", ["b", "a"], 0)
        assert key != CacheManager.make_resolve_key("chain", ["a", "b"], 10)


class TestSpaceEstimates:
    def test_cache_mode_formula(self):
        # (1 + M + F + I(F>0) + D) * S  — Appendix A.2
        assert estimate_cache_space(100, num_mappers=2, num_filters=3, num_dedups=1) == 800

    def test_cache_mode_without_filters(self):
        assert estimate_cache_space(100, num_mappers=2, num_filters=0, num_dedups=0) == 300

    def test_checkpoint_mode_is_three_copies(self):
        assert estimate_checkpoint_space(100) == 300

    def test_checkpoint_mode_below_cache_mode_for_long_pipelines(self):
        cache = estimate_cache_space(100, num_mappers=5, num_filters=8, num_dedups=1)
        assert estimate_checkpoint_space(100) < cache


class TestCheckpointManager:
    def test_save_and_load_state(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save_stream_state({"op_hashes": ["a", "b"]})
        assert manager.load_stream_state() == {"op_hashes": ["a", "b"]}

    def test_missing_state_reads_as_none(self, tmp_path):
        assert CheckpointManager(tmp_path).load_stream_state() is None

    def test_disabled_manager_never_persists(self, tmp_path):
        manager = CheckpointManager(tmp_path, enabled=False)
        manager.save_stream_state({"op_hashes": ["a"]})
        assert not (tmp_path / CheckpointManager.STREAM_STATE_FILE).exists()
        assert manager.load_stream_state() is None

    def test_clear_stream(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save_stream_state({"op_hashes": ["a"]})
        manager.stream_dir.mkdir()
        (manager.stream_dir / "shard-00000.pkl").write_bytes(b"spilled")
        manager.clear_stream()
        assert manager.load_stream_state() is None
        assert not manager.stream_dir.exists()
