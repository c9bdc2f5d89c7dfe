"""On-disk cache of stage outputs, keyed by content, with optional compression.

Reproduces the cache management described in Sec. 4.1.1 / 6 of the paper:
operator output is cached to disk keyed by (input, operator configuration), so
re-running a recipe after tweaking a late operator skips the unchanged prefix.
Cache files can be transparently compressed; zlib / lzma / gzip stand in for
the zstd / LZ4 codecs used by the original system.

Every entry has one format: a pickle of the cached value (lossless for any
Python payload — dates stay dates, tuples stay tuples), passed through the
configured codec.  The executor stores two kinds of entries:

* **shard entries** (``save_shard_rows`` / ``load_shard_rows``): one
  processed shard of a pipeline stage, keyed by ``(op fingerprint chain,
  shard signature)`` via :meth:`CacheManager.make_shard_key`.
* **resolve entries** (``save`` / ``load``): the keep mask of one global
  resolve (Deduplicators, Selectors), keyed on the stage chain and the
  ordered shard keys via :meth:`CacheManager.make_resolve_key`.

The cache only reads and writes entries; the executor counts each run's
hits and misses (``shard_hits`` / ``shard_misses`` / ``resolve_hits`` /
``resolve_misses``) in that run's :class:`repro.core.monitor.RunLedger`.
"""

from __future__ import annotations

import bz2
import gzip
import hashlib
import json
import lzma
import os
import pickle
import tempfile
import zlib
from pathlib import Path
from typing import Any, Callable

from repro.core.errors import ReproError

_COMPRESSORS: dict[str, tuple[Callable[[bytes], bytes], Callable[[bytes], bytes]]] = {
    "none": (lambda data: data, lambda data: data),
    "zlib": (zlib.compress, zlib.decompress),
    "gzip": (gzip.compress, gzip.decompress),
    "lzma": (lzma.compress, lzma.decompress),
    "bz2": (bz2.compress, bz2.decompress),
}

#: what an unreadable entry raises on decode; it then counts as a miss
_DECODE_ERRORS = (
    OSError, ValueError, EOFError, pickle.UnpicklingError, zlib.error, lzma.LZMAError,
)


def available_codecs() -> list[str]:
    """Names of the supported cache compression codecs."""
    return sorted(_COMPRESSORS)


class CacheManager:
    """Content-keyed entry cache with optional compression.

    Parameters
    ----------
    cache_dir:
        Directory where cache files are written (created on demand).
    compression:
        One of :func:`available_codecs`; ``"none"`` disables compression.
    enabled:
        When False, all operations are no-ops (useful for benchmarking the
        uncached path).
    """

    def __init__(self, cache_dir: str | Path, compression: str = "none", enabled: bool = True):
        if compression not in _COMPRESSORS:
            raise ReproError(
                f"unknown compression codec {compression!r}; choose from {available_codecs()}"
            )
        self.cache_dir = Path(cache_dir)
        self.compression = compression
        self.enabled = enabled

    # ------------------------------------------------------------------
    @staticmethod
    def make_shard_key(op_chain: str, shard_signature: str) -> str:
        """Build the cache key of a pipeline stage applied to one shard.

        ``op_chain`` digests the ordered operator configurations of the stage
        (every shard-local op, plus a Deduplicator's hashing stage when the
        segment closes with one); ``shard_signature`` digests the shard's
        input rows.  Together they guarantee a hit replays exactly what
        recomputation would produce.
        """
        return json.dumps({"op_chain": op_chain, "shard": shard_signature}, sort_keys=True)

    @staticmethod
    def make_resolve_key(stage_chain: str, shard_keys: list[str], show_num: int) -> str:
        """Build the cache key of one global resolve.

        ``stage_chain`` digests the stage including the global op's config;
        ``shard_keys`` are the stage's shard keys in order, so equal keys mean
        equal signature rows; ``show_num`` is the number of trace pairs kept.
        """
        return json.dumps(
            {"resolve": stage_chain, "shards": shard_keys, "show_num": show_num},
            sort_keys=True,
        )

    def _path_for(self, key: str) -> Path:
        digest = hashlib.sha1(key.encode("utf-8")).hexdigest()
        return self.cache_dir / f"entry-{digest}.pkl"

    def _write(self, key: str, value: Any) -> Path:
        """Atomically write one entry through a temp file unique to this call."""
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        compress, _ = _COMPRESSORS[self.compression]
        payload = compress(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
        path = self._path_for(key)
        handle, temp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=self.cache_dir)
        try:
            with os.fdopen(handle, "wb") as stream:
                stream.write(payload)
            os.replace(temp, path)
        except BaseException:
            Path(temp).unlink(missing_ok=True)
            raise
        return path

    def _read(self, key: str) -> Any:
        """Decode one entry; ``None`` when it is absent or unreadable."""
        _, decompress = _COMPRESSORS[self.compression]
        try:
            return pickle.loads(decompress(self._path_for(key).read_bytes()))
        except _DECODE_ERRORS:
            return None

    # ------------------------------------------------------------------
    def save(self, key: str, value: Any) -> Path | None:
        """Cache any picklable value; returns the written path (or None)."""
        return self._write(key, value) if self.enabled else None

    def load(self, key: str) -> Any:
        """Replay a value saved by :meth:`save`; None when absent or unreadable."""
        return self._read(key) if self.enabled else None

    def save_shard_rows(self, key: str, rows: list[dict]) -> Path | None:
        """Cache one processed shard of a pipeline stage.

        Writes are atomic through a temp name unique to the call, so
        concurrent runs sharing a cache directory — even writers of the same
        key — never observe a torn entry or lose each other's temp file.
        """
        return self._write(key, rows) if self.enabled else None

    def load_shard_rows(self, key: str) -> list[dict] | None:
        """Replay a cached shard; None when absent or unreadable."""
        return self._read(key) if self.enabled else None

    def contains(self, key: str) -> bool:
        """Return True when a cache entry exists for ``key``."""
        return self.enabled and self._path_for(key).exists()

    # ------------------------------------------------------------------
    def _entries(self) -> list[Path]:
        if not self.cache_dir.exists():
            return []
        return list(self.cache_dir.glob("entry-*.pkl"))

    def clear(self) -> int:
        """Delete every cache entry; returns the count."""
        entries = self._entries()
        for path in entries:
            path.unlink()
        return len(entries)

    def total_bytes(self) -> int:
        """Total on-disk size of all cache entries, in bytes."""
        return sum(path.stat().st_size for path in self._entries())


def estimate_cache_space(
    dataset_size: int, num_mappers: int, num_filters: int, num_dedups: int
) -> int:
    """Peak cache space of *cache mode*, per the paper's Appendix A.2 analysis.

    ``Space = (1 + M + F + I(F > 0) + D) * S`` where S is the dataset size.
    """
    extra_stats_copy = 1 if num_filters > 0 else 0
    return (1 + num_mappers + num_filters + extra_stats_copy + num_dedups) * dataset_size


def estimate_checkpoint_space(dataset_size: int) -> int:
    """Peak cache space of *checkpoint mode*: at most 3 copies of the dataset."""
    return 3 * dataset_size
