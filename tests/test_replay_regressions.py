"""Regression tests: cache replay, checkpoint resume and trace pairs in both modes.

Every scenario runs through ``Executor.run`` (memory) and, where the export
makes the behaviour observable, through ``Executor.run_streaming`` too.  Each
pins a way a replayed or resumed run could silently differ from a fresh one:

* a cache replay must return the exact Python values the ops produced
  (dates stay dates, tuples stay tuples);
* editing *any* input row — not only the first, middle or last — must miss
  the cache;
* a checkpointed rerun over a changed input must process the new input;
* concurrent writers of one cache key must never fail or tear the entry;
* an undecodable checkpoint state file makes the run start over.
"""

import json
import threading
import warnings
from datetime import date

import pytest

from repro.core.cache import CacheManager
from repro.core.checkpoint import CheckpointManager
from repro.core.dataset import NestedDataset
from repro.core.executor import Executor
from repro.core.serialization import SerializationWarning

MODES = ["memory", "streaming"]

PROCESS = [
    {"whitespace_normalization_mapper": {}},
    {"words_num_filter": {"min_num": 2}},
    {"document_deduplicator": {}},
]


def write_jsonl(path, rows):
    with path.open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    return path


def distinct_rows(count: int, tag: str = "doc") -> list[dict]:
    return [{"text": f"{tag} number {index} has a few words"} for index in range(count)]


def run(config: dict, mode: str, dataset: NestedDataset | None = None) -> Executor:
    executor = Executor(config)
    if mode == "memory":
        executor.run(dataset)
    else:
        executor.run_streaming(dataset)
    return executor


class TestLosslessCacheReplay:
    ROWS = [
        {"text": f"row {index} with spaced words", "when": date(2024, 1, 1), "tags": ("a", "b")}
        for index in range(4)
    ]

    def config(self, tmp_path) -> dict:
        return {
            "process": PROCESS,
            "use_cache": True,
            "work_dir": str(tmp_path / "work"),
            "export_path": str(tmp_path / "out.jsonl"),
        }

    def test_memory_replay_returns_exact_values(self, tmp_path):
        config = self.config(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SerializationWarning)
            cold = Executor(config).run(NestedDataset.from_list(self.ROWS))
            warm_executor = Executor(config)
            warm = warm_executor.run(NestedDataset.from_list(self.ROWS))
        assert warm_executor.last_report["cache"]["shard_hits"] > 0
        assert warm.to_list() == cold.to_list()
        assert all(row["when"] == date(2024, 1, 1) for row in warm)
        assert all(row["tags"] == ("a", "b") for row in warm)

    @pytest.mark.parametrize("mode", MODES)
    def test_replayed_export_is_byte_identical(self, tmp_path, mode):
        config = self.config(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SerializationWarning)
            run(config, mode, NestedDataset.from_list(self.ROWS))
            cold_bytes = (tmp_path / "out.jsonl").read_bytes()
            run(config, mode, NestedDataset.from_list(self.ROWS))
        assert (tmp_path / "out.jsonl").read_bytes() == cold_bytes


class TestCacheSeesEveryRow:
    @pytest.mark.parametrize("mode", MODES)
    def test_editing_a_non_probed_row_changes_the_export(self, tmp_path, mode):
        rows = distinct_rows(10)
        input_path = write_jsonl(tmp_path / "in.jsonl", rows)
        config = {
            "dataset_path": str(input_path),
            "export_path": str(tmp_path / "out.jsonl"),
            "work_dir": str(tmp_path / "work"),
            "process": PROCESS,
            "use_cache": True,
        }
        run(config, mode)
        rows[1] = {"text": "an edited second row with new words"}
        write_jsonl(input_path, rows)
        run(config, mode)
        texts = [json.loads(line)["text"] for line in (tmp_path / "out.jsonl").open()]
        assert "an edited second row with new words" in texts
        assert "doc number 1 has a few words" not in texts


class TestCheckpointFollowsInput:
    @pytest.mark.parametrize("mode", MODES)
    def test_rerun_over_changed_file_exports_new_input(self, tmp_path, mode):
        input_path = write_jsonl(tmp_path / "in.jsonl", distinct_rows(5, "old"))
        config = {
            "dataset_path": str(input_path),
            "export_path": str(tmp_path / "out.jsonl"),
            "work_dir": str(tmp_path / "work"),
            "process": PROCESS,
            "use_checkpoint": True,
        }
        run(config, mode)
        write_jsonl(input_path, distinct_rows(7, "new"))
        run(config, mode)
        texts = [json.loads(line)["text"] for line in (tmp_path / "out.jsonl").open()]
        assert texts == [f"new number {index} has a few words" for index in range(7)]

    @pytest.mark.parametrize("mode", MODES)
    def test_rerun_over_changed_dataset_row_exports_new_input(self, tmp_path, mode):
        config = {
            "export_path": str(tmp_path / "out.jsonl"),
            "work_dir": str(tmp_path / "work"),
            "process": PROCESS,
            "use_checkpoint": True,
        }
        rows = distinct_rows(10)
        run(config, mode, NestedDataset.from_list(rows))
        rows[1] = {"text": "an edited second row"}
        run(config, mode, NestedDataset.from_list(rows))
        texts = [json.loads(line)["text"] for line in (tmp_path / "out.jsonl").open()]
        assert texts[1] == "an edited second row"


class TestCacheWriteRace:
    def test_concurrent_writers_of_one_key_never_fail(self, tmp_path):
        cache = CacheManager(tmp_path)
        rows = [{"text": "payload " * 50, "n": index} for index in range(20)]
        errors: list[BaseException] = []

        def writer():
            for _ in range(300):
                try:
                    cache.save_shard_rows("one-key", rows)
                except BaseException as error:  # noqa: BLE001 - counted below
                    errors.append(error)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert cache.load_shard_rows("one-key") == rows
        assert not list(tmp_path.glob("*.tmp"))


class TestCorruptStreamState:
    @pytest.mark.parametrize("mode", MODES)
    def test_run_starts_over_on_undecodable_state(self, tmp_path, mode):
        config = {
            "export_path": str(tmp_path / "out.jsonl"),
            "work_dir": str(tmp_path / "work"),
            "process": PROCESS,
            "use_checkpoint": True,
        }
        dataset = NestedDataset.from_list(distinct_rows(6))
        run(config, mode, dataset)
        state = tmp_path / "work" / "checkpoint" / CheckpointManager.STREAM_STATE_FILE
        assert state.exists()
        state.write_bytes(b"\xff\xfe\x00garbage\x80")
        executor = run(config, mode, dataset)
        assert executor.last_report["shards"]["resumed_shards"] == 0
        assert executor.last_report["num_output_samples"] == 6


class TestDeduplicatorTracePairs:
    ROWS = [
        {"text": "alpha beta gamma delta"},
        {"text": "one two three four"},
        {"text": "alpha beta gamma delta"},
        {"text": "five six seven eight"},
        {"text": "one two three four"},
        {"text": "alpha beta gamma delta"},
    ]

    @pytest.mark.parametrize("mode, shards", [("memory", 1), ("streaming", 3)])
    def test_pairs_are_original_then_duplicate(self, tmp_path, mode, shards):
        config = {
            "process": [{"document_deduplicator": {}}],
            "work_dir": str(tmp_path / "work"),
            "open_tracer": True,
            "trace_num": 2,
            "max_shard_rows": 2,
        }
        executor = run(config, mode, NestedDataset.from_list(self.ROWS))
        assert executor.last_report["shards"]["input_shards"] == shards
        (record,) = executor.tracer.records
        assert record.op_type == "deduplicator"
        assert (record.input_size, record.output_size) == (6, 3)
        assert record.examples == [
            {"original": "alpha beta gamma delta", "duplicate": "alpha beta gamma delta"},
            {"original": "one two three four", "duplicate": "one two three four"},
        ]
