"""Workload definitions: inputs, recipes, and the per-workload layer checks.

Each workload drives the program only through a public entry point
(``Executor.execute``, or ``create_core`` + ``InProcessClient``) over input
files generated here from the run's seed.  Sizes are fixed, so two commits
measured with the same seed process identical bytes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "batch" (closed loop of passes) or "service" (closed-loop clients)
    recipe: str
    corpus: str
    docs: int
    np: int
    mode: str
    overrides: dict = field(default_factory=dict)
    shard_output: bool = False
    export_name: str = "export.jsonl"
    #: engine whose export is the correctness reference for this workload
    reference_mode: str = "memory"
    #: wrapped bindings (span names) the traced run must see called / never called
    must_call: tuple = ()
    must_skip: tuple = ()


WORKLOADS = {
    # runnable by name, but left out of BENCHMARK.json: with three listed
    # workloads, the run length that fits the time limit for all runs is too
    # short to keep the np=2 workloads' run-to-run spread within bound
    "c4_memory": Workload(
        name="c4_memory",
        why=(
            "in-memory engine at np=1 over a C4-like corpus: per-op compute dominates "
            "while pool, spill and cache are bypassed; the single-threaded baseline"
        ),
        kind="batch",
        recipe="pretrain-c4-refine-en",
        corpus="c4",
        docs=1000,
        np=1,
        mode="memory",
        reference_mode="streaming",
        must_call=(
            "formats.load_dataset", "formats.read", "ops.run", "ops.hash", "export.export",
            "executor.plan", "executor.preflight",
        ),
        must_skip=(
            "parallel.setup", "parallel.dispatch", "parallel.row_dispatch",
            "stream.spill_write", "stream.spill_read", "cache.load", "cache.save",
        ),
    ),
    "cc_stream_np2": Workload(
        name="cc_stream_np2",
        why=(
            "streaming engine at np=2 over a CommonCrawl-like corpus in 9+ shards with "
            "gz sharded export: pool dispatch, spill, global dedup resolve, gz encoding"
        ),
        kind="batch",
        recipe="pretrain-common-crawl-stream-en",
        corpus="common_crawl",
        docs=500,
        np=2,
        mode="streaming",
        # a shard budget of 85k characters cuts the ~0.8 MB corpus into 9+ shards
        overrides={"max_shard_rows": 4096, "max_shard_chars": 85_000},
        shard_output=True,
        export_name="out.jsonl.gz",
        reference_mode="memory",
        must_call=(
            "formats.open", "formats.read", "stream.shard", "ops.run", "ops.hash",
            "parallel.setup", "parallel.dispatch", "stream.spill_write", "stream.spill_read",
            "stream.resolve", "export.export_stream", "executor.plan", "executor.preflight",
        ),
        must_skip=("cache.load", "cache.save"),
    ),
    "service_mixed": Workload(
        name="service_mixed",
        why=(
            "job service via InProcessClient, shared np=2 pool, 2 closed-loop clients: one "
            "submits fresh inputs (cache misses, writes), one resubmits each (cache reads)"
        ),
        kind="service",
        recipe="pretrain-c4-refine-en",
        corpus="c4",
        docs=200,
        np=2,
        mode="auto",
        must_call=(
            "service.run_job", "formats.load_dataset", "formats.read", "ops.run", "ops.hash",
            "parallel.setup", "parallel.dispatch", "cache.load", "cache.save", "export.export",
            "executor.plan", "executor.preflight",
        ),
    ),
}

#: documents in the pool each cold service input is sampled from
SERVICE_POOL_DOCS = 1500

#: post-fusion op labels per recipe, by pipeline position; the per-layer
#: metrics are named after them, so a changed pipeline is reported, not hidden
OP_LABELS = {
    "pretrain-c4-refine-en": [
        "fix_unicode_mapper", "whitespace_normalization_mapper",
        "punctuation_normalization_mapper", "remove_non_printable_mapper",
        "clean_links_mapper", "special_characters_filter", "fused_filter",
        "document_deduplicator", "document_minhash_deduplicator",
    ],
    "pretrain-common-crawl-stream-en": [
        "fix_unicode_mapper", "whitespace_normalization_mapper",
        "punctuation_normalization_mapper", "remove_non_printable_mapper",
        "clean_html_mapper", "clean_links_mapper", "clean_email_mapper",
        "clean_ip_mapper", "language_id_score_filter", "special_characters_filter",
        "character_repetition_filter", "text_length_filter", "fused_filter",
        "document_deduplicator", "document_minhash_deduplicator",
    ],
}


def op_metric_names() -> list[str]:
    """Every ``ops.<pos>-<op>.*`` metric over all workloads' recipes."""
    keys: list[str] = []
    for labels in OP_LABELS.values():
        for pos, label in enumerate(labels):
            key = f"ops.{pos:02d}-{label}"
            if key not in keys:
                keys.append(key)
    keys.sort()
    return [f"{key}.{suffix}" for key in keys for suffix in ("busy_s", "rows_out")]


#: per-layer metrics besides the ops ones, with their units
LAYER_UNITS = {
    "formats.read_s": "s",
    "formats.rows_read": "count",
    "formats.mb_read": "MB",
    "parallel.setup_s": "s",
    "parallel.dispatches": "count",
    "parallel.row_dispatches": "count",
    "parallel.dispatch_s": "s",
    "parallel.worker_cpu_s": "s",
    "parallel.worker_rss_mb": "MB",
    "parallel.idle_worker_s": "s",
    "stream.spill_write_s": "s",
    "stream.spill_read_s": "s",
    "stream.spill_mb": "MB",
    "stream.resolve_s": "s",
    "stream.shards": "count",
    "cache.load_s": "s",
    "cache.save_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "cache.mb_written": "MB",
    "export.write_s": "s",
    "export.mb_written": "MB",
    "executor.plan_s": "s",
    "executor.unattributed_s": "s",
    "service.submit_s": "s",
    "service.queue_wait_s_p50": "s",
    "service.run_s_p50": "s",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


def layer_units() -> dict[str, str]:
    units = dict(LAYER_UNITS)
    for name in op_metric_names():
        units[name] = "s" if name.endswith("_s") else "count"
    return units


# ----------------------------------------------------------------------
# Inputs (generated from the seed; the program only sees the files)
# ----------------------------------------------------------------------
def _write_jsonl(path: Path, rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")


def make_inputs(workload: Workload, seed: int, inputs_dir: Path) -> dict:
    """Write the workload's input corpus; returns where it lives."""
    from repro.synth import make_corpus

    if workload.kind == "batch":
        rows = make_corpus(workload.corpus, num_samples=workload.docs, seed=seed).to_list()
        path = inputs_dir / f"{workload.name}.jsonl"
        _write_jsonl(path, rows)
        return {"dataset": str(path), "rows": len(rows)}
    rows = make_corpus(workload.corpus, num_samples=SERVICE_POOL_DOCS, seed=seed).to_list()
    path = inputs_dir / "pool.jsonl"
    _write_jsonl(path, rows)
    return {"pool": str(path), "rows": workload.docs}


def service_input(pool_lines: list[str], seed: int, tag: str, docs: int, inputs_dir: Path) -> Path:
    """A fresh service input: ``docs`` pool lines drawn by (seed, tag)."""
    chosen = random.Random(f"{seed}:{tag}").sample(pool_lines, docs)
    path = inputs_dir / f"job-{tag}.jsonl"
    path.write_text("".join(chosen), encoding="utf-8")
    return path


def batch_recipe(workload: Workload, dataset: str, work_dir: Path) -> dict:
    """The recipe a batch pass runs: built-in recipe + workload overrides."""
    from repro.recipes import get_recipe

    recipe = get_recipe(workload.recipe)
    recipe.update(workload.overrides)
    recipe.update(
        dataset_path=dataset,
        export_path=str(work_dir / "export" / workload.export_name),
        work_dir=str(work_dir / "run"),
        np=workload.np,
        use_cache=False,
        use_checkpoint=False,
        open_tracer=False,
    )
    return recipe


def service_recipe(workload: Workload, dataset: str) -> dict:
    """The inline recipe a service job submits (the server pins work/cache dirs)."""
    from repro.recipes import get_recipe

    recipe = get_recipe(workload.recipe)
    recipe.update(workload.overrides)
    recipe.update(dataset_path=dataset, np=workload.np)
    return recipe
