"""The end-to-end pipeline executor tying together every core component.

``Executor`` takes a validated :class:`~repro.core.config.RecipeConfig` and
runs the full pipeline: load/unify the input via a Formatter, instantiate the
operator list, optionally fuse operators, execute them with cache,
checkpoint and tracing support, and export the processed dataset.

There is one execution path.  ``run()`` (in memory) and ``run_streaming()``
(out of core) are front doors over the same shard stages of
:mod:`repro.core.stream`; they differ only in the input reader and the shard
budget.  ``run()`` loads the whole input and treats it as one unbounded
shard, kept in memory between stages; ``run_streaming()`` reads shards
lazily under the recipe's budget and spills them to disk.  Either way
Mappers/Filters run shard-local, Deduplicators/Selectors resolve globally
over skinny signature rows, ``use_cache`` replays shard outputs and global
resolves by content, ``use_checkpoint`` resumes from the shard spill, and
the :class:`repro.core.tracer.Tracer` accumulates across shards.

When the recipe sets ``np > 1`` the executor lazily creates a persistent
:class:`repro.parallel.WorkerPool` (workers hold the instantiated op list)
and routes every batched stage through it.  The pool survives across runs —
close the executor (or use it as a context manager) to shut the workers down.

Every run emits a unified :class:`repro.core.report.RunReport`
(``last_report``, also persisted to ``<work_dir>/report.json``).  Its per-op
sections (rows in/out, wall time, throughput, peak RSS), shard progress,
cache hits/misses and fault counters are views of the run's
:class:`repro.core.monitor.RunLedger`; the tracer summary and the run-level
resource profile complete it.
"""

from __future__ import annotations

import tempfile
import warnings
from functools import partial
from pathlib import Path
from typing import Any, Iterator

from repro.core.base_op import Deduplicator, Selector, op_category
from repro.core.cache import CacheManager
from repro.core.checkpoint import CheckpointManager
from repro.core.config import RecipeConfig, load_config
from repro.core.errors import ConfigError, DataflowWarning, OpExecutionError
from repro.core.dataset import NestedDataset, _stable_hash
from repro.core.exporter import Exporter
from repro.core.faults import (
    ErrorPolicy,
    QuarantineWriter,
    describe_failure,
    retry_call,
    run_op_with_policy,
)
from repro.core.fusion import describe_plan
from repro.core.monitor import ResourceMonitor, RunLedger
from repro.core.planner import ExecutionPlan, ResourceBudget, plan_execution
from repro.core.report import REPORT_FILE, RunReport
from repro.core.sample import Fields, HashKeys
from repro.core.stream import (
    DEFAULT_SHARD_ROWS,
    ROW_ID_COLUMN,
    MemoryShardStore,
    ShardStore,
    StreamSegment,
    apply_keep_mask,
    iter_record_shards,
    op_config_hash,
    plan_segments,
    resolve_global_keep,
    shard_signature,
    signature_column_names,
    stage_chain_hash,
)
from repro.core.tracer import Tracer
from repro.parallel import WorkerPool


def _boxed(shards: Iterator[NestedDataset]) -> Iterator[list[NestedDataset]]:
    """Box each shard for :meth:`Executor._execute_shard` to take.

    The one-element box is the shard's only holder (no loop variable or
    ``enumerate`` tuple keeps the shard itself), so taking the shard out
    lets its first op free it.
    """
    return map(lambda shard: [shard], shards)


class _GlobalOpSkipped(Exception):
    """Carries the whole input's rows past a dedup whose hashing kept failing."""


class Executor:
    """Run a data recipe end to end.

    Parameters
    ----------
    config:
        Anything :func:`repro.core.config.load_config` accepts (dict, path or
        RecipeConfig instance).
    shared_pool:
        When True, parallel runs borrow the process-wide pool from
        :func:`repro.parallel.get_shared_pool` instead of forking a private
        one, and :meth:`close` leaves it alive for the next borrower.  This
        is how the ``repro serve`` job runtime keeps workers warm across
        jobs: every job's executor resolves its own op instances against the
        shared pool's residents by config equivalence.
    """

    def __init__(
        self, config: dict | str | Path | RecipeConfig, shared_pool: bool = False
    ):
        # imported lazily to avoid a circular import at package-init time
        from repro.ops import build_ops

        self.cfg = load_config(config)
        work_dir = Path(self.cfg.work_dir)
        #: the tracer of the most recent run (None unless ``open_tracer``)
        self.tracer: Tracer | None = None
        self.cache = CacheManager(
            cache_dir=self.cfg.cache_dir or (work_dir / "cache"),
            compression=self.cfg.cache_compression,
            enabled=self.cfg.use_cache,
        )
        self.checkpoint = CheckpointManager(
            checkpoint_dir=self.cfg.checkpoint_dir or (work_dir / "checkpoint"),
            enabled=self.cfg.use_checkpoint,
        )
        self.ops = build_ops(
            self.cfg.process, op_fusion=self.cfg.op_fusion, batch_size=self.cfg.batch_size
        )
        self.plan = describe_plan(self.ops)
        #: unified report of the most recent run (Mapping-compatible)
        self.last_report: RunReport = RunReport(plan=self.plan)
        #: mode decision of the most recent :meth:`execute` call (None before)
        self.last_plan: ExecutionPlan | None = None
        #: planner decision to embed into the next run's report (set by execute)
        self._planner_payload: dict | None = None
        self._pool: WorkerPool | None = None
        self._shared_pool = bool(shared_pool)
        #: the fault policy of every run of this executor (from the recipe)
        self.policy = ErrorPolicy.from_config(self.cfg)
        #: everything the current (or most recent) run counts; fresh per run
        self.ledger = RunLedger()
        self._quarantine: QuarantineWriter | None = None

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> WorkerPool | None:
        """Return the persistent worker pool when ``np > 1`` (created lazily).

        With ``shared_pool=True`` the pool comes from the process-wide
        registry (one set of workers per ``(np, recipe, fusion)`` shared by
        every borrower); otherwise the executor owns a private pool.  Either
        way this run's fault policy and ledger are (re)applied on every call.
        """
        if self.cfg.np <= 1:
            return None
        if self._pool is None or not self._pool.alive:
            if self._shared_pool:
                from repro.parallel import get_shared_pool

                self._pool = get_shared_pool(
                    self.cfg.np,
                    self.cfg.process,
                    op_fusion=self.cfg.op_fusion,
                    task_timeout_s=self.policy.task_timeout_s,
                    max_rebuilds=self.policy.max_pool_rebuilds,
                    rebuild_backoff_s=self.policy.backoff_s,
                )
            else:
                self._pool = WorkerPool(
                    self.cfg.np,
                    ops=self.ops,
                    process_list=self.cfg.process,
                    op_fusion=self.cfg.op_fusion,
                    task_timeout_s=self.policy.task_timeout_s,
                    max_rebuilds=self.policy.max_pool_rebuilds,
                    rebuild_backoff_s=self.policy.backoff_s,
                )
        # the pool outlives individual runs; point it at the current ledger
        self._pool.ledger = self.ledger
        return self._pool

    # ------------------------------------------------------------------
    def _faults_payload(self) -> dict:
        """The report's ``faults`` section: every counter + the policy."""
        payload = self.ledger.faults()
        payload["policy"] = self.policy.as_dict()
        if self._quarantine is not None and self._quarantine.paths:
            payload["quarantine_paths"] = [str(path) for path in self._quarantine.paths]
        return payload

    def close(self) -> None:
        """Shut down the worker pool (no-op for serial executors).

        A borrowed shared pool is detached, not closed — it stays warm for
        the next executor; :func:`repro.parallel.shutdown_shared_pools`
        owns its lifetime.
        """
        if self._pool is not None:
            if not self._shared_pool:
                self._pool.close()
            self._pool = None

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _load_input(self, dataset: NestedDataset | None) -> NestedDataset:
        from repro.formats.load import load_dataset

        if dataset is not None:
            return dataset
        if not self.cfg.dataset_path:
            raise ValueError("no dataset given and no dataset_path configured")
        return load_dataset(self.cfg.dataset_path, text_keys=tuple(self.cfg.text_keys))

    def _parallel_payload(self) -> dict:
        """The report's ``parallel`` section.

        ``worker_pids`` lists the live worker processes of the pool this run
        used (empty for serial / fully cache-hit runs); together with
        ``shared`` it lets callers — the service tests in particular — prove
        two runs executed on the same warm workers.
        """
        return {
            "np": self.cfg.np,
            "batch_size": self.cfg.batch_size,
            # None when no pool was needed (np=1, or every stage cache-hit)
            "start_method": self._pool.start_method if self._pool is not None else None,
            "worker_pids": self._pool.worker_pids() if self._pool is not None else [],
            "shared": self._shared_pool and self._pool is not None,
        }

    def _persist_report(self, report: RunReport) -> None:
        """Write the run report under the work directory (best effort)."""
        try:
            report.save(Path(self.cfg.work_dir) / REPORT_FILE)
        except OSError:
            # observability must never fail a run that already succeeded
            pass

    def _preflight_dataflow(self, decision: ExecutionPlan) -> None:
        """Statically check the recipe against the *planned* mode.

        Findings are attached to the plan (``decision.dataflow``) and warn as
        :class:`DataflowWarning` by default; ``strict_dataflow: true`` turns
        them into a :class:`ConfigError` before any data is touched.
        """
        from repro.tools.dataflow import check_recipe

        result = check_recipe(self.cfg, stream=decision.mode == "streaming")
        decision.dataflow = [finding.as_dict() for finding in result.findings]
        if not result.findings:
            return
        summary = "\n  ".join(str(finding) for finding in result.findings)
        if self.cfg.strict_dataflow:
            raise ConfigError(
                f"dataflow check failed for recipe {self.cfg.project_name!r} "
                f"(strict_dataflow is on):\n  {summary}"
            )
        warnings.warn(
            f"recipe {self.cfg.project_name!r} has "
            f"{len(result.findings)} dataflow finding(s):\n  {summary}",
            DataflowWarning,
            stacklevel=3,
        )

    def execute(
        self,
        dataset: NestedDataset | None = None,
        mode: str = "auto",
        shard_output: bool = False,
        budget: ResourceBudget | None = None,
    ) -> RunReport:
        """Plan the execution mode, run the pipeline, return the unified report.

        This is the mode-agnostic front door used by the fluent
        :class:`repro.api.Pipeline` and ``repro process --mode``: the
        :func:`repro.core.planner.plan_execution` decision (stored as
        ``last_plan`` and embedded in the report's ``planner`` section)
        picks the input reader and shard budget by dispatching to
        :meth:`run` or :meth:`run_streaming`.  Both run the same stages, so
        results are identical either way.
        """
        requested = mode
        if shard_output:
            # sharded output only exists out-of-core; steering the planner here
            # keeps every front door (fluent API, CLI) consistent instead of
            # silently writing one monolithic export in memory mode
            if mode == "memory":
                raise ConfigError(
                    "shard_output requires streaming execution; it conflicts "
                    "with mode='memory'"
                )
            mode = "streaming"
        decision = plan_execution(self.cfg, dataset=dataset, mode=mode, budget=budget)
        if shard_output:
            # report the caller's actual request, not the coerced mode
            decision.requested = requested
            decision.reasons.append("sharded output requested; streaming engine required")
        self._preflight_dataflow(decision)
        self.last_plan = decision
        # the run itself builds (and persists) the report; handing the payload
        # down keeps that a single complete write instead of write-then-amend
        self._planner_payload = decision.as_dict()
        try:
            if decision.mode == "streaming":
                self.run_streaming(dataset, shard_output=shard_output)
            else:
                self.run(dataset)
        finally:
            self._planner_payload = None
        return self.last_report

    def run(self, dataset: NestedDataset | None = None) -> NestedDataset:
        """Execute the pipeline in memory and return the processed dataset.

        The input is loaded whole (``load_dataset``) and runs through the
        shard stages as one unbounded shard; the rows of the final shard are
        exported with :meth:`Exporter.export` and returned.  The run's
        :class:`RunReport` is kept as ``last_report`` and persisted to
        ``<work_dir>/report.json``.
        """
        return self._run(dataset, memory=True)

    def run_streaming(
        self, dataset: NestedDataset | None = None, shard_output: bool = False
    ) -> RunReport:
        """Execute the pipeline shard-by-shard with bounded memory.

        The input is streamed into shards capped by the recipe's
        ``max_shard_rows`` / ``max_shard_chars`` budget and every stored
        shard is spilled to disk, so no stage holds more than one shard of
        payload.  Output rows stream straight into the :class:`Exporter` —
        with ``shard_output`` they are written as size-capped output shards.
        Results are row-identical to :meth:`run` (byte-identical exports).

        Returns the unified :class:`RunReport` (also stored as
        ``last_report``) instead of a materialised dataset.
        """
        self._run(dataset, memory=False, shard_output=shard_output)
        return self.last_report

    # ------------------------------------------------------------------
    # The shard stages (both front doors)
    # ------------------------------------------------------------------
    def _run(
        self, dataset: NestedDataset | None, memory: bool, shard_output: bool = False
    ) -> NestedDataset | None:
        """Run every pipeline stage over the input shards, export, report.

        ``memory`` picks the input reader and the shard budget: the whole
        input as one unbounded shard, or shards streamed from the formatter
        under the recipe's budget.  Mappers and Filters run shard-local on
        the batched columnar engine (worker-pool dispatch included), while
        Deduplicators and Selectors resolve globally via the two-pass
        signature strategy (see :mod:`repro.core.stream`).

        With ``use_checkpoint`` every stage's shards are spilled under the
        checkpoint directory, so an interrupted run resumes mid-corpus; with
        ``use_cache`` every shard's stage output and every global resolve is
        cached by content and replayed on unchanged inputs; with
        ``open_tracer`` the :class:`Tracer` accumulates per-op counts and
        bounded examples across shards.  Returns the collected dataset of a
        memory run, ``None`` for a streaming run.
        """
        monitor = ResourceMonitor()
        ledger = self.ledger = RunLedger()
        self._quarantine = (
            QuarantineWriter(Path(self.cfg.work_dir) / "quarantine")
            if self.policy.on_error == "quarantine"
            else None
        )
        tracer = self.tracer = (
            Tracer(show_num=self.cfg.trace_num, trace_dir=Path(self.cfg.work_dir) / "trace")
            if self.cfg.open_tracer
            else None
        )
        collected: NestedDataset | None = None
        export_paths: list[str] = []
        total_rows = 0
        with monitor:
            segments = plan_segments(self.ops)
            if tracer is not None:
                # registration order is record (= summary) order, even for
                # ops an empty input never reaches
                for op in self.ops:
                    tracer.register(op.name, self._trace_type(op))
            formatter = None
            if memory:
                dataset = self._load_input(dataset)
                shard_rows = shard_chars = None
                pending = [dataset] if len(dataset) else []
                ledger.count("input_shards", len(pending))
                # popped, not iterated: nothing keeps the input once handed out
                source: Iterator[NestedDataset] = (pending.pop() for _ in range(len(pending)))
            else:
                shard_rows, shard_chars = self.cfg.max_shard_rows, self.cfg.max_shard_chars
                formatter = self._input_formatter() if dataset is None else None
                source = self._input_shards(dataset, formatter, shard_rows, shard_chars)
            store, persistent = self._open_store(memory, dataset, formatter)
            # from here on the source holds the only reference to a loaded
            # input, so its first op frees it (see _execute_shard)
            del dataset
            try:
                for stage, segment in enumerate(segments):
                    if segment.global_op is not None:
                        source = self._resolved_stage(
                            stage, segment, source, store, whole_input=memory
                        )
                    else:
                        # the final segment spills only when checkpointing,
                        # so a crash during export still resumes mid-corpus
                        source = self._local_stage(
                            stage, segment, source, store if persistent else None
                        )
                if memory:
                    shards = list(source)
                    collected = (
                        shards[0] if len(shards) == 1 else NestedDataset.concatenate(shards)
                    )
                    total_rows = len(collected)
                    if self.cfg.export_path:
                        exporter = Exporter(
                            self.cfg.export_path, keep_stats=self.cfg.keep_stats_in_export
                        )
                        export_paths = [str(exporter.export(collected))]
                else:
                    total_rows, export_paths = self._export_stream(
                        source, shard_output, shard_rows, shard_chars
                    )
            finally:
                if self._quarantine is not None:
                    self._quarantine.close()
                if not persistent:
                    # failed runs must not leak a pickled copy of the corpus
                    store.clear()
                    if isinstance(store, ShardStore):
                        store.root.rmdir()

        if tracer is not None:
            tracer.write_files()
        self.last_report = RunReport(
            mode="memory" if memory else "streaming",
            plan=self.plan,
            num_output_samples=total_rows,
            ops=ledger.reports(),
            segments=len(segments),
            shards=ledger.section("shards"),
            shard_budget={"max_shard_rows": shard_rows, "max_shard_chars": shard_chars},
            export_paths=export_paths,
            resources=monitor.report.as_dict() if monitor.report else {},
            cache=ledger.section("cache"),
            trace=tracer.summary() if tracer else [],
            parallel=self._parallel_payload(),
            planner=self._planner_payload,
            faults=self._faults_payload(),
        )
        self._persist_report(self.last_report)
        return collected

    def _export_stream(
        self,
        source: Iterator[NestedDataset],
        shard_output: bool,
        shard_rows: int | None,
        shard_chars: int | None,
    ) -> tuple[int, list[str]]:
        """Stream the final shards into the exporter; returns (rows, paths)."""
        total_rows = 0

        def final_rows() -> Iterator[dict]:
            nonlocal total_rows
            for shard in source:
                total_rows += len(shard)
                yield from shard

        if not self.cfg.export_path:
            for _row in final_rows():
                pass
            return total_rows, []
        if shard_output and shard_rows is None and shard_chars is None:
            # a shard-output request with no explicit budget still shards, at
            # the same default the input chunker applies
            shard_rows = DEFAULT_SHARD_ROWS
        exporter = Exporter(
            self.cfg.export_path,
            keep_stats=self.cfg.keep_stats_in_export,
            shard_rows=shard_rows if shard_output else None,
            shard_chars=shard_chars if shard_output else None,
        )
        paths = [str(path) for path in exporter.export_stream(final_rows())]
        return total_rows, paths

    def _input_formatter(self) -> Any:
        """Build the streaming input formatter once per run (one path walk)."""
        from repro.formats.load import load_formatter

        if not self.cfg.dataset_path:
            raise ValueError("no dataset given and no dataset_path configured")
        return load_formatter(self.cfg.dataset_path, text_keys=tuple(self.cfg.text_keys))

    def _input_signature(self, dataset: NestedDataset | None, formatter: Any) -> dict:
        """Identity of the run's input, guarding checkpoint reuse.

        An in-memory dataset is digested value by value, so editing any row
        invalidates the spill.  For file inputs the signature digests the
        resolved shard list with each file's size and mtime, so editing (or
        re-sharding) the input does too, without reading it twice.
        """
        if dataset is not None:
            return {"content": shard_signature(dataset)}
        files = []
        for path in formatter.resolve_paths():
            stat = path.stat()
            files.append([str(path), stat.st_size, stat.st_mtime_ns])
        return {
            "dataset_path": str(self.cfg.dataset_path),
            "text_keys": list(self.cfg.text_keys),
            "files_digest": _stable_hash(files),
        }

    def _open_store(
        self, memory: bool, dataset: NestedDataset | None, formatter: Any
    ) -> tuple[ShardStore | MemoryShardStore, bool]:
        """The run's shard store, and whether it persists past the run.

        With ``use_checkpoint`` the store is the checkpoint spill, reused
        only while the recipe, shard budget and input are unchanged.  Without
        it an in-memory run keeps its shards in a dict, and a streaming run
        spills to a directory unique to the run.
        """
        if self.checkpoint.enabled:
            expected_state = {
                "op_hashes": [op_config_hash(op) for op in self.ops],
                "reader": "memory" if memory else "streaming",
                "max_shard_rows": None if memory else self.cfg.max_shard_rows,
                "max_shard_chars": None if memory else self.cfg.max_shard_chars,
                "input": self._input_signature(dataset, formatter),
            }
            if self.checkpoint.load_stream_state() != expected_state:
                # recipe, shard budget or input changed: the spilled shards
                # describe a different run and must not be reused
                self.checkpoint.clear_stream()
                self.checkpoint.save_stream_state(expected_state)
            return ShardStore(self.checkpoint.stream_dir), True
        if memory:
            return MemoryShardStore(), False
        # unique per run: concurrent runs sharing a work_dir must not clear
        # or read each other's shards
        spill_root = Path(self.cfg.work_dir) / "stream-spill"
        spill_root.mkdir(parents=True, exist_ok=True)
        return ShardStore(tempfile.mkdtemp(prefix="run-", dir=spill_root)), False

    def _input_shards(
        self,
        dataset: NestedDataset | None,
        formatter: Any,
        shard_rows: int | None,
        shard_chars: int | None,
    ) -> Iterator[NestedDataset]:
        """Lazily chunk the input into bounded shards, never materialising it."""
        records: Any = iter(dataset) if dataset is not None else formatter.iter_records()
        for rows in iter_record_shards(
            records, max_rows=shard_rows, max_chars=shard_chars, text_key=Fields.text
        ):
            self.ledger.count("input_shards")
            yield NestedDataset.from_list(rows)

    @staticmethod
    def _trace_type(op: Any) -> str:
        """Trace-record type label of an op (Selectors trace as filters)."""
        if isinstance(op, Deduplicator):
            return "deduplicator"
        if isinstance(op, Selector):
            return "filter"
        return op_category(op)

    @staticmethod
    def _shard_label(stage: int, index: int) -> str:
        """Human-readable shard id used in fault records and error messages."""
        return f"stage{stage}:shard{index:05d}"

    def _shard_key(self, chain: str, shard: NestedDataset) -> str | None:
        """Cache key of one shard's stage output (None with the cache off)."""
        if not self.cache.enabled:
            return None
        return CacheManager.make_shard_key(chain, shard_signature(shard))

    def _execute_shard(
        self,
        segment: StreamSegment,
        cache_key: str | None,
        taken: list[NestedDataset],
        shard_id: str | None = None,
        whole_input: bool = False,
    ) -> NestedDataset:
        """One shard's shard-local work (sample ops + dedup hashing), cached.

        ``taken`` holds the only reference to the shard and is emptied, so
        the shard is freed once its first op has run — for a memory run
        that is the whole loaded input.  With ``use_cache`` (a
        ``cache_key``) a hit replays the shard without touching any operator
        (counted per op as a cached call and per run as a ``cached_shards``
        shard).

        Sample-op errors are handled row-wise by the error policy inside
        :func:`run_op_with_policy`.  The dedup hashing stage has no
        row-isolated fallback: it is retried, and under a lenient policy a
        persistent failure drops (or quarantines) the shard's rows whole
        instead of wedging the run.  When the shard is the ``whole_input``,
        dropping it would drop the corpus, so the dataset-level op is
        skipped instead and every row kept (the conservative outcome),
        signalled by raising :class:`_GlobalOpSkipped`.  Fault-shaped shard
        output never enters the cache.
        """
        ledger = self.ledger
        if cache_key is not None:
            cached = self.cache.load_shard_rows(cache_key)
            ledger.count("shard_misses" if cached is None else "shard_hits")
            if cached is not None:
                for op in segment.sample_ops:
                    ledger.record_cached(op)
                if isinstance(segment.global_op, Deduplicator):
                    ledger.record_cached(segment.global_op)
                ledger.count("cached_shards")
                return cached
        faults_before = ledger.total_faults
        out = self._run_sample_ops(segment, taken.pop(), shard_id)
        global_op = segment.global_op
        if isinstance(global_op, Deduplicator):
            hash_shard = partial(self._hash_shard, global_op, out)
            try:
                out = retry_call(hash_shard, self.policy, ledger, global_op.name, shard_id)
            except Exception as error:
                if not self.policy.lenient:
                    raise OpExecutionError(
                        describe_failure(global_op.name, error, shard_id),
                        op_name=global_op.name,
                        shard_id=shard_id,
                    ) from error
                if whole_input:
                    ledger.fault(
                        "degradation",
                        f"dataset-level op {global_op.name!r} skipped after "
                        f"persistent failure: {error!r}",
                    )
                    raise _GlobalOpSkipped(out) from error
                ledger.fault("quarantine_shard", f"shard dropped ({len(out)} rows)", shard=shard_id)
                if self._quarantine is not None:
                    self._quarantine.write_rows(out, global_op.name, error, shard_id=shard_id)
                out = NestedDataset.empty()
        if cache_key is not None and ledger.total_faults == faults_before:
            self.cache.save_shard_rows(cache_key, out)
        ledger.count("executed_shards")
        return out

    def _run_sample_ops(
        self, segment: StreamSegment, shard: NestedDataset, shard_id: str | None
    ) -> NestedDataset:
        """Run one shard through its segment's sample ops.

        Every op runs under the error policy (retried, and under a lenient
        policy row-isolated so one poison row only removes itself); the
        worker pool is only created when an op actually executes.
        """
        for op in segment.sample_ops:
            pool = self._ensure_pool()
            with self.ledger.track(op, rows_in=len(shard)) as rows_out:
                shard = run_op_with_policy(
                    op, shard, self.policy, self.ledger, self._quarantine,
                    tracer=self.tracer, pool=pool, shard_id=shard_id,
                )
                rows_out(len(shard))
        return shard

    def _hash_shard(self, global_op: Deduplicator, shard: NestedDataset) -> NestedDataset:
        """A Deduplicator's per-sample hashing stage.

        The hashing runs shard-local (and pool-parallel); only the
        clustering is global.  Timed under the dedup's report section; its
        rows are accounted by the resolve.
        """
        with self.ledger.track(global_op, rows_in=len(shard)):
            return shard.map_batches(
                global_op.compute_hash_batched,
                batch_size=global_op.effective_batch_size(shard),
                new_fingerprint=shard.derive_fingerprint(
                    f"{global_op.name}:hash", global_op.config()
                ),
                pool=self._ensure_pool(),
            )

    def _local_stage(
        self,
        stage: int,
        segment: StreamSegment,
        source: Iterator[NestedDataset],
        store: ShardStore | None,
    ) -> Iterator[NestedDataset]:
        """Shard-local transform of a segment with no global op.

        With a ``store`` (the checkpoint spill) every shard is spilled and
        an already-spilled shard is resumed instead of re-executed.
        """
        chain = stage_chain_hash(segment)
        for index, taken in enumerate(_boxed(source)):
            if store is not None and store.has_shard(stage, index):
                self.ledger.count("resumed_shards")
                yield store.read_shard_rows(stage, index)
                continue
            out = self._execute_shard(
                segment, self._shard_key(chain, taken[0]), taken,
                self._shard_label(stage, index),
            )
            if store is not None:
                store.write_shard(stage, index, out)
            yield out

    def _resolved_stage(
        self,
        stage: int,
        segment: StreamSegment,
        source: Iterator[NestedDataset],
        store: ShardStore | MemoryShardStore,
        whole_input: bool = False,
    ) -> Iterator[NestedDataset]:
        """Two-pass execution of a segment closed by a dataset-level op.

        Pass one runs eagerly: each shard is transformed, hashed (for
        Deduplicators), stored, and its skinny signature columns
        accumulated.  The global op then resolves once over the signatures,
        and the returned iterator streams the stored shards back out with
        the keep mask applied.  A ``whole_input`` shard whose hashing failed
        persistently under a lenient policy passes through with the global
        op skipped (see :meth:`_execute_shard`).
        """
        global_op = segment.global_op
        chain = stage_chain_hash(segment)
        text_key = getattr(global_op, "text_key", Fields.text)
        signature_batches: list[dict] = []
        shard_row_counts: list[int] = []
        shard_keys: list[str | None] = []
        ledger = self.ledger
        faults_before = ledger.total_faults
        resumed = False
        row_count = 0

        for index, taken in enumerate(_boxed(source)):
            if store.has_shard(stage, index):
                ledger.count("resumed_shards")
                resumed = True
                out = store.read_shard_rows(stage, index)
            else:
                key = self._shard_key(chain, taken[0])
                shard_keys.append(key)
                try:
                    out = self._execute_shard(
                        segment, key, taken, self._shard_label(stage, index),
                        whole_input=whole_input,
                    )
                except _GlobalOpSkipped as skipped:
                    (rows,) = skipped.args
                    with ledger.track(global_op, rows_in=len(rows)) as rows_out:
                        rows_out(len(rows))
                    ledger.count("executed_shards")
                    return iter([rows])
                store.write_shard(stage, index, out)
            # columns differing across shards are None-filled when the
            # signature batches are concatenated, like a whole dataset's
            # column union
            if len(out):
                columns = signature_column_names(global_op, out.column_names, text_key)
                batch = {name: out.column(name) for name in columns}
                batch[ROW_ID_COLUMN] = list(range(row_count, row_count + len(out)))
                signature_batches.append(batch)
            shard_row_counts.append(len(out))
            row_count += len(out)

        # a resolve over resumed or fault-shaped shards describes rows the
        # shard keys do not (resumed shards have no key at all): never cache it
        resolve_key = None
        if self.cache.enabled and not resumed and ledger.total_faults == faults_before:
            resolve_key = CacheManager.make_resolve_key(
                _stable_hash([chain, op_config_hash(global_op)]),
                shard_keys,
                self._pair_budget(global_op),
            )
        keep_mask, dropped_columns, pairs = self._resolve(
            global_op, signature_batches, resolve_key
        )
        del signature_batches
        return self._masked_shards(
            stage, global_op, store, shard_row_counts, keep_mask, dropped_columns, pairs
        )

    def _pair_budget(self, global_op: Any) -> int:
        """Duplicate pairs a resolve keeps for the tracer (0 when untraced)."""
        if self.tracer is None or not isinstance(global_op, Deduplicator):
            return 0
        return self.tracer.show_num

    def _resolve(
        self, global_op: Any, signature_batches: list[dict], resolve_key: str | None
    ) -> tuple[list[bool], set[str], list[tuple[int, int]]]:
        """The global resolve of one stage, replayed from the cache when keyed.

        The resolve has no shard to contain failures to: it retries per the
        policy, aborts with full context under ``raise``, and under a
        lenient policy degrades to a keep-everything mask (the conservative
        outcome — no row is wrongly dropped).
        """
        ledger = self.ledger
        if resolve_key is not None:
            cached = self.cache.load(resolve_key)
            ledger.count("resolve_misses" if cached is None else "resolve_hits")
            if cached is not None:
                ledger.record_cached(global_op)
                return cached
        signature = NestedDataset.from_batches(signature_batches)
        resolve = partial(resolve_global_keep, global_op, signature)
        pair_budget = self._pair_budget(global_op)
        if pair_budget:
            resolve = partial(resolve, show_num=pair_budget)
        faults_before = ledger.total_faults
        with ledger.track(global_op, rows_in=len(signature)) as rows_out:
            try:
                result = retry_call(resolve, self.policy, ledger, global_op.name)
            except Exception as error:
                if not self.policy.lenient:
                    raise OpExecutionError(
                        describe_failure(global_op.name, error),
                        op_name=global_op.name,
                    ) from error
                ledger.fault(
                    "degradation",
                    f"global resolve of {global_op.name!r} skipped after "
                    f"persistent failure: {error!r}",
                )
                present = set(signature.column_names)
                result = (
                    [True] * len(signature),
                    {name for name in (HashKeys.hash, HashKeys.minhash, HashKeys.simhash)
                     if name in present},
                    [],
                )
            rows_out(sum(result[0]))
        if resolve_key is not None and ledger.total_faults == faults_before:
            self.cache.save(resolve_key, result)
        return result

    def _masked_shards(
        self,
        stage: int,
        global_op: Any,
        store: ShardStore | MemoryShardStore,
        shard_row_counts: list[int],
        keep_mask: list[bool],
        dropped_columns: set[str],
        pairs: list[tuple[int, int]],
    ) -> Iterator[NestedDataset]:
        """Stream the stored shards back out with the keep mask applied.

        The resolve only saw skinny signature rows, so the tracer's examples
        (with payload) are harvested here: a Deduplicator's duplicate pairs
        — each original's text is stashed as it passes, and the pair is
        emitted when its duplicate arrives (originals always come first) —
        or a Selector's dropped rows, until the bounded reservoir fills.
        """
        tracer = self.tracer
        trace_type = self._trace_type(global_op)
        if tracer is not None:
            tracer.observe_global(global_op.name, trace_type, len(keep_mask), sum(keep_mask))
        originals = {original for original, _duplicate in pairs}
        duplicate_of = {duplicate: original for original, duplicate in pairs}
        stash: dict[int, str] = {}
        offset = 0
        for index, count in enumerate(shard_row_counts):
            shard = store.read_shard_rows(stage, index)
            mask = keep_mask[offset:offset + count]
            if duplicate_of:
                for row_id, row in enumerate(shard, start=offset):
                    if row_id in originals:
                        stash[row_id] = row.get(Fields.text, "")
                    if row_id in duplicate_of:
                        tracer.add_example(global_op.name, trace_type, {
                            "original": stash[duplicate_of[row_id]],
                            "duplicate": row.get(Fields.text, ""),
                        })
            elif (
                tracer is not None
                and not isinstance(global_op, Deduplicator)
                and tracer.wants_examples(global_op.name, trace_type)
            ):
                for row_id, (row, keep) in enumerate(zip(shard, mask), start=offset):
                    if keep:
                        continue
                    example = {
                        "index": row_id,
                        "discarded": row.get(Fields.text, ""),
                        "stats": row.get(Fields.stats, {}),
                    }
                    if not tracer.add_example(global_op.name, trace_type, example):
                        break
            yield apply_keep_mask(shard, mask, dropped_columns)
            offset += count
