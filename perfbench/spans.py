"""Span recording from outside the program, for the traced benchmark run.

The benchmark never edits the program.  Instead, :func:`install` wraps each
layer's public functions at the binding its caller actually looks up -- a
module attribute for functions a module imported into its own namespace, the
class attribute for methods -- and every wrapped call records one span:
``(id, name, layer, start, end, parent, job, attrs)``.  Spans stay in memory
(:class:`Recorder`) and are written out once, at the end of the run.

Parents come from a per-thread stack, so a service job running in the job
worker thread and the client threads that submit it keep separate trees.
Generators are traced per resumption: a span never stays open across a
``yield``, so it cannot swallow the consumer's work.

:func:`layer_metrics` folds the spans into the per-layer metrics, and
:func:`check_layer_calls` fails loudly when a layer a workload is meant to
exercise recorded no call (a wrapper on a stale binding reads as zero) or
when a layer it must bypass recorded one.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import re
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

#: spans of this layer are glue: their self time is time no layer accounts for
GLUE = "glue"


class Span:
    """One recorded call: name, interval, parent and job."""

    __slots__ = ("id", "name", "layer", "start", "end", "parent", "job", "attrs")

    def __init__(self, id_: int, name: str, layer: str, parent: int | None, job: str | None):
        self.id = id_
        self.name = name
        self.layer = layer
        self.parent = parent
        self.job = job
        self.attrs: dict = {}
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "layer": self.layer,
            "start": self.start, "end": self.end, "parent": self.parent,
            "job": self.job, "attrs": self.attrs,
        }


class Recorder:
    """In-memory span store with a per-thread parent stack and job id."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def job(self) -> str | None:
        return getattr(self._local, "job", None)

    @job.setter
    def job(self, value: str | None) -> None:
        self._local.job = value

    @property
    def executor(self) -> Any:
        """The ``Executor`` whose ``execute`` this thread is inside, if any."""
        return getattr(self._local, "executor", None)

    @executor.setter
    def executor(self, value: Any) -> None:
        self._local.executor = value

    def open(self, name: str, layer: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        job = self.job if self.job is not None else (parent.job if parent else None)
        span = Span(next(self._ids), name, layer, parent.id if parent else None, job)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (called once, at the end)."""
        with path.open("w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda item: item.id):
                handle.write(json.dumps(span.as_dict(), default=str) + "\n")


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _wrap_call(
    recorder: Recorder,
    original: Callable,
    name: str,
    layer: str,
    before: Callable | None = None,
    after: Callable | None = None,
) -> Callable:
    """A wrapper recording one span per call; ``before``/``after`` set attrs."""

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span = recorder.open(name, layer)
        try:
            if before is not None:
                before(span, args, kwargs)
            result = original(*args, **kwargs)
            if after is not None:
                after(span, args, result)
            return result
        finally:
            recorder.close(span)

    return wrapper


def traced_iter(recorder: Recorder, iterable: Iterable, name: str, layer: str) -> Iterator:
    """Yield from ``iterable``, recording one span per item produced."""
    iterator = iter(iterable)
    while True:
        span = recorder.open(name, layer)
        try:
            item = next(iterator)
        except StopIteration:
            recorder.close(span)
            span.attrs["exhausted"] = True
            return
        except BaseException:
            recorder.close(span)
            raise
        recorder.close(span)
        yield item


def _file_mb(paths: Iterable[Any]) -> float:
    total = 0
    for path in paths:
        try:
            total += os.path.getsize(path)
        except OSError:
            pass
    return total / 1e6


class Installation:
    """The wrappers installed into the program (for the rest of the process)."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        #: every WorkerPool constructed since installation
        self.pools: list[Any] = []
        #: CPU seconds of the workers of pools closed so far
        self.closed_cpu_s = 0.0

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        if attr not in vars(owner):
            # the binding moved: fail loudly instead of silently tracing nothing
            raise RuntimeError(f"cannot trace {owner!r}.{attr}: no such binding")
        setattr(owner, attr, value)

    def wrap(self, owner: Any, attr: str, name: str, layer: str, **hooks: Any) -> None:
        original = getattr(owner, attr)
        self.replace(owner, attr, _wrap_call(self.recorder, original, name, layer, **hooks))


def install(recorder: Recorder) -> Installation:
    """Wrap every layer's entry points for the rest of this process."""
    import repro.core.executor as executor_module
    import repro.core.faults as faults_module
    import repro.formats.load as load_module
    from repro.core.cache import CacheManager
    from repro.core.dataset import NestedDataset
    from repro.core.exporter import Exporter
    from repro.core.stream import ShardStore
    from repro.formats.sharded import ShardedFileFormatter
    from repro.parallel import WorkerPool
    from repro.service.runtime import ServiceRuntime

    inst = Installation(recorder)
    Executor = executor_module.Executor

    # -- core.executor: the root span of every pass/job, planner, pre-flight
    original_execute = Executor.execute

    @functools.wraps(original_execute)
    def execute(self: Any, *args: Any, **kwargs: Any) -> Any:
        span = recorder.open("executor.execute", GLUE)
        span.attrs["ops"] = [op_label(op.name) for op in self.ops]
        previous, recorder.executor = recorder.executor, self
        try:
            return original_execute(self, *args, **kwargs)
        finally:
            recorder.executor = previous
            recorder.close(span)

    inst.replace(Executor, "execute", execute)
    inst.wrap(executor_module, "plan_execution", "executor.plan", "executor")
    inst.wrap(Executor, "_preflight_dataflow", "executor.preflight", "executor")

    # -- formats: materialised loads and lazily streamed records
    inst.wrap(load_module, "load_dataset", "formats.load_dataset", "formats")
    original_iter_records = ShardedFileFormatter.iter_records

    @functools.wraps(original_iter_records)
    def iter_records(self: Any) -> Iterator[dict]:
        span = recorder.open("formats.open", "formats")
        try:
            span.attrs["mb"] = _file_mb(self.resolve_paths())
        finally:
            recorder.close(span)
        return traced_iter(recorder, original_iter_records(self), "formats.read", "formats")

    inst.replace(ShardedFileFormatter, "iter_records", iter_records)

    # -- ops: one span per operator application, tagged with its position
    def op_before(span: Span, args: tuple, _kwargs: dict) -> None:
        span.attrs["pos"] = _op_position(recorder, args[0])

    def op_after(span: Span, _args: tuple, result: Any) -> None:
        span.attrs["rows_out"] = len(result)

    # the in-memory engine calls its own import; the shard path imports the
    # faults module's attribute at call time
    for owner in (executor_module, faults_module):
        inst.wrap(owner, "run_op_with_policy", "ops.run", "ops", before=op_before, after=op_after)
    original_map_batches = NestedDataset.map_batches

    @functools.wraps(original_map_batches)
    def map_batches(self: Any, function: Callable, *args: Any, **kwargs: Any) -> Any:
        if getattr(function, "__name__", "") != "compute_hash_batched":
            return original_map_batches(self, function, *args, **kwargs)
        # a deduplicator's per-sample hashing stage, run outside the policy
        # layer by the shard engine
        span = recorder.open("ops.hash", "ops")
        span.attrs["pos"] = _op_position(recorder, getattr(function, "__self__", None))
        try:
            return original_map_batches(self, function, *args, **kwargs)
        finally:
            recorder.close(span)

    inst.replace(NestedDataset, "map_batches", map_batches)

    # -- parallel: pool start-up, batched and per-row dispatch
    original_pool_init = WorkerPool.__init__

    @functools.wraps(original_pool_init)
    def pool_init(self: Any, *args: Any, **kwargs: Any) -> None:
        span = recorder.open("parallel.setup", "parallel")
        try:
            original_pool_init(self, *args, **kwargs)
            inst.pools.append(self)
        finally:
            recorder.close(span)

    inst.replace(WorkerPool, "__init__", pool_init)
    original_pool_close = WorkerPool.close

    @functools.wraps(original_pool_close)
    def pool_close(self: Any) -> None:
        # a closed pool's workers exit: keep their CPU time for the accounting
        if self.alive:
            inst.closed_cpu_s += worker_cpu_s(self.worker_pids())
        original_pool_close(self)

    inst.replace(WorkerPool, "close", pool_close)
    for attr in ("map_column_batches", "flag_column_batches", "filter_column_batches"):
        inst.wrap(WorkerPool, attr, "parallel.dispatch", "parallel")
    for attr in ("map_rows", "flag_rows", "filter_rows"):
        inst.wrap(WorkerPool, attr, "parallel.row_dispatch", "parallel")

    # -- core.stream: spill write/read, shard chunking, global resolve
    def spill_after(span: Span, _args: tuple, result: Any) -> None:
        span.attrs["mb"] = _file_mb([result])

    inst.wrap(ShardStore, "write_shard", "stream.spill_write", "stream", after=spill_after)
    inst.wrap(ShardStore, "read_shard_rows", "stream.spill_read", "stream")

    def resolve_after(span: Span, _args: tuple, result: Any) -> None:
        span.attrs["rows_out"] = sum(result[0])

    inst.wrap(
        executor_module, "resolve_global_keep", "stream.resolve", "stream",
        before=op_before, after=resolve_after,
    )
    original_shards = executor_module.iter_record_shards

    @functools.wraps(original_shards)
    def iter_record_shards(*args: Any, **kwargs: Any) -> Iterator[list[dict]]:
        return traced_iter(recorder, original_shards(*args, **kwargs), "stream.shard", "stream")

    inst.replace(executor_module, "iter_record_shards", iter_record_shards)

    # -- core.cache: only calls on an enabled cache do any work
    def cache_wrapper(attr: str, name: str, kind: str) -> None:
        original = getattr(CacheManager, attr)

        @functools.wraps(original)
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return original(self, *args, **kwargs)
            span = recorder.open(name, "cache")
            try:
                result = original(self, *args, **kwargs)
                if kind == "load":
                    span.attrs["hit"] = result is not None
                else:
                    span.attrs["mb"] = _file_mb([result]) if result is not None else 0.0
                return result
            finally:
                recorder.close(span)

        inst.replace(CacheManager, attr, wrapper)

    cache_wrapper("load", "cache.load", "load")
    cache_wrapper("load_shard_rows", "cache.load", "load")
    cache_wrapper("save", "cache.save", "save")
    cache_wrapper("save_shard_rows", "cache.save", "save")

    # -- core.exporter: encode+write; pulling upstream rows is not export work
    def export_after(span: Span, _args: tuple, result: Any) -> None:
        paths = result if isinstance(result, list) else [result]
        span.attrs["mb"] = _file_mb(paths)

    inst.wrap(Exporter, "export", "export.export", "export", after=export_after)
    original_export_stream = Exporter.export_stream

    @functools.wraps(original_export_stream)
    def export_stream(self: Any, rows: Iterable[dict]) -> list:
        span = recorder.open("export.export_stream", "export")
        try:
            result = original_export_stream(
                self, traced_iter(recorder, rows, "export.pull", GLUE)
            )
            export_after(span, (), result)
            return result
        finally:
            recorder.close(span)

    inst.replace(Exporter, "export_stream", export_stream)

    # -- service: a job's server-side run
    original_run_job = ServiceRuntime.run_job

    @functools.wraps(original_run_job)
    def run_job(self: Any, job: Any) -> Any:
        recorder.job = job.id
        span = recorder.open("service.run_job", "service")
        try:
            return original_run_job(self, job)
        finally:
            recorder.close(span)
            recorder.job = None

    inst.replace(ServiceRuntime, "run_job", run_job)
    return inst


def _op_position(recorder: Recorder, op: Any) -> int | None:
    executor = recorder.executor
    if executor is None or op is None:
        return None
    for index, candidate in enumerate(executor.ops):
        if candidate is op:
            return index
    return None


def op_label(name: str) -> str:
    """Metric-safe op label: ``fused_filter(a,b)`` becomes ``fused_filter``."""
    return re.split(r"[^A-Za-z0-9_]", name, maxsplit=1)[0]


# ----------------------------------------------------------------------
# Worker-process accounting (/proc)
# ----------------------------------------------------------------------
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def worker_cpu_s(pids: Iterable[int]) -> float:
    """Summed user+system CPU seconds of the given processes."""
    total = 0.0
    for pid in pids:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            continue
        # fields after the parenthesised command; utime and stime are 14, 15
        fields = stat.rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
    return total


def worker_peak_rss_mb(pids: Iterable[int]) -> float:
    """Summed peak resident memory (VmHWM) of the given processes, in MB."""
    total = 0.0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        match = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.MULTILINE)
        if match:
            total += int(match.group(1)) / 1024
    return total


def pool_pids(pools: Iterable[Any]) -> list[int]:
    pids: list[int] = []
    for pool in pools:
        if pool.alive:
            pids.extend(pool.worker_pids())
    return pids


# ----------------------------------------------------------------------
# Folding spans into per-layer metrics
# ----------------------------------------------------------------------
def _self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its (same-thread, sequential) children cover."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return {span.id: span.duration - covered[span.id] for span in spans}


def layer_metrics(
    spans: list[Span],
    jobs: list[str],
    op_names: list[str],
    np_workers: int,
    worker_cpu_delta_s: float,
    worker_rss_mb: float,
) -> dict[str, float]:
    """Per-layer metrics of the traced jobs, as per-job means.

    ``jobs`` are the ids of the timed jobs; set-up spans are excluded, except
    from ``parallel.setup_s``, the median pool start-up over the whole run.
    Durations named ``*_s`` are self times -- a span's duration minus its
    children's -- except ``ops.*.busy_s`` and ``parallel.dispatch_s``, which
    include the work they wait on (an op's dispatches, a dispatch's workers).
    """
    by_id = {span.id: span for span in spans}
    self_time = _self_times(spans)
    wanted = set(jobs)
    timed = [span for span in spans if span.job in wanted]
    count = max(len(jobs), 1)

    def total(name: str, value: Callable[[Span], float]) -> float:
        return sum(value(span) for span in timed if span.name == name) / count

    def self_sum(names: tuple[str, ...]) -> float:
        return sum(self_time[span.id] for span in timed if span.name in names) / count

    def calls(name: str) -> float:
        return sum(1 for span in timed if span.name == name) / count

    def outermost_in_layer(span: Span) -> bool:
        parent = by_id.get(span.parent) if span.parent is not None else None
        while parent is not None:
            if parent.layer == span.layer:
                return False
            parent = by_id.get(parent.parent) if parent.parent is not None else None
        return True

    reads = [s for s in timed if s.name == "formats.read" and not s.attrs.get("exhausted")]
    metrics: dict[str, float] = {
        "formats.read_s": self_sum(("formats.load_dataset", "formats.open", "formats.read")),
        "formats.rows_read": len(reads) / count,
        "formats.mb_read": total("formats.open", lambda s: s.attrs.get("mb", 0.0)),
    }

    busy: dict[int, float] = defaultdict(float)
    rows_out: dict[int, float] = defaultdict(float)
    for span in timed:
        if span.layer != "ops" or span.attrs.get("pos") is None:
            continue
        if outermost_in_layer(span):
            busy[span.attrs["pos"]] += span.duration
        if span.name == "ops.run":
            rows_out[span.attrs["pos"]] += span.attrs.get("rows_out", 0)
    for span in timed:
        # a globally resolved op's clustering runs in the resolve, and its
        # output rows are the resolve's survivors
        if span.name == "stream.resolve" and span.attrs.get("pos") is not None:
            busy[span.attrs["pos"]] += span.duration
            rows_out[span.attrs["pos"]] += span.attrs.get("rows_out", 0)
    for pos, name in enumerate(op_names):
        key = f"ops.{pos:02d}-{name}"
        metrics[f"{key}.busy_s"] = busy.get(pos, 0.0) / count
        metrics[f"{key}.rows_out"] = rows_out.get(pos, 0.0) / count

    dispatch_s = total("parallel.dispatch", lambda s: s.duration)
    cpu_per_job = worker_cpu_delta_s / count
    metrics.update({
        "parallel.setup_s": median([s.duration for s in spans if s.name == "parallel.setup"]),
        "parallel.dispatches": calls("parallel.dispatch"),
        "parallel.row_dispatches": calls("parallel.row_dispatch"),
        "parallel.dispatch_s": dispatch_s,
        "parallel.worker_cpu_s": cpu_per_job,
        "parallel.worker_rss_mb": worker_rss_mb,
        "parallel.idle_worker_s": np_workers * dispatch_s - cpu_per_job if np_workers > 1 else 0.0,
    })

    shard_spans = [s for s in timed if s.name == "stream.shard" and not s.attrs.get("exhausted")]
    metrics.update({
        "stream.spill_write_s": self_sum(("stream.spill_write",)),
        "stream.spill_read_s": self_sum(("stream.spill_read",)),
        "stream.spill_mb": total("stream.spill_write", lambda s: s.attrs.get("mb", 0.0)),
        "stream.resolve_s": self_sum(("stream.resolve",)),
        "stream.shards": len(shard_spans) / count,
    })

    loads = [s for s in timed if s.name == "cache.load"]
    hits = sum(1 for s in loads if s.attrs.get("hit"))
    metrics.update({
        "cache.load_s": self_sum(("cache.load",)),
        "cache.save_s": self_sum(("cache.save",)),
        "cache.hits": hits / count,
        "cache.misses": (len(loads) - hits) / count,
        "cache.hit_ratio": hits / len(loads) if loads else 0.0,
        "cache.mb_written": total("cache.save", lambda s: s.attrs.get("mb", 0.0)),
    })

    metrics.update({
        "export.write_s": self_sum(("export.export", "export.export_stream")),
        "export.mb_written": sum(
            s.attrs.get("mb", 0.0) for s in timed
            if s.layer == "export" and outermost_in_layer(s)
        ) / count,
        "executor.plan_s": total("executor.plan", lambda s: s.duration)
        + total("executor.preflight", lambda s: s.duration),
        "executor.unattributed_s": sum(
            self_time[s.id] for s in timed if s.layer == GLUE
        ) / count,
    })
    return metrics


def layer_calls(spans: list[Span], jobs: list[str]) -> dict[str, int]:
    """Calls per wrapped binding (span name) over the timed jobs.

    Pool start-ups are counted over the whole run, set-up included.
    """
    wanted = set(jobs)
    counts: dict[str, int] = defaultdict(int)
    for span in spans:
        if span.attrs.get("exhausted"):
            continue
        if span.job in wanted or span.name == "parallel.setup":
            counts[span.name] += 1
    return dict(counts)


def check_layer_calls(
    counts: dict[str, int], nonzero: Iterable[str], zero: Iterable[str]
) -> list[str]:
    """Problems with the traced call counts (an empty list means the trace is sound)."""
    problems = [
        f"{name!r} recorded no call; its wrapper may sit on a stale binding"
        for name in nonzero if counts.get(name, 0) == 0
    ]
    problems += [
        f"{name!r} recorded {counts[name]} call(s) on a workload that must bypass it"
        for name in zero if counts.get(name, 0) != 0
    ]
    return problems


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
