"""Resource monitoring: wall-clock time and memory usage of processing runs.

The end-to-end system comparison of the paper (Sec. 7.2.1, Figure 8) monitors
processing time and average memory usage.  This module provides a lightweight
equivalent based on ``tracemalloc`` (Python heap) plus ``resource`` peak RSS,
good enough to compare the relative footprint of pipelines running in the same
process.

Besides the run-level :class:`ResourceMonitor`, the module provides the
per-run :class:`RunLedger`: the one recorder of everything a run counts —
each operator's executed calls (wall time, rows in/out, peak RSS), shard
progress, cache hits and misses, and every fault-tolerance action.  The
counted sections of the unified run report are views of it.
"""

from __future__ import annotations

import logging
import resource
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.core.report import FAULT_COUNTERS, SECTION_COUNTERS, OpReport

logger = logging.getLogger(__name__)

#: bounded length of the ledger's fault event log
MAX_FAULT_EVENTS = 50


def max_rss_mb() -> float:
    """Current peak RSS of this process, in megabytes."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class ResourceReport:
    """Result of one monitored run."""

    wall_time_s: float
    peak_python_mb: float
    current_python_mb: float
    max_rss_mb: float

    def as_dict(self) -> dict:
        """Return the report as a plain dict (for benchmark tables)."""
        return {
            "wall_time_s": self.wall_time_s,
            "peak_python_mb": self.peak_python_mb,
            "current_python_mb": self.current_python_mb,
            "max_rss_mb": self.max_rss_mb,
        }


class ResourceMonitor:
    """Context manager measuring wall time and (optionally) Python heap usage.

    ``trace_memory=True`` enables ``tracemalloc``, which gives precise Python
    heap peaks but slows execution noticeably; the end-to-end benchmarks turn
    it on for *both* compared systems so the overhead cancels out, while the
    executor's routine bookkeeping keeps it off.

    Example::

        with ResourceMonitor(trace_memory=True) as monitor:
            run_pipeline()
        print(monitor.report.wall_time_s)
    """

    def __init__(self, trace_memory: bool = False):
        self.trace_memory = trace_memory
        self.report: ResourceReport | None = None
        self._start_time = 0.0
        self._started_tracing = False

    def __enter__(self) -> "ResourceMonitor":
        if self.trace_memory:
            self._started_tracing = not tracemalloc.is_tracing()
            if self._started_tracing:
                tracemalloc.start()
            tracemalloc.reset_peak()
        self._start_time = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        wall_time = time.perf_counter() - self._start_time
        if self.trace_memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._started_tracing:
                tracemalloc.stop()
        else:
            current, peak = 0, 0
        max_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.report = ResourceReport(
            wall_time_s=wall_time,
            peak_python_mb=peak / (1024 * 1024),
            current_python_mb=current / (1024 * 1024),
            max_rss_mb=max_rss_kb / 1024,
        )


class RunLedger:
    """Everything one executor run counts, in one place.

    One ledger lives for one executor run, and the ``ops``, ``shards``,
    ``cache`` and ``faults`` sections of the :class:`~repro.core.report.
    RunReport` are views of it:

    * per-op profiles (:meth:`track`, :meth:`record_cached`).  Operators are
      keyed by object identity, so an operator touched many times (once per
      shard, or a Deduplicator's hash stage plus its global resolve)
      aggregates into one :class:`~repro.core.report.OpReport`, in
      first-touch (= pipeline) order.  Wall time is host wall-clock: for
      worker-pool stages it covers the dispatch round trip, which includes
      the workers' compute because the host blocks on the pool.
      ``max_rss_mb`` is the host's peak RSS observed after any call of the op;
    * one counter table (:meth:`count`) holding every key of
      :data:`~repro.core.report.SECTION_COUNTERS`;
    * fault accounting (:meth:`fault`): the fault counters, per-op error
      counts, :attr:`total_faults` and a bounded event log.  The worker pool
      writes here too (``WorkerPool.ledger``), so pool rebuilds and
      degradations land next to row quarantines.
    """

    def __init__(self) -> None:
        self._profiles: dict[int, OpReport] = {}
        self.counts: dict[str, int] = {
            key: 0 for keys in SECTION_COUNTERS.values() for key in keys
        }
        #: op name -> number of exceptions observed from that op
        self.op_errors: dict[str, int] = {}
        #: monotonic sum of every fault counted — cheap change detection: the
        #: executor skips a cache save when it moved during the stage, so
        #: results shaped by fault handling never poison the clean-run cache
        self.total_faults = 0
        #: bounded detail log of individual fault events
        self.events: list[dict] = []

    # ------------------------------------------------------------------
    def _profile(self, op: Any) -> OpReport:
        key = id(op)
        if key not in self._profiles:
            from repro.core.base_op import op_category

            self._profiles[key] = OpReport(name=op.name, op_type=op_category(op))
        return self._profiles[key]

    @contextmanager
    def track(self, op: Any, rows_in: int) -> Iterator[Callable[[int], None]]:
        """Time one executed call of ``op`` over ``rows_in`` input rows.

        The block reports the call's output row count through the yielded
        function; rows are accounted only when it did (an aborted call, or a
        Deduplicator's hashing stage, still accounts its time)::

            with ledger.track(op, rows_in=len(dataset)) as rows_out:
                dataset = op.run(dataset)
                rows_out(len(dataset))
        """
        profile = self._profile(op)
        reported: list[int] = []
        start = time.perf_counter()
        try:
            yield reported.append
        finally:
            profile.wall_time_s += time.perf_counter() - start
            profile.calls += 1
            profile.max_rss_mb = max(profile.max_rss_mb, max_rss_mb())
            if reported:
                profile.rows_in += rows_in
                profile.rows_out += reported[0]

    def record_cached(self, op: Any) -> None:
        """Account a call answered entirely from the cache (op never ran)."""
        self._profile(op).cached_calls += 1

    def reports(self) -> list[OpReport]:
        """Per-op sections in first-touch (pipeline) order."""
        return list(self._profiles.values())

    # ------------------------------------------------------------------
    def count(self, key: str, amount: int = 1) -> None:
        """Add ``amount`` to one counter of the table."""
        self.counts[key] += amount

    def section(self, name: str) -> dict[str, int]:
        """One counter section of the report (``shards``, ``cache``, ``faults``)."""
        return {key: self.counts[key] for key in SECTION_COUNTERS[name]}

    def fault(self, kind: str, detail: str, **context: Any) -> None:
        """Account one fault-tolerance event of ``kind``.

        ``op_error`` counts against ``context["op"]``; every other kind
        counts one into its counter of
        :data:`~repro.core.report.FAULT_COUNTERS`.  ``context`` (``op``,
        ``shard``) is kept in the event log.
        """
        if kind == "op_error":
            op_name = context["op"]
            self.op_errors[op_name] = self.op_errors.get(op_name, 0) + 1
        else:
            self.count(FAULT_COUNTERS[kind])
        self.total_faults += 1
        if len(self.events) < MAX_FAULT_EVENTS:
            self.events.append({"kind": kind, "detail": detail, **context})
        if kind == "degradation":
            logger.warning("degraded execution: %s", detail)

    def faults(self) -> dict:
        """The counted part of the report's ``faults`` section."""
        return {
            **self.section("faults"),
            "op_errors": dict(self.op_errors),
            "events": list(self.events),
        }


def time_call(function, *args, **kwargs) -> tuple[float, object]:
    """Return (elapsed_seconds, result) of calling ``function``."""
    start = time.perf_counter()
    result = function(*args, **kwargs)
    return time.perf_counter() - start, result
