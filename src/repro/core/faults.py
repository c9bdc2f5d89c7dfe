"""Fault tolerance: error policies, retry/backoff, quarantine and accounting.

A production corpus run must survive three failure classes that a clean-room
benchmark never sees: *poison rows* (one malformed record crashing an
operator), *transient faults* (an op or I/O path that succeeds on retry) and
*infrastructure faults* (a worker process dying or hanging mid-dispatch).
This module provides the shared vocabulary every engine path uses to contain
them:

* :class:`ErrorPolicy` — the user-facing knob set (``on_error`` =
  ``raise`` | ``skip`` | ``quarantine``, plus ``max_retries`` / ``backoff_s``
  / ``task_timeout_s`` / ``max_pool_rebuilds``), threaded from
  :class:`repro.core.config.RecipeConfig` through the fluent API, the CLI and
  both executors.
* :func:`retry_call` — the one retry loop with capped exponential backoff;
  every engine stage that retries (an op call, a single row, a
  Deduplicator's hashing stage, a global resolve) goes through it.
* :func:`run_op_with_policy` — the engine-side wrapper around ``op.run`` for
  Mappers/Filters: retried, then (under a lenient policy) re-run row by row
  so one poison row never takes its batch down.  Deduplicators and
  Selectors degrade in the executor, which owns their global stage.
* :class:`QuarantineWriter` — the ``quarantine-00001.jsonl.gz`` export of
  dropped rows (payload + op name + exception repr + shard id + row index).

Every retry, op error, quarantine and degradation is accounted in the run's
:class:`repro.core.monitor.RunLedger`, whose fault counters become the
report's ``faults`` section.

Operators are lint-certified pure functions of their config (see
``docs/linting.md``), which is what makes retrying and per-row replay safe:
re-running an op over the same rows cannot produce different results or
observable side effects.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Iterable

from repro.core.base_op import Filter, Mapper
from repro.core.dataset import NestedDataset, _stable_hash
from repro.core.errors import ConfigError, OpExecutionError
from repro.core.monitor import RunLedger
from repro.core.serialization import JsonSanitizer

logger = logging.getLogger(__name__)

#: the legal values of ``on_error`` (recipe key / ``--on-error`` flag)
ERROR_POLICIES = ("raise", "skip", "quarantine")

#: upper bound on any single backoff sleep, so exponential growth stays sane
BACKOFF_CAP_S = 2.0

#: how many rows the failing-row probe inspects before giving up
ROW_PROBE_LIMIT = 2048


class DegradedExecutionWarning(UserWarning):
    """Issued when the worker pool gives up on parallelism and runs serial.

    Emitted after ``max_pool_rebuilds`` pool reconstructions failed to
    produce a healthy pool: the run continues in-process instead of
    aborting, at serial speed.
    """


@dataclass(frozen=True)
class ErrorPolicy:
    """How the engines react to operator and worker failures.

    The default (``raise`` with zero retries and no dispatch timeout) is the
    exact historical behaviour: the first error aborts the run, and pool
    dispatches block indefinitely.  Every field maps 1:1 onto a
    :class:`repro.core.config.RecipeConfig` key of the same name.
    """

    #: ``raise`` aborts on persistent failure; ``skip`` drops the failing
    #: rows/shards; ``quarantine`` drops them *and* writes them to the
    #: quarantine export for inspection and replay
    on_error: str = "raise"
    #: retries per failing unit (op call, row, shard) before the policy verdict
    max_retries: int = 0
    #: base of the capped exponential backoff between retries (seconds)
    backoff_s: float = 0.05
    #: per-dispatch worker-pool timeout; ``None`` blocks forever (no
    #: supervision, zero overhead) — a dead or hung worker is detected only
    #: when this is set
    task_timeout_s: float | None = None
    #: pool reconstructions before degrading to serial in-parent execution
    max_pool_rebuilds: int = 2

    def __post_init__(self) -> None:
        if self.on_error not in ERROR_POLICIES:
            raise ConfigError(
                f"on_error must be one of {ERROR_POLICIES}, got {self.on_error!r}"
            )

    @property
    def lenient(self) -> bool:
        """True when persistent failures drop data instead of aborting."""
        return self.on_error != "raise"

    def backoff(self, attempt: int) -> float:
        """Backoff delay before retry number ``attempt`` (0-based), capped."""
        if self.backoff_s <= 0:
            return 0.0
        return min(self.backoff_s * (2 ** attempt), BACKOFF_CAP_S)

    def sleep(self, attempt: int) -> None:
        """Sleep the capped exponential backoff for retry ``attempt``."""
        delay = self.backoff(attempt)
        if delay > 0:
            time.sleep(delay)

    @classmethod
    def from_config(cls, config: Any) -> "ErrorPolicy":
        """Build the policy from any object carrying the recipe's fault keys."""
        return cls(
            on_error=getattr(config, "on_error", "raise"),
            max_retries=int(getattr(config, "max_retries", 0)),
            backoff_s=float(getattr(config, "backoff_s", 0.05)),
            task_timeout_s=getattr(config, "task_timeout_s", None),
            max_pool_rebuilds=int(getattr(config, "max_pool_rebuilds", 2)),
        )

    def as_dict(self) -> dict:
        """Plain-dict view (embedded in the report's ``faults`` section)."""
        return {
            "on_error": self.on_error,
            "max_retries": self.max_retries,
            "backoff_s": self.backoff_s,
            "task_timeout_s": self.task_timeout_s,
            "max_pool_rebuilds": self.max_pool_rebuilds,
        }


class QuarantineWriter:
    """Rolling ``quarantine-00001.jsonl.gz`` export of policy-dropped rows.

    Each line is one JSON entry: the row payload plus the op name, the
    exception repr, the shard id and the row index within its shard/dataset,
    which is everything needed to replay the failure with
    ``--on-error raise``.  Files roll at ``rows_per_file`` entries with the
    same numbered naming scheme as output shards, and are written through the
    deterministic gzip writer so identical failures produce identical bytes.
    """

    FILE_TEMPLATE = "quarantine-{index:05d}.jsonl.gz"

    def __init__(self, directory: str | Path, rows_per_file: int = 10000):
        self.directory = Path(directory)
        self.rows_per_file = rows_per_file
        #: quarantine files written so far, in order
        self.paths: list[Path] = []
        #: total entries written
        self.count = 0
        self._handle: Any = None
        self._rows_in_file = 0
        self._sanitizer = JsonSanitizer()

    def _roll(self) -> None:
        from repro.formats.sharded import open_shard

        if self._handle is not None:
            self._handle.close()
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / self.FILE_TEMPLATE.format(index=len(self.paths) + 1)
        self._handle = open_shard(path, "w")
        self._rows_in_file = 0
        self.paths.append(path)

    def write(
        self,
        row: dict,
        op_name: str,
        error: BaseException | str,
        shard_id: str | None = None,
        row_index: int | None = None,
    ) -> None:
        """Append one dropped row with its full failure context."""
        if self._handle is None or self._rows_in_file >= self.rows_per_file:
            self._roll()
        entry = {
            "op": op_name,
            "error": error if isinstance(error, str) else repr(error),
            "shard": shard_id,
            "row_index": row_index,
            "row": row,
        }
        self._handle.write(self._sanitizer.dumps(entry, ensure_ascii=False) + "\n")
        self._rows_in_file += 1
        self.count += 1

    def write_rows(
        self,
        rows: Iterable[dict],
        op_name: str,
        error: BaseException | str,
        shard_id: str | None = None,
    ) -> int:
        """Append every row of a dropped shard; returns the count written."""
        written = 0
        for index, row in enumerate(rows):
            self.write(row, op_name, error, shard_id=shard_id, row_index=index)
            written += 1
        return written

    def close(self) -> None:
        """Flush and close the current quarantine file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._sanitizer.warn("quarantine export")


# ----------------------------------------------------------------------
# Policy-aware op execution
# ----------------------------------------------------------------------
def describe_failure(
    op_name: str,
    error: BaseException,
    shard_id: str | None = None,
    row_index: int | None = None,
) -> str:
    """One-line failure message carrying op name, shard id and row index."""
    where = f"operator {op_name!r}"
    if shard_id is not None:
        where += f" on shard {shard_id}"
    message = f"{where} failed: {error!r}"
    if row_index is not None:
        message += f" (first failing row index: {row_index})"
    return message + (
        "; reproduce with --on-error raise"
        + (" on this shard's input" if shard_id is not None else "")
    )


def _probe_failing_row(op: Any, dataset: NestedDataset) -> int | None:
    """Index of the first row whose per-row execution fails, or ``None``.

    Only used on the fatal (``raise``) path to enrich the error message;
    bounded by :data:`ROW_PROBE_LIMIT` so a batched-only failure over a huge
    dataset cannot stall the abort.
    """
    limit = min(len(dataset), ROW_PROBE_LIMIT)
    for index in range(limit):
        try:
            _run_single_row(op, dict(dataset[index]))
        except Exception:
            return index
    return None


def _run_single_row(op: Any, row: dict) -> tuple[bool, dict | None]:
    """Run one row through a Mapper or Filter; returns ``(keep, row_out)``."""
    if isinstance(op, Mapper):
        return True, op.process(row)
    if isinstance(op, Filter):
        row = op.compute_stats(row)
        return bool(op.process(row)), row
    # dataset-level ops have no per-row stage; re-raise by running nothing
    raise TypeError(f"{type(op).__name__} has no per-row execution path")


def _isolate_rows(
    op: Any,
    dataset: NestedDataset,
    policy: ErrorPolicy,
    ledger: RunLedger,
    quarantine: QuarantineWriter | None,
    tracer: Any = None,
    shard_id: str | None = None,
) -> NestedDataset:
    """Re-run a failed Mapper/Filter row by row, dropping only poison rows.

    Every batched op has an equivalence-tested per-row fallback, so replaying
    the batch one row at a time is semantically identical — surviving rows
    keep their order, and only the rows that themselves raise (after
    ``max_retries`` per-row retries) are dropped or quarantined.  The output
    fingerprint is salted with the dropped indices so downstream cache keys
    can never collide with a clean run's.
    """
    quarantined = policy.on_error == "quarantine"
    survivors: list[dict] = []
    stat_rows: list[dict] = []
    source_rows: list[dict] = []
    dropped: list[int] = []
    for index in range(len(dataset)):
        row_in = dict(dataset[index])
        try:
            # each attempt gets its own copy: an op may edit the row in place
            keep, row_out = retry_call(
                lambda: _run_single_row(op, dict(row_in)), policy, ledger, op.name, shard_id
            )
        except Exception as error:
            dropped.append(index)
            ledger.fault(
                "quarantine_rows" if quarantined else "skip_rows",
                f"1 row(s) dropped at {op.name}",
                op=op.name,
                shard=shard_id,
            )
            if quarantine is not None and quarantined:
                quarantine.write(row_in, op.name, error, shard_id=shard_id, row_index=index)
            continue
        if row_out is not None:
            stat_rows.append(row_out)
            source_rows.append(row_in)
            if keep:
                survivors.append(row_out)
    fingerprint = dataset.derive_fingerprint(op.name, op.config())
    if dropped:
        fingerprint = _stable_hash({"parent": fingerprint, "fault_dropped": dropped})
    result = NestedDataset.from_list(survivors, fingerprint=fingerprint)
    if tracer is not None:
        if isinstance(op, Filter):
            tracer.trace_filter(op.name, NestedDataset.from_list(stat_rows), result)
        else:
            tracer.trace_mapper(
                op.name, NestedDataset.from_list(source_rows), result, op.text_key
            )
    return result


def run_op_with_policy(
    op: Any,
    dataset: NestedDataset,
    policy: ErrorPolicy,
    ledger: RunLedger,
    quarantine: QuarantineWriter | None = None,
    tracer: Any = None,
    pool: Any = None,
    shard_id: str | None = None,
) -> NestedDataset:
    """Run one Mapper or Filter under the error policy.

    The call is retried ``max_retries`` times with capped exponential
    backoff (:func:`retry_call`); a persistent failure then either aborts
    with a fully-contextualised :class:`repro.core.errors.OpExecutionError`
    (``raise``), or under a lenient policy falls back to per-row isolation.
    """
    kwargs: dict = {"tracer": tracer}
    if pool is not None:
        kwargs["pool"] = pool
    try:
        return retry_call(partial(op.run, dataset, **kwargs), policy, ledger, op.name, shard_id)
    except Exception as error:
        if not policy.lenient:
            row_index = _probe_failing_row(op, dataset)
            raise OpExecutionError(
                describe_failure(op.name, error, shard_id, row_index),
                op_name=op.name,
                shard_id=shard_id,
                row_index=row_index,
            ) from error
        logger.warning(
            "operator %r failed persistently (%r); isolating rows", op.name, error
        )
        return _isolate_rows(op, dataset, policy, ledger, quarantine, tracer, shard_id)


def retry_call(
    function: Any,
    policy: ErrorPolicy,
    ledger: RunLedger,
    op_name: str,
    shard_id: str | None = None,
) -> Any:
    """Call ``function()`` with the policy's retry/backoff loop.

    Every failure counts as an error of ``op_name`` and every retry as a
    retry.  The final failure is re-raised unwrapped, so the caller applies
    its own policy verdict.
    """
    attempt = 0
    while True:
        try:
            return function()
        except Exception as error:
            ledger.fault("op_error", repr(error), op=op_name, shard=shard_id)
            if attempt >= policy.max_retries:
                raise
            ledger.fault("retry", f"retrying {op_name}", op=op_name, shard=shard_id)
            policy.sleep(attempt)
            attempt += 1


__all__ = [
    "BACKOFF_CAP_S",
    "DegradedExecutionWarning",
    "ERROR_POLICIES",
    "ErrorPolicy",
    "QuarantineWriter",
    "describe_failure",
    "retry_call",
    "run_op_with_policy",
]
