"""Execution planning: pick the input reader and shard budget for a pipeline.

The fluent :class:`repro.api.Pipeline` (and ``repro process --mode auto``)
compiles a recipe into a *logical* plan; this module decides how to run it
physically.  Both front doors of the executor run the same shard stages, so
the decision only picks the input reader and the shard budget:
:meth:`~repro.core.executor.Executor.run` loads the whole input and runs it
as one unbounded shard held in memory ("memory"), while
:meth:`~repro.core.executor.Executor.run_streaming` reads bounded shards
lazily and spills them to disk ("streaming").  :func:`plan_execution`
inspects the input's size and shape plus a :class:`ResourceBudget` and
chooses between them.

The decision is deterministic and fully explained: the returned
:class:`ExecutionPlan` records the estimated input bytes, the projected
in-memory footprint, the budget it was compared against, and one reason line
per rule that fired — surfaced in run reports and ``repro process`` output.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.core.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import RecipeConfig
    from repro.core.dataset import NestedDataset

#: the execution modes ``plan_execution`` accepts
EXECUTION_MODES = ("auto", "memory", "streaming")

#: projected in-memory footprint per raw input byte (columns, stats columns,
#: hash columns, per-op copies held across cache boundaries)
MEMORY_EXPANSION_FACTOR = 4.0

#: additional multiplier for gzip-compressed inputs (typical web-text ratio)
GZIP_EXPANSION_FACTOR = 4.0

#: fraction of detected free memory the planner is willing to commit
DEFAULT_MEMORY_FRACTION = 0.5

#: budget when the platform exposes no memory information (1 GiB)
FALLBACK_MEMORY_BYTES = 1 << 30

#: rows probed when estimating the footprint of an in-memory dataset
_PROBE_ROWS = 64


@dataclass(frozen=True)
class ResourceBudget:
    """The resources an automatic mode decision may plan against."""

    max_memory_bytes: int = FALLBACK_MEMORY_BYTES

    @classmethod
    def detect(cls) -> "ResourceBudget":
        """Budget from the host's currently-available memory (best effort).

        Uses ``sysconf`` available-pages data scaled by
        :data:`DEFAULT_MEMORY_FRACTION`; platforms without it fall back to
        :data:`FALLBACK_MEMORY_BYTES`.
        """
        try:
            page_size = os.sysconf("SC_PAGE_SIZE")
            pages = os.sysconf("SC_AVPHYS_PAGES")
            if page_size > 0 and pages > 0:
                return cls(int(page_size * pages * DEFAULT_MEMORY_FRACTION))
        except (ValueError, OSError, AttributeError):  # pragma: no cover - platform
            pass
        return cls()  # pragma: no cover - exercised only without sysconf


@dataclass
class ExecutionPlan:
    """The planner's decision plus everything it looked at to make it."""

    mode: str
    requested: str = "auto"
    engine: str = "batched"
    np: int = 1
    batch_size: int | None = None
    estimated_input_bytes: int | None = None
    estimated_memory_bytes: int | None = None
    budget_bytes: int | None = None
    reasons: list[str] = field(default_factory=list)
    #: pre-flight dataflow findings (``DataflowFinding.as_dict()`` rows),
    #: attached by ``Pipeline.plan`` and ``Executor.execute``
    dataflow: list[dict] = field(default_factory=list)

    def as_dict(self) -> dict:
        """JSON-safe view embedded into run reports."""
        return {
            "mode": self.mode,
            "requested": self.requested,
            "engine": self.engine,
            "np": self.np,
            "batch_size": self.batch_size,
            "estimated_input_bytes": self.estimated_input_bytes,
            "estimated_memory_bytes": self.estimated_memory_bytes,
            "budget_bytes": self.budget_bytes,
            "reasons": list(self.reasons),
            "dataflow": [dict(finding) for finding in self.dataflow],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExecutionPlan":
        """Rebuild a plan from :meth:`as_dict` output (e.g. a report's
        ``planner`` section)."""
        known = {key: payload[key] for key in (
            "mode", "requested", "engine", "np", "batch_size",
            "estimated_input_bytes", "estimated_memory_bytes", "budget_bytes",
        ) if key in payload}
        return cls(
            reasons=list(payload.get("reasons", [])),
            dataflow=[dict(f) for f in payload.get("dataflow", [])],
            **known,
        )

    def describe(self) -> str:
        """One-line human rendering (CLI output)."""
        detail = "; ".join(self.reasons) or "no planning rules fired"
        flow = f"; {len(self.dataflow)} dataflow finding(s)" if self.dataflow else ""
        return f"plan: mode={self.mode} engine={self.engine} ({detail}{flow})"


def _file_bytes(path: Path) -> int:
    """Expanded byte estimate of one input file (gzip envelopes inflated)."""
    size = path.stat().st_size
    if path.suffix == ".gz":
        size = int(size * GZIP_EXPANSION_FACTOR)
    return size


def estimate_input_bytes(
    cfg: "RecipeConfig", dataset: "NestedDataset | None" = None
) -> int | None:
    """Estimate the raw input size in bytes, or ``None`` when unknowable.

    For an in-memory dataset the estimate probes the first rows and
    extrapolates; for a path input it sums the resolved files' sizes
    (gzip-compressed files are inflated by :data:`GZIP_EXPANSION_FACTOR`).
    """
    if dataset is not None:
        rows = len(dataset)
        if rows == 0:
            return 0
        probe = dataset[: min(rows, _PROBE_ROWS)]
        probe_bytes = sum(
            len(str(value))
            for row in probe
            for value in row.values()
            if value is not None
        )
        return int(probe_bytes / max(1, len(probe)) * rows)
    if not cfg.dataset_path:
        return None
    path = Path(cfg.dataset_path)
    if path.is_file():
        return _file_bytes(path)
    from repro.formats.sharded import ShardedSource, is_glob

    if path.is_dir() or is_glob(str(cfg.dataset_path)):
        from repro.core.errors import FormatError

        try:
            paths = ShardedSource(cfg.dataset_path).files()
        except FormatError:
            return None
        return sum(_file_bytes(shard) for shard in paths)
    return None


def plan_execution(
    cfg: "RecipeConfig",
    dataset: "NestedDataset | None" = None,
    mode: str = "auto",
    budget: ResourceBudget | None = None,
) -> ExecutionPlan:
    """Choose the physical execution mode for one run.

    ``mode`` is ``"memory"`` / ``"streaming"`` for an explicit override, or
    ``"auto"`` to decide from the recipe (an explicit ``stream: true`` recipe
    keeps streaming), the estimated input size and the memory budget
    (``cfg.memory_budget`` when set, else ``budget``, else
    :meth:`ResourceBudget.detect`).
    """
    if mode not in EXECUTION_MODES:
        raise ConfigError(
            f"unknown execution mode {mode!r}; expected one of {EXECUTION_MODES}"
        )
    if cfg.memory_budget is not None:
        # the recipe's own budget is the user's durable declaration and beats
        # a caller-side default (matching the documented precedence)
        budget = ResourceBudget(cfg.memory_budget)
    elif budget is None:
        budget = ResourceBudget.detect()
    plan = ExecutionPlan(
        mode="memory",
        requested=mode,
        engine="pooled" if cfg.np > 1 else "batched",
        np=cfg.np,
        batch_size=cfg.batch_size,
        budget_bytes=budget.max_memory_bytes,
    )
    if mode == "memory":
        plan.reasons.append("in-memory mode explicitly requested")
        return plan
    if mode == "streaming":
        plan.mode = "streaming"
        plan.reasons.append("streaming mode explicitly requested")
        return plan
    if cfg.stream:
        plan.mode = "streaming"
        plan.reasons.append("recipe requests streaming (stream: true)")
        return plan
    if dataset is not None:
        plan.estimated_input_bytes = estimate_input_bytes(cfg, dataset)
        plan.reasons.append("input dataset is already materialised in memory")
        return plan
    estimated = estimate_input_bytes(cfg)
    plan.estimated_input_bytes = estimated
    if estimated is None:
        plan.reasons.append("input size unknown; defaulting to in-memory execution")
        return plan
    projected = int(estimated * MEMORY_EXPANSION_FACTOR)
    plan.estimated_memory_bytes = projected
    if projected > budget.max_memory_bytes:
        plan.mode = "streaming"
        plan.reasons.append(
            f"projected footprint {projected} B (input {estimated} B x "
            f"{MEMORY_EXPANSION_FACTOR:g}) exceeds the {budget.max_memory_bytes} B "
            "memory budget"
        )
    else:
        plan.reasons.append(
            f"projected footprint {projected} B fits the "
            f"{budget.max_memory_bytes} B memory budget"
        )
    return plan


__all__ = [
    "EXECUTION_MODES",
    "ExecutionPlan",
    "GZIP_EXPANSION_FACTOR",
    "MEMORY_EXPANSION_FACTOR",
    "ResourceBudget",
    "estimate_input_bytes",
    "plan_execution",
]
