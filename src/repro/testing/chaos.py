"""Deterministic chaos harness: seeded fault injection for operators.

A :class:`FaultPlan` describes exactly *where* faults fire (which operator,
which rows via substring match), *what* fires (an exception, a worker-process
kill, a hang) and *how often* (``times``-bounded via on-disk fuse tokens that
work across worker processes).  Installing the plan wraps the chosen
operators' execution methods in place — batched and per-row paths alike, and
recursively through :class:`repro.core.fusion.FusedFilter` members — so the
same plan perturbs in-memory and streaming runs and the worker pool
identically.

Determinism contract: triggers are pure functions of the row payloads
(substring match) plus the persistent fuse state, never of wall-clock time or
process scheduling, so a chaos test replays bit-for-bit.  Fuse tokens are
claimed *before* the fault fires, which is what makes ``kill`` and ``hang``
faults one-shot: the retried dispatch finds the fuse blown and runs clean.

Limitations: wrappers live on the operator *instances*, so worker processes
observe them only under the ``fork`` start method (Linux default), where the
pool inherits the parent's already-wrapped ops.  This harness is a test
utility — never install a plan in production pipelines.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.core.base_op import Deduplicator, Filter, Mapper
from repro.core.sample import Fields

#: exit code of a chaos-killed worker process (distinctive in waitpid status)
KILL_EXIT_CODE = 43

#: wrapped method names per operator category (batched first, then per-row)
_METHODS_BY_CATEGORY = (
    (Mapper, ("process_batched", "process")),
    (Filter, ("compute_stats_batched", "compute_stats")),
    (Deduplicator, ("compute_hash_batched", "compute_hash")),
)

#: method names whose first argument is a columnar batch (dict of lists)
_BATCHED_METHODS = frozenset(
    {"process_batched", "compute_stats_batched", "compute_hash_batched"}
)


class ChaosFault(RuntimeError):
    """The exception raised by an injected ``raise`` fault."""


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: which op, what happens, on which rows, how often."""

    #: operator name the fault attaches to (fused members match by their own
    #: pre-fusion names)
    op_name: str
    #: ``raise`` (throw :class:`ChaosFault`), ``kill`` (``os._exit`` the
    #: executing process — a worker under ``np > 1``) or ``hang`` (sleep
    #: ``hang_s`` before proceeding, so a dispatch timeout sees a stuck worker)
    kind: str = "raise"
    #: substring of the row's text that arms the fault; ``None`` arms on
    #: every call
    match: str | None = None
    #: how many times the fault fires before burning out; ``None`` = always
    times: int | None = None
    #: sleep duration of a ``hang`` fault (seconds)
    hang_s: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in ("raise", "kill", "hang"):
            raise ValueError(f"unknown fault kind {self.kind!r}")


class FaultPlan:
    """A deterministic, installable collection of :class:`FaultSpec` faults.

    ``state_dir`` holds the fuse-token files that bound ``times``-limited
    faults across *all* processes touching the ops (parent and forked
    workers); it is required as soon as any spec sets ``times``.
    """

    def __init__(self, seed: int = 0, state_dir: str | Path | None = None):
        self.seed = seed
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.specs: list[FaultSpec] = []

    # ------------------------------------------------------------------
    def inject(
        self,
        op_name: str,
        kind: str = "raise",
        match: str | None = None,
        times: int | None = None,
        hang_s: float = 30.0,
    ) -> "FaultPlan":
        """Add one fault spec; chainable."""
        spec = FaultSpec(op_name, kind=kind, match=match, times=times, hang_s=hang_s)
        if spec.times is not None and self.state_dir is None:
            raise ValueError("times-bounded faults need a state_dir for fuse tokens")
        self.specs.append(spec)
        return self

    # ------------------------------------------------------------------
    # Fuse tokens: cross-process fire-at-most-N bookkeeping
    # ------------------------------------------------------------------
    def _claim(self, spec_index: int, spec: FaultSpec) -> bool:
        """Atomically claim one firing of ``spec``; False when burnt out.

        Token files are created with ``O_CREAT | O_EXCL`` so exactly one
        process wins each of the ``times`` slots, even when several forked
        workers race on the same shard text.
        """
        if spec.times is None:
            return True
        assert self.state_dir is not None
        self.state_dir.mkdir(parents=True, exist_ok=True)
        for slot in range(spec.times):
            token = self.state_dir / f"chaos-{self.seed}-spec{spec_index}-{slot}.fired"
            try:
                handle = os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(handle)
            return True
        return False

    def fired(self, spec_index: int = 0) -> int:
        """Number of fuse tokens the given spec has burnt so far."""
        spec = self.specs[spec_index]
        if spec.times is None or self.state_dir is None:
            return 0
        return sum(
            1
            for slot in range(spec.times)
            if (self.state_dir / f"chaos-{self.seed}-spec{spec_index}-{slot}.fired").exists()
        )

    def reset(self) -> None:
        """Clear every fuse token so the plan can re-fire from scratch."""
        if self.state_dir is None:
            return
        for spec_index, spec in enumerate(self.specs):
            for slot in range(spec.times or 0):
                token = self.state_dir / f"chaos-{self.seed}-spec{spec_index}-{slot}.fired"
                if token.exists():
                    token.unlink()

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, ops: Iterable[Any]) -> "FaultPlan":
        """Wrap every matching operator's execution methods in place.

        Recurses into fused filters so plans written against the raw recipe
        op names keep working when ``op_fusion`` is on.  Returns ``self``
        for chaining.
        """
        for op in ops:
            members = getattr(op, "fused_filters", None)
            if members is not None:
                self.install(members)
            for spec_index, spec in enumerate(self.specs):
                if getattr(op, "name", None) != spec.op_name:
                    continue
                for base, method_names in _METHODS_BY_CATEGORY:
                    if not isinstance(op, base):
                        continue
                    for method_name in method_names:
                        self._wrap(op, method_name, spec_index, spec)
        return self

    def _wrap(self, op: Any, method_name: str, spec_index: int, spec: FaultSpec) -> None:
        original = getattr(op, method_name)
        text_key = getattr(op, "text_key", Fields.text)
        batched = method_name in _BATCHED_METHODS
        plan = self

        def chaotic(payload: Any, *args: Any, **kwargs: Any) -> Any:
            if _armed(payload, spec.match, text_key, batched) and plan._claim(
                spec_index, spec
            ):
                if spec.kind == "kill":
                    # simulate a hard worker death: no cleanup, no exception
                    os._exit(KILL_EXIT_CODE)
                if spec.kind == "raise":
                    raise ChaosFault(
                        f"chaos: injected failure in {spec.op_name} ({method_name})"
                    )
                time.sleep(spec.hang_s)  # "hang": stall, then behave normally
            return original(payload, *args, **kwargs)

        # the engines route bound methods to the worker pool via __self__ /
        # __name__ introspection (WorkerPool.accepts); the wrapper must look
        # like the method it replaces or wrapped ops would silently fall back
        # to in-parent serial execution — and a `kill` fault would take down
        # the parent instead of a worker
        chaotic.__name__ = method_name
        chaotic.__self__ = op
        setattr(op, method_name, chaotic)


def _armed(payload: Any, match: str | None, text_key: str, batched: bool) -> bool:
    """Does this call's payload arm the fault?

    Batched payloads are columnar (dict of row-aligned lists); per-row
    payloads are plain sample dicts.  A ``None`` match arms every call.
    """
    if match is None:
        return True
    if batched:
        texts = payload.get(text_key) or []
        return any(isinstance(text, str) and match in text for text in texts)
    text = payload.get(text_key)
    return isinstance(text, str) and match in text


__all__ = ["ChaosFault", "FaultPlan", "FaultSpec", "KILL_EXIT_CODE"]
