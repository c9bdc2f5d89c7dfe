"""Tracer: record per-operator sample lineage for interactive inspection.

The paper's ``tracer`` tool (Sec. 4.2) records, for every operator, how
individual samples changed: edited text for Mappers, discarded samples for
Filters/Selectors, and (near-)duplicate pairs for Deduplicators.  The records
back the interactive visualization of the original system; here they are
available programmatically and as JSONL files.

An operator may be traced many times in one run — once per shard — so every
call merges into one per-operator record: counts add up, and examples fill a
bounded first-``show_num`` reservoir, so memory grows with ``show_num`` and
never with the corpus.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.dataset import NestedDataset
from repro.core.sample import Fields, get_field


@dataclass
class TraceRecord:
    """One operator's trace: what changed, and a bounded set of examples."""

    op_name: str
    op_type: str
    input_size: int
    output_size: int
    examples: list = field(default_factory=list)

    @property
    def removed(self) -> int:
        """Number of samples removed by this operator."""
        return max(0, self.input_size - self.output_size)


def _discarded_examples(
    before: NestedDataset, after: NestedDataset, budget: int, offset: int = 0
) -> list[dict]:
    """Up to ``budget`` rows of ``before`` whose text did not survive into ``after``.

    Membership is by text value (the surviving rows of a filter keep their
    text verbatim), with ``None`` texts matched against whether *any*
    surviving row has a ``None`` text.  ``offset`` shifts the reported
    indexes, so later shards report corpus-global positions.
    """
    if budget <= 0:
        return []
    kept_texts = set()
    none_kept = False
    for row in after:
        text = row.get(Fields.text)
        if text is None:
            none_kept = True
        else:
            kept_texts.add(text)
    examples: list[dict] = []
    for index, row in enumerate(before):
        text = row.get(Fields.text)
        if (none_kept if text is None else text in kept_texts):
            continue
        examples.append(
            {
                "index": offset + index,
                "discarded": text if text is not None else "",
                "stats": row.get(Fields.stats, {}),
            }
        )
        if len(examples) >= budget:
            break
    return examples


class Tracer:
    """Accumulate one :class:`TraceRecord` per operator, across shards.

    ``records`` is in first-touch order; the executor registers every
    pipeline op before the first shard flows, so that is pipeline order even
    for ops an empty input never reaches.  With a ``trace_dir``,
    :meth:`write_files` writes each record's ``trace-NNN-<op>.jsonl`` file;
    the executor calls it once, at the end of a run.
    """

    def __init__(self, show_num: int = 10, trace_dir: str | Path | None = None):
        self.show_num = show_num
        self.trace_dir = Path(trace_dir) if trace_dir else None
        self.records: list[TraceRecord] = []
        self._by_name: dict[str, TraceRecord] = {}

    # ------------------------------------------------------------------
    def register(self, op_name: str, op_type: str) -> TraceRecord:
        """Return (creating on first touch) the record of an operator."""
        record = self._by_name.get(op_name)
        if record is None:
            record = self._by_name[op_name] = TraceRecord(op_name, op_type, 0, 0, [])
            self.records.append(record)
        return record

    def _budget(self, record: TraceRecord) -> int:
        return max(0, self.show_num - len(record.examples))

    def wants_examples(self, op_name: str, op_type: str) -> bool:
        """True while the op's example reservoir still has room."""
        return self._budget(self.register(op_name, op_type)) > 0

    def add_example(self, op_name: str, op_type: str, example: dict) -> bool:
        """Attach one example to an op; False once the reservoir is full."""
        record = self.register(op_name, op_type)
        if self._budget(record) <= 0:
            return False
        record.examples.append(example)
        return True

    def _count(self, record: TraceRecord, input_size: int, output_size: int) -> TraceRecord:
        record.input_size += input_size
        record.output_size += output_size
        return record

    # ------------------------------------------------------------------
    def trace_mapper(
        self,
        op_name: str,
        before: NestedDataset,
        after: NestedDataset,
        text_key: str = Fields.text,
    ) -> TraceRecord:
        """Record pre/post-edit text pairs for samples changed by a Mapper."""
        record = self.register(op_name, "mapper")
        offset = record.input_size
        if self._budget(record) > 0:
            for index in range(min(len(before), len(after))):
                original = get_field(before[index], text_key, "")
                edited = get_field(after[index], text_key, "")
                if original != edited:
                    record.examples.append(
                        {"index": offset + index, "before": original, "after": edited}
                    )
                    if len(record.examples) >= self.show_num:
                        break
        return self._count(record, len(before), len(after))

    def trace_filter(
        self, op_name: str, before: NestedDataset, after: NestedDataset
    ) -> TraceRecord:
        """Record the samples discarded by a Filter or Selector."""
        record = self.register(op_name, "filter")
        record.examples.extend(
            _discarded_examples(before, after, self._budget(record), offset=record.input_size)
        )
        return self._count(record, len(before), len(after))

    def trace_deduplicator(
        self, op_name: str, input_size: int, output_size: int, duplicate_pairs: list
    ) -> TraceRecord:
        """Record (near-)duplicate pairs found by a Deduplicator."""
        record = self.register(op_name, "deduplicator")
        for original, duplicate in duplicate_pairs[: self._budget(record)]:
            record.examples.append(
                {
                    "original": original.get(Fields.text, ""),
                    "duplicate": duplicate.get(Fields.text, ""),
                }
            )
        return self._count(record, input_size, output_size)

    def observe_global(
        self, op_name: str, op_type: str, input_size: int, output_size: int
    ) -> TraceRecord:
        """Record the sizes of a globally resolved op (its examples come later)."""
        return self._count(self.register(op_name, op_type), input_size, output_size)

    # ------------------------------------------------------------------
    def write_files(self) -> None:
        """Write one ``trace-NNN-<op>.jsonl`` file per record (no-op without a dir)."""
        if self.trace_dir is None:
            return
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        for position, record in enumerate(self.records, start=1):
            path = self.trace_dir / f"trace-{position:03d}-{record.op_name}.jsonl"
            with path.open("w", encoding="utf-8") as handle:
                header = {
                    "op_name": record.op_name,
                    "op_type": record.op_type,
                    "input_size": record.input_size,
                    "output_size": record.output_size,
                }
                handle.write(json.dumps(header, ensure_ascii=False) + "\n")
                for example in record.examples:
                    handle.write(json.dumps(example, ensure_ascii=False, default=repr) + "\n")

    def summary(self) -> list[dict]:
        """Per-operator size changes, in pipeline order (drives Figure 4.(b))."""
        return [
            {
                "op_name": record.op_name,
                "op_type": record.op_type,
                "input_size": record.input_size,
                "output_size": record.output_size,
                "removed": record.removed,
            }
            for record in self.records
        ]
