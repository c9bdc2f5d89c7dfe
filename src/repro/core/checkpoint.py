"""Checkpoint manager: persist processing state for crash recovery.

The paper's checkpoint mechanism (Sec. 4.1.1) stores processing state so a
failed or interrupted run resumes from the most recent state instead of
re-executing the whole recipe.  Here the state is shard-granular: with
``use_checkpoint`` every pipeline stage spills its processed shards under
``<checkpoint_dir>/stream`` (see :class:`repro.core.stream.ShardStore`), so a
crash resumes mid-corpus.  The manager owns that directory and the state file
that guards it: the per-op config hashes, the shard budget and the input
signature of the run that wrote the spill.  Any difference — or a state file
that cannot be read — means the spill describes another run and is dropped.
"""

from __future__ import annotations

import json
import os
from pathlib import Path


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (same-directory tmp + replace).

    A crash mid-write leaves either the previous file or the stray ``.tmp``
    behind — never a truncated target — which is the property every resume
    path relies on.
    """
    temp = path.with_name(path.name + ".tmp")
    temp.write_text(text, encoding="utf-8")
    os.replace(temp, path)


class CheckpointManager:
    """Own the shard spill directory of checkpointed runs and its state file."""

    STREAM_STATE_FILE = "stream_state.json"
    STREAM_DIR = "stream"

    def __init__(self, checkpoint_dir: str | Path, enabled: bool = True):
        self.checkpoint_dir = Path(checkpoint_dir)
        self.enabled = enabled

    @property
    def stream_dir(self) -> Path:
        """Directory holding the run's spilled shards."""
        return self.checkpoint_dir / self.STREAM_DIR

    def load_stream_state(self) -> dict | None:
        """Return the persisted state, or ``None`` when absent.

        A state file that cannot be read or decoded (truncated JSON, bytes
        that are not UTF-8) also reads as ``None``: the run starts over
        instead of failing on resume.
        """
        path = self.checkpoint_dir / self.STREAM_STATE_FILE
        if not self.enabled:
            return None
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, OSError):
            return None

    def save_stream_state(self, state: dict) -> None:
        """Persist the state (op hashes, shard budget, input signature)."""
        if not self.enabled:
            return
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            self.checkpoint_dir / self.STREAM_STATE_FILE, json.dumps(state, indent=2)
        )

    def clear_stream(self) -> None:
        """Drop the state file and every spilled shard."""
        from repro.core.stream import ShardStore

        path = self.checkpoint_dir / self.STREAM_STATE_FILE
        if path.exists():
            path.unlink()
        if self.stream_dir.exists():
            ShardStore(self.stream_dir).clear()
            self.stream_dir.rmdir()
