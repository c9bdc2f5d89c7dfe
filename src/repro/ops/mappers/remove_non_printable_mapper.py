"""Mapper that removes non-printable control characters."""

from __future__ import annotations

import unicodedata

from repro.core.base_op import Mapper
from repro.core.batch import get_text_column, set_text_column
from repro.core.registry import OPERATORS

_KEEP = frozenset("\n\t\r")

#: ``str.translate`` table deleting every non-printable char seen so far,
#: and every char already classified; both grow lazily, once per process
_DELETE_TABLE: dict[int, None] = {}
_CLASSIFIED: set[str] = set()


def _is_non_printable(char: str) -> bool:
    return char not in _KEEP and unicodedata.category(char).startswith("C")


@OPERATORS.register_module("remove_non_printable_mapper")
class RemoveNonPrintableMapper(Mapper):
    """Delete control and format characters (category C*) except newlines/tabs."""

    KEEP = _KEEP

    def __init__(self, text_key: str = "text", **kwargs):
        super().__init__(text_key=text_key, **kwargs)

    def process(self, sample: dict) -> dict:
        text = self.get_text(sample)
        cleaned = "".join(char for char in text if not _is_non_printable(char))
        return self.set_text(sample, cleaned)

    def process_batched(self, samples: dict) -> dict:
        """Classify the batch's distinct chars once, then ``str.translate``.

        Texts are rewritten only when the batch holds a char to delete;
        bit-identical to :meth:`process`.
        """
        texts = get_text_column(samples, self.text_key)
        if texts is None:
            return super().process_batched(samples)
        present = set().union(*texts)
        for char in present.difference(_CLASSIFIED):
            if _is_non_printable(char):
                _DELETE_TABLE[ord(char)] = None
            _CLASSIFIED.add(char)
        if any(ord(char) in _DELETE_TABLE for char in present):
            texts = [text.translate(_DELETE_TABLE) for text in texts]
        return set_text_column(samples, self.text_key, texts)
