"""A simple inverted index from token to document ids.

Used by the statistical baselines (SetExpan, CaSE) to retrieve context
features and by BM25 as its posting-list store.

The total document length BM25 reads on every scored document is maintained
incrementally by :meth:`InvertedIndex.add_document` and
:meth:`InvertedIndex.remove_document`, the only two mutators, so the average
document length is O(1).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

_NO_POSTINGS: Mapping[int, int] = MappingProxyType({})


class InvertedIndex:
    """Maps tokens to the documents (and term frequencies) containing them."""

    def __init__(self):
        self._postings: dict[str, dict[int, int]] = defaultdict(dict)
        self._doc_lengths: dict[int, int] = {}
        #: sum of ``_doc_lengths`` (an int, so the average is exact).
        self._total_length = 0

    def add_document(self, doc_id: int, tokens: Sequence[str]) -> None:
        """Index ``tokens`` under ``doc_id`` (re-adding a doc id overwrites it)."""
        if doc_id in self._doc_lengths:
            self.remove_document(doc_id)
        counts = Counter(tokens)
        for token, count in counts.items():
            self._postings[token][doc_id] = count
        self._doc_lengths[doc_id] = len(tokens)
        self._total_length += len(tokens)

    def remove_document(self, doc_id: int) -> None:
        """Remove ``doc_id`` from all postings."""
        if doc_id not in self._doc_lengths:
            return
        for token in list(self._postings.keys()):
            self._postings[token].pop(doc_id, None)
            if not self._postings[token]:
                del self._postings[token]
        self._total_length -= self._doc_lengths.pop(doc_id)

    def postings(self, token: str) -> Mapping[int, int]:
        """Read-only view of doc id → term frequency for ``token``."""
        postings = self._postings.get(token)
        return _NO_POSTINGS if postings is None else MappingProxyType(postings)

    def document_frequency(self, token: str) -> int:
        return len(self._postings.get(token, {}))

    def documents_containing(self, token: str) -> set[int]:
        return set(self._postings.get(token, {}))

    def documents_containing_all(self, tokens: Iterable[str]) -> set[int]:
        """Doc ids containing every token in ``tokens``."""
        result: set[int] | None = None
        for token in tokens:
            docs = self.documents_containing(token)
            result = docs if result is None else (result & docs)
            if not result:
                return set()
        return result or set()

    def document_length(self, doc_id: int) -> int:
        return self._doc_lengths.get(doc_id, 0)

    def document_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Every doc id, ascending, and its length (as float64)."""
        count = len(self._doc_lengths)
        ids = np.fromiter(self._doc_lengths.keys(), dtype=np.int64, count=count)
        lengths = np.fromiter(self._doc_lengths.values(), dtype=np.float64, count=count)
        order = np.argsort(ids, kind="stable")
        return ids[order], lengths[order]

    @property
    def num_documents(self) -> int:
        return len(self._doc_lengths)

    @property
    def average_document_length(self) -> float:
        if not self._doc_lengths:
            return 0.0
        return self._total_length / len(self._doc_lengths)

    def vocabulary(self) -> set[str]:
        return set(self._postings.keys())
