"""BM25 ranking over a document collection.

The UltraWiki construction pipeline uses BM25 search to mine hard negative
entities that are textually close to the target entities (Section IV-B,
"Difficulty of UltraWiki").  The same index is reused by the CaSE baseline
for its lexical-feature component.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.text.inverted_index import InvertedIndex


class BM25Index:
    """Okapi BM25 with the standard k1/b parameterisation."""

    def __init__(self, k1: float = 1.5, b: float = 0.75):
        if k1 < 0:
            raise ValueError("k1 must be non-negative")
        if not 0.0 <= b <= 1.0:
            raise ValueError("b must be in [0, 1]")
        self.k1 = k1
        self.b = b
        self._index = InvertedIndex()

    def add_document(self, doc_id: int, tokens: Sequence[str]) -> None:
        self._index.add_document(doc_id, tokens)

    @property
    def num_documents(self) -> int:
        return self._index.num_documents

    @property
    def average_document_length(self) -> float:
        return self._index.average_document_length

    def idf(self, token: str) -> float:
        """BM25 idf with the +1 floor that keeps scores non-negative."""
        n = self._index.num_documents
        df = self._index.document_frequency(token)
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))

    def score(self, query_tokens: Sequence[str], doc_id: int) -> float:
        """BM25 score of ``doc_id`` for the query."""
        avg_len = self._index.average_document_length or 1.0
        doc_len = self._index.document_length(doc_id)
        total = 0.0
        for token in query_tokens:
            tf = self._index.postings(token).get(doc_id, 0)
            if tf == 0:
                continue
            idf = self.idf(token)
            denom = tf + self.k1 * (1.0 - self.b + self.b * doc_len / avg_len)
            total += idf * tf * (self.k1 + 1.0) / denom
        return total

    def search(self, query_tokens: Sequence[str], top_k: int = 10) -> list[tuple[int, float]]:
        """Return the top-``top_k`` (doc_id, score) pairs for the query.

        Only documents sharing at least one query token are scored.  Every
        query token, in query order and repeats included, adds ``score``'s
        float expression over its postings into one totals vector, so each
        total equals ``score`` bit for bit; ties rank by ascending doc id.
        """
        index = self._index
        doc_ids, doc_lengths = index.document_arrays()
        avg_len = index.average_document_length or 1.0
        k1, b = self.k1, self.b
        totals = np.zeros(len(doc_ids))
        hit = np.zeros(len(doc_ids), dtype=bool)
        for token in query_tokens:
            postings = index.postings(token)
            if not postings:
                continue
            rows = np.searchsorted(
                doc_ids, np.fromiter(postings.keys(), dtype=np.int64, count=len(postings))
            )
            tf = np.fromiter(postings.values(), dtype=np.float64, count=len(postings))
            idf = self.idf(token)
            denom = tf + k1 * (1.0 - b + b * doc_lengths[rows] / avg_len)
            totals[rows] += idf * tf * (k1 + 1.0) / denom
            hit[rows] = True
        candidates = np.flatnonzero(hit)
        ids, scores = doc_ids[candidates], totals[candidates]
        order = np.lexsort((ids, -scores))[:top_k]
        return [(int(doc_id), float(score)) for doc_id, score in zip(ids[order], scores[order])]
