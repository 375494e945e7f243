"""CaSE (Yu et al., 2019): one-shot set expansion with lexical features and
distributed representations.

CaSE scores every candidate once (no bootstrapping) by combining
(a) a lexical signal — BM25-weighted overlap between the candidate's context
sentences and the seed entities' context sentences — with (b) a distributed
signal — cosine similarity between corpus co-occurrence embeddings.  Like
SetExpan it only consumes positive seeds.

Hot path: the sliced entity embeddings are a
:class:`~repro.core.dense.DenseRanker` vector space, stacked once at
fit/load time; from 4,096 entities the distributed scan covers a probed ANN
shortlist, always re-scored exactly.  Fit and restore also keep a per-entity
term-frequency matrix, so the lexical score of the whole shortlist is one
gather and a few array operations per seed.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.dense import DenseRanker, VectorSpace
from repro.core.resources import SharedResources
from repro.dataset.ultrawiki import UltraWikiDataset
from repro.substrate import COOCCURRENCE_EMBEDDINGS
from repro.text.bm25 import BM25Index
from repro.text.tokenizer import WordTokenizer
from repro.types import ExpansionResult, Query


class CaSE(DenseRanker):
    """Lexical + distributed one-shot ranking."""

    name = "CaSE"
    supports_persistence = True
    #: v3: the candidate matrix is precomputed; the artifact references the
    #: embeddings, plus a partitioned ANN-index substrate from 4,096
    #: entities (a smaller vocabulary's index reference, written by older
    #: builds, is never resolved).
    state_version = 3

    def __init__(
        self,
        lexical_weight: float = 0.55,
        distributed_dim: int = 96,
        resources: SharedResources | None = None,
    ):
        """``distributed_dim`` truncates the entity embeddings: CaSE predates
        large pretrained encoders, so its distributed representations are
        lower-capacity (word2vec-scale) than the ones RetExpan consumes."""
        super().__init__(resources)
        if not 0.0 <= lexical_weight <= 1.0:
            raise ValueError("lexical_weight must be in [0, 1]")
        if distributed_dim <= 0:
            raise ValueError("distributed_dim must be positive")
        self.lexical_weight = lexical_weight
        self.distributed_dim = distributed_dim
        self._tokenizer = WordTokenizer()
        self._bm25: BM25Index | None = None
        self._entity_terms: dict[int, list[str]] = {}
        #: entity id -> row of the term-frequency matrix.
        self._term_rows: dict[int, int] = {}
        self._term_columns: dict[str, int] = {}
        #: entity x term frequencies, plus one all-zero last row that stands
        #: in for a candidate without a document.
        self._term_frequencies = np.zeros((1, 0), dtype=np.uint8)
        self._document_lengths = np.zeros(1)

    def _vector_space(self) -> VectorSpace:
        """The PPMI-SVD co-occurrence entity embeddings, truncated."""
        return VectorSpace(
            COOCCURRENCE_EMBEDDINGS,
            self._resources.cooccurrence_params(),
            "entity",
            self.distributed_dim,
        )

    def _fit(self, dataset: UltraWikiDataset) -> None:
        self._resources = self._resources or SharedResources(dataset)
        self._bind_vectors()
        self._entity_terms = {}
        for entity in dataset.entities():
            tokens: list[str] = []
            for sentence in dataset.corpus.sentences_of(entity.entity_id):
                masked = dataset.corpus.masked_text(sentence, entity.name)
                tokens.extend(
                    token
                    for token in self._tokenizer.tokenize(masked)
                    if token != "[MASK]"
                )
            self._entity_terms[entity.entity_id] = tokens
        self._index_terms()

    def _index_terms(self) -> None:
        """Derive the BM25 index and the term-frequency matrix from the term
        profiles.  Neither changes after fit, so nothing invalidates them."""
        ids = sorted(self._entity_terms)
        self._bm25 = BM25Index()
        for entity_id in ids:
            self._bm25.add_document(entity_id, self._entity_terms[entity_id])
        self._term_rows = {entity_id: row for row, entity_id in enumerate(ids)}
        lengths = [len(self._entity_terms[entity_id]) for entity_id in ids]
        self._term_columns = {}
        columns = np.fromiter(
            (
                self._term_columns.setdefault(term, len(self._term_columns))
                for entity_id in ids
                for term in self._entity_terms[entity_id]
            ),
            dtype=np.intp,
            count=sum(lengths),
        )
        # a term's frequency is at most its document's length
        self._term_frequencies = np.zeros(
            (len(ids) + 1, len(self._term_columns)),
            dtype=np.min_scalar_type(max(lengths, default=0)),
        )
        np.add.at(self._term_frequencies, (np.repeat(np.arange(len(ids)), lengths), columns), 1)
        self._document_lengths = np.array(lengths + [0], dtype=np.float64)

    # -- persistence ----------------------------------------------------------------
    def _save_state(self, directory: Path) -> None:
        # The embeddings substrate is *referenced* via the manifest (see
        # substrate_dependencies); only the method-private BM25 term
        # profiles are embedded.
        from repro.store.serialization import write_json_state

        write_json_state(
            directory / "entity_terms.json",
            {str(entity_id): terms for entity_id, terms in self._entity_terms.items()},
        )

    def _load_state(self, directory: Path, dataset: UltraWikiDataset) -> None:
        from repro.store.serialization import read_json_state

        self._resources = self._resources or SharedResources(dataset)
        self._bind_vectors()
        terms = read_json_state(directory / "entity_terms.json")
        self._entity_terms = {
            int(entity_id): [str(t) for t in tokens] for entity_id, tokens in terms.items()
        }
        self._index_terms()

    def _bm25_scores(self, query_terms: list[str], rows: np.ndarray) -> np.ndarray:
        """``BM25Index.score(query_terms, doc)`` for the document of every
        term-frequency row, bit for bit: each query term adds the same float
        expression, in query order (a term the document lacks adds exactly
        0.0 to a non-negative total, where ``score`` skips it)."""
        bm25 = self._bm25
        totals = np.zeros(len(rows))
        terms = [term for term in query_terms if term in self._term_columns]
        if not terms:
            return totals
        k1, b = bm25.k1, bm25.b
        avg_len = bm25.average_document_length or 1.0
        length_norm = k1 * (1.0 - b + b * self._document_lengths[rows] / avg_len)
        tf = self._term_frequencies[
            np.ix_(rows, [self._term_columns[term] for term in terms])
        ].astype(np.float64)
        idf = np.array([bm25.idf(term) for term in terms])
        term_scores = np.divide(
            idf * tf * (k1 + 1.0),
            tf + length_norm[:, None],
            out=np.zeros_like(tf),
            where=tf > 0,
        )
        for term_score in term_scores.T:
            totals += term_score
        return totals

    def _lexical_scores(
        self, candidate_ids: list[int], seed_ids: tuple[int, ...]
    ) -> np.ndarray:
        """Mean BM25 score of each candidate's context document for each
        seed's terms.

        Bit for bit ``np.mean`` over the per-seed scores: each candidate's
        row is reduced over its contiguous seed axis, as ``np.mean`` reduces
        a list.
        """
        if not seed_ids:
            return np.zeros(len(candidate_ids))
        rows = np.array(
            [self._term_rows.get(eid, -1) for eid in candidate_ids], dtype=np.intp
        )
        per_seed = np.empty((len(candidate_ids), len(seed_ids)))
        for column, seed in enumerate(seed_ids):
            # Use a truncated seed term profile as the query to keep scoring cheap.
            per_seed[:, column] = self._bm25_scores(
                self._entity_terms.get(seed, [])[:50], rows
            )
        return per_seed.mean(axis=1)

    def _distributed_scores(
        self, candidate_ids: list[int], seed_ids: tuple[int, ...]
    ) -> dict[int, float]:
        matrix = self._matrix
        seeds = [s for s in seed_ids if s in matrix]
        if not seeds:
            return {eid: 0.0 for eid in candidate_ids}
        seed_matrix = matrix.rows(seeds)
        scores: dict[int, float] = {}
        usable = [eid for eid in candidate_ids if eid in matrix]
        if usable:
            sims = (matrix.rows(usable) @ seed_matrix.T).mean(axis=1)
            scores.update({eid: float(s) for eid, s in zip(usable, sims)})
        for eid in candidate_ids:
            scores.setdefault(eid, 0.0)
        return scores

    def _expand(self, query: Query, top_k: int) -> ExpansionResult:
        required = max(3 * top_k, 150)
        candidates = self._candidates(query, required)
        distributed = self._distributed_scores(candidates, query.positive_seed_ids)
        # Lexical scoring is restricted to the best distributed candidates for
        # tractability (CaSE itself prunes with an inverted index).
        shortlist = sorted(distributed.items(), key=lambda item: (-item[1], item[0]))
        shortlist_ids = [eid for eid, _ in shortlist[:required]]
        lexical_values = self._lexical_scores(shortlist_ids, query.positive_seed_ids).tolist()
        max_lex = max(lexical_values) if lexical_values else 0.0
        scored = []
        for eid, lexical_value in zip(shortlist_ids, lexical_values):
            lexical = lexical_value / max_lex if max_lex > 0 else 0.0
            combined = (
                self.lexical_weight * lexical
                + (1.0 - self.lexical_weight) * distributed[eid]
            )
            scored.append((eid, combined))
        return ExpansionResult.from_scores(query.query_id, scored)
