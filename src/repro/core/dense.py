"""The dense rankers' shared vector space and their one ANN policy.

CGExpan, CaSE, RetExpan and ProbExpan all rank candidates by mean cosine
similarity to the positive seeds (the paper's Eq. 5).  Each subclass of
:class:`DenseRanker` declares its vector space once (:meth:`_vector_space`)
and the base does the rest:

* it stacks the row-normalized :class:`~repro.retrieval.CandidateMatrix`
  over that space, at fit and at restore alike;
* it attaches the partitioned ``ann_index`` substrate only when the matrix
  has at least :data:`~repro.retrieval.ANN_AUTO_THRESHOLD` rows, and lists
  it in :meth:`substrate_dependencies` only then;
* :meth:`_candidates` returns the probed shortlist when an index is
  attached and ``None`` otherwise, so vocabulary size alone picks the path;
  ``None`` means every row but the query's seeds, which
  :func:`~repro.retexpan.expansion.matrix_similarity_scores` scores with
  one product over the whole matrix, gathering no candidate row;
* :meth:`_negative_rerank` is RetExpan's segmented negative-seed
  re-ranking, which ProbExpan's "+ Neg Rerank" variant reuses: it gathers
  the listed rows once and scores them against each seed side with one
  stacked product (:meth:`_similarity_table`).
"""

from __future__ import annotations

from abc import abstractmethod
from typing import NamedTuple

import numpy as np

from repro.core.base import Expander
from repro.core.rerank import segmented_rerank
from repro.core.resources import SharedResources
from repro.retrieval import ANN_AUTO_THRESHOLD, CandidateMatrix
from repro.substrate import ANN_INDEX, ann_index_params, vector_map
from repro.types import ExpansionResult, Query


class VectorSpace(NamedTuple):
    """The vectors a dense ranker scores."""

    #: substrate kind of the vector source.
    kind: str
    #: substrate params of the vector source.
    params: dict
    #: which vector map of the source (``"entity"``, ``"hidden"`` or
    #: ``"distribution"``).
    field: str
    #: leading dimensions kept of each vector (``None`` keeps all).
    dim: int | None = None


class DenseRanker(Expander):
    """An expander ranking candidates in one row-normalized vector space."""

    def __init__(self, resources: SharedResources | None = None):
        super().__init__()
        self._resources = resources
        self._matrix: CandidateMatrix | None = None

    @abstractmethod
    def _vector_space(self) -> VectorSpace:
        """The vector space this ranker scores (needs ``self._resources``)."""

    def _index_params(self, space: VectorSpace) -> dict:
        return ann_index_params(
            space.kind, space.params, field=space.field, dim=space.dim, normalize=True
        )

    def _bind_vectors(self):
        """Resolve the vector source, stack the candidate matrix over it and
        return the source substrate.

        Fit and restore both call this: while restoring,
        :meth:`_resolve_substrate` reads the substrates the artifact ships.
        """
        space = self._vector_space()
        source = self._resolve_substrate(space.kind, space.params)
        matrix = CandidateMatrix.from_vectors(
            vector_map(source, space.field), dim=space.dim, normalize=True
        )
        if len(matrix) >= ANN_AUTO_THRESHOLD:
            matrix.attach_index(
                self._resolve_substrate(ANN_INDEX, self._index_params(space))
            )
        self._matrix = matrix
        return source

    def substrate_dependencies(self) -> list[tuple[str, dict]]:
        """The vector source, plus the ANN index when one is attached."""
        if self._resources is None:
            return []
        space = self._vector_space()
        dependencies = [(space.kind, space.params)]
        if self._matrix is not None and self._matrix.index is not None:
            dependencies.append((ANN_INDEX, self._index_params(space)))
        return dependencies

    def _candidates(self, query: Query, required: int) -> list[int] | None:
        """The candidates to score exactly for ``query``.

        With an index, the probed shortlist around the mean positive-seed
        vector (ranking by mean cosine to the seeds equals ranking by dot
        product with it), holding at least ``required`` ids when the
        vocabulary can.  ``None`` otherwise (or when no positive seed has a
        row): every row but the query's seeds.
        """
        matrix = self._matrix
        if matrix.index is None:
            return None
        seeds = [s for s in query.positive_seed_ids if s in matrix]
        if not seeds:
            return None
        provider = self._substrate_provider()
        return matrix.shortlist(
            matrix.rows(seeds).mean(axis=0),
            required,
            exclude=query.seed_ids(),
            telemetry=None if provider is None else provider.record_ann_query,
        )

    def _similarity_table(
        self, rows: np.ndarray, seed_ids: tuple[int, ...]
    ) -> np.ndarray:
        """Mean cosine similarity of each of ``rows`` to ``seed_ids`` (all
        0.0 when no seed has a row).

        One stacked product: numpy runs the BLAS matrix-vector product that
        ``seed_matrix @ row`` runs once per row, so every value is bitwise
        the per-entity ``np.mean(seed_matrix @ row)``.  A single
        ``rows @ seed_matrix.T`` would block the sums differently.
        """
        matrix = self._matrix
        seeds = [s for s in seed_ids if s in matrix]
        if not seeds:
            return np.zeros(len(rows))
        seed_matrix = matrix.rows(seeds)
        return np.matmul(seed_matrix, rows[:, :, None])[:, :, 0].mean(axis=1)

    def _negative_rerank(
        self, query: Query, result: ExpansionResult, segment_length: int
    ) -> ExpansionResult:
        """Re-rank ``result`` segment by segment with the negative seeds.

        The negative score contrasts similarity to the negative seeds against
        similarity to the positive seeds: the fine-grained-class commonality
        cancels, leaving the attribute-level signal that identifies entities
        sharing the negative attribute value.  An entity without a row
        scores 0.0.
        """
        if not query.negative_seed_ids:
            return result
        matrix = self._matrix
        listed = [item.entity_id for item in result.ranking if item.entity_id in matrix]
        rows = matrix.rows(listed)
        contrast = self._similarity_table(
            rows, query.negative_seed_ids
        ) - self._similarity_table(rows, query.positive_seed_ids)
        negative_score = dict.fromkeys(
            (item.entity_id for item in result.ranking), 0.0
        )
        negative_score.update(zip(listed, contrast.tolist()))
        return segmented_rerank(
            result,
            negative_score=negative_score.__getitem__,
            segment_length=segment_length,
        )
