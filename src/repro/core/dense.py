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
  attached and every candidate otherwise, so vocabulary size alone picks
  the path;
* :meth:`_negative_rerank` is RetExpan's segmented negative-seed
  re-ranking, which ProbExpan's "+ Neg Rerank" variant reuses.
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

    def _candidates(self, query: Query, required: int) -> list[int]:
        """The candidates to score exactly for ``query``.

        With an index, the probed shortlist around the mean positive-seed
        vector (ranking by mean cosine to the seeds equals ranking by dot
        product with it), holding at least ``required`` ids when the
        vocabulary can; otherwise every candidate but the seeds.
        """
        matrix = self._matrix
        seeds = [s for s in query.positive_seed_ids if s in matrix]
        if matrix.index is None or not seeds:
            return self.candidate_ids(query)
        provider = self._substrate_provider()
        return matrix.shortlist(
            matrix.rows(seeds).mean(axis=0),
            required,
            exclude=query.seed_ids(),
            telemetry=None if provider is None else provider.record_ann_query,
        )

    def _similarity_table(
        self, entity_ids: list[int], seed_ids: tuple[int, ...]
    ) -> dict[int, float]:
        """Mean cosine similarity of each entity to ``seed_ids``.

        The seed matrix is gathered once from the candidate matrix; each
        entity keeps its own matrix-vector product so values stay bitwise
        identical to per-entity scoring.
        """
        matrix = self._matrix
        table = {entity_id: 0.0 for entity_id in entity_ids}
        seeds = [s for s in seed_ids if s in matrix]
        if not seeds:
            return table
        seed_matrix = matrix.rows(seeds)
        for entity_id in entity_ids:
            if entity_id in matrix:
                table[entity_id] = float(np.mean(seed_matrix @ matrix.row(entity_id)))
        return table

    def _negative_rerank(
        self, query: Query, result: ExpansionResult, segment_length: int
    ) -> ExpansionResult:
        """Re-rank ``result`` segment by segment with the negative seeds.

        The negative score contrasts similarity to the negative seeds against
        similarity to the positive seeds: the fine-grained-class commonality
        cancels, leaving the attribute-level signal that identifies entities
        sharing the negative attribute value.
        """
        if not query.negative_seed_ids:
            return result
        list_ids = [item.entity_id for item in result.ranking]
        negative_table = self._similarity_table(list_ids, query.negative_seed_ids)
        positive_table = self._similarity_table(list_ids, query.positive_seed_ids)

        def negative_score(entity_id: int) -> float:
            return negative_table[entity_id] - positive_table[entity_id]

        return segmented_rerank(
            result, negative_score=negative_score, segment_length=segment_length
        )
