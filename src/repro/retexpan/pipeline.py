"""The RetExpan pipeline (Section V-A.1).

Three stages per query:

1. **Entity representation** — the masked-entity context encoder (trained
   with the entity-prediction auxiliary task) yields one hidden-state vector
   per candidate entity.
2. **Entity expansion** — candidates are ranked by mean cosine similarity to
   the *positive* seed entities only (Eq. 5) and the top-K form ``L0``.
3. **Entity re-ranking** — negative seed entities re-rank ``L0`` segment by
   segment (segment length ``l``), pushing down entities similar to the
   negative seeds without promoting noise.

The ``use_contrastive`` switch adds ultra-fine-grained contrastive learning:
similarities are then computed in the query-conditioned projected space.

The hidden states are a :class:`~repro.core.dense.DenseRanker` vector
space, which also owns stage 2's candidate retrieval and stage 3.
"""

from __future__ import annotations

from pathlib import Path

from repro.config import RetExpanConfig
from repro.core.dense import DenseRanker, VectorSpace
from repro.core.resources import SharedResources
from repro.dataset.ultrawiki import UltraWikiDataset
from repro.exceptions import ExpansionError, PersistenceError
from repro.lm.context_encoder import EntityRepresentations
from repro.obs import span
from repro.retexpan.contrastive import UltraContrastiveLearner
from repro.substrate import ENTITY_REPRESENTATIONS
from repro.retexpan.expansion import (
    matrix_similarity_scores,
    positive_similarity_scores,
    select_top_k,
)
from repro.types import ExpansionResult, Query


class RetExpan(DenseRanker):
    """Retrieval-based Ultra-ESE with negative seed entities."""

    supports_persistence = True
    #: v3: the (normalized) hidden-state candidate matrix is precomputed; the
    #: artifact references the entity representations, plus a partitioned
    #: ANN-index substrate from 4,096 entities (a smaller vocabulary's index
    #: reference, written by older builds, is never resolved).
    state_version = 3

    def __init__(
        self,
        config: RetExpanConfig | None = None,
        resources: SharedResources | None = None,
        contrastive_queries: list[Query] | None = None,
        name: str | None = None,
    ):
        super().__init__(resources)
        self.config = config or RetExpanConfig()
        self.config.validate()
        self._contrastive_queries = contrastive_queries
        self._representations: EntityRepresentations | None = None
        self._contrastive: UltraContrastiveLearner | None = None
        if name is not None:
            self.name = name
        else:
            self.name = "RetExpan + Contrast" if self.config.use_contrastive else "RetExpan"

    def _vector_space(self) -> VectorSpace:
        """The hidden states of the trained (or ablated) entity representations."""
        return VectorSpace(
            ENTITY_REPRESENTATIONS,
            self._resources.entity_representation_params(
                trained=self.config.use_entity_prediction
            ),
            "hidden",
        )

    # -- fitting -----------------------------------------------------------------
    def _fit(self, dataset: UltraWikiDataset) -> None:
        self._bind(dataset)
        if self.config.use_contrastive:
            learner = UltraContrastiveLearner(self.config.contrastive)
            learner.fit(
                dataset,
                self._representations,
                self._resources.oracle(),
                queries=self._contrastive_queries,
            )
            self._contrastive = learner

    def _bind(self, dataset: UltraWikiDataset) -> None:
        self._resources = self._resources or SharedResources(
            dataset, encoder_config=self.config.encoder
        )
        self._representations = self._bind_vectors()

    # -- persistence -------------------------------------------------------------
    def _save_state(self, directory: Path) -> None:
        # The representations substrate is *referenced* via the manifest
        # (see substrate_dependencies), not embedded; only the method-private
        # state (the ablation arms and the contrastive head) is written.
        from repro.store.serialization import write_json_state

        write_json_state(
            directory / "retexpan.json",
            {
                "use_contrastive": self._contrastive is not None,
                "use_entity_prediction": self.config.use_entity_prediction,
            },
        )
        if self._contrastive is not None:
            self._contrastive.save_state(directory / "contrastive")

    def _load_state(self, directory: Path, dataset: UltraWikiDataset) -> None:
        from repro.store.serialization import read_json_state

        meta = read_json_state(directory / "retexpan.json")
        if bool(meta.get("use_contrastive")) != self.config.use_contrastive:
            raise PersistenceError(
                "saved RetExpan state and this configuration disagree on "
                "use_contrastive; refit instead of restoring"
            )
        if bool(meta.get("use_entity_prediction")) != self.config.use_entity_prediction:
            # The representations were trained under the other ablation arm.
            raise PersistenceError(
                "saved RetExpan state and this configuration disagree on "
                "use_entity_prediction; refit instead of restoring"
            )
        self._bind(dataset)
        if self.config.use_contrastive:
            learner = UltraContrastiveLearner(self.config.contrastive)
            learner.load_state(directory / "contrastive", self._representations)
            self._contrastive = learner
        else:
            self._contrastive = None

    # -- similarity helpers ------------------------------------------------------------
    def _contrastive_rescore(
        self, query: Query, initial: list[tuple[int, float]]
    ) -> list[tuple[int, float]]:
        """Re-score the initial expansion list in the projected hypersphere space.

        The projected space was trained to pull ``L_pos``-like entities toward
        the positive seeds and push ``L_neg``-like entities away, so the
        adjusted score adds (projected similarity to positive seeds) minus
        (projected similarity to negative seeds) on top of the base score.
        """
        list_ids = [entity_id for entity_id, _ in initial]
        involved = list_ids + list(query.positive_seed_ids) + list(query.negative_seed_ids)
        projected = self._contrastive.projected_vectors(involved, query)
        pos_scores = positive_similarity_scores(
            list_ids, query.positive_seed_ids, projected
        )
        if query.negative_seed_ids:
            neg_scores = positive_similarity_scores(
                list_ids, query.negative_seed_ids, projected
            )
        else:
            neg_scores = {}
        weight = self.config.contrastive_weight
        adjusted = [
            (
                entity_id,
                base
                + weight * (pos_scores.get(entity_id, 0.0) - neg_scores.get(entity_id, 0.0)),
            )
            for entity_id, base in initial
        ]
        adjusted.sort(key=lambda item: (-item[1], item[0]))
        return adjusted

    # -- expansion ---------------------------------------------------------------------
    def _expand(self, query: Query, top_k: int) -> ExpansionResult:
        if self._representations is None or self._matrix is None:
            raise ExpansionError("RetExpan is not fitted")
        expansion_size = max(self.config.expansion_size, top_k)
        with span("candidates"):
            candidates = self._candidates(query, expansion_size)

        with span("score"):
            ids, scores = matrix_similarity_scores(self._matrix, candidates, query)
        initial = select_top_k(ids, scores, k=expansion_size)
        if self._contrastive is not None:
            initial = self._contrastive_rescore(query, initial)
        result = ExpansionResult.from_scores(query.query_id, initial)

        if self.config.use_negative_rerank:
            result = self._negative_rerank(
                query, result, self.config.segment_length
            )
        return result

    # -- introspection -------------------------------------------------------------------
    @property
    def representations(self) -> EntityRepresentations:
        if self._representations is None:
            raise ExpansionError("RetExpan is not fitted")
        return self._representations

    @property
    def contrastive_learner(self) -> UltraContrastiveLearner | None:
        return self._contrastive
