"""CGExpan (Zhang et al., 2020): class-name-guided set expansion via
language-model probing.

CGExpan probes a pretrained LM for the name of the seed entities' semantic
class and uses that class name, together with seed similarity, to rank
candidates.  It only consumes positive seeds and reasons at the
*fine-grained* class level, so it cannot separate ultra-fine-grained classes
— which is why the paper reports high Neg intrusion for it.

In this reproduction the class-name probing is served by the oracle LLM
restricted to the fine-grained level (no attribute reasoning) and the
class-name guidance is a lexical concept-match between the inferred class
name and each candidate's context sentences.

Hot path: the sliced entity embeddings are a
:class:`~repro.core.dense.DenseRanker` vector space, stacked once at
fit/load time; from 4,096 entities the candidates come from a probed ANN
shortlist, always re-scored exactly.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.dense import DenseRanker, VectorSpace
from repro.core.resources import SharedResources
from repro.dataset.ultrawiki import UltraWikiDataset
from repro.genexpan.cot import ConceptMatcher
from repro.substrate import COOCCURRENCE_EMBEDDINGS
from repro.types import ExpansionResult, Query


class CGExpan(DenseRanker):
    """Class-name guided expansion with positive seeds only."""

    name = "CGExpan"
    supports_persistence = True
    #: v3: the candidate matrix is precomputed; the artifact references the
    #: embeddings, plus a partitioned ANN-index substrate from 4,096
    #: entities (a smaller vocabulary's index reference, written by older
    #: builds, is never resolved).
    state_version = 3

    def __init__(
        self,
        class_name_weight: float = 0.35,
        distributed_dim: int = 96,
        resources: SharedResources | None = None,
    ):
        """``distributed_dim`` truncates the entity embeddings: CGExpan probes a
        frozen BERT rather than fine-tuning it, so its entity representations
        carry less attribute-level detail than RetExpan's refined encoder."""
        super().__init__(resources)
        if not 0.0 <= class_name_weight <= 1.0:
            raise ValueError("class_name_weight must be in [0, 1]")
        if distributed_dim <= 0:
            raise ValueError("distributed_dim must be positive")
        self.class_name_weight = class_name_weight
        self.distributed_dim = distributed_dim
        self._concept_matcher: ConceptMatcher | None = None

    def _vector_space(self) -> VectorSpace:
        """The PPMI-SVD co-occurrence entity embeddings, truncated."""
        return VectorSpace(
            COOCCURRENCE_EMBEDDINGS,
            self._resources.cooccurrence_params(),
            "entity",
            self.distributed_dim,
        )

    def _fit(self, dataset: UltraWikiDataset) -> None:
        self._bind(dataset)

    def _bind(self, dataset: UltraWikiDataset) -> None:
        self._resources = self._resources or SharedResources(dataset)
        self._bind_vectors()
        self._concept_matcher = ConceptMatcher(dataset)

    # -- persistence ----------------------------------------------------------------
    def _save_state(self, directory: Path) -> None:
        # The embeddings substrate is *referenced* via the manifest (see
        # substrate_dependencies), not embedded; the method artifact carries
        # only a marker so an empty state tree is still a valid artifact.
        from repro.store.serialization import write_json_state

        write_json_state(directory / "cgexpan.json", {"distributed_dim": self.distributed_dim})

    def _load_state(self, directory: Path, dataset: UltraWikiDataset) -> None:
        """Restore the PPMI-SVD embeddings (and any ANN index) from their
        shared substrates; the concept matcher and oracle are cheap,
        dataset-derived pieces and are rebuilt.  The provider caches the
        restored substrates, so every other embeddings-backed method reuses
        them instead of refitting."""
        self._bind(dataset)

    def _probe_class_name(self, query: Query) -> str:
        """LM probing for the *fine-grained* class name of the positive seeds.

        Only the class description is used — CGExpan has no concept of
        ultra-fine-grained attributes, so the attribute detail the oracle
        could add is stripped off.
        """
        oracle = self._resources.oracle()
        name = oracle.infer_class_name(query.positive_seed_ids)
        return name.split(" with ")[0]

    def _expand(self, query: Query, top_k: int) -> ExpansionResult:
        matrix = self._matrix
        seed_ids = [s for s in query.positive_seed_ids if s in matrix]
        if not seed_ids:
            return ExpansionResult(query_id=query.query_id, ranking=())
        seed_matrix = matrix.rows(seed_ids)
        required = max(top_k, 200)
        shortlist = [eid for eid in self._candidates(query, required) if eid in matrix]
        if not shortlist:
            return ExpansionResult(query_id=query.query_id, ranking=())
        candidate_matrix = matrix.rows(shortlist)
        seed_similarity = (candidate_matrix @ seed_matrix.T).mean(axis=1)

        class_name = self._probe_class_name(query)
        concepts = self._concept_matcher.score_batch(shortlist, class_name)
        scored = []
        for index, entity_id in enumerate(shortlist):
            combined = (
                (1.0 - self.class_name_weight) * float(seed_similarity[index])
                + self.class_name_weight * concepts[index]
            )
            scored.append((entity_id, combined))
        scored.sort(key=lambda item: (-item[1], item[0]))
        return ExpansionResult.from_scores(query.query_id, scored[:required])
