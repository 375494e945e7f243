"""ProbExpan (Li et al., 2022): entity representations from the masked-entity
*probability distribution*.

ProbExpan shares RetExpan's overall retrieval framework but represents each
entity by the probability distribution over candidate entities predicted at
the ``[MASK]`` position, rather than by the hidden state.  The paper argues
this discrete representation is coarser, which is the main reason ProbExpan
trails RetExpan on Ultra-ESE (Section VI-B(2)).

The paper also bolts its negative-seed re-ranking module onto ProbExpan for
the Table IV ablation; the ``use_negative_rerank`` flag reproduces that
variant ("+ Neg Rerank").  The distributions are a
:class:`~repro.core.dense.DenseRanker` vector space.
"""

from __future__ import annotations

from pathlib import Path

from repro.config import EncoderConfig
from repro.core.dense import DenseRanker, VectorSpace
from repro.core.resources import SharedResources
from repro.dataset.ultrawiki import UltraWikiDataset
from repro.exceptions import ExpansionError
from repro.retexpan.expansion import matrix_similarity_scores, top_k_expansion
from repro.substrate import ENTITY_REPRESENTATIONS
from repro.types import ExpansionResult, Query


class ProbExpan(DenseRanker):
    """Distribution-representation retrieval baseline."""

    supports_persistence = True
    #: v3: the (normalized) distribution candidate matrix is precomputed; the
    #: artifact references the entity representations, plus a partitioned
    #: ANN-index substrate from 4,096 entities (a smaller vocabulary's index
    #: reference, written by older builds, is never resolved).
    state_version = 3

    def __init__(
        self,
        encoder_config: EncoderConfig | None = None,
        use_negative_rerank: bool = False,
        expansion_size: int = 200,
        segment_length: int = 20,
        resources: SharedResources | None = None,
        name: str | None = None,
    ):
        super().__init__(resources)
        self.encoder_config = encoder_config or EncoderConfig()
        self.use_negative_rerank = use_negative_rerank
        self.expansion_size = expansion_size
        self.segment_length = segment_length
        if name is not None:
            self.name = name
        else:
            self.name = "ProbExpan + Neg Rerank" if use_negative_rerank else "ProbExpan"

    def _vector_space(self) -> VectorSpace:
        """The mask distributions of the trained entity representations."""
        return VectorSpace(
            ENTITY_REPRESENTATIONS,
            self._resources.entity_representation_params(trained=True),
            "distribution",
        )

    def _fit(self, dataset: UltraWikiDataset) -> None:
        self._bind(dataset)

    def _bind(self, dataset: UltraWikiDataset) -> None:
        self._resources = self._resources or SharedResources(
            dataset, encoder_config=self.encoder_config
        )
        self._bind_vectors()
        if not len(self._matrix):
            raise ExpansionError("no distribution representations available")

    # -- persistence ----------------------------------------------------------------
    def _save_state(self, directory: Path) -> None:
        # The distribution vectors live in the shared entity-representations
        # substrate (referenced via the manifest); the method artifact only
        # carries a marker so an empty state tree is still a valid artifact.
        from repro.store.serialization import write_json_state

        write_json_state(
            directory / "probexpan.json",
            {"use_negative_rerank": self.use_negative_rerank},
        )

    def _load_state(self, directory: Path, dataset: UltraWikiDataset) -> None:
        self._bind(dataset)

    def _expand(self, query: Query, top_k: int) -> ExpansionResult:
        expansion_size = max(self.expansion_size, top_k)
        candidates = self._candidates(query, expansion_size)
        scores = matrix_similarity_scores(
            self._matrix, candidates, query.positive_seed_ids
        )
        initial = top_k_expansion(scores, k=expansion_size)
        result = ExpansionResult.from_scores(query.query_id, initial)
        if self.use_negative_rerank:
            # The paper bolts RetExpan's re-ranking module onto ProbExpan.
            result = self._negative_rerank(query, result, self.segment_length)
        return result
