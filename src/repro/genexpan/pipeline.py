"""The GenExpan pipeline (Section V-B).

Phases per query: (optionally) chain-of-thought reasoning, iterative entity
generation + selection with the prefix-constrained causal LM, and segmented
re-ranking with the negative seed entities (identical to RetExpan's
re-ranking except that the negative similarity uses the LM's conditional
probabilities instead of encoder cosine similarities).
"""

from __future__ import annotations

from pathlib import Path

from repro.config import GenExpanConfig
from repro.core.base import Expander
from repro.core.rerank import segmented_rerank
from repro.core.resources import SharedResources
from repro.dataset.ultrawiki import UltraWikiDataset
from repro.exceptions import ExpansionError, PersistenceError
from repro.genexpan.cot import ChainOfThoughtReasoner, ConceptMatcher
from repro.genexpan.generation import IterativeGenerator
from repro.lm.causal_lm import CausalEntityLM
from repro.substrate import CAUSAL_LM
from repro.types import ExpansionResult, Query


class GenExpan(Expander):
    """Generation-based Ultra-ESE with negative seed entities."""

    supports_persistence = True
    #: v2: the causal LM moved out of the method artifact into a referenced,
    #: content-addressed substrate artifact.
    state_version = 2

    def __init__(
        self,
        config: GenExpanConfig | None = None,
        resources: SharedResources | None = None,
        name: str | None = None,
    ):
        super().__init__()
        self.config = config or GenExpanConfig()
        self.config.validate()
        self._resources = resources
        self._lm: CausalEntityLM | None = None
        self._generator: IterativeGenerator | None = None
        self._reasoner: ChainOfThoughtReasoner | None = None
        if name is not None:
            self.name = name
        else:
            self.name = "GenExpan + CoT" if self.config.cot_mode != "none" else "GenExpan"

    # -- fitting ------------------------------------------------------------------
    def _fit(self, dataset: UltraWikiDataset) -> None:
        resources = self._resources or SharedResources(
            dataset, causal_lm_config=self.config.lm, oracle_config=self.config.oracle
        )
        self._resources = resources
        lm = resources.causal_lm(further_pretrain=self.config.use_further_pretrain)
        self._bind(dataset, lm)

    def _bind(self, dataset: UltraWikiDataset, lm: CausalEntityLM) -> None:
        """Assemble the per-dataset machinery around an already-fitted LM."""
        self._lm = lm
        concept_matcher = None
        self._reasoner = None
        if self.config.cot_mode != "none":
            concept_matcher = ConceptMatcher(dataset)
            self._reasoner = ChainOfThoughtReasoner(
                dataset, self._resources.oracle(), mode=self.config.cot_mode
            )
        prefix_tree = self._resources.prefix_tree()
        if self.config.use_prefix_constraint:
            # the decode tables are built here, on the fit and the restore
            # path alike, so no request pays for them.
            lm.prepare_decoding(prefix_tree)
        self._generator = IterativeGenerator(
            dataset=dataset,
            lm=lm,
            prefix_tree=prefix_tree,
            concept_matcher=concept_matcher,
            num_iterations=self.config.num_iterations,
            beam_width=self.config.beam_width,
            selected_per_iteration=self.config.selected_per_iteration,
            use_prefix_constraint=self.config.use_prefix_constraint,
            seed=self.config.lm.seed,
        )

    # -- persistence ---------------------------------------------------------------
    def substrate_dependencies(self) -> list[tuple[str, dict]]:
        """The (continually pre-trained) causal LM this fit stands on."""
        if self._resources is None:
            return []
        return [
            (
                CAUSAL_LM,
                self._resources.causal_lm_params(
                    further_pretrain=self.config.use_further_pretrain
                ),
            )
        ]

    def _save_state(self, directory: Path) -> None:
        # The LM substrate is *referenced* via the manifest (see
        # substrate_dependencies), not embedded; only the ablation arms the
        # restore must agree on are method-private state.
        from repro.store.serialization import write_json_state

        write_json_state(
            directory / "genexpan.json",
            {
                "cot_mode": self.config.cot_mode,
                "use_further_pretrain": self.config.use_further_pretrain,
            },
        )

    def _load_state(self, directory: Path, dataset: UltraWikiDataset) -> None:
        """Restore the expensive LM from its substrate artifact; the prefix
        tree, concept matcher, and reasoner are cheap and rebuilt from the
        dataset."""
        from repro.store.serialization import read_json_state

        meta = read_json_state(directory / "genexpan.json")
        if bool(meta.get("use_further_pretrain")) != self.config.use_further_pretrain:
            # The saved LM was trained under the other pre-training regime;
            # serving it would silently answer for a different configuration.
            raise PersistenceError(
                "saved GenExpan state and this configuration disagree on "
                "use_further_pretrain; refit instead of restoring"
            )
        self._resources = self._resources or SharedResources(
            dataset, causal_lm_config=self.config.lm, oracle_config=self.config.oracle
        )
        lm = self._resolve_substrate(
            CAUSAL_LM,
            self._resources.causal_lm_params(
                further_pretrain=self.config.use_further_pretrain
            ),
        )
        self._bind(dataset, lm)

    # -- expansion ------------------------------------------------------------------
    def _expand(self, query: Query, top_k: int) -> ExpansionResult:
        if self._generator is None:
            raise ExpansionError("GenExpan is not fitted")
        cot_info = self._reasoner.reason(query) if self._reasoner is not None else None
        ranked = self._generator.run(query, cot=cot_info)
        result = ExpansionResult.from_scores(query.query_id, ranked)

        if self.config.use_negative_rerank and query.negative_seed_ids:
            # Negative-seed similarity contrasted against positive-seed
            # similarity: subtracting the positive term cancels the
            # fine-grained-class commonality so the re-ranking key reflects
            # the negative attribute only.  Both terms are scored as one LM
            # batch over the whole expansion list.
            list_ids = [item.entity_id for item in result.ranking]
            negative = self._lm.conditional_similarity_batch(
                list_ids, query.negative_seed_ids
            )
            positive = self._lm.conditional_similarity_batch(
                list_ids, query.positive_seed_ids
            )
            result = segmented_rerank(
                result,
                negative_score=lambda entity_id: (
                    negative[entity_id] - positive[entity_id]
                ),
                segment_length=self.config.segment_length,
            )
        return result

    # -- introspection -----------------------------------------------------------------
    @property
    def reasoner(self) -> ChainOfThoughtReasoner | None:
        return self._reasoner
