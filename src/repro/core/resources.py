"""Shared, lazily-built model resources.

Several methods rely on the same expensive substrates (the trained context
encoder's entity representations, corpus co-occurrence embeddings, the
continually pre-trained causal LM).  :class:`SharedResources` is the
per-dataset facade the expanders talk to; since the substrate layer
(:mod:`repro.substrate`) landed, the heavy lifting lives in a
:class:`~repro.substrate.SubstrateProvider` that fits each substrate at most
once per ``(kind, dataset fingerprint, params hash)`` key, restores it from
its content-addressed store artifact when one exists, and shares one
in-memory instance across every consumer — experiment harnesses comparing
many methods and serving registries holding many resident expanders alike.

The cheap, dataset-derived pieces (the GPT-4 oracle simulator and the
candidate prefix tree) stay here: they are not worth persisting.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.config import CausalLMConfig, EncoderConfig, OracleConfig
from repro.dataset.ultrawiki import UltraWikiDataset
from repro.kb.schema import default_schemas
from repro.lm.causal_lm import CausalEntityLM
from repro.lm.context_encoder import ContextEncoder, EntityRepresentations
from repro.lm.embeddings import CooccurrenceEmbeddings
from repro.lm.oracle import OracleLLM
from repro.substrate import (
    CAUSAL_LM,
    COOCCURRENCE_EMBEDDINGS,
    ENTITY_REPRESENTATIONS,
    SubstrateProvider,
    causal_lm_params,
    cooccurrence_params_from_encoder,
    entity_representation_params,
)
from repro.text.prefix_tree import PrefixTree
from repro.text.tokenizer import WordTokenizer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store import ArtifactStore


class SharedResources:
    """Caches fitted substrates for one dataset (provider-backed)."""

    def __init__(
        self,
        dataset: UltraWikiDataset,
        encoder_config: EncoderConfig | None = None,
        causal_lm_config: CausalLMConfig | None = None,
        oracle_config: OracleConfig | None = None,
        provider: SubstrateProvider | None = None,
        store: "ArtifactStore | None" = None,
    ):
        """``provider`` shares an existing substrate pool; otherwise one is
        created, backed by ``store`` when given so substrate fits restore
        from (and write through to) content-addressed artifacts."""
        self.dataset = dataset
        self.provider = provider or SubstrateProvider(dataset, store=store)
        # Guards the cheap lazily-built pieces kept outside the provider.
        self._build_lock = threading.RLock()
        self.encoder_config = encoder_config or EncoderConfig()
        self.causal_lm_config = causal_lm_config or CausalLMConfig()
        self.oracle_config = oracle_config or OracleConfig()
        self._tokenizer = WordTokenizer()
        self._oracle: OracleLLM | None = None
        self._prefix_tree: PrefixTree | None = None

    # -- substrate parameters ------------------------------------------------------
    def cooccurrence_params(self) -> dict:
        """Key parameters of the co-occurrence substrate this pool serves."""
        return cooccurrence_params_from_encoder(self.encoder_config)

    def entity_representation_params(self, trained: bool = True) -> dict:
        """Key parameters of the entity-representations substrate."""
        return entity_representation_params(self.encoder_config, trained)

    def causal_lm_params(self, further_pretrain: bool = True) -> dict:
        """Key parameters of the causal-LM substrate."""
        return causal_lm_params(self.causal_lm_config, further_pretrain)

    def default_substrate_specs(self) -> list[tuple[str, dict]]:
        """Every substrate the default method fleet stands on, in dependency
        order — what ``repro fit --substrates-only`` pre-builds."""
        return [
            (COOCCURRENCE_EMBEDDINGS, self.cooccurrence_params()),
            (ENTITY_REPRESENTATIONS, self.entity_representation_params(trained=True)),
            (CAUSAL_LM, self.causal_lm_params(further_pretrain=True)),
        ]

    # -- embeddings ------------------------------------------------------------
    def cooccurrence_embeddings(self) -> CooccurrenceEmbeddings:
        """PPMI-SVD embeddings over the dataset corpus (pre-training substitute)."""
        return self.provider.get(COOCCURRENCE_EMBEDDINGS, self.cooccurrence_params())

    # -- context encoder -----------------------------------------------------------
    def context_encoder(self, trained: bool = True) -> ContextEncoder:
        """The masked-entity encoder, with or without entity-prediction training.

        Memory-only: the encoder exists to produce the persistable
        entity-representations substrate and is cached by the provider.
        """
        return self.provider.context_encoder(self.encoder_config, trained=trained)

    def entity_representations(self, trained: bool = True) -> EntityRepresentations:
        """Entity hidden-state / distribution representations for all candidates."""
        return self.provider.get(
            ENTITY_REPRESENTATIONS, self.entity_representation_params(trained)
        )

    # -- causal LM ---------------------------------------------------------------------
    def causal_lm(self, further_pretrain: bool = True) -> CausalEntityLM:
        """The GenExpan backbone, with or without continued pre-training."""
        return self.provider.get(CAUSAL_LM, self.causal_lm_params(further_pretrain))

    # -- oracle and prefix tree -----------------------------------------------------------
    def oracle(self) -> OracleLLM:
        """The simulated GPT-4 oracle bound to this dataset."""
        with self._build_lock:
            if self._oracle is None:
                attribute_values = {
                    fc.name: {a: tuple(v) for a, v in fc.attributes.items()}
                    for fc in self.dataset.fine_classes.values()
                }
                descriptions = {
                    schema.name: schema.description
                    for schema in default_schemas()
                    if schema.name in self.dataset.fine_classes
                }
                self._oracle = OracleLLM(
                    self.dataset.entities(),
                    attribute_values,
                    config=self.oracle_config,
                    class_descriptions=descriptions,
                )
            return self._oracle

    def prefix_tree(self) -> PrefixTree:
        """Prefix tree over every candidate entity surface form."""
        with self._build_lock:
            if self._prefix_tree is None:
                self._prefix_tree = PrefixTree.from_entities(
                    (entity.name for entity in self.dataset.entities()), self._tokenizer
                )
            return self._prefix_tree
