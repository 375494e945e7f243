"""Shared substrate layer: fit-once model substrates across all methods.

See :mod:`repro.substrate.provider` for the full story.  The short version:
every expansion method's expensive shared models (co-occurrence embeddings,
context-encoder entity representations, the causal entity LM) are fitted at
most once per dataset by a :class:`SubstrateProvider`, cached in memory for
every resident expander, persisted once as content-addressed artifacts that
method manifests *reference* instead of embed, and trained exactly once per
cluster via :class:`~repro.store.FitLock` leader election (the same
:func:`~repro.store.fitlock.single_payer` routine method fits use).
"""

from repro.substrate.provider import (
    ANN_INDEX,
    CAUSAL_LM,
    COOCCURRENCE_EMBEDDINGS,
    ENTITY_REPRESENTATIONS,
    SUBSTRATE_KINDS,
    Substrate,
    SubstrateKey,
    SubstrateProvider,
    ann_index_params,
    causal_lm_params,
    cooccurrence_params_from_encoder,
    entity_representation_params,
    hash_params,
    vector_map,
)

__all__ = [
    "ANN_INDEX",
    "CAUSAL_LM",
    "COOCCURRENCE_EMBEDDINGS",
    "ENTITY_REPRESENTATIONS",
    "SUBSTRATE_KINDS",
    "Substrate",
    "SubstrateKey",
    "SubstrateProvider",
    "ann_index_params",
    "causal_lm_params",
    "cooccurrence_params_from_encoder",
    "entity_representation_params",
    "hash_params",
    "vector_map",
]
