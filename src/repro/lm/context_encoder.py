"""Masked-entity context encoder: the BERT-base substitute.

RetExpan's entity representation step (Section V-A.1) replaces entity
mentions with ``[MASK]``, feeds the sentence through BERT-base, and reads the
hidden state at the mask position; an entity-prediction head (MLP + softmax
over candidate entities, label-smoothed cross-entropy) refines the encoder.

The numpy substitute keeps that exact contract:

* the *input* is a masked sentence;
* the *hidden state at the mask position* is a distance-weighted pooling of
  pretrained context-token embeddings passed through a small trained MLP;
* the *entity-prediction head* maps the hidden state to a distribution over
  candidate entities and is trained with label-smoothed cross-entropy;
* an entity's representation is the mean hidden state over the sentences
  that mention it (Eq. 2) and, for ProbExpan, the mean *probability
  distribution* at the mask position is also exposed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.config import EncoderConfig
from repro.exceptions import ModelError
from repro.kb.corpus import Corpus
from repro.lm.embeddings import CooccurrenceEmbeddings
from repro.lm.losses import label_smoothed_gradient
from repro.lm.optim import AdamOptimizer
from repro.text.tokenizer import MASK_TOKEN, WordTokenizer
from repro.text.vocab import Vocabulary
from repro.types import Entity
from repro.utils.mathx import l2_normalize, softmax, softmax_inplace
from repro.utils.rng import RandomState


@dataclass
class EntityRepresentations:
    """Entity features produced by the encoder.

    ``hidden`` maps entity id → hidden-state representation (RetExpan's
    choice); ``distribution`` maps entity id → probability-distribution
    representation (ProbExpan's choice).  The paper attributes the
    RetExpan-vs-ProbExpan gap to this difference, so both are first-class.
    """

    hidden: dict[int, np.ndarray]
    distribution: dict[int, np.ndarray]

    def vector(self, entity_id: int, kind: str = "hidden") -> np.ndarray:
        store = self.hidden if kind == "hidden" else self.distribution
        if entity_id not in store:
            raise ModelError(f"no representation for entity {entity_id}")
        return store[entity_id]

    def has(self, entity_id: int) -> bool:
        return entity_id in self.hidden

    def ids(self) -> list[int]:
        return sorted(self.hidden)

    def matrix(self, entity_ids: list[int], kind: str = "hidden") -> np.ndarray:
        store = self.hidden if kind == "hidden" else self.distribution
        return np.stack([store[eid] for eid in entity_ids])

    # -- persistence -------------------------------------------------------------
    def save(self, directory: str | Path) -> None:
        """Persist both vector maps as mmap-friendly ``.npy`` pairs.

        ``save``/``load`` implement the substrate persistence protocol
        (:mod:`repro.substrate`): the representations are the persisted
        product of the (memory-only) :class:`ContextEncoder`, stored once
        per ``(encoder params, trained)`` arm and shared by RetExpan and
        ProbExpan instead of being embedded in each method artifact.
        """
        from repro.store.serialization import save_vector_map

        directory = Path(directory)
        save_vector_map(directory, "hidden", self.hidden)
        save_vector_map(directory, "distribution", self.distribution)

    @classmethod
    def load(cls, directory: str | Path, mmap: bool = True) -> "EntityRepresentations":
        """Load maps written by :meth:`save`; vectors stay memory-mapped."""
        from repro.store.serialization import load_vector_map

        directory = Path(directory)
        return cls(
            hidden=load_vector_map(directory, "hidden", mmap=mmap),
            distribution=load_vector_map(directory, "distribution", mmap=mmap),
        )


class ContextEncoder:
    """Trainable masked-entity context encoder."""

    def __init__(self, config: EncoderConfig | None = None):
        self.config = config or EncoderConfig()
        self.config.validate()
        self._tokenizer = WordTokenizer()
        self._rng = RandomState(self.config.seed)
        self.vocabulary: Vocabulary | None = None
        self._token_embeddings: np.ndarray | None = None
        self._entity_index: dict[int, int] = {}
        self._entity_ids: list[int] = []
        self._params: dict[str, np.ndarray] = {}
        self._fitted = False
        self._trained = False
        #: cached pooled context features per (sentence_id, entity_id).
        self._feature_cache: dict[tuple[int, int], np.ndarray] = {}
        #: inverse document frequency per token id (computed at fit time).
        self._idf: np.ndarray | None = None
        #: pretrained entity-level co-occurrence vectors (when available).
        self._pretrained_entity_vectors: dict[int, np.ndarray] = {}

    # -- feature extraction ------------------------------------------------------
    def _pool_context(self, masked_text: str) -> np.ndarray:
        """IDF- and distance-weighted average of context-token embeddings.

        Weighting each token by its inverse document frequency keeps the
        ubiquitous template words from dominating the pooled feature and lets
        the attribute-bearing words (operating systems, continents, ...)
        drive the representation — the analogue of BERT's attention focusing
        on informative context.
        """
        if self.vocabulary is None or self._token_embeddings is None:
            raise ModelError("encoder is not fitted")
        tokens = self._tokenizer.tokenize(masked_text)
        if MASK_TOKEN not in tokens:
            tokens = [MASK_TOKEN] + tokens
        mask_pos = tokens.index(MASK_TOKEN)
        window = self.config.context_window
        pooled = np.zeros(self.config.embedding_dim)
        total_weight = 0.0
        for offset, token in enumerate(tokens):
            if token == MASK_TOKEN:
                continue
            distance = abs(offset - mask_pos)
            if distance > window:
                continue
            token_id = self.vocabulary.id_of(token)
            idf = float(self._idf[token_id]) if self._idf is not None else 1.0
            weight = idf / (1.0 + 0.3 * distance)
            pooled += weight * self._token_embeddings[token_id]
            total_weight += weight
        if total_weight > 0:
            pooled /= total_weight
        return pooled

    def _compute_idf(self, corpus: Corpus) -> None:
        """Inverse document frequency of every vocabulary token over the corpus."""
        document_frequency = np.zeros(len(self.vocabulary))
        num_documents = 0
        for sentence in corpus:
            num_documents += 1
            seen = {self.vocabulary.id_of(t) for t in corpus.tokens(sentence)}
            for token_id in seen:
                document_frequency[token_id] += 1
        self._idf = np.log((1.0 + num_documents) / (1.0 + document_frequency))

    def _features_for(self, corpus: Corpus, entity: Entity) -> list[np.ndarray]:
        """Pooled features of all (capped) masked sentences mentioning ``entity``."""
        sentences = corpus.sentences_of(entity.entity_id)
        sentences = sentences[: self.config.max_sentences_per_entity]
        features = []
        for sentence in sentences:
            key = (sentence.sentence_id, entity.entity_id)
            if key not in self._feature_cache:
                masked = Corpus.masked_text(sentence, entity.name)
                self._feature_cache[key] = self._pool_context(masked)
            features.append(self._feature_cache[key])
        return features

    # -- forward / backward --------------------------------------------------------
    def _forward_hidden(self, features: np.ndarray) -> np.ndarray:
        """Hidden states for a batch of pooled context features."""
        pre = features @ self._params["W1"] + self._params["b1"]
        return np.tanh(pre)

    def _forward_logits(self, hidden: np.ndarray) -> np.ndarray:
        return hidden @ self._params["W2"] + self._params["b2"]

    # -- fitting -------------------------------------------------------------------
    def fit(
        self,
        corpus: Corpus,
        entities: list[Entity],
        pretrained: CooccurrenceEmbeddings | None = None,
        train: bool = True,
    ) -> "ContextEncoder":
        """Fit the encoder on ``corpus`` restricted to ``entities``.

        ``pretrained`` supplies token embeddings (the "pre-trained BERT"
        analogue); when omitted, embeddings are trained from random
        initialisation which is markedly weaker.  ``train=False`` skips the
        entity-prediction task, which is the "- Entity prediction" ablation
        of Table III.
        """
        generator = self._rng.child("init").generator
        if pretrained is not None and pretrained.vocabulary is not None:
            self.vocabulary = pretrained.vocabulary
            self._pretrained_entity_vectors = pretrained.entity_vectors()
            vectors = pretrained.token_vectors
            if vectors.shape[1] >= self.config.embedding_dim:
                self._token_embeddings = vectors[:, : self.config.embedding_dim].copy()
            else:
                pad = self.config.embedding_dim - vectors.shape[1]
                self._token_embeddings = np.pad(vectors, ((0, 0), (0, pad)))
        else:
            self.vocabulary = Vocabulary.from_token_lists(
                corpus.tokens(sentence) for sentence in corpus
            )
            self._token_embeddings = generator.normal(
                0.0, 0.1, size=(len(self.vocabulary), self.config.embedding_dim)
            )

        self._compute_idf(corpus)
        self._entity_ids = [entity.entity_id for entity in entities]
        self._entity_index = {eid: i for i, eid in enumerate(self._entity_ids)}
        num_entities = len(self._entity_ids)
        emb, hid = self.config.embedding_dim, self.config.hidden_dim
        scale1 = 1.0 / np.sqrt(emb)
        scale2 = 1.0 / np.sqrt(hid)
        self._params = {
            "W1": generator.normal(0.0, scale1, size=(emb, hid)),
            "b1": np.zeros(hid),
            "W2": generator.normal(0.0, scale2, size=(hid, num_entities)),
            "b2": np.zeros(num_entities),
        }
        self._fitted = True
        self._trained = False

        if train and self.config.epochs > 0:
            self._train(corpus, entities)
            self._trained = True
        return self

    def _training_examples(
        self, corpus: Corpus, entities: list[Entity]
    ) -> tuple[np.ndarray, np.ndarray]:
        """All (pooled feature, entity index) pairs from the corpus."""
        feature_rows: list[np.ndarray] = []
        labels: list[int] = []
        for entity in entities:
            index = self._entity_index[entity.entity_id]
            for feature in self._features_for(corpus, entity):
                feature_rows.append(feature)
                labels.append(index)
        if not feature_rows:
            raise ModelError("corpus provides no training sentences for the entities")
        return np.stack(feature_rows), np.asarray(labels, dtype=np.int64)

    def _train(self, corpus: Corpus, entities: list[Entity]) -> None:
        features, labels = self._training_examples(corpus, entities)
        optimizer = AdamOptimizer(self._params, learning_rate=self.config.learning_rate)
        rng = self._rng.child("train").generator
        num_examples = features.shape[0]
        batch_size = min(self.config.batch_size, num_examples)
        for _epoch in range(self.config.epochs):
            order = rng.permutation(num_examples)
            for start in range(0, num_examples, batch_size):
                batch_idx = order[start : start + batch_size]
                x = features[batch_idx]
                y = labels[batch_idx]
                hidden = self._forward_hidden(x)
                # the step needs only the gradient, never the loss.
                grad_logits = label_smoothed_gradient(
                    softmax_inplace(self._forward_logits(hidden), axis=1),
                    y,
                    self.config.label_smoothing,
                )
                grad_w2 = hidden.T @ grad_logits
                grad_b2 = grad_logits.sum(axis=0)
                grad_hidden = grad_logits @ self._params["W2"].T
                grad_pre = grad_hidden * (1.0 - hidden**2)
                grad_w1 = x.T @ grad_pre
                grad_b1 = grad_pre.sum(axis=0)
                optimizer.step(
                    {"W1": grad_w1, "b1": grad_b1, "W2": grad_w2, "b2": grad_b2}
                )

    # -- inference -------------------------------------------------------------------
    def _combine(self, pretrained_part: np.ndarray, hidden: np.ndarray) -> np.ndarray:
        """Combine the pretrained entity feature with the trained hidden state.

        Both parts are L2-normalised and weighted before concatenation so that
        cosine similarity on the combined vector is the weighted average of
        the two signals: the pretrained context feature preserves
        fine-grained-class recall while the entity-prediction-refined hidden
        state sharpens ultra-fine-grained distinctions.  ``hidden_weight``
        controls the balance.
        """
        weight = self.config.hidden_weight
        return np.concatenate(
            [
                np.sqrt(1.0 - weight) * l2_normalize(pretrained_part),
                np.sqrt(weight) * l2_normalize(hidden),
            ],
            axis=-1,
        )

    def encode_masked_text(self, masked_text: str) -> np.ndarray:
        """Representation of one masked sentence (hidden state at the mask)."""
        if not self._fitted:
            raise ModelError("encoder is not fitted")
        feature = self._pool_context(masked_text)
        if self._trained:
            hidden = self._forward_hidden(feature[None, :])[0]
            return self._combine(feature, hidden)
        # Without the entity-prediction refinement the pooled pretrained
        # feature itself is the representation (Table III ablation).
        return feature

    def predict_distribution(self, masked_text: str) -> np.ndarray:
        """Probability distribution over candidate entities at the mask position."""
        if not self._fitted:
            raise ModelError("encoder is not fitted")
        feature = self._pool_context(masked_text)
        hidden = self._forward_hidden(feature[None, :])
        return softmax(self._forward_logits(hidden), axis=1)[0]

    def entity_representations(
        self, corpus: Corpus, entities: list[Entity], with_distributions: bool = True
    ) -> EntityRepresentations:
        """Mean hidden-state (and distribution) representation per entity."""
        if not self._fitted:
            raise ModelError("encoder is not fitted")
        hidden_store: dict[int, np.ndarray] = {}
        distribution_store: dict[int, np.ndarray] = {}
        for entity in entities:
            features = self._features_for(corpus, entity)
            if not features:
                continue
            stacked = np.stack(features)
            pooled_mean = stacked.mean(axis=0)
            # The pretrained part prefers the entity-level co-occurrence vector
            # (the closest analogue of BERT's pretrained contextual knowledge
            # about the entity); the window-pooled mean is the fallback.
            pretrained_part = self._pretrained_entity_vectors.get(
                entity.entity_id, pooled_mean
            )
            if self._trained:
                hidden_mean = self._forward_hidden(stacked).mean(axis=0)
                hidden_store[entity.entity_id] = self._combine(
                    pretrained_part, hidden_mean
                )
            else:
                # Without the entity-prediction refinement only the raw
                # pretrained features are available (Table III ablation): a
                # lower-capacity slice of the pretrained entity vector,
                # falling back to the window-pooled context average.
                if entity.entity_id in self._pretrained_entity_vectors:
                    ablated_dim = self.config.embedding_dim
                    hidden_store[entity.entity_id] = np.asarray(
                        pretrained_part[:ablated_dim], dtype=np.float64
                    )
                else:
                    hidden_store[entity.entity_id] = pooled_mean
            if with_distributions:
                trained_hidden = self._forward_hidden(stacked)
                probs = softmax(self._forward_logits(trained_hidden), axis=1)
                distribution_store[entity.entity_id] = probs.mean(axis=0)
        return EntityRepresentations(hidden=hidden_store, distribution=distribution_store)

    @property
    def hidden_dim(self) -> int:
        """Dimensionality of the representation returned by ``encode_masked_text``."""
        if self._trained:
            return self.config.embedding_dim + self.config.hidden_dim
        return self.config.embedding_dim

    @property
    def is_fitted(self) -> bool:
        return self._fitted
