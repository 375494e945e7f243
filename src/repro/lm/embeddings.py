"""Co-occurrence embeddings: the "pre-training" substitute.

BERT and LLaMA arrive pre-trained; the numpy substitutes get their prior
knowledge from a classic PPMI + truncated-SVD factorisation of co-occurrence
counts over the corpus.  Two views are produced:

* **token embeddings** from token–token co-occurrence within sentences, used
  to initialise the context encoder;
* **entity embeddings** from entity–context-token co-occurrence, used by the
  causal LM's affinity component and by the CaSE baseline's distributed
  representation feature.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import svds

from repro.exceptions import ModelError
from repro.kb.corpus import Corpus
from repro.text.tokenizer import WordTokenizer
from repro.text.vocab import SPECIAL_TOKENS, Vocabulary
from repro.types import Entity
from repro.utils.mathx import l2_normalize


def _ppmi(matrix: np.ndarray) -> np.ndarray:
    """Positive pointwise mutual information of a dense count matrix."""
    total = matrix.sum()
    if total <= 0:
        return np.zeros_like(matrix, dtype=np.float64)
    row = matrix.sum(axis=1, keepdims=True)
    col = matrix.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        pmi = np.log((matrix * total) / np.maximum(row * col, 1e-12))
    pmi[~np.isfinite(pmi)] = 0.0
    return np.maximum(pmi, 0.0)


def _truncated_svd(matrix: np.ndarray, dim: int, seed: int) -> np.ndarray:
    """Left singular vectors scaled by singular values, truncated to ``dim``."""
    if matrix.size == 0:
        return np.zeros((matrix.shape[0], dim))
    effective_dim = min(dim, min(matrix.shape) - 1)
    if effective_dim < 1:
        # Degenerate case: not enough columns/rows for SVD; pad with zeros.
        return np.zeros((matrix.shape[0], dim))
    sparse = coo_matrix(matrix)
    rng = np.random.default_rng(seed)
    u, s, _ = svds(sparse.astype(np.float64), k=effective_dim, random_state=rng)
    order = np.argsort(-s)
    u = u[:, order]
    s = s[order]
    vectors = u * np.sqrt(s)[None, :]
    if effective_dim < dim:
        vectors = np.pad(vectors, ((0, 0), (0, dim - effective_dim)))
    # ``svds`` returns F-ordered factors; rows must be C-contiguous so that
    # downstream dot products hit the same BLAS kernel as vectors that
    # round-trip through the artifact store (strided vs contiguous ddot
    # differ in the last ulps, which would break save→load ranking parity).
    return np.ascontiguousarray(vectors)


def window_pair_counts(
    id_lists: list[list[int]], vocab_size: int, window: int
) -> np.ndarray:
    """Token-token co-occurrence within a sliding window: each token adds
    ``1 / (1 + distance)`` to its cell with every neighbour up to ``window``
    positions away in its sentence.

    The (centre, neighbour, weight) events are laid out in a loop's visiting
    order (sentence, centre position, neighbour ascending), and ``np.add.at``
    adds them unbuffered in that order, so each cell sums its terms in that
    order from 0.0.
    """
    lengths = np.array([len(ids) for ids in id_lists], dtype=np.int64)
    ids = np.fromiter(
        (token_id for id_list in id_lists for token_id in id_list),
        dtype=np.int64,
        count=int(lengths.sum()),
    )
    ends = np.repeat(np.cumsum(lengths), lengths)
    starts = ends - np.repeat(lengths, lengths)
    offsets = np.concatenate([np.arange(-window, 0), np.arange(1, window + 1)])
    neighbours = np.arange(len(ids))[:, None] + offsets
    inside = (neighbours >= starts[:, None]) & (neighbours < ends[:, None])
    centres = np.broadcast_to(ids[:, None], inside.shape)[inside]
    weights = np.broadcast_to(1.0 / (1.0 + np.abs(offsets)), inside.shape)[inside]
    counts = np.zeros(vocab_size * vocab_size)
    np.add.at(counts, centres * vocab_size + ids[neighbours[inside]], weights)
    return counts.reshape(vocab_size, vocab_size)


class CooccurrenceEmbeddings:
    """PPMI-SVD embeddings for tokens and entities.

    ``dim`` controls the token embeddings; ``entity_dim`` (default: three
    times ``dim``) controls the entity embeddings.  Entity vectors keep more
    dimensions because the downstream rankers need the full attribute-level
    detail of each entity's context profile, whereas token embeddings only
    seed the context encoder.
    """

    def __init__(
        self, dim: int = 64, window: int = 6, seed: int = 0, entity_dim: int | None = None
    ):
        if dim <= 0:
            raise ModelError("dim must be positive")
        if window <= 0:
            raise ModelError("window must be positive")
        if entity_dim is not None and entity_dim <= 0:
            raise ModelError("entity_dim must be positive")
        self.dim = dim
        self.entity_dim = entity_dim if entity_dim is not None else 3 * dim
        self.window = window
        self.seed = seed
        self._tokenizer = WordTokenizer()
        self.vocabulary: Vocabulary | None = None
        self.token_vectors: np.ndarray | None = None
        self._entity_vectors: dict[int, np.ndarray] = {}

    # -- fitting ----------------------------------------------------------------
    def fit(self, corpus: Corpus, entities: list[Entity]) -> "CooccurrenceEmbeddings":
        """Fit token and entity embeddings on ``corpus``."""
        sentences = list(corpus)
        token_lists = [corpus.tokens(sentence) for sentence in sentences]
        self.vocabulary = Vocabulary.from_token_lists(token_lists)
        vocab_size = len(self.vocabulary)
        id_lists = [self.vocabulary.encode(tokens) for tokens in token_lists]
        token_matrix = window_pair_counts(id_lists, vocab_size, self.window)
        self.token_vectors = _truncated_svd(_ppmi(token_matrix), self.dim, self.seed)

        # Entity-context co-occurrence: counts of context tokens over all
        # sentences mentioning the entity (the entity's own name tokens are
        # excluded so the embedding reflects *context*, not the surface form).
        # The vocabulary holds every corpus token under its own id, so
        # leaving out the name's ids leaves out exactly the name's tokens.
        ids_of = {sentence.sentence_id: ids for sentence, ids in zip(sentences, id_lists)}
        entity_rows: list[np.ndarray] = []
        entity_ids: list[int] = []
        for entity in entities:
            name_ids = set(
                self.vocabulary.encode(self._tokenizer.tokenize_entity_name(entity.name))
            )
            context = [
                token_id
                for sentence in corpus.sentences_of(entity.entity_id)
                for token_id in ids_of[sentence.sentence_id]
                if token_id not in name_ids
            ]
            entity_rows.append(np.bincount(context, minlength=vocab_size).astype(np.float64))
            entity_ids.append(entity.entity_id)

        if entity_rows:
            entity_matrix = _ppmi(np.stack(entity_rows))
            entity_vectors = _truncated_svd(
                entity_matrix, self.entity_dim, self.seed + 1
            )
            entity_vectors = l2_normalize(entity_vectors, axis=1)
            self._entity_vectors = {
                entity_id: entity_vectors[i] for i, entity_id in enumerate(entity_ids)
            }
        return self

    # -- access ---------------------------------------------------------------
    def token_vector(self, token: str) -> np.ndarray:
        if self.vocabulary is None or self.token_vectors is None:
            raise ModelError("embeddings are not fitted")
        return self.token_vectors[self.vocabulary.id_of(token)]

    def entity_vector(self, entity_id: int) -> np.ndarray:
        if not self._entity_vectors:
            raise ModelError("embeddings are not fitted")
        if entity_id not in self._entity_vectors:
            raise ModelError(f"no embedding for entity {entity_id}")
        return self._entity_vectors[entity_id]

    def has_entity(self, entity_id: int) -> bool:
        return entity_id in self._entity_vectors

    def entity_vectors(self) -> dict[int, np.ndarray]:
        return dict(self._entity_vectors)

    def entity_similarity(self, entity_a: int, entity_b: int) -> float:
        """Cosine similarity between two entity embeddings (0 when unknown)."""
        if entity_a not in self._entity_vectors or entity_b not in self._entity_vectors:
            return 0.0
        return float(
            np.dot(self._entity_vectors[entity_a], self._entity_vectors[entity_b])
        )

    # -- persistence ------------------------------------------------------------
    def save(self, directory: str | Path) -> None:
        """Persist vocabulary, token vectors, and entity vectors.

        The SVD behind these embeddings is one of the most expensive steps of
        every fit, so they are first-class artifact state: ``save``/``load``
        implement the substrate persistence protocol (:mod:`repro.substrate`)
        and the provider stores them once, content-addressed, for every
        method that consumes them.
        """
        from repro.store.serialization import save_array, save_vector_map, write_json_state

        if self.vocabulary is None or self.token_vectors is None:
            raise ModelError("embeddings are not fitted")
        directory = Path(directory)
        write_json_state(
            directory / "embeddings.json",
            {
                "dim": self.dim,
                "entity_dim": self.entity_dim,
                "window": self.window,
                "seed": self.seed,
                "vocabulary": list(self.vocabulary),
            },
        )
        save_array(directory / "token_vectors.npy", self.token_vectors)
        save_vector_map(directory, "entity", self._entity_vectors)

    @classmethod
    def load(cls, directory: str | Path, mmap: bool = True) -> "CooccurrenceEmbeddings":
        """Reconstruct embeddings written by :meth:`save` without refitting."""
        from repro.store.serialization import load_array, load_vector_map, read_json_state

        directory = Path(directory)
        meta = read_json_state(directory / "embeddings.json")
        instance = cls(
            dim=int(meta["dim"]),
            window=int(meta["window"]),
            seed=int(meta["seed"]),
            entity_dim=int(meta["entity_dim"]),
        )
        # The saved token list preserves id order (specials first), so
        # re-adding in sequence reproduces the exact token ↔ id mapping.
        instance.vocabulary = Vocabulary(
            token for token in meta["vocabulary"] if token not in SPECIAL_TOKENS
        )
        instance.token_vectors = load_array(directory / "token_vectors.npy", mmap=mmap)
        instance._entity_vectors = load_vector_map(directory, "entity", mmap=mmap)
        return instance
