"""Causal entity language model: the LLaMA-7B substitute.

GenExpan (Section V-B) needs three capabilities from its backbone LM:

1. next-token distributions for (prefix-tree constrained) beam search;
2. the conditional probability ``P(e' | "{e} is similar to")`` used by the
   entity-selection score (Eq. 8, geometric mean over the tokens of ``e'``);
3. knowledge about entities injected by continued pre-training on the corpus.

The substitute combines an interpolated token n-gram LM (fluency / next-token
distributions) with entity co-occurrence embeddings (entity knowledge).  The
"continued pre-training" step of the paper corresponds to fitting both on the
given corpus; the "- Further pretrain" ablation of Table III drops the corpus
and leaves only a weak prior derived from entity surface forms.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.config import CausalLMConfig
from repro.exceptions import ModelError
from repro.kb.corpus import Corpus
from repro.lm.embeddings import CooccurrenceEmbeddings
from repro.retrieval import CandidateMatrix
from repro.text.prefix_tree import CompiledPrefixTree, PrefixTree
from repro.text.tokenizer import WordTokenizer
from repro.types import Entity
from repro.utils.rng import RandomState

_BOS = "<s>"
_EOS = "</s>"

#: joins context tokens into one JSON key; the tokenizer never emits it.
_CTX_SEPARATOR = "\x1f"

#: a decode step rates a prefix by the best prompt affinity among the first
#: this many names it can still become.
_AFFINITY_FANOUT = 20

#: the template of Eq. 8's selection prompt, ``f"{name}{_SIMILAR_SUFFIX}"``;
#: its tokens never merge with the name's (the space splits them).
_SIMILAR_SUFFIX = " is similar to"


class NGramLanguageModel:
    """An interpolated n-gram LM with additive smoothing."""

    def __init__(self, order: int = 3, smoothing: float = 0.1):
        if order < 1:
            raise ModelError("order must be >= 1")
        if smoothing <= 0:
            raise ModelError("smoothing must be positive")
        self.order = order
        self.smoothing = smoothing
        #: counts[n][context_tuple][token] for n-gram order n+1.
        self._counts: list[dict[tuple, Counter]] = [
            defaultdict(Counter) for _ in range(order)
        ]
        #: totals[n][context] == sum(counts[n][context].values()), kept by
        #: ``fit`` and rebuilt by ``from_state``.
        self._totals: list[Counter] = [Counter() for _ in range(order)]
        self._vocab: set[str] = set()
        self._total_tokens = 0

    def fit(self, token_sequences: Iterable[Sequence[str]]) -> "NGramLanguageModel":
        """Accumulate n-gram counts from token sequences (BOS/EOS are added)."""
        for sequence in token_sequences:
            tokens = [_BOS] * (self.order - 1) + list(sequence) + [_EOS]
            self._vocab.update(tokens)
            for i in range(self.order - 1, len(tokens)):
                token = tokens[i]
                self._total_tokens += 1
                for n in range(self.order):
                    context = tuple(tokens[i - n : i])
                    self._counts[n][context][token] += 1
                    self._totals[n][context] += 1
        return self

    @property
    def vocabulary(self) -> set[str]:
        return set(self._vocab)

    def _order_prob(self, n: int, context: tuple, token: str) -> float:
        counter = self._counts[n].get(context)
        vocab_size = max(len(self._vocab), 1)
        if counter is None:
            return 1.0 / vocab_size
        return (counter.get(token, 0) + self.smoothing) / (
            self._totals[n][context] + self.smoothing * vocab_size
        )

    def probability(self, context: Sequence[str], token: str) -> float:
        """Interpolated probability of ``token`` given ``context``."""
        context = list(context)
        probability = 0.0
        weight_total = 0.0
        for n in range(self.order):
            weight = float(n + 1)  # higher orders weigh more
            ctx = tuple(context[len(context) - n :]) if n > 0 else ()
            probability += weight * self._order_prob(n, ctx, token)
            weight_total += weight
        return probability / weight_total

    def logprob(self, context: Sequence[str], token: str) -> float:
        return float(np.log(max(self.probability(context, token), 1e-12)))

    def sequence_logprob(self, tokens: Sequence[str], context: Sequence[str] = ()) -> float:
        """Sum of token log-probabilities of ``tokens`` continuing ``context``."""
        history = list(context)
        total = 0.0
        for token in tokens:
            total += self.logprob(history, token)
            history.append(token)
        return total

    # -- persistence ------------------------------------------------------------
    def to_state(self) -> dict:
        """A JSON-serialisable snapshot of the fitted counts.

        Counter insertion order is preserved (JSON objects round-trip key
        order) because ``next_token_candidates`` breaks count ties by it.
        The vocabulary is a set, written sorted so that one fit always writes
        the same bytes, whatever the process's string hash seed.
        """
        return {
            "order": self.order,
            "smoothing": self.smoothing,
            "total_tokens": self._total_tokens,
            "vocab": sorted(self._vocab),
            "counts": [
                {
                    _CTX_SEPARATOR.join(context): dict(counter)
                    for context, counter in table.items()
                }
                for table in self._counts
            ],
        }

    @classmethod
    def from_state(cls, state: dict) -> "NGramLanguageModel":
        """Reconstruct a model from :meth:`to_state` output."""
        model = cls(order=int(state["order"]), smoothing=float(state["smoothing"]))
        model._total_tokens = int(state["total_tokens"])
        model._vocab = set(state["vocab"])
        counts = state["counts"]
        if len(counts) != model.order:
            raise ModelError(
                f"n-gram state has {len(counts)} count tables, expected {model.order}"
            )
        for n, table in enumerate(counts):
            for joined, counter in table.items():
                context = tuple(joined.split(_CTX_SEPARATOR)) if joined else ()
                model._counts[n][context] = Counter(
                    {token: int(count) for token, count in counter.items()}
                )
                model._totals[n][context] = sum(model._counts[n][context].values())
        return model

    def next_token_candidates(self, context: Sequence[str], top_k: int = 50) -> list[tuple[str, float]]:
        """Most likely next tokens after ``context`` (highest-order match first)."""
        context = list(context)
        merged: Counter = Counter()
        for n in range(self.order - 1, -1, -1):
            ctx = tuple(context[len(context) - n :]) if n > 0 else ()
            counter = self._counts[n].get(ctx)
            if counter:
                merged.update(counter)
            if len(merged) >= top_k:
                break
        scored = [
            (token, self.logprob(context, token)) for token, _ in merged.most_common(top_k * 2)
        ]
        scored.sort(key=lambda pair: -pair[1])
        return scored[:top_k]


class TokenIdNGram:
    """:class:`NGramLanguageModel`'s counts keyed by integer token ids.

    Per order ``n`` there is a map from context (a tuple of ids) to row, a
    sorted array of ``row * width + token`` keys with the counts aligned to
    it, and the per-row totals.  :meth:`probabilities` scores many (context,
    next token) pairs with a few array operations per order, using
    :meth:`NGramLanguageModel.probability`'s operands in its order, so every
    value is bitwise equal to the scalar call.
    """

    def __init__(self, ngram: NGramLanguageModel):
        self.order = ngram.order
        self.smoothing = ngram.smoothing
        self.vocab_size = max(len(ngram._vocab), 1)
        self.token_ids = {token: index for index, token in enumerate(sorted(ngram._vocab))}
        #: the id of every token outside the vocabulary; no count holds it.
        self.unknown_id = len(self.token_ids)
        self._width = self.unknown_id + 1
        token_id = self.token_ids.__getitem__
        self._rows: list[dict[tuple[int, ...], int]] = []
        self._keys: list[np.ndarray] = []
        self._counts: list[np.ndarray] = []
        self._totals: list[np.ndarray] = []
        for table, table_totals in zip(ngram._counts, ngram._totals):
            rows: dict[tuple[int, ...], int] = {}
            entry_rows: list[int] = []
            entry_tokens: list[int] = []
            counts: list[int] = []
            for row, (context, counter) in enumerate(table.items()):
                rows[tuple(map(token_id, context))] = row
                entry_rows.extend([row] * len(counter))
                entry_tokens.extend(map(token_id, counter))
                counts.extend(counter.values())
            keys = np.array(entry_rows, dtype=np.int64) * self._width + entry_tokens
            by_key = np.argsort(keys, kind="stable")
            # the trailing key exceeds every real one, so a lookup's slot is
            # always in range; an unseen context (row -1) reads the
            # trailing total.
            self._rows.append(rows)
            self._keys.append(np.append(keys[by_key], np.iinfo(np.int64).max))
            self._counts.append(np.append(np.array(counts, dtype=np.int64)[by_key], 0))
            self._totals.append(
                np.array([table_totals[context] for context in table] + [0], dtype=np.int64)
            )

    def ids(self, tokens: Iterable[str]) -> list[int]:
        unknown = self.unknown_id
        return [self.token_ids.get(token, unknown) for token in tokens]

    def probabilities(
        self,
        contexts: Sequence[tuple[int, ...]],
        context_of: np.ndarray,
        tokens: np.ndarray,
    ) -> np.ndarray:
        """The interpolated probability of ``tokens[i]`` after
        ``contexts[context_of[i]]``, for every ``i``.

        A context must keep at least the last ``order - 1`` ids of the full
        context (all of it when it is shorter).  As in the scalar path, a
        context shorter than ``n`` tokens matches no order-``n`` row, so that
        order scores ``1 / V``; an unseen token has count 0.
        """
        smoothing, vocab_size = self.smoothing, self.vocab_size
        probability = np.zeros(len(tokens))
        weight_total = 0.0
        for n in range(self.order):
            rows_of = self._rows[n]
            row = np.array(
                [rows_of.get(ctx[len(ctx) - n :], -1) if len(ctx) >= n else -1 for ctx in contexts],
                dtype=np.int64,
            )[context_of]
            key = row * self._width + tokens
            slot = np.searchsorted(self._keys[n], key)
            count = np.where(self._keys[n][slot] == key, self._counts[n][slot], 0)
            seen = (count + smoothing) / (self._totals[n][row] + smoothing * vocab_size)
            weight = float(n + 1)  # higher orders weigh more
            probability += weight * np.where(row >= 0, seen, 1.0 / vocab_size)
            weight_total += weight
        return probability / weight_total


class CausalEntityLM:
    """Entity-aware causal LM used by GenExpan."""

    def __init__(self, config: CausalLMConfig | None = None):
        self.config = config or CausalLMConfig()
        self.config.validate()
        self._tokenizer = WordTokenizer()
        self._rng = RandomState(self.config.seed)
        self._ngram = NGramLanguageModel(
            order=self.config.ngram_order, smoothing=self.config.smoothing
        )
        self._embeddings: CooccurrenceEmbeddings | None = None
        self._entities_by_id: dict[int, Entity] = {}
        self._name_tokens: dict[int, frozenset[str]] = {}
        #: position of each entity (and of each name) in the
        #: :meth:`prompt_affinities` vector.
        self._entity_ids: list[int] = []
        self._name_positions: dict[str, int] = {}
        #: the LM's embedded entities stacked once, for prompt affinities,
        #: with the vector positions of their rows and of everyone else.
        self._affinity_matrix = CandidateMatrix.from_vectors({})
        self._embedded_positions = np.zeros(0, dtype=np.int64)
        self._unembedded: list[tuple[int, int]] = []
        #: the decode tables (see :meth:`prepare_decoding`).
        self._token_ngram: TokenIdNGram | None = None
        self._compiled_tree: tuple[PrefixTree, int, CompiledPrefixTree] | None = None
        self._fitted = False

    # -- fitting --------------------------------------------------------------
    def fit(self, corpus: Corpus, entities: list[Entity]) -> "CausalEntityLM":
        """(Continually pre-)train the LM.

        When ``config.further_pretrain`` is set, the n-gram LM ingests the
        corpus sentences and entity co-occurrence embeddings are fitted on it;
        otherwise only entity surface forms are available (a weak prior that
        mirrors using LLaMA without the domain corpus).
        """
        name_sequences = [
            self._tokenizer.tokenize_entity_name(entity.name) for entity in entities
        ]
        if self.config.further_pretrain:
            self._ngram.fit(corpus.tokens(sentence) for sentence in corpus)
            self._ngram.fit(name_sequences)
            self._embeddings = CooccurrenceEmbeddings(
                dim=self.config.embedding_dim, seed=self.config.seed
            ).fit(corpus, entities)
        else:
            self._ngram.fit(name_sequences)
            self._embeddings = None
        self._bind(entities)
        self._fitted = True
        return self

    def _bind(self, entities: list[Entity]) -> None:
        """Build the per-entity lookups decoding reads on every call, once."""
        self._entities_by_id = {entity.entity_id: entity for entity in entities}
        self._name_tokens = {
            entity.entity_id: frozenset(self._tokenizer.tokenize_entity_name(entity.name))
            for entity in entities
        }
        self._entity_ids = list(self._entities_by_id)
        position = {entity_id: index for index, entity_id in enumerate(self._entity_ids)}
        # a later entity of the same name wins, as in a name -> id dict.
        self._name_positions = {
            entity.name: position[entity_id]
            for entity_id, entity in self._entities_by_id.items()
        }
        vectors = self._embeddings.entity_vectors() if self._embeddings is not None else {}
        self._affinity_matrix = CandidateMatrix.from_vectors(
            {eid: vectors[eid] for eid in self._entities_by_id if eid in vectors}
        )
        self._embedded_positions = np.array(
            [position[eid] for eid in self._affinity_matrix.ids], dtype=np.int64
        )
        self._unembedded = [
            (position[eid], eid) for eid in self._entity_ids if eid not in self._affinity_matrix
        ]
        # the decode tables read the counts and positions above: rebuilt on
        # first use after every bind.
        self._token_ngram = None
        self._compiled_tree = None

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise ModelError("causal LM is not fitted")

    # -- persistence ------------------------------------------------------------
    def save_state(self, directory: str | Path) -> None:
        """Persist the continued-pre-training products (counts + embeddings).

        ``save_state``/``load_state`` implement the substrate persistence
        protocol (:mod:`repro.substrate`); the fitted LM is stored once as a
        content-addressed substrate artifact that GenExpan's method manifest
        references.  Entity surface-form lookups are *not* saved: they are
        cheap to rebuild and must come from the dataset the state is
        restored against.
        """
        from repro.store.serialization import write_json_state

        self._require_fitted()
        directory = Path(directory)
        write_json_state(
            directory / "causal_lm.json",
            {
                "config": {
                    "seed": self.config.seed,
                    "ngram_order": self.config.ngram_order,
                    "smoothing": self.config.smoothing,
                    "embedding_dim": self.config.embedding_dim,
                    "affinity_weight": self.config.affinity_weight,
                    "further_pretrain": self.config.further_pretrain,
                },
                "has_embeddings": self._embeddings is not None,
            },
        )
        write_json_state(directory / "ngram.json", self._ngram.to_state())
        if self._embeddings is not None:
            self._embeddings.save(directory / "embeddings")

    @classmethod
    def load_state(
        cls, directory: str | Path, entities: list[Entity], mmap: bool = True
    ) -> "CausalEntityLM":
        """Rebuild a fitted LM from :meth:`save_state` output and ``entities``."""
        from repro.store.serialization import read_json_state

        directory = Path(directory)
        meta = read_json_state(directory / "causal_lm.json")
        lm = cls(CausalLMConfig(**meta["config"]))
        lm._ngram = NGramLanguageModel.from_state(read_json_state(directory / "ngram.json"))
        if meta.get("has_embeddings"):
            lm._embeddings = CooccurrenceEmbeddings.load(directory / "embeddings", mmap=mmap)
        lm._bind(entities)
        lm._fitted = True
        return lm

    # -- entity affinity ---------------------------------------------------------
    def entity_affinity(self, entity_a: int, entity_b: int) -> float:
        """Similarity prior between two entities in [0, 1].

        With continued pre-training this is the cosine of corpus co-occurrence
        embeddings (shifted to [0, 1]); without it, the Jaccard overlap of
        name tokens — a deliberately weak general-knowledge prior.
        """
        self._require_fitted()
        if self._embeddings is not None and self._embeddings.has_entity(entity_a) and self._embeddings.has_entity(entity_b):
            return 0.5 * (1.0 + self._embeddings.entity_similarity(entity_a, entity_b))
        tokens_a = self._name_tokens.get(entity_a, frozenset())
        tokens_b = self._name_tokens.get(entity_b, frozenset())
        if not tokens_a or not tokens_b:
            return 0.0
        return len(tokens_a & tokens_b) / len(tokens_a | tokens_b)

    def prompt_affinity(self, entity_id: int, prompt_entity_ids: Sequence[int]) -> float:
        """Mean affinity between ``entity_id`` and the prompt entities."""
        if not prompt_entity_ids:
            return 0.0
        return float(
            np.mean([self.entity_affinity(entity_id, pid) for pid in prompt_entity_ids])
        )

    @property
    def entity_ids(self) -> list[int]:
        """The entity at each position of a :meth:`prompt_affinities` vector."""
        return list(self._entity_ids)

    def prompt_affinities(self, prompt_entity_ids: Sequence[int]) -> np.ndarray:
        """:meth:`prompt_affinity` of every entity, computed as one product,
        as a vector in :attr:`entity_ids` order.

        When every prompt entity has an embedding, the embedded entities
        take ``0.5 * (1 + M @ P.T)`` over the entity matrix stacked at
        fit/load time, averaged over the prompt columns in prompt order.
        The product's dot products may differ from per-pair ``np.dot`` in
        the last ulps (3.3e-16 at most, measured on the ``small`` profile).
        Every other entity, or every entity when a prompt entity has no
        embedding, goes through :meth:`prompt_affinity`.
        """
        self._require_fitted()
        if not prompt_entity_ids:
            return np.zeros(len(self._entity_ids))
        matrix, embeddings = self._affinity_matrix, self._embeddings
        # an empty matrix also means no embeddings (see ``_bind``)
        if not len(matrix) or not all(map(embeddings.has_entity, prompt_entity_ids)):
            return np.array(
                [self.prompt_affinity(eid, prompt_entity_ids) for eid in self._entity_ids],
                dtype=np.float64,
            )
        prompt = np.stack([embeddings.entity_vector(pid) for pid in prompt_entity_ids])
        pairs = 0.5 * (1.0 + matrix.matrix @ prompt.T)
        affinities = np.empty(len(self._entity_ids))
        affinities[self._embedded_positions] = pairs.mean(axis=1)
        for position, entity_id in self._unembedded:
            affinities[position] = self.prompt_affinity(entity_id, prompt_entity_ids)
        return affinities

    # -- scoring ---------------------------------------------------------------------
    def _prompt_tokens(self, prompt_entity_ids: Sequence[int]) -> list[str]:
        names = [
            self._entities_by_id[pid].name
            for pid in prompt_entity_ids
            if pid in self._entities_by_id
        ]
        text = ", ".join(names) + "," if names else ""
        return self._tokenizer.tokenize(text)

    def entity_logprob(
        self, entity_id: int, prompt_entity_ids: Sequence[int]
    ) -> float:
        """Length-normalised log-probability of generating the entity name."""
        self._require_fitted()
        entity = self._entities_by_id.get(entity_id)
        if entity is None:
            raise ModelError(f"unknown entity {entity_id}")
        tokens = self._tokenizer.tokenize_entity_name(entity.name)
        if not tokens:
            return float(np.log(1e-12))
        context = self._prompt_tokens(prompt_entity_ids)
        return self._ngram.sequence_logprob(tokens, context) / len(tokens)

    def conditional_similarity(self, generated_id: int, seed_id: int) -> float:
        """``P(seed | "{generated} is similar to")`` with geometric-mean length norm.

        This is Eq. 8's building block: the probability the LM assigns to the
        seed entity's name when prompted with the generated entity.
        """
        self._require_fitted()
        generated = self._entities_by_id.get(generated_id)
        seed = self._entities_by_id.get(seed_id)
        if generated is None or seed is None:
            return 0.0
        prompt = self._tokenizer.tokenize(f"{generated.name}{_SIMILAR_SUFFIX}")
        seed_tokens = self._tokenizer.tokenize_entity_name(seed.name)
        if not seed_tokens:
            return 0.0
        logprob = self._ngram.sequence_logprob(seed_tokens, prompt) / len(seed_tokens)
        lm_probability = float(np.exp(logprob))
        affinity = self.entity_affinity(generated_id, seed_id)
        w = self.config.affinity_weight
        return w * affinity + (1.0 - w) * lm_probability

    def conditional_similarity_batch(
        self, generated_ids: Sequence[int], seed_ids: Sequence[int]
    ) -> dict[int, float]:
        """Mean :meth:`conditional_similarity` to ``seed_ids`` for each
        generated entity, computed as one batch.

        The n-gram probability of a token only looks at the last
        ``order - 1`` tokens of its context, so the LM walk over the seed
        name depends on the *prompt tail* alone — identical (``"similar
        to"``) for every generated entity.  The |G| x |S| sequence walks of
        the sequential path therefore collapse to one memoised walk per
        ``(prompt tail, seed)``; the per-pair affinity term and the
        seed-order summation are kept verbatim, so every returned mean is
        bitwise identical to averaging sequential
        :meth:`conditional_similarity` calls.  While the tail fits inside
        the template's own tokens it is taken from them, without tokenizing
        each name.
        """
        self._require_fitted()
        if not seed_ids:
            return {entity_id: 0.0 for entity_id in generated_ids}
        tail_len = max(self._ngram.order - 1, 0)
        suffix = self._tokenizer.tokenize(_SIMILAR_SUFFIX)
        fixed_tail = (
            tuple(suffix[len(suffix) - tail_len :]) if tail_len <= len(suffix) else None
        )
        seed_tokens: dict[int, list[str]] = {}
        for seed_id in seed_ids:
            seed = self._entities_by_id.get(seed_id)
            seed_tokens[seed_id] = (
                self._tokenizer.tokenize_entity_name(seed.name)
                if seed is not None
                else []
            )
        lm_cache: dict[tuple, float] = {}
        w = self.config.affinity_weight
        means: dict[int, float] = {}
        for generated_id in generated_ids:
            generated = self._entities_by_id.get(generated_id)
            if generated is None:
                means[generated_id] = 0.0
                continue
            tail = fixed_tail
            if tail is None:
                prompt = self._tokenizer.tokenize(f"{generated.name}{_SIMILAR_SUFFIX}")
                tail = tuple(prompt[max(0, len(prompt) - tail_len):])
            total = 0.0
            for seed_id in seed_ids:
                tokens = seed_tokens[seed_id]
                if not tokens:
                    continue  # the sequential path scores these pairs 0.0
                key = (tail, seed_id)
                lm_probability = lm_cache.get(key)
                if lm_probability is None:
                    logprob = self._ngram.sequence_logprob(tokens, tail) / len(tokens)
                    lm_probability = float(np.exp(logprob))
                    lm_cache[key] = lm_probability
                affinity = self.entity_affinity(generated_id, seed_id)
                total += w * affinity + (1.0 - w) * lm_probability
            means[generated_id] = total / len(seed_ids)
        return means

    # -- generation ---------------------------------------------------------------------
    def prepare_decoding(self, prefix_tree: PrefixTree) -> CompiledPrefixTree:
        """Build the tables :meth:`generate_constrained` reads, once.

        They are the n-gram counts keyed by integer token ids (once per
        LM) and ``prefix_tree`` compiled against those ids and the
        affinity positions (once per tree, rebuilt after an ``insert``).
        GenExpan calls this when it binds, so no request pays for it.
        """
        self._require_fitted()
        # benign races: two first decodes may both build, and either result
        # serves.
        if self._token_ngram is None:
            self._token_ngram = TokenIdNGram(self._ngram)
        cached = self._compiled_tree
        if cached is None or cached[0] is not prefix_tree or cached[1] != prefix_tree.version:
            ngram = self._token_ngram
            compiled = prefix_tree.compile(
                ngram.token_ids, ngram.unknown_id, self._name_positions, _AFFINITY_FANOUT
            )
            cached = self._compiled_tree = (prefix_tree, prefix_tree.version, compiled)
        return cached[2]

    def generate_constrained(
        self,
        prompt_entity_ids: Sequence[int],
        prefix_tree: PrefixTree,
        beam_width: int = 20,
        exclude_names: set[str] | None = None,
        max_length: int = 8,
    ) -> list[tuple[str, float]]:
        """Prefix-tree constrained beam search (Figure 6).

        Returns up to ``beam_width`` (entity name, score) pairs.  Every
        returned name is guaranteed to be a candidate entity because decoding
        follows root-to-leaf paths of the prefix tree.

        Each step scores all of its (beam, allowed token) pairs at once over
        the tables of :meth:`prepare_decoding`.  A pair's token score is
        ``w * log(max(best, 1e-6)) + (1 - w) * lm``: ``lm`` is the n-gram
        log-probability of the token after the prompt and the beam's
        prefix, and ``best`` is the highest prompt affinity among the first
        ``_AFFINITY_FANOUT`` names the extended prefix can still become
        (0.0 when there is none).
        """
        self._require_fitted()
        exclude_names = exclude_names or set()
        tree = self.prepare_decoding(prefix_tree)
        ngram = self._token_ngram
        keep = ngram.order - 1  # context ids the n-gram can read
        context = ngram.ids(self._prompt_tokens(prompt_entity_ids))
        # position -1 of a ``reachable`` row reads the trailing 0.0.
        affinity = np.append(self.prompt_affinities(prompt_entity_ids), 0.0)
        w = self.config.affinity_weight

        nodes = np.zeros(1, dtype=np.int64)  # the root
        scores = np.zeros(1)
        tails = [tuple(context[max(0, len(context) - keep) :])]
        length = 0  # every beam of a step is one token longer than the last
        completed: dict[str, float] = {}

        def complete() -> None:
            for node, score in zip(nodes.tolist(), scores.tolist()):
                entity_name = tree.terminals[node]
                if entity_name is not None and entity_name not in exclude_names:
                    normalised = score / max(length, 1)
                    if normalised > completed.get(entity_name, -np.inf):
                        completed[entity_name] = normalised

        for _ in range(max_length):
            complete()
            starts = tree.child_offsets[nodes]
            fanout = tree.child_offsets[nodes + 1] - starts
            pairs = int(fanout.sum())
            if not pairs:
                break
            # (beam, child) pairs beam by beam, children in token order.
            beam = np.repeat(np.arange(len(nodes)), fanout)
            child = np.arange(pairs) + np.repeat(starts - np.cumsum(fanout) + fanout, fanout)
            tokens = tree.child_tokens[child]
            children = tree.child_nodes[child]
            lm = np.log(np.maximum(ngram.probabilities(tails, beam, tokens), 1e-12))
            best = affinity[tree.reachable[children]].max(axis=1)
            extended = scores[beam] + (w * np.log(np.maximum(best, 1e-6)) + (1.0 - w) * lm)
            length += 1
            kept = np.argsort(-extended / length, kind="stable")[: beam_width * 2]
            nodes, scores = children[kept], extended[kept]
            tails = [
                (tails[b] + (token,))[max(0, len(tails[b]) + 1 - keep) :]
                for b, token in zip(beam[kept].tolist(), tokens[kept].tolist())
            ]
        # Flush any completed entities still sitting on the beam.
        complete()
        ranked = sorted(completed.items(), key=lambda item: (-item[1], item[0]))
        return ranked[:beam_width]

    def generate_unconstrained(
        self,
        prompt_entity_ids: Sequence[int],
        beam_width: int = 20,
        max_length: int = 5,
    ) -> list[tuple[str, float]]:
        """Unconstrained sampling-free generation (the "- Prefix constrain" ablation).

        Greedy-ish beam expansion over the raw n-gram vocabulary; the returned
        strings frequently are not valid candidate entities, which is exactly
        the failure mode the prefix constraint removes.
        """
        self._require_fitted()
        context = self._prompt_tokens(prompt_entity_ids)
        beams: list[tuple[list[str], float]] = [([], 0.0)]
        outputs: list[tuple[str, float]] = []
        for _ in range(max_length):
            expansions: list[tuple[list[str], float]] = []
            for prefix, score in beams:
                for token, logprob in self._ngram.next_token_candidates(
                    context + prefix, top_k=beam_width
                ):
                    if token in (_BOS,):
                        continue
                    if token == _EOS:
                        if prefix:
                            outputs.append((" ".join(prefix), score / len(prefix)))
                        continue
                    expansions.append((prefix + [token], score + logprob))
            if not expansions:
                break
            expansions.sort(key=lambda item: -item[1] / max(len(item[0]), 1))
            beams = expansions[:beam_width]
        for prefix, score in beams:
            if prefix:
                outputs.append((" ".join(prefix), score / len(prefix)))
        outputs.sort(key=lambda item: -item[1])
        # Deduplicate while keeping order.
        seen: set[str] = set()
        unique: list[tuple[str, float]] = []
        for name, score in outputs:
            if name not in seen:
                seen.add(name)
                unique.append((name, score))
        return unique[:beam_width]

    @property
    def is_fitted(self) -> bool:
        return self._fitted
