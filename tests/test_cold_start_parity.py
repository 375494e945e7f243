"""The cold start's array paths against the loops they replaced.

The references below are the dataset build's and the prefit's loops as they
were before the arrays, kept here, and only here:

* ``reference_search`` — ``BM25Index.search`` scoring every candidate
  document through the scalar ``score``;
* ``reference_pair_counts`` — the co-occurrence fit's dict of window pairs;
* ``AllocatingAdam`` — Adam's step with a temporary per operation;
* ``reference_softmax`` and ``reference_cross_entropy`` — the softmax and
  the label-smoothed cross-entropy with their temporaries;
* ``reference_train`` — the encoder's training loop with those two, loss
  computed and discarded.

Every comparison is bitwise: the array paths apply the same float operations
to the same operands in the same order.  ``Corpus.tokens`` is checked
against a fresh tokenization under interleaved ``add`` calls.
"""

from __future__ import annotations

import sys
from collections import defaultdict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import EncoderConfig
from repro.kb.corpus import Corpus
from repro.kb.schema import default_schemas
from repro.lm.context_encoder import ContextEncoder
from repro.lm.embeddings import window_pair_counts
from repro.lm.losses import label_smoothed_cross_entropy, label_smoothed_gradient
from repro.lm.optim import AdamOptimizer
from repro.text.bm25 import BM25Index
from repro.text.tokenizer import WordTokenizer
from repro.text.vocab import Vocabulary
from repro.types import Sentence
from repro.utils.mathx import softmax, softmax_inplace


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).ravel().tolist()


# ---------------------------------------------------------------------------
# BM25 search: one totals vector per query
# ---------------------------------------------------------------------------


def reference_search(index: BM25Index, query_tokens, top_k: int) -> list[tuple[int, float]]:
    candidates: set[int] = set()
    for token in query_tokens:
        candidates |= index._index.documents_containing(token)
    scored = [(doc_id, index.score(query_tokens, doc_id)) for doc_id in candidates]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:top_k]


WORDS = ("a", "b", "c", "d", "e", "f", "g")
documents = st.dictionaries(
    st.integers(min_value=-50, max_value=10**6),
    st.lists(st.sampled_from(WORDS), max_size=14),
    max_size=14,
)


class TestBM25Search:
    @settings(max_examples=200, deadline=None)
    @given(
        docs=documents,
        query=st.lists(st.sampled_from(WORDS + ("zzz",)), max_size=8),
        top_k=st.integers(min_value=0, max_value=20),
        k1=st.sampled_from((0.0, 0.9, 1.5)),
        b=st.sampled_from((0.0, 0.75, 1.0)),
    )
    def test_matches_the_scalar_scores_bitwise(self, docs, query, top_k, k1, b):
        index = BM25Index(k1=k1, b=b)
        for doc_id, tokens in docs.items():
            index.add_document(doc_id, tokens)
        got = index.search(query, top_k=top_k)
        expected = reference_search(index, query, top_k)
        assert [doc for doc, _ in got] == [doc for doc, _ in expected]
        assert _bits([s for _, s in got]) == _bits([s for _, s in expected])
        assert all(type(doc) is int and type(score) is float for doc, score in got)

    def test_the_builders_searches_on_tiny(self, tiny_dataset):
        """Every class's hard-negative query (repeated tokens included) over
        the whole tiny corpus."""
        index, everything = tiny_dataset.corpus.build_bm25(), len(tiny_dataset.corpus)
        tokenizer = WordTokenizer()
        queries = [
            tokenizer.tokenize(" ".join(schema.generic_templates).replace("{name}", ""))
            for schema in default_schemas()
        ]
        assert any(len(set(query)) < len(query) for query in queries)
        for query in queries:
            got = index.search(query, top_k=everything)
            expected = reference_search(index, query, everything)
            assert [d for d, _ in got] == [d for d, _ in expected]
            assert _bits([s for _, s in got]) == _bits([s for _, s in expected])


# ---------------------------------------------------------------------------
# Corpus.tokens: one tokenization per sentence
# ---------------------------------------------------------------------------

texts = st.text(alphabet="ab Cd,.'[MASK]9 ", max_size=30)


class TestCorpusTokens:
    @settings(max_examples=150, deadline=None)
    @given(
        script=st.lists(
            st.one_of(
                st.tuples(st.just("add"), texts),
                st.tuples(st.just("tokens"), st.integers(min_value=0, max_value=40)),
            ),
            max_size=40,
        )
    )
    def test_interleaved_adds_match_fresh_tokenization(self, script):
        corpus, tokenizer = Corpus(), WordTokenizer()
        for op, value in script:
            if op == "add":
                corpus.add(Sentence(len(corpus), value, (0,)))
            elif len(corpus):
                sentence = corpus.sentence(value % len(corpus))
                tokens = corpus.tokens(sentence)
                assert tokens == tuple(tokenizer.tokenize(sentence.text))
                assert corpus.tokens(sentence) is tokens
                assert all(token is sys.intern(token) for token in tokens)
        for sentence in corpus:
            assert corpus.tokens(sentence) == tuple(tokenizer.tokenize(sentence.text))


# ---------------------------------------------------------------------------
# Window pair counts: np.add.at in the loop's order
# ---------------------------------------------------------------------------


def reference_pair_counts(id_lists, vocab_size: int, window: int) -> np.ndarray:
    counts: dict[tuple[int, int], float] = defaultdict(float)
    for ids in id_lists:
        for i, center in enumerate(ids):
            lo = max(0, i - window)
            hi = min(len(ids), i + window + 1)
            for j in range(lo, hi):
                if i == j:
                    continue
                counts[(center, ids[j])] += 1.0 / (1.0 + abs(i - j))
    matrix = np.zeros((vocab_size, vocab_size))
    for (a, b), count in counts.items():
        matrix[a, b] = count
    return matrix


class TestPairCounts:
    @settings(max_examples=150, deadline=None)
    @given(
        id_lists=st.lists(
            st.lists(st.integers(min_value=0, max_value=5), max_size=25), max_size=12
        ),
        window=st.integers(min_value=1, max_value=8),
    )
    def test_matches_the_dict_loop_bitwise(self, id_lists, window):
        got = window_pair_counts(id_lists, 6, window)
        assert _bits(got) == _bits(reference_pair_counts(id_lists, 6, window))

    def test_the_tiny_corpus(self, tiny_dataset):
        corpus = tiny_dataset.corpus
        token_lists = [corpus.tokens(sentence) for sentence in corpus]
        vocabulary = Vocabulary.from_token_lists(token_lists)
        id_lists = [vocabulary.encode(tokens) for tokens in token_lists]
        got = window_pair_counts(id_lists, len(vocabulary), 6)
        assert _bits(got) == _bits(reference_pair_counts(id_lists, len(vocabulary), 6))


# ---------------------------------------------------------------------------
# Adam in place, and the encoder step without the loss
# ---------------------------------------------------------------------------


class AllocatingAdam:
    def __init__(self, parameters, learning_rate=1e-3, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.learning_rate, self.beta1, self.beta2, self.epsilon = (
            learning_rate,
            beta1,
            beta2,
            epsilon,
        )
        self._parameters = parameters
        self._m = {name: np.zeros_like(value) for name, value in parameters.items()}
        self._v = {name: np.zeros_like(value) for name, value in parameters.items()}
        self._t = 0

    def step(self, gradients):
        self._t += 1
        for name, grad in gradients.items():
            param, m, v = self._parameters[name], self._m[name], self._v[name]
            m[:] = self.beta1 * m + (1.0 - self.beta1) * grad
            v[:] = self.beta2 * v + (1.0 - self.beta2) * (grad * grad)
            m_hat = m / (1.0 - self.beta1**self._t)
            v_hat = v / (1.0 - self.beta2**self._t)
            param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)


def reference_cross_entropy(logits, targets, smoothing):
    batch, num_classes = logits.shape
    probs = softmax(logits, axis=1)
    smooth_target = np.full(
        (batch, num_classes), smoothing / max(num_classes - 1, 1), dtype=np.float64
    )
    smooth_target[np.arange(batch), targets] = 1.0 - smoothing
    log_probs = np.log(np.clip(probs, 1e-12, 1.0))
    return float(-np.sum(smooth_target * log_probs) / batch), (probs - smooth_target) / batch


def reference_softmax(x, axis=-1):
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


class TestAdamInPlace:
    def test_parameters_and_moments_match_over_many_steps(self):
        rng = np.random.default_rng(7)
        shapes = {"W1": (16, 12), "b1": (12,), "W2": (12, 40), "b2": (40,)}
        start = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        in_place = {name: value.copy() for name, value in start.items()}
        allocating = {name: value.copy() for name, value in start.items()}
        new = AdamOptimizer(in_place, learning_rate=0.01)
        old = AllocatingAdam(allocating, learning_rate=0.01)
        for step in range(600):
            grads = {
                name: rng.normal(scale=10.0 ** rng.integers(-6, 3), size=shape)
                for name, shape in shapes.items()
                if step % 7 or name != "b1"  # some steps skip a parameter
            }
            new.step(grads)
            old.step(grads)
        for name in shapes:
            assert _bits(in_place[name]) == _bits(allocating[name]), name
            assert _bits(new._m[name]) == _bits(old._m[name]), name
            assert _bits(new._v[name]) == _bits(old._v[name]), name


class TestTrainingGradient:
    @settings(max_examples=100, deadline=None)
    @given(
        batch=st.integers(min_value=1, max_value=9),
        classes=st.integers(min_value=1, max_value=12),
        smoothing=st.sampled_from((0.0, 0.1, 0.37)),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_loss_and_gradient_match_the_allocating_form(self, batch, classes, smoothing, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(scale=20.0, size=(batch, classes))
        targets = rng.integers(0, classes, size=batch)
        loss, grad = label_smoothed_cross_entropy(logits, targets, smoothing)
        expected_loss, expected_grad = reference_cross_entropy(logits, targets, smoothing)
        assert _bits([loss]) == _bits([expected_loss])
        assert _bits(grad) == _bits(expected_grad)
        probs = softmax_inplace(logits.copy(), axis=1)
        assert _bits(label_smoothed_gradient(probs, targets, smoothing)) == _bits(expected_grad)
        assert _bits(softmax(logits, axis=1)) == _bits(reference_softmax(logits, axis=1))


def reference_train(encoder: ContextEncoder, corpus, entities) -> None:
    """``ContextEncoder._train`` before the in-place step."""
    features, labels = encoder._training_examples(corpus, entities)
    optimizer = AllocatingAdam(encoder._params, learning_rate=encoder.config.learning_rate)
    rng = encoder._rng.child("train").generator
    num_examples = features.shape[0]
    batch_size = min(encoder.config.batch_size, num_examples)
    for _epoch in range(encoder.config.epochs):
        order = rng.permutation(num_examples)
        for start in range(0, num_examples, batch_size):
            batch_idx = order[start : start + batch_size]
            x, y = features[batch_idx], labels[batch_idx]
            hidden = encoder._forward_hidden(x)
            logits = encoder._forward_logits(hidden)
            _, grad_logits = reference_cross_entropy(logits, y, encoder.config.label_smoothing)
            grad_w2 = hidden.T @ grad_logits
            grad_b2 = grad_logits.sum(axis=0)
            grad_hidden = grad_logits @ encoder._params["W2"].T
            grad_pre = grad_hidden * (1.0 - hidden**2)
            optimizer.step(
                {"W1": x.T @ grad_pre, "b1": grad_pre.sum(axis=0), "W2": grad_w2, "b2": grad_b2}
            )


def test_the_trained_encoder_on_tiny(tiny_dataset, resources):
    entities = tiny_dataset.entities()
    config = EncoderConfig(epochs=2)
    pretrained = resources.cooccurrence_embeddings()
    fitted = ContextEncoder(config).fit(tiny_dataset.corpus, entities, pretrained=pretrained)

    class ReferenceEncoder(ContextEncoder):
        def _train(self, corpus, entities):
            reference_train(self, corpus, entities)

    reference = ReferenceEncoder(config).fit(tiny_dataset.corpus, entities, pretrained=pretrained)
    for name in ("W1", "b1", "W2", "b2"):
        assert _bits(fitted._params[name]) == _bits(reference._params[name]), name
