"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rerank import segmented_rerank
from repro.eval.metrics import average_precision_at_k, precision_at_k, query_metrics
from repro.lm.losses import info_nce_loss, label_smoothed_cross_entropy
from repro.text.prefix_tree import PrefixTree
from repro.text.tokenizer import WordTokenizer
from repro.text.vocab import Vocabulary
from repro.types import ExpansionResult, RankedEntity
from repro.utils.mathx import l2_normalize, softmax
from repro.utils.rng import derive_seed

# -- strategies -----------------------------------------------------------------

entity_ids = st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=60, unique=True)
relevant_sets = st.sets(st.integers(min_value=0, max_value=500), max_size=60)
cutoffs = st.integers(min_value=1, max_value=120)
tokens = st.text(alphabet="abcdefghij", min_size=1, max_size=6)


class TestMetricProperties:
    @given(ranking=entity_ids, relevant=relevant_sets, k=cutoffs)
    def test_precision_bounded(self, ranking, relevant, k):
        value = precision_at_k(ranking, relevant, k)
        assert 0.0 <= value <= 100.0

    @given(ranking=entity_ids, relevant=relevant_sets, k=cutoffs)
    def test_average_precision_bounded(self, ranking, relevant, k):
        value = average_precision_at_k(ranking, relevant, k)
        assert 0.0 <= value <= 100.0 + 1e-9

    @given(ranking=entity_ids, k=cutoffs)
    def test_perfect_ranking_scores_100(self, ranking, k):
        relevant = set(ranking)
        k = min(k, len(ranking))
        assert average_precision_at_k(ranking, relevant, k) == 100.0
        assert precision_at_k(ranking, relevant, k) == 100.0

    @given(ranking=entity_ids, relevant=relevant_sets, k=cutoffs)
    def test_disjoint_relevant_scores_zero(self, ranking, relevant, k):
        disjoint = {r + 1000 for r in relevant}
        assert precision_at_k(ranking, disjoint, k) == 0.0
        assert average_precision_at_k(ranking, disjoint, k) == 0.0

    @given(ranking=entity_ids, relevant=relevant_sets)
    def test_comb_metric_bounded(self, ranking, relevant):
        negatives = {r + 1000 for r in relevant}
        metrics = query_metrics(ranking, relevant, negatives, cutoffs=(10,))
        assert 0.0 <= metrics.comb_map(10) <= 100.0
        assert 0.0 <= metrics.comb_p(10) <= 100.0

    @given(ranking=entity_ids, relevant=relevant_sets, k=cutoffs)
    def test_adding_relevant_items_never_lowers_precision(self, ranking, relevant, k):
        baseline = precision_at_k(ranking, relevant, k)
        enlarged = precision_at_k(ranking, relevant | set(ranking[:1]), k)
        assert enlarged >= baseline


class TestRerankProperties:
    @given(
        ids=entity_ids,
        segment_length=st.integers(min_value=1, max_value=25),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_rerank_is_a_permutation_within_segments(self, ids, segment_length, seed):
        result = ExpansionResult(
            query_id="q",
            ranking=tuple(RankedEntity(eid, 1.0 - 0.001 * i) for i, eid in enumerate(ids)),
        )
        rng = np.random.default_rng(seed)
        scores = {eid: float(rng.random()) for eid in ids}
        reranked = segmented_rerank(result, lambda e: scores[e], segment_length)
        assert sorted(reranked.entity_ids()) == sorted(ids)
        for start in range(0, len(ids), segment_length):
            original_segment = set(ids[start : start + segment_length])
            new_segment = set(reranked.entity_ids()[start : start + segment_length])
            assert original_segment == new_segment

    @given(ids=entity_ids, segment_length=st.integers(min_value=1, max_value=25))
    def test_rerank_idempotent_for_constant_scores(self, ids, segment_length):
        result = ExpansionResult(
            query_id="q",
            ranking=tuple(RankedEntity(eid, 1.0 - 0.001 * i) for i, eid in enumerate(ids)),
        )
        reranked = segmented_rerank(result, lambda e: 0.0, segment_length)
        assert reranked.entity_ids() == result.entity_ids()


class TestTextProperties:
    @given(token_lists=st.lists(st.lists(tokens, min_size=0, max_size=8), min_size=0, max_size=10))
    def test_vocabulary_roundtrip(self, token_lists):
        vocab = Vocabulary.from_token_lists(token_lists)
        for token_list in token_lists:
            assert vocab.decode(vocab.encode(token_list)) == token_list

    @given(names=st.lists(st.lists(tokens, min_size=1, max_size=4), min_size=1, max_size=30))
    def test_prefix_tree_contains_inserted_paths(self, names):
        tree = PrefixTree()
        inserted = {}
        for i, path in enumerate(names):
            name = f"entity-{i}"
            tree.insert(path, name)
            inserted[tuple(path)] = name
        # Later inserts on the same path overwrite earlier ones.
        for path, name in inserted.items():
            assert tree.is_complete(path)
        assert len(tree) == len(inserted)

    @given(
        names=st.lists(st.lists(tokens, min_size=1, max_size=4), min_size=1, max_size=30),
        width=st.integers(min_value=1, max_value=4),
    )
    def test_compiled_prefix_tree_matches_the_walks(self, names, width):
        tree = PrefixTree()
        for i, path in enumerate(names):
            tree.insert(path, f"entity-{i % 7}")
        vocabulary = sorted({token for path in names for token in path})
        token_ids = {token: index for index, token in enumerate(vocabulary[::2])}
        entity_names = tree.entities_with_prefix([])
        positions = {name: index for index, name in enumerate(entity_names) if index % 3}
        compiled = tree.compile(token_ids, -5, positions, width)
        offsets = compiled.child_offsets.tolist()
        visited, stack = 0, [(0, [])]
        while stack:
            node, prefix = stack.pop()
            visited += 1
            assert compiled.terminals[node] == tree.entity_at(prefix)
            allowed = tree.allowed_next(prefix)
            span = slice(offsets[node], offsets[node + 1])
            assert compiled.child_tokens[span].tolist() == [
                token_ids.get(token, -5) for token in allowed
            ]
            expected = [
                positions[name]
                for name in tree.entities_with_prefix(prefix)[:width]
                if name in positions
            ]
            assert compiled.reachable[node].tolist() == expected + [-1] * (width - len(expected))
            stack.extend(
                (child, prefix + [token])
                for child, token in zip(compiled.child_nodes[span].tolist(), allowed)
            )
        assert visited == len(compiled.terminals)

    @given(text=st.text(max_size=200))
    def test_tokenizer_never_raises_and_lowercases(self, text):
        tokens = WordTokenizer().tokenize(text)
        for token in tokens:
            if token != "[MASK]":
                assert token == token.lower()

    @given(text=st.text(alphabet="abc XYZ.,!?", max_size=100))
    def test_tokenizer_deterministic(self, text):
        tokenizer = WordTokenizer()
        assert tokenizer.tokenize(text) == tokenizer.tokenize(text)


class TestMathProperties:
    @given(
        values=st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=20
        )
    )
    def test_softmax_is_distribution(self, values):
        probs = softmax(np.array(values))
        assert np.all(probs >= 0)
        assert np.isclose(probs.sum(), 1.0)

    @given(
        values=st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=20
        )
    )
    def test_l2_normalize_bounded(self, values):
        norm = np.linalg.norm(l2_normalize(np.array(values)))
        assert norm <= 1.0 + 1e-9

    @given(seed=st.integers(min_value=0, max_value=2**31), label=st.text(max_size=20))
    def test_derive_seed_stable_and_in_range(self, seed, label):
        a = derive_seed(seed, label)
        b = derive_seed(seed, label)
        assert a == b
        assert 0 <= a < 2**32


class TestLossProperties:
    @settings(max_examples=25)
    @given(
        batch=st.integers(min_value=1, max_value=6),
        classes=st.integers(min_value=2, max_value=10),
        smoothing=st.floats(min_value=0.0, max_value=0.5),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_cross_entropy_non_negative_finite(self, batch, classes, smoothing, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(batch, classes))
        targets = rng.integers(0, classes, size=batch)
        loss, grad = label_smoothed_cross_entropy(logits, targets, smoothing)
        assert loss >= 0.0
        assert np.isfinite(loss)
        assert np.isfinite(grad).all()
        # Gradient rows sum to ~0 (softmax minus a distribution).
        assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-8)

    @settings(max_examples=25)
    @given(
        batch=st.integers(min_value=1, max_value=5),
        num_neg=st.integers(min_value=1, max_value=4),
        dim=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_info_nce_finite(self, batch, num_neg, dim, seed):
        rng = np.random.default_rng(seed)
        anchors = l2_normalize(rng.normal(size=(batch, dim)), axis=1)
        positives = l2_normalize(rng.normal(size=(batch, dim)), axis=1)
        negatives = l2_normalize(rng.normal(size=(batch, num_neg, dim)), axis=2)
        loss, ga, gp, gn = info_nce_loss(anchors, positives, negatives)
        assert np.isfinite(loss) and loss >= 0.0
        assert np.isfinite(ga).all() and np.isfinite(gp).all() and np.isfinite(gn).all()
