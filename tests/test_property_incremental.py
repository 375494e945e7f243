"""Property tests (hypothesis): every incrementally maintained statistic
equals a from-scratch rebuild.

* ``InvertedIndex`` keeps a running total length across add / remove /
  re-add; a fresh index over the surviving documents must agree on every
  statistic, and BM25 scores must be bitwise equal.
* ``NGramLanguageModel`` keeps a total per context; it must equal the sum of
  that context's counts after one ``fit``, a second ``fit`` and a
  ``to_state`` / ``from_state`` round trip.
* ``PrefixTree`` keeps each node's sorted reachable names; they must equal
  a depth-first search of the subtree after any interleaving of inserts.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lm.causal_lm import NGramLanguageModel
from repro.text.bm25 import BM25Index
from repro.text.inverted_index import InvertedIndex
from repro.text.prefix_tree import PrefixTree

ALPHABET = ("a", "b", "c", "d", "e", "f")
words = st.sampled_from(ALPHABET)
documents = st.lists(words, min_size=0, max_size=12)
doc_ids = st.integers(min_value=0, max_value=7)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), doc_ids, documents),
        st.tuples(st.just("remove"), doc_ids, st.just([])),
    ),
    min_size=1,
    max_size=30,
)
queries = st.lists(st.lists(words, min_size=0, max_size=6), min_size=1, max_size=4)


class TestInvertedIndexStatistics:
    @settings(max_examples=150, deadline=None)
    @given(ops=operations, query_lists=queries)
    def test_add_remove_readd_matches_rebuild(self, ops, query_lists):
        bm25 = BM25Index()
        live: dict[int, list[str]] = {}
        for op, doc_id, tokens in ops:
            if op == "add":
                bm25.add_document(doc_id, tokens)
                live[doc_id] = tokens
            else:
                bm25._index.remove_document(doc_id)
                live.pop(doc_id, None)
        rebuilt = BM25Index()
        for doc_id in sorted(live):
            rebuilt.add_document(doc_id, live[doc_id])
        index, fresh = bm25._index, rebuilt._index

        assert index.num_documents == fresh.num_documents == len(live)
        expected_average = (
            sum(len(tokens) for tokens in live.values()) / len(live) if live else 0.0
        )
        assert index.average_document_length == expected_average
        assert fresh.average_document_length == expected_average
        assert index.vocabulary() == fresh.vocabulary()
        for token in ALPHABET:
            assert index.document_frequency(token) == fresh.document_frequency(token)
            assert dict(index.postings(token)) == dict(fresh.postings(token))
            assert index.documents_containing(token) == fresh.documents_containing(token)
        for doc_id in range(8):
            assert index.document_length(doc_id) == fresh.document_length(doc_id)
        for query in query_lists:
            for doc_id in live:
                # bitwise, not approximately: the statistics are exact integers
                assert bm25.score(query, doc_id) == rebuilt.score(query, doc_id)
            assert bm25.search(query, top_k=8) == rebuilt.search(query, top_k=8)

    def test_postings_is_a_read_only_view(self):
        index = InvertedIndex()
        index.add_document(1, ["a", "a", "b"])
        view = index.postings("a")
        assert view == {1: 2}
        with pytest.raises(TypeError):
            view[2] = 1  # type: ignore[index]
        index.add_document(2, ["a"])
        assert view == {1: 2, 2: 1}  # a live view, not a snapshot
        assert index.postings("zzz") == {}


sequences = st.lists(st.lists(words, min_size=0, max_size=8), min_size=0, max_size=8)


def _assert_totals_match_counts(model: NGramLanguageModel) -> None:
    for n in range(model.order):
        expected = {
            context: sum(counter.values()) for context, counter in model._counts[n].items()
        }
        assert dict(model._totals[n]) == expected


class TestNGramTotals:
    @settings(max_examples=100, deadline=None)
    @given(
        first=sequences,
        second=sequences,
        order=st.integers(min_value=1, max_value=4),
        probes=st.lists(st.tuples(st.lists(words, max_size=4), words), max_size=10),
    )
    def test_totals_match_counts_across_fits_and_state(self, first, second, order, probes):
        model = NGramLanguageModel(order=order).fit(first)
        _assert_totals_match_counts(model)
        model.fit(second)
        _assert_totals_match_counts(model)

        from_scratch = NGramLanguageModel(order=order).fit(first + second)
        for n in range(order):
            assert model._totals[n] == from_scratch._totals[n]

        restored = NGramLanguageModel.from_state(json.loads(json.dumps(model.to_state())))
        _assert_totals_match_counts(restored)
        for n in range(order):
            assert restored._totals[n] == model._totals[n]
        for context, token in probes:
            assert restored.probability(context, token) == model.probability(context, token)
            assert from_scratch.probability(context, token) == model.probability(context, token)


def _dfs_names(node) -> list[str]:
    found, stack = [], [node]
    while stack:
        current = stack.pop()
        if current.terminal is not None:
            found.append(current.terminal)
        stack.extend(current.children.values())
    return sorted(found)


paths = st.lists(st.sampled_from(ALPHABET[:3]), min_size=1, max_size=4)
names = st.sampled_from(("n0", "n1", "n2", "n3", "n4"))


class TestPrefixTreeReachable:
    @settings(max_examples=150, deadline=None)
    @given(inserts=st.lists(st.tuples(paths, names), min_size=1, max_size=25))
    def test_reachable_lists_match_a_fresh_dfs(self, inserts):
        tree = PrefixTree()
        for path, name in inserts:  # repeats overwrite, names may recur
            tree.insert(path, name)
        prefixes = {()} | {
            tuple(path[:cut]) for path, _ in inserts for cut in range(1, len(path) + 1)
        }
        for prefix in prefixes:
            node = tree._walk(prefix)
            assert node.reachable == _dfs_names(node)
            assert tree.entities_with_prefix(prefix) == _dfs_names(node)
        assert len(tree.entities_with_prefix(())) == len(tree)
        assert tree.entities_with_prefix(("zzz",)) == []
