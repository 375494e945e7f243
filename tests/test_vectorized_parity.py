"""Vectorized ranking loops against the scalar loops they replaced.

The references below are the per-candidate Python loops as they were before
the arrays, kept here, and only here:

* ``rank_candidates`` / ``reference_ensemble`` / ``reference_setexpan`` —
  SetExpan's count-and-sort per ensemble sample and its rank ensemble;
* ``lexical_score`` — CaSE's ``BM25Index.score`` per (candidate, seed) and
  ``np.mean`` over the seeds;
* ``reference_oracle_expand`` — the GPT-4 oracle with one
  ``rng.child(candidate).random()`` knowledge-gate draw per candidate.

Every comparison is bitwise: the vectorized paths add the same terms in the
same order, and ``first_uniform`` reproduces numpy's first draw exactly.
Random inputs (hypothesis, in the style of ``test_property_incremental.py``)
cover ties, duplicates, absent terms, empty documents and unknown ids; the
tiny dataset covers the fitted expanders.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import CaSE, SetExpan
from repro.lm.oracle import _FAKE_NAME_PARTS
from repro.types import ExpansionResult, Query
from repro.utils.rng import RandomState, derive_seed, derive_seeds, first_uniform

UINT32_MAX = 2**32 - 1


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


# ---------------------------------------------------------------------------
# first_uniform and derive_seeds
# ---------------------------------------------------------------------------


class TestFirstUniform:
    def test_matches_numpy_on_1e5_seeds_and_the_edges(self):
        rng = np.random.default_rng(20261018)
        seeds = np.concatenate(
            [[0, 1, UINT32_MAX], rng.integers(0, 2**32, size=100_000, dtype=np.uint64)]
        ).astype(np.uint64)
        expected = [np.random.default_rng(int(seed)).random() for seed in seeds]
        assert _bits(first_uniform(seeds)) == _bits(expected)

    @settings(max_examples=200, deadline=None)
    @given(seeds=st.lists(st.integers(min_value=0, max_value=UINT32_MAX), max_size=16))
    def test_any_seed_list(self, seeds):
        expected = [np.random.default_rng(seed).random() for seed in seeds]
        assert _bits(first_uniform(np.array(seeds, dtype=np.uint64))) == _bits(expected)
        assert _bits(first_uniform(seeds)) == _bits(expected)  # plain ints too

    def test_rejects_seeds_outside_32_bits(self):
        with pytest.raises(ValueError):
            first_uniform([2**32])
        with pytest.raises(ValueError):
            first_uniform([-1])
        assert first_uniform([]).shape == (0,)


labels = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.text(max_size=8),
    st.tuples(st.integers(min_value=0, max_value=9), st.text(max_size=3)),
    st.none(),
)


class TestDeriveSeeds:
    @settings(max_examples=200, deadline=None)
    @given(base=st.integers(min_value=0, max_value=2**63), batch=st.lists(labels, max_size=12))
    def test_matches_derive_seed(self, base, batch):
        seeds = derive_seeds(base, batch)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [derive_seed(base, label) for label in batch]

    @settings(max_examples=100, deadline=None)
    @given(base=st.integers(min_value=0, max_value=2**32), batch=st.lists(labels, max_size=8))
    def test_first_draw_of_each_child_stream(self, base, batch):
        parent = RandomState(base)
        expected = [parent.child(label).random() for label in batch]
        assert _bits(first_uniform(derive_seeds(parent.seed, batch))) == _bits(expected)


# ---------------------------------------------------------------------------
# SetExpan: one np.bincount per ensemble sample
# ---------------------------------------------------------------------------


def rank_candidates(expander, current_set, features, excluded) -> list[int]:
    """Rank candidates by overlap with the given feature subset."""
    feature_entities = defaultdict(set)
    for entity_id, entity_features in expander._entity_features.items():
        for feature in entity_features:
            feature_entities[feature].add(entity_id)
    scores: Counter = Counter()
    for feature in features:
        for entity_id in feature_entities.get(feature, ()):
            if entity_id in current_set or entity_id in excluded:
                continue
            scores[entity_id] += 1
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return [entity_id for entity_id, _ in ranked]


def reference_ensemble(expander, current, pool, excluded, rng) -> dict[int, float]:
    mrr: dict[int, float] = defaultdict(float)
    for sample_index in range(expander.num_feature_samples):
        sample_size = min(expander.features_per_sample, len(pool))
        sampled = rng.child(sample_index).sample(pool, sample_size)
        ranking = rank_candidates(expander, current, sampled, excluded)
        for rank, entity_id in enumerate(ranking, start=1):
            mrr[entity_id] += 1.0 / rank
    return mrr


def reference_setexpan(expander, query, top_k) -> ExpansionResult:
    excluded = set(query.negative_seed_ids)
    current = set(query.positive_seed_ids)
    expansion_order: list[int] = []
    for iteration in range(expander.num_iterations):
        feature_scores = expander._feature_scores(current)
        pool = [feature for feature, _ in feature_scores[: expander.top_features]]
        if not pool:
            break
        rng = expander._rng.child(query.query_id, iteration)
        mrr = reference_ensemble(expander, current, pool, excluded, rng)
        ranked = sorted(mrr.items(), key=lambda item: (-item[1], item[0]))
        added = 0
        for entity_id, _ in ranked:
            if entity_id in current or entity_id in expansion_order:
                continue
            expansion_order.append(entity_id)
            current.add(entity_id)
            added += 1
            if added >= expander.entities_per_iteration:
                break
        if added == 0:
            break
    scored = [
        (entity_id, 1.0 / (rank + 1)) for rank, entity_id in enumerate(expansion_order[:top_k])
    ]
    return ExpansionResult.from_scores(query.query_id, scored)


def _ranking(result: ExpansionResult) -> list[tuple[int, str]]:
    return [(item.entity_id, float(item.score).hex()) for item in result.ranking]


#: few features, so overlap counts and MRR sums tie often.
FEATURES = tuple(f"f{i}" for i in range(8))


@st.composite
def feature_tables(draw):
    ids = draw(
        st.lists(st.integers(min_value=0, max_value=400), min_size=2, max_size=30, unique=True)
    )
    table = {
        entity_id: Counter(
            draw(
                st.dictionaries(
                    st.sampled_from(FEATURES), st.integers(min_value=1, max_value=3), max_size=5
                )
            )
        )
        for entity_id in ids
    }
    positives = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3, unique=True))
    rest = [entity_id for entity_id in ids if entity_id not in positives]
    negatives = draw(st.lists(st.sampled_from(rest), max_size=2, unique=True)) if rest else []
    if draw(st.booleans()):
        positives.append(10_000)  # a seed the fit never saw
    query = Query("q", "c", tuple(positives), tuple(negatives))
    return table, query


def _setexpan_over(table, seed, samples, per_sample) -> SetExpan:
    expander = SetExpan(
        num_iterations=4,
        entities_per_iteration=3,
        num_feature_samples=samples,
        features_per_sample=per_sample,
        top_features=6,
        seed=seed,
    )
    expander._entity_features = table
    expander._index_features()
    return expander


class TestSetExpanEnsemble:
    @settings(max_examples=150, deadline=None)
    @given(
        case=feature_tables(),
        seed=st.integers(min_value=0, max_value=2**16),
        samples=st.integers(min_value=1, max_value=6),
        per_sample=st.integers(min_value=0, max_value=5),
    )
    def test_matches_scalar_reference(self, case, seed, samples, per_sample):
        table, query = case
        expander = _setexpan_over(table, seed, samples, per_sample)
        assert _ranking(expander._expand(query, 50)) == _ranking(
            reference_setexpan(expander, query, 50)
        )

        # one ensemble: every MRR sum, bit for bit
        current = set(query.positive_seed_ids)
        pool = [feature for feature, _ in expander._feature_scores(current)][:6]
        blocked = np.isin(expander._ids, [*current, *query.negative_seed_ids])
        mrr = expander._ensemble(pool, blocked, RandomState(seed).child("x"))
        expected = reference_ensemble(
            expander, current, pool, set(query.negative_seed_ids), RandomState(seed).child("x")
        )
        got = {
            int(entity_id): value
            for entity_id, value in zip(expander._ids.tolist(), mrr.tolist())
            if value
        }
        assert got.keys() == expected.keys()
        assert _bits(list(got.values())) == _bits([expected[key] for key in got])

    def test_fitted_tiny_rankings_match(self, tiny_dataset):
        expander = SetExpan().fit(tiny_dataset)
        for query in tiny_dataset.queries[:24]:
            assert _ranking(expander._expand(query, 50)) == _ranking(
                reference_setexpan(expander, query, 50)
            ), query.query_id


# ---------------------------------------------------------------------------
# CaSE: the shortlist's lexical scores in numpy
# ---------------------------------------------------------------------------


def lexical_score(case: CaSE, candidate_id: int, seed_ids) -> float:
    """Mean BM25 score of the candidate's context document for each seed's terms."""
    scores = []
    for seed in seed_ids:
        seed_terms = case._entity_terms.get(seed, [])
        # Use a truncated seed term profile as the query to keep scoring cheap.
        query_terms = seed_terms[:50]
        scores.append(case._bm25.score(query_terms, candidate_id))
    return float(np.mean(scores)) if scores else 0.0


WORDS = ("a", "b", "c", "d", "e", "f", "g")
#: a query word no document holds.
ABSENT = "zz"

documents = st.lists(st.sampled_from(WORDS), min_size=0, max_size=60)


@st.composite
def corpora(draw):
    ids = draw(
        st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=12, unique=True)
    )
    terms = {entity_id: draw(documents) for entity_id in ids}
    # seeds may repeat, and may be ids without a document
    seeds = draw(st.lists(st.sampled_from([*ids, 999]), min_size=1, max_size=12))
    candidates = [*ids, 777]  # 777 has no document
    return terms, tuple(seeds), candidates


def _case_over(terms) -> CaSE:
    case = CaSE()
    case._entity_terms = terms
    case._index_terms()
    return case


class TestCaSELexical:
    @settings(max_examples=200, deadline=None)
    @given(
        corpus=corpora(),
        query=st.lists(st.sampled_from((*WORDS, ABSENT)), min_size=0, max_size=12),
    )
    def test_bm25_scores_match_bm25_score(self, corpus, query):
        terms, _, candidates = corpus
        case = _case_over(terms)
        rows = np.array([case._term_rows.get(eid, -1) for eid in candidates], dtype=np.intp)
        expected = [case._bm25.score(query, candidate) for candidate in candidates]
        assert _bits(case._bm25_scores(query, rows)) == _bits(expected)

    @settings(max_examples=200, deadline=None)
    @given(corpus=corpora())
    def test_lexical_scores_match_score_and_mean(self, corpus):
        terms, seeds, candidates = corpus
        case = _case_over(terms)
        expected = [lexical_score(case, candidate, seeds) for candidate in candidates]
        assert _bits(case._lexical_scores(candidates, seeds)) == _bits(expected)

    @pytest.mark.parametrize("num_seeds", range(1, 13))
    def test_mean_over_1_to_12_seeds(self, num_seeds):
        """Long seed documents (past the 50-term cut) and every seed count."""
        rng = np.random.default_rng(num_seeds)
        terms = {
            entity_id: [WORDS[i] for i in rng.integers(0, len(WORDS), size=rng.integers(0, 90))]
            for entity_id in range(40)
        }
        terms[40] = []  # an empty document
        case = _case_over(terms)
        seeds = tuple(int(s) for s in rng.choice(41, size=num_seeds, replace=False))
        candidates = list(range(42))  # 41 has no document
        expected = [lexical_score(case, candidate, seeds) for candidate in candidates]
        assert _bits(case._lexical_scores(candidates, seeds)) == _bits(expected)
        assert case._lexical_scores(candidates, ()).tolist() == [0.0] * len(candidates)

    def test_fitted_tiny_scores_match(self, tiny_dataset, resources):
        case = CaSE(resources=resources).fit(tiny_dataset)
        candidates = tiny_dataset.entity_ids()[:150]
        for query in tiny_dataset.queries[:6]:
            expected = [
                lexical_score(case, candidate, query.positive_seed_ids) for candidate in candidates
            ]
            got = case._lexical_scores(candidates, query.positive_seed_ids)
            assert _bits(got) == _bits(expected), query.query_id


# ---------------------------------------------------------------------------
# GPT-4 oracle: every knowledge-gate draw at once
# ---------------------------------------------------------------------------


def reference_oracle_expand(oracle, positive_seed_ids, negative_seed_ids, candidate_ids, top_k):
    positive_assignment = oracle.infer_shared_attributes(positive_seed_ids)
    negative_shared = oracle.infer_shared_attributes(negative_seed_ids)
    negative_assignment = {
        attribute: value
        for attribute, value in negative_shared.items()
        if positive_assignment.get(attribute) != value
    }
    rng = oracle._rng.child(
        "expand", tuple(sorted(positive_seed_ids)), tuple(sorted(negative_seed_ids))
    )
    seeds = set(positive_seed_ids) | set(negative_seed_ids)
    scored = []
    for candidate in candidate_ids:
        if candidate in seeds:
            continue
        entity = oracle._entities.get(candidate)
        if entity is None:
            continue
        if rng.child(candidate).random() < 0.6 * oracle._error_probability(entity):
            continue
        positive_match = oracle._match_score(candidate, positive_assignment)
        negative_match = oracle._match_score(candidate, negative_assignment)
        score = 2.0 * positive_match - 2.0 * negative_match + 0.2 * entity.popularity
        scored.append((score, entity.name))
    scored.sort(key=lambda item: (-item[0], item[1]))
    names = [name for _, name in scored[:top_k]]
    output = []
    for name in names:
        if rng.random() < oracle.config.hallucination_rate:
            fake = (
                f"{_FAKE_NAME_PARTS[rng.integers(0, len(_FAKE_NAME_PARTS))]} "
                f"{_FAKE_NAME_PARTS[rng.integers(0, len(_FAKE_NAME_PARTS))]}"
            )
            output.append(fake)
        output.append(name)
    return output[:top_k]


def test_oracle_expand_matches_per_candidate_gate(tiny_dataset, resources):
    oracle = resources.oracle()
    # unknown ids and seeds inside the candidate list are skipped before the gate
    for query in tiny_dataset.queries:
        candidates = [*tiny_dataset.entity_ids(), 10**9, *query.positive_seed_ids]
        for top_k in (50, 400):
            expected = reference_oracle_expand(
                oracle, query.positive_seed_ids, query.negative_seed_ids, candidates, top_k
            )
            got = oracle.expand(
                query.positive_seed_ids, query.negative_seed_ids, candidates, top_k=top_k
            )
            assert got == expected, query.query_id
