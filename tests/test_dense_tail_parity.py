"""The dense rankers' array tail against the loops it replaced.

CGExpan, CaSE, RetExpan and ProbExpan score every candidate with one
product over the candidate matrix, select the top ``k`` with a partition
and a ``(-score, id)`` sort, and build the negative re-rank table with one
stacked product.  The references below are the previous per-candidate
code, kept here, and only here:

* ``reference_top_k`` — a full ``sorted`` over ``(id, score)`` pairs;
* ``reference_table`` — one ``np.mean(seed_matrix @ row)`` per listed
  entity;
* ``reference_expand`` — each ranker's gather-dict-sort ``_expand``: the
  candidate rows gathered, one dict entry per candidate, a full ``sorted``
  and the per-entity re-rank table and concept scores.

``select_top_k``, the table and ``ConceptMatcher.score_batch`` are bitwise
equal to their references; ``score_batch`` under either summation of the
builtin ``sum`` (compensated from Python 3.12 on).  The whole-matrix
product may round a score differently from the gathered product: OpenBLAS
puts a row into another edge tile when the row count changes.  So each
fitted ranker's score at every position must be bitwise equal to its
reference's or at most ``SCORE_BOUND`` away, and its id the same, except
that entities the reference scored within the bound of each other may
trade places (near-twin rows of ``tiny`` do in some fits).

``TestGatherWork`` counts the rows ``CandidateMatrix.rows`` hands out
during one exact-path expand: the exact path gathers seed rows and listed
rows only, never the candidates it scores.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import CaSE, CGExpan, ProbExpan
from repro.core.dense import DenseRanker, VectorSpace
from repro.core.rerank import segmented_rerank
from repro.exceptions import ExpansionError
from repro.genexpan import cot
from repro.genexpan.cot import ConceptMatcher
from repro.retexpan import RetExpan
from repro.retexpan.expansion import select_top_k, top_k_expansion
from repro.retrieval import CandidateMatrix
from repro.types import ExpansionResult

#: largest absolute score difference allowed between the whole-matrix and
#: the gathered product: 8.9e-16, four ulps of 1.0 (scores are mean cosines
#: in [-1, 1]).  It depends on the OpenBLAS kernel.  Largest measured on
#: ``tiny`` over fresh fits: 1.39e-17 with the SkylakeX kernels, 1.11e-16
#: (one ProbExpan score) with the Haswell and Zen ones, 5.55e-16 with the
#: SSE (Nehalem) ones, none with the Sandybridge ones.
SCORE_BOUND = 2.0**-50


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


# ---------------------------------------------------------------------------
# references: the gather-dict-sort tail
# ---------------------------------------------------------------------------


def reference_top_k(pairs, k: int) -> list[tuple[int, float]]:
    return sorted(pairs, key=lambda item: (-item[1], item[0]))[:k]


def reference_scores(matrix, candidate_ids, seed_ids) -> dict[int, float]:
    seeds = [s for s in seed_ids if s in matrix]
    assert seeds, "every tiny query has a seed with a row"
    seed_matrix = matrix.rows(seeds)
    usable = [c for c in candidate_ids if c in matrix]
    if not usable:
        return {}
    means = (matrix.rows(usable) @ seed_matrix.T).mean(axis=1)
    return {entity_id: float(score) for entity_id, score in zip(usable, means)}


def reference_table(matrix, entity_ids, seed_ids) -> dict[int, float]:
    table = {entity_id: 0.0 for entity_id in entity_ids}
    seeds = [s for s in seed_ids if s in matrix]
    if not seeds:
        return table
    seed_matrix = matrix.rows(seeds)
    for entity_id in entity_ids:
        if entity_id in matrix:
            table[entity_id] = float(np.mean(seed_matrix @ matrix.row(entity_id)))
    return table


def reference_negative_rerank(matrix, query, result, segment_length):
    if not query.negative_seed_ids:
        return result
    list_ids = [item.entity_id for item in result.ranking]
    negative = reference_table(matrix, list_ids, query.negative_seed_ids)
    positive = reference_table(matrix, list_ids, query.positive_seed_ids)
    return segmented_rerank(
        result,
        negative_score=lambda entity_id: negative[entity_id] - positive[entity_id],
        segment_length=segment_length,
    )


def reference_expand(ranker, query, top_k: int) -> ExpansionResult:
    """The ranker's exact-path ``_expand`` as it was before the array tail."""
    matrix = ranker._matrix
    candidates = ranker.candidate_ids(query)
    if isinstance(ranker, (RetExpan, ProbExpan)):
        if isinstance(ranker, RetExpan):
            size = max(ranker.config.expansion_size, top_k)
            rerank = ranker.config.use_negative_rerank
            segment_length = ranker.config.segment_length
        else:
            size = max(ranker.expansion_size, top_k)
            rerank = ranker.use_negative_rerank
            segment_length = ranker.segment_length
        scores = reference_scores(matrix, candidates, query.positive_seed_ids)
        result = ExpansionResult.from_scores(
            query.query_id, reference_top_k(scores.items(), size)
        )
        if rerank:
            result = reference_negative_rerank(matrix, query, result, segment_length)
        return result
    if isinstance(ranker, CGExpan):
        required = max(top_k, 200)
        scores = reference_scores(matrix, candidates, query.positive_seed_ids)
        class_name = ranker._probe_class_name(query)
        weight = ranker.class_name_weight
        scored = [
            (
                entity_id,
                (1.0 - weight) * score
                + weight * ranker._concept_matcher.score(entity_id, class_name),
            )
            for entity_id, score in scores.items()
        ]
        return ExpansionResult.from_scores(
            query.query_id, reference_top_k(scored, required)
        )
    assert isinstance(ranker, CaSE)
    required = max(3 * top_k, 150)
    distributed = reference_scores(matrix, candidates, query.positive_seed_ids)
    for entity_id in candidates:
        distributed.setdefault(entity_id, 0.0)
    shortlist = [eid for eid, _ in reference_top_k(distributed.items(), required)]
    lexical_values = ranker._lexical_scores(shortlist, query.positive_seed_ids).tolist()
    max_lex = max(lexical_values) if lexical_values else 0.0
    scored = []
    for entity_id, lexical_value in zip(shortlist, lexical_values):
        lexical = lexical_value / max_lex if max_lex > 0 else 0.0
        scored.append(
            (
                entity_id,
                ranker.lexical_weight * lexical
                + (1.0 - ranker.lexical_weight) * distributed[entity_id],
            )
        )
    return ExpansionResult.from_scores(query.query_id, scored)


# ---------------------------------------------------------------------------
# select_top_k
# ---------------------------------------------------------------------------

#: few distinct values, so ties (across the k-th boundary too) are common;
#: 0.0 and -0.0 compare equal.
_tied_scores = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, 0.25, 5e-324, -1e300])
_scores = st.one_of(_tied_scores, st.floats(allow_nan=False, width=64))


@st.composite
def _entries(draw):
    ids = draw(st.lists(st.integers(min_value=0, max_value=10**6), unique=True, max_size=60))
    scores = draw(st.lists(_scores, min_size=len(ids), max_size=len(ids)))
    k = draw(st.integers(min_value=1, max_value=len(ids) + 3))
    return ids, scores, k


class TestSelectTopK:
    @settings(max_examples=400, deadline=None)
    @given(entries=_entries())
    def test_matches_a_full_sort(self, entries):
        ids, scores, k = entries
        expected = reference_top_k(list(zip(ids, scores)), k)
        got = select_top_k(np.array(ids, dtype=np.int64), np.array(scores), k)
        assert [eid for eid, _ in got] == [eid for eid, _ in expected]
        assert _bits([s for _, s in got]) == _bits([s for _, s in expected])
        assert all(type(eid) is int and type(s) is float for eid, s in got)
        # the score dict wrapper is the same selection.
        assert top_k_expansion(dict(zip(ids, scores)), k) == got

    def test_edges(self):
        empty = np.zeros(0)
        assert select_top_k(empty.astype(np.int64), empty, 5) == []
        ids = np.array([4, 2, 9, 7])
        tied = np.array([0.5, 0.5, -0.0, 0.0])
        assert select_top_k(ids, tied, 1) == [(2, 0.5)]
        assert select_top_k(ids, tied, 3) == [(2, 0.5), (4, 0.5), (7, 0.0)]
        assert select_top_k(ids, tied, 10) == reference_top_k(zip(ids.tolist(), tied), 10)
        with pytest.raises(ExpansionError):
            select_top_k(ids, tied, 0)


# ---------------------------------------------------------------------------
# the stacked re-rank table
# ---------------------------------------------------------------------------


class _Ranker(DenseRanker):
    """A bare dense ranker around a given candidate matrix."""

    def __init__(self, matrix: CandidateMatrix):
        super().__init__()
        self._matrix = matrix

    def _vector_space(self) -> VectorSpace:  # pragma: no cover - never bound
        raise NotImplementedError

    def _expand(self, query, top_k):  # pragma: no cover - never expanded
        raise NotImplementedError


class TestSimilarityTable:
    @pytest.mark.parametrize("rows, dim", [(1, 5), (37, 96), (200, 288), (213, 2500)])
    @pytest.mark.parametrize("num_seeds", range(1, 13))
    def test_bitwise_equal_to_one_mean_per_entity(self, rows, dim, num_seeds):
        rng = np.random.default_rng(rows * 131 + dim * 7 + num_seeds)
        count = rows + num_seeds + 3
        vectors = {int(eid): rng.normal(size=dim) for eid in rng.permutation(3 * count)[:count]}
        matrix = CandidateMatrix.from_vectors(vectors, normalize=True)
        ids = matrix.ids
        seeds = tuple(ids[:num_seeds]) + (-1,)  # an id without a row is skipped
        listed = [int(eid) for eid in rng.permutation(ids[num_seeds:])[:rows]]
        table = _Ranker(matrix)._similarity_table(matrix.rows(listed), seeds)
        expected = reference_table(matrix, listed, seeds)
        assert _bits(table) == _bits([expected[eid] for eid in listed])

    def test_no_seed_row_scores_zero(self):
        matrix = CandidateMatrix.from_vectors({1: np.ones(3), 2: np.arange(3.0)})
        table = _Ranker(matrix)._similarity_table(matrix.rows([1, 2]), (99,))
        assert table.tolist() == [0.0, 0.0]


# ---------------------------------------------------------------------------
# ConceptMatcher.score_batch
# ---------------------------------------------------------------------------


def reference_compensated_sum(values) -> float:
    """The builtin ``sum`` over floats from CPython 3.12 on (Neumaier's
    compensated summation), written out so any interpreter can run it."""
    total = compensation = 0.0
    for value in values:
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(min_value=-1e300, max_value=1e300), max_size=20))
def test_sum_compensates_is_the_builtin_sum(values):
    expected = 0.0
    if cot._SUM_COMPENSATES:
        expected = reference_compensated_sum(values)
    else:
        for value in values:
            expected += value
    assert _bits([sum(values)]) == _bits([expected])


def test_reference_compensated_sum():
    assert reference_compensated_sum([0.1] * 10) == 1.0
    assert reference_compensated_sum([1.0, 1e100, 1.0, -1e100]) == 2.0


@pytest.fixture(scope="module")
def concept_phrases(tiny_dataset, resources):
    oracle = resources.oracle()
    phrases = sorted({oracle.infer_class_name(q.positive_seed_ids) for q in tiny_dataset.queries})
    return phrases + ["is located on the African continent", "the of a", "zzz unknown words", ""]


def test_concept_score_batch_is_bitwise_per_entity_score(tiny_dataset, concept_phrases):
    matcher = ConceptMatcher(tiny_dataset)
    ids = tiny_dataset.entity_ids()
    ids = [-5, *ids[::-1], max(ids) + 1]  # unknown ids score 0.0; order is free
    for phrase in concept_phrases:
        batch = matcher.score_batch(np.array(ids), phrase)
        assert _bits(batch) == _bits([matcher.score(eid, phrase) for eid in ids]), phrase


def test_concept_score_batch_compensates_as_the_builtin_sum_does(
    tiny_dataset, concept_phrases, monkeypatch
):
    """Both summations on any interpreter: the compensated one against the
    written-out reference, weights added in phrase order."""
    matcher = ConceptMatcher(tiny_dataset)
    ids = tiny_dataset.entity_ids()
    differ = 0
    for compensates in (False, True):
        monkeypatch.setattr(cot, "_SUM_COMPENSATES", compensates)
        for phrase in concept_phrases:
            weights = matcher._phrase_weights(phrase)
            if not weights:
                continue
            expected = []
            for entity_id in ids:
                held = [w for t, w in weights.items() if t in matcher._entity_tokens[entity_id]]
                plain = 0.0
                for weight in held:
                    plain += weight
                compensated = reference_compensated_sum(held)
                differ += compensates and plain != compensated
                expected.append((compensated if compensates else plain) / sum(weights.values()))
            assert _bits(matcher.score_batch(np.array(ids), phrase)) == _bits(expected), phrase
    assert differ, "some tiny entity's compensated sum rounds differently"


# ---------------------------------------------------------------------------
# the fitted rankers on tiny
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def dense_rankers(tiny_dataset, resources):
    """The four dense rankers (and ProbExpan's "+ Neg Rerank"), fitted on
    one pool so they rank the same vectors as their references."""
    rankers = [
        CGExpan(resources=resources),
        CaSE(resources=resources),
        RetExpan(resources=resources),
        ProbExpan(resources=resources),
        ProbExpan(use_negative_rerank=True, resources=resources),
    ]
    for ranker in rankers:
        ranker.fit(tiny_dataset)
        assert ranker._matrix.index is None, "tiny takes the exact path"
    return rankers


def test_rankers_match_the_gather_dict_sort_path(dense_rankers, tiny_dataset):
    scores = moved = 0
    for ranker in dense_rankers:
        for query in tiny_dataset.queries:
            got = ranker._expand(query, 200).ranking
            expected = reference_expand(ranker, query, 200).ranking
            where = (ranker.name, query.query_id)
            assert len(got) == len(expected), where
            position = {item.entity_id: index for index, item in enumerate(expected)}
            for index, (item, reference) in enumerate(zip(got, expected)):
                assert abs(item.score - reference.score) <= SCORE_BOUND, where
                if item.entity_id != reference.entity_id:
                    # Near twins: entities the reference scored within the
                    # bound of each other may trade places, as each product
                    # rounds them apart its own way.  Measured: neighbours
                    # 0 to 2e-17 apart, and one run of three with the SSE
                    # kernels.  An entity new to the list ties its end.
                    twin = position.get(item.entity_id)
                    twin_score = expected[-1 if twin is None else twin].score
                    assert abs(twin_score - reference.score) <= SCORE_BOUND, where
                    if twin is None:
                        assert abs(item.score - twin_score) <= SCORE_BOUND, where
                scores += 1
                moved += item.score != reference.score
    # all but a few scores are bitwise equal.  Measured per fit, of 82,938:
    # at most 24 moved with the SkylakeX kernels, 36 with the Haswell and
    # Zen ones, 292 with the SSE ones.
    assert moved <= scores // 200


# ---------------------------------------------------------------------------
# work counter: the exact path gathers no candidate row
# ---------------------------------------------------------------------------


class TestGatherWork:
    def test_exact_path_gathers_seed_and_listed_rows_only(
        self, dense_rankers, tiny_dataset, monkeypatch
    ):
        gathered: list[int] = []
        rows = CandidateMatrix.rows

        def counting_rows(matrix, entity_ids):
            result = rows(matrix, entity_ids)
            gathered.append(len(result))
            return result

        monkeypatch.setattr(CandidateMatrix, "rows", counting_rows)
        query = next(q for q in tiny_dataset.queries if q.negative_seed_ids)
        positives, negatives = len(query.positive_seed_ids), len(query.negative_seed_ids)
        for ranker in dense_rankers:
            gathered.clear()
            listed = len(ranker._expand(query, 50).ranking)
            if isinstance(ranker, RetExpan) or getattr(ranker, "use_negative_rerank", False):
                # the seeds, then for the re-rank the listed rows (<= 200)
                # once and each seed side.
                assert listed <= 200
                assert sum(gathered) == positives + listed + negatives + positives
            else:
                assert sum(gathered) == positives, ranker.name
