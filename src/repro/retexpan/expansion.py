"""Entity expansion scoring for RetExpan (Eq. 5).

A candidate's positive similarity score is the mean cosine similarity between
its representation and the representations of the positive seed entities;
the top-K candidates form the initial expansion list ``L0``.  Negative seed
entities are deliberately not used here so that recall over the fine-grained
class is preserved (they only act during re-ranking).

The dense rankers score and select as arrays: :func:`matrix_similarity_scores`
returns ``(ids, scores)`` from one product, and :func:`select_top_k` keeps the
best ``k`` with the same ``(-score, id)`` order a full ``sorted`` gives.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.exceptions import ExpansionError
from repro.types import Query
from repro.utils.mathx import l2_normalize


def positive_similarity_scores(
    candidate_ids: Sequence[int],
    seed_ids: Sequence[int],
    vectors: Mapping[int, np.ndarray],
) -> dict[int, float]:
    """Mean cosine similarity of each candidate to the seed entities.

    Candidates or seeds missing from ``vectors`` are skipped (a candidate
    without any context sentence cannot be represented).
    """
    seeds = [vectors[s] for s in seed_ids if s in vectors]
    if not seeds:
        raise ExpansionError("none of the seed entities has a representation")
    seed_matrix = l2_normalize(np.stack(seeds), axis=1)

    usable = [c for c in candidate_ids if c in vectors]
    if not usable:
        return {}
    candidate_matrix = l2_normalize(np.stack([vectors[c] for c in usable]), axis=1)
    similarities = candidate_matrix @ seed_matrix.T  # (num_candidates, num_seeds)
    mean_similarities = similarities.mean(axis=1)
    return {entity_id: float(score) for entity_id, score in zip(usable, mean_similarities)}


def matrix_similarity_scores(
    matrix, candidate_ids: Sequence[int] | None, query: Query
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`positive_similarity_scores` of ``query``'s positive seeds over a
    precomputed, row-normalized :class:`~repro.retrieval.CandidateMatrix`, as
    ``(ids, scores)`` arrays.

    ``candidate_ids=None`` scores every row but the query's seeds with one
    product over the whole matrix: no row is gathered.  A list of candidates
    (a probed shortlist) gathers those rows and skips the ones the matrix
    lacks.  Because :func:`~repro.utils.mathx.l2_normalize` is purely
    row-wise, either way a score is the one the raw vectors give; the two
    products may only round differently (see README, "ANN candidate
    retrieval").
    """
    seeds = [s for s in query.positive_seed_ids if s in matrix]
    if not seeds:
        raise ExpansionError("none of the seed entities has a representation")
    seed_matrix = matrix.rows(seeds)
    if candidate_ids is None:
        excluded = query.seed_ids()
        keep = ~np.isin(
            matrix.id_array, np.fromiter(excluded, dtype=np.int64, count=len(excluded))
        )
        scores = (matrix.matrix @ seed_matrix.T).mean(axis=1)
        return matrix.id_array[keep], scores[keep]
    ids = np.array([c for c in candidate_ids if c in matrix], dtype=np.int64)
    return ids, (matrix.rows(ids) @ seed_matrix.T).mean(axis=1)


def select_top_k(
    ids: np.ndarray, scores: np.ndarray, k: int
) -> list[tuple[int, float]]:
    """The ``k`` best ``(id, score)`` pairs, ordered by ``(-score, id)``.

    The same list as ``sorted(zip(ids, scores), key=lambda item: (-item[1],
    item[0]))[:k]`` (``-0.0`` and ``0.0`` compare equal in both), without
    building or sorting one tuple per entry: a partition finds the ``k``-th
    best score, every entry at or above it is kept (ties across the
    boundary included), and only those are sorted.
    """
    if k <= 0:
        raise ExpansionError("k must be positive")
    ids = np.asarray(ids, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size > k:
        negated = -scores
        keep = negated <= np.partition(negated, k - 1)[k - 1]
        ids, scores = ids[keep], scores[keep]
    order = np.lexsort((ids, -scores))[:k]
    return list(zip(ids[order].tolist(), scores[order].tolist()))


def top_k_expansion(scores: Mapping[int, float], k: int) -> list[tuple[int, float]]:
    """The ``k`` best (entity, score) pairs of a score dict, deterministic
    under ties (:func:`select_top_k`)."""
    return select_top_k(
        np.fromiter(scores.keys(), dtype=np.int64, count=len(scores)),
        np.fromiter(scores.values(), dtype=np.float64, count=len(scores)),
        k,
    )
