"""Approximate candidate retrieval for the expand hot path.

The rankers in this codebase score candidates by dense similarity against
the full vocabulary — an O(vocab) scan per query.  :mod:`repro.retrieval`
turns that into a sub-linear probe once a vocabulary reaches
:data:`ANN_AUTO_THRESHOLD` entities: a pure-numpy partitioned (IVF-style)
index built once at fit time, persisted as a content-addressed substrate
artifact, probed per query, and always followed by an exact re-score of
the probed shortlist so top-k quality is preserved.  Smaller vocabularies
build no index and keep the exact scan.
"""

from repro.retrieval.ann import (
    ANN_AUTO_THRESHOLD,
    CandidateMatrix,
    PartitionedIndex,
)

__all__ = [
    "ANN_AUTO_THRESHOLD",
    "CandidateMatrix",
    "PartitionedIndex",
]
