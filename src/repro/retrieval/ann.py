"""IVF-style partitioned ANN index and precomputed candidate matrices.

Two pieces replace the per-query O(vocab) scans in the dense rankers:

* :class:`CandidateMatrix` — the expander's entity vectors stacked **once**
  at fit/load time into a C-contiguous, optionally row-normalized matrix
  with a stable (sorted) id order, replacing the per-query ``np.stack``
  rebuild.  The exact scan multiplies the whole matrix by the seed rows
  and gathers only seeds, a probed shortlist or a re-rank list; a gathered
  row is bitwise the stacked per-entity vector.

* :class:`PartitionedIndex` — a coarse k-means partition of those rows.
  Queries rank candidates by dot product with the mean seed vector, which
  is a maximum-inner-product search; rows are lifted into one extra
  dimension (``sqrt(extent² - ‖x‖²)``, the classic MIPS→L2 reduction) so
  plain L2 k-means partitions the inner-product space correctly even for
  un-normalized representation vectors.  A probe visits the ``nprobe``
  nearest lists and the caller re-scores the shortlist **exactly**, so
  approximation only ever drops candidates, never mis-scores them.

A matrix gets an index only from :data:`ANN_AUTO_THRESHOLD` rows (see
:class:`repro.core.dense.DenseRanker`).  The index is content-addressed
substrate state (:mod:`repro.substrate` kind ``"ann_index"``): ids +
centroids + list layout persist; the vectors themselves stay with their
source substrate and the matrix is rebuilt from them on load.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.exceptions import ArtifactCorruptError, ConfigurationError
from repro.utils.mathx import l2_normalize

#: vocabulary size from which a dense ranker probes a partitioned index
#: instead of scanning every candidate.  Smaller vocabularies keep the exact
#: scan, which is already cheap there, and build no index at all.
ANN_AUTO_THRESHOLD = 4096

#: telemetry hook: ``(probes, shortlist_size)``.
AnnTelemetry = Callable[[int, int], None]


class PartitionedIndex:
    """Coarse k-means partition of a row matrix for inner-product probes."""

    #: bumped when the on-disk layout changes.
    format_version = 1

    def __init__(
        self,
        ids: np.ndarray,
        centroids: np.ndarray,
        order: np.ndarray,
        offsets: np.ndarray,
        extent: float,
    ):
        #: entity id of each matrix row (row ``r`` of the indexed matrix).
        self.ids = np.asarray(ids, dtype=np.int64)
        #: list centroids in the lifted (D+1)-dimensional space.
        self.centroids = np.asarray(centroids, dtype=np.float64)
        #: row indices grouped by list, list ``j`` = ``order[offsets[j]:offsets[j+1]]``.
        self.order = np.asarray(order, dtype=np.int64)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        #: max row norm used for the MIPS→L2 lift at build time.
        self.extent = float(extent)

    # -- introspection ---------------------------------------------------------
    @property
    def n_lists(self) -> int:
        return int(self.centroids.shape[0])

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    def default_nprobe(self) -> int:
        """Probe enough lists to keep recall high by default: a quarter of
        the partition (at least 8 lists).  Callers escalate further when
        the shortlist comes back smaller than the ranking they must fill."""
        return min(self.n_lists, max(8, (self.n_lists + 3) // 4))

    # -- construction ----------------------------------------------------------
    @classmethod
    def build(
        cls,
        matrix: np.ndarray,
        ids: Sequence[int],
        n_lists: int | None = None,
        seed: int = 0,
        iterations: int = 8,
    ) -> "PartitionedIndex":
        """Partition ``matrix`` rows (deterministic for a given ``seed``)."""
        matrix = np.ascontiguousarray(np.asarray(matrix, dtype=np.float64))
        ids = np.asarray(list(ids), dtype=np.int64)
        n = matrix.shape[0]
        if ids.shape[0] != n:
            raise ConfigurationError(
                f"ann index: {ids.shape[0]} ids for {n} matrix rows"
            )
        if n == 0:
            return cls(
                ids=ids,
                centroids=np.zeros((0, matrix.shape[1] + 1 if matrix.ndim == 2 else 1)),
                order=np.zeros(0, dtype=np.int64),
                offsets=np.zeros(1, dtype=np.int64),
                extent=0.0,
            )
        # MIPS→L2 lift: argmax q·x over rows equals argmin ‖q' - x'‖ with
        # x' = [x, sqrt(extent² - ‖x‖²)] and q' = [q, 0].
        norms_sq = np.einsum("ij,ij->i", matrix, matrix)
        extent = float(np.sqrt(max(float(norms_sq.max()), 0.0)))
        lift = np.sqrt(np.maximum(extent * extent - norms_sq, 0.0))
        points = np.concatenate([matrix, lift[:, None]], axis=1)

        k = n_lists if n_lists is not None else int(np.ceil(np.sqrt(n)))
        k = max(1, min(int(k), n))
        rng = np.random.default_rng(seed)
        centroids = points[rng.choice(n, size=k, replace=False)].copy()
        assignment = np.zeros(n, dtype=np.int64)
        for _ in range(max(1, iterations)):
            assignment = cls._assign(points, centroids)
            counts = np.bincount(assignment, minlength=k)
            sums = np.zeros_like(centroids)
            np.add.at(sums, assignment, points)
            occupied = counts > 0
            centroids[occupied] = sums[occupied] / counts[occupied, None]
            empty = np.flatnonzero(~occupied)
            if empty.size:
                # reseed empty lists from random rows so every list stays
                # probeable (deterministic: the rng state is part of the build).
                centroids[empty] = points[rng.choice(n, size=empty.size)]
        assignment = cls._assign(points, centroids)
        order = np.argsort(assignment, kind="stable").astype(np.int64)
        counts = np.bincount(assignment, minlength=k)
        offsets = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(
            ids=ids, centroids=centroids, order=order, offsets=offsets, extent=extent
        )

    @staticmethod
    def _assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
        """Nearest centroid per row by L2 (‖c‖² - 2·p·c; ‖p‖² is constant)."""
        distance = np.einsum("ij,ij->i", centroids, centroids)[None, :] - 2.0 * (
            points @ centroids.T
        )
        return np.argmin(distance, axis=1)

    # -- probing ---------------------------------------------------------------
    def probe(self, query: np.ndarray, nprobe: int | None = None) -> np.ndarray:
        """Row indices of the ``nprobe`` lists nearest to ``query``.

        ``query`` lives in the original D-dimensional space; the lift
        coordinate of a query is 0 by construction.
        """
        if not len(self):
            return np.zeros(0, dtype=np.int64)
        count = self.default_nprobe() if nprobe is None else int(nprobe)
        count = max(1, min(count, self.n_lists))
        flat = np.asarray(query, dtype=np.float64).ravel()
        lifted = np.concatenate([flat, [0.0]])
        distance = np.einsum("ij,ij->i", self.centroids, self.centroids) - 2.0 * (
            self.centroids @ lifted
        )
        lists = np.argpartition(distance, count - 1)[:count]
        rows = [self.order[self.offsets[j]: self.offsets[j + 1]] for j in sorted(lists)]
        return np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)

    # -- persistence -----------------------------------------------------------
    def save(self, directory: str | Path) -> None:
        from repro.store.serialization import save_array, write_json_state

        directory = Path(directory)
        write_json_state(
            directory / "ann_index.json",
            {
                "format_version": self.format_version,
                "size": int(len(self)),
                "n_lists": self.n_lists,
                "extent": self.extent,
            },
        )
        save_array(directory / "ann_ids.npy", self.ids)
        save_array(directory / "ann_centroids.npy", self.centroids)
        save_array(directory / "ann_order.npy", self.order)
        save_array(directory / "ann_offsets.npy", self.offsets)

    @classmethod
    def load(cls, directory: str | Path, mmap: bool = True) -> "PartitionedIndex":
        from repro.store.serialization import load_array, read_json_state

        directory = Path(directory)
        meta = read_json_state(directory / "ann_index.json")
        if int(meta.get("format_version", -1)) != cls.format_version:
            raise ArtifactCorruptError(
                f"ann index format {meta.get('format_version')!r} is not "
                f"{cls.format_version}"
            )
        index = cls(
            ids=np.asarray(load_array(directory / "ann_ids.npy", mmap=mmap)),
            centroids=np.asarray(load_array(directory / "ann_centroids.npy", mmap=mmap)),
            order=np.asarray(load_array(directory / "ann_order.npy", mmap=mmap)),
            offsets=np.asarray(load_array(directory / "ann_offsets.npy", mmap=mmap)),
            extent=float(meta.get("extent", 0.0)),
        )
        if len(index) != int(meta.get("size", -1)):
            raise ArtifactCorruptError(
                f"ann index claims {meta.get('size')} rows, found {len(index)}"
            )
        if index.order.shape[0] != index.ids.shape[0]:
            raise ArtifactCorruptError("ann index order/ids length mismatch")
        if index.offsets.shape[0] != index.n_lists + 1:
            raise ArtifactCorruptError("ann index offsets/centroids mismatch")
        return index


class CandidateMatrix:
    """Entity vectors stacked once into a contiguous scoring matrix.

    Row order is the sorted entity-id order, so the layout is deterministic
    for a given vector map regardless of dict iteration order — gathering a
    subset of rows yields exactly the values the historical per-query
    ``np.stack`` produced for those entities (``l2_normalize`` is purely
    row-wise).  The exact scan gathers no candidate row: it multiplies
    :attr:`matrix` as a whole, which may round a score differently from a
    product over the gathered rows (see README, "ANN candidate retrieval",
    for the bound).
    """

    __slots__ = ("ids", "matrix", "row_of", "index", "id_array", "_ids_sorted")

    def __init__(
        self,
        ids: Sequence[int],
        matrix: np.ndarray,
        index: PartitionedIndex | None = None,
    ):
        self.ids: list[int] = [int(entity_id) for entity_id in ids]
        self.matrix = matrix
        self.row_of: dict[int, int] = {
            entity_id: row for row, entity_id in enumerate(self.ids)
        }
        self.index = index
        #: ``ids`` as an int64 array (the entity id of each row).
        self.id_array = np.asarray(self.ids, dtype=np.int64)
        self._ids_sorted = bool(
            self.id_array.size == 0 or np.all(np.diff(self.id_array) > 0)
        )

    @classmethod
    def from_vectors(
        cls,
        vectors: Mapping[int, np.ndarray],
        dim: int | None = None,
        normalize: bool = False,
    ) -> "CandidateMatrix":
        """Stack ``vectors`` (optionally sliced to ``dim`` and row-normalized)."""
        ids = sorted(vectors)
        if not ids:
            return cls(ids=[], matrix=np.zeros((0, 0), dtype=np.float64))
        rows = []
        for entity_id in ids:
            row = np.asarray(vectors[entity_id], dtype=np.float64)
            rows.append(row[:dim] if dim is not None else row)
        matrix = np.stack(rows)
        if normalize:
            matrix = l2_normalize(matrix, axis=1)
        return cls(ids=ids, matrix=np.ascontiguousarray(matrix))

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, entity_id: int) -> bool:
        return entity_id in self.row_of

    def row(self, entity_id: int) -> np.ndarray:
        """The (view of the) single row for ``entity_id``."""
        return self.matrix[self.row_of[entity_id]]

    def rows(self, entity_ids: Sequence[int]) -> np.ndarray:
        """Gather rows for ``entity_ids`` (callers filter to known ids)."""
        if len(entity_ids) == 0:
            return np.zeros((0, self.matrix.shape[1]), dtype=np.float64)
        return self.matrix[self.locate(entity_ids)]

    def locate(self, entity_ids: Sequence[int]) -> np.ndarray:
        """Row indices for ``entity_ids``; raises ``KeyError`` on unknown ids.

        With the usual ascending id layout the lookup is a vectorized binary
        search, so gathering a probed shortlist costs no per-id Python work;
        the gathered rows are bitwise identical either way (same locations).
        """
        if self._ids_sorted and self.id_array.size:
            wanted = np.asarray(entity_ids, dtype=np.int64)
            locations = np.minimum(
                np.searchsorted(self.id_array, wanted), self.id_array.size - 1
            )
            found = self.id_array[locations]
            if not np.array_equal(found, wanted):
                raise KeyError(int(wanted[found != wanted][0]))
            return locations
        return np.fromiter(
            (self.row_of[entity_id] for entity_id in entity_ids),
            dtype=np.int64,
            count=len(entity_ids),
        )

    def attach_index(self, index: PartitionedIndex | None) -> None:
        """Adopt ``index`` when its id layout matches this matrix; a stale
        index (different vocabulary) is dropped so probes can never return
        rows of a different matrix."""
        if index is not None and (
            len(index) != len(self.ids)
            or not np.array_equal(index.ids, self.id_array)
        ):
            index = None
        self.index = index

    # -- retrieval -------------------------------------------------------------
    def shortlist(
        self,
        query_vector: np.ndarray,
        required: int = 0,
        exclude: Sequence[int] = (),
        nprobe: int | None = None,
        telemetry: AnnTelemetry | None = None,
    ) -> list[int]:
        """The probed candidate ids to score exactly for one query.

        The ids of the ``nprobe`` lists nearest to ``query_vector`` (the
        index default when ``None``), minus ``exclude`` (a query's seeds), in
        ascending id order, so per-query work is proportional to the
        shortlist, not the vocabulary.  ``nprobe`` doubles until the
        shortlist can fill a ranking of ``required`` entries; a full probe
        returns the whole vocabulary minus ``exclude``.
        """
        index = self.index
        exclude_array = None
        if len(exclude):
            exclude_array = np.fromiter(
                sorted({int(eid) for eid in exclude}), dtype=np.int64
            )
        nprobe = index.default_nprobe() if nprobe is None else nprobe
        nprobe = max(1, min(int(nprobe), index.n_lists))
        need = max(0, int(required))
        while True:
            short = np.sort(index.ids[index.probe(query_vector, nprobe)])
            if exclude_array is not None:
                short = short[~np.isin(short, exclude_array, assume_unique=True)]
            if short.size >= need or nprobe >= index.n_lists:
                break
            nprobe = min(index.n_lists, nprobe * 2)
        if telemetry is not None:
            telemetry(nprobe, int(short.size))
        return short.tolist()
