"""Typed on-disk serialization helpers for fitted-expander state.

The artifact store never pickles: every piece of state is written as either
JSON (small structured metadata, token counts) or ``.npy`` / ``.npz`` numpy
payloads (embedding matrices).  Large matrices round-trip through
``np.save`` so they can be re-opened with ``np.load(mmap_mode="r")`` — a
warm restart then maps the fitted vectors instead of copying them, and N
worker processes restoring the same artifact share one page cache.

The central structure across the stack is the *vector map*: a
``dict[int, np.ndarray]`` from entity id to representation.  Uniformly
shaped maps (the overwhelmingly common case) are stored as an id vector plus
one stacked matrix; ragged maps fall back to a per-id ``.npz`` archive.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.exceptions import ArtifactCorruptError

#: buffer size for streaming checksums (1 MiB).
_CHUNK_BYTES = 1 << 20


def sha256_file(path: str | Path) -> str:
    """Streaming SHA-256 of a file's content."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as handle:
        while True:
            chunk = handle.read(_CHUNK_BYTES)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


def write_json_state(path: str | Path, payload: dict) -> None:
    """Write ``payload`` as JSON, preserving key insertion order.

    Counter-like payloads (n-gram counts) depend on insertion order for
    deterministic tie-breaking after a round-trip, so keys are *not* sorted.
    ``json.dumps`` encodes in C (``json.dump`` always takes the pure-Python
    encoder) and gives the same bytes, written in one call.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, ensure_ascii=False, separators=(",", ":")))


def read_json_state(path: str | Path) -> dict:
    """Read a JSON state file, mapping parse failures to corruption errors."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError as exc:
        raise ArtifactCorruptError(f"missing state file {path}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ArtifactCorruptError(f"unreadable state file {path}: {exc}") from exc


def save_array(path: str | Path, array: np.ndarray) -> None:
    """Save one array as ``.npy`` (parents are created)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.save(path, np.ascontiguousarray(array), allow_pickle=False)


def load_array(path: str | Path, mmap: bool = False) -> np.ndarray:
    """Load one ``.npy`` array, optionally memory-mapped read-only."""
    path = Path(path)
    try:
        return np.load(path, mmap_mode="r" if mmap else None, allow_pickle=False)
    except FileNotFoundError as exc:
        raise ArtifactCorruptError(f"missing array file {path}") from exc
    except (ValueError, OSError) as exc:
        raise ArtifactCorruptError(f"unreadable array file {path}: {exc}") from exc


def save_vector_map(
    directory: str | Path, name: str, mapping: Mapping[int, np.ndarray]
) -> None:
    """Persist an ``{entity_id: vector}`` map under ``directory`` as ``name``.

    Uniform maps become ``<name>.ids.npy`` + ``<name>.vectors.npy`` (the
    mmap-friendly layout); ragged maps fall back to ``<name>.ragged.npz``.
    An empty map writes an empty id vector so absence stays distinguishable
    from corruption.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    ids = sorted(mapping)
    shapes = {np.asarray(mapping[i]).shape for i in ids}
    if len(shapes) <= 1:
        save_array(directory / f"{name}.ids.npy", np.asarray(ids, dtype=np.int64))
        if ids:
            matrix = np.stack([np.asarray(mapping[i], dtype=np.float64) for i in ids])
        else:
            matrix = np.zeros((0, 0), dtype=np.float64)
        save_array(directory / f"{name}.vectors.npy", matrix)
    else:
        arrays = {str(i): np.asarray(mapping[i], dtype=np.float64) for i in ids}
        np.savez(directory / f"{name}.ragged.npz", **arrays)


def load_vector_map(
    directory: str | Path, name: str, mmap: bool = True
) -> dict[int, np.ndarray]:
    """Load a map written by :func:`save_vector_map`.

    With ``mmap`` (the default) the uniform layout keeps every vector a view
    into one read-only memory map; callers that mutate vectors must copy.
    """
    directory = Path(directory)
    ids_path = directory / f"{name}.ids.npy"
    ragged_path = directory / f"{name}.ragged.npz"
    if ids_path.exists():
        ids = load_array(ids_path)
        matrix = load_array(directory / f"{name}.vectors.npy", mmap=mmap)
        if matrix.shape[0] != ids.shape[0]:
            raise ArtifactCorruptError(
                f"vector map {name!r}: {ids.shape[0]} ids but {matrix.shape[0]} rows"
            )
        return {int(entity_id): matrix[row] for row, entity_id in enumerate(ids)}
    if ragged_path.exists():
        try:
            with np.load(ragged_path, allow_pickle=False) as archive:
                return {int(key): archive[key] for key in archive.files}
        except (ValueError, OSError) as exc:
            raise ArtifactCorruptError(f"unreadable vector map {ragged_path}: {exc}") from exc
    raise ArtifactCorruptError(f"vector map {name!r} not found under {directory}")


def save_count_table(path: str | Path, table: Mapping[str, Mapping[str, int]]) -> None:
    """Persist a nested string-count table (e.g. skip-gram features) as JSON."""
    write_json_state(
        Path(path), {outer: dict(inner) for outer, inner in table.items()}
    )


def load_count_table(path: str | Path) -> dict[str, dict[str, int]]:
    payload = read_json_state(path)
    if not isinstance(payload, dict):
        raise ArtifactCorruptError(f"count table {path} is not a JSON object")
    return {str(k): {str(t): int(c) for t, c in v.items()} for k, v in payload.items()}
