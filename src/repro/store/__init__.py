"""Persistent fitted-expander artifact store.

Fits are the dominant cost of every expansion method; this package makes
them build-once artifacts shared across restarts and worker processes:

* :class:`ArtifactStore` — content-addressed persistence keyed by
  ``(method, dataset fingerprint)`` with per-artifact JSON manifests
  (checksums, sizes, versions), atomic staged writes, and ``ls``/``gc``/
  ``evict`` management; shared substrates (:mod:`repro.substrate`) are
  stored once under ``.substrates/<kind>/<content hash>`` and referenced
  by method manifests, with reference-aware GC.  Both kinds of artifact go
  through one staged writer, one checksum verify and one directory scan;
* :class:`FitLock` — cross-process fit leader election via an atomic lock
  file in the store directory, and
  :func:`~repro.store.fitlock.single_payer`, the one election loop the
  method registry and the substrate provider both run a cold fit through,
  so N workers sharing the store pay each cold fit exactly once (waiters
  restore the leader's published artifact);
* :mod:`repro.store.serialization` — the pickle-free JSON + ``.npy``
  serialization layer, including mmap-friendly entity→vector maps.

Workflow::

    store = ArtifactStore("./artifacts")
    registry = ExpanderRegistry(dataset, store=store)   # restore-on-miss
    registry.get("retexpan")                            # fit once, write through
    # ... restart the process ...
    registry = ExpanderRegistry(dataset, store=store)
    registry.get("retexpan")                            # restored, no _fit
"""

from repro.store.artifact import (
    FORMAT_VERSION,
    ArtifactInfo,
    ArtifactStore,
    SubstrateArtifactInfo,
)
from repro.store.fitlock import DEFAULT_STALE_SECONDS, FitLock
from repro.store.serialization import (
    load_array,
    load_count_table,
    load_vector_map,
    read_json_state,
    save_array,
    save_count_table,
    save_vector_map,
    sha256_file,
    write_json_state,
)

__all__ = [
    "DEFAULT_STALE_SECONDS",
    "FORMAT_VERSION",
    "ArtifactInfo",
    "ArtifactStore",
    "FitLock",
    "SubstrateArtifactInfo",
    "save_array",
    "load_array",
    "save_vector_map",
    "load_vector_map",
    "save_count_table",
    "load_count_table",
    "read_json_state",
    "write_json_state",
    "sha256_file",
]
