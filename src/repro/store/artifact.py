"""Persistent, content-addressed store of fitted expander artifacts.

``Expander.fit`` dominates the cost of every method in this repo, and the
serving registry (PR 1) only amortises it *within* one process.  The
:class:`ArtifactStore` turns a fit into a build-once artifact on disk, keyed
by ``(method, dataset fingerprint)`` and stamped with a format version, so
that restarts, deploys, and sibling worker processes restore fitted state
instead of re-training it.

Layout (one directory per artifact; the format version is part of the path
so differently-versioned builds sharing a store coexist instead of evicting
each other's artifacts)::

    <root>/
      <method>/<fingerprint>.v<format_version>/
        manifest.json          # key, versions, checksums, sizes, created-at,
                               # and the substrate references (content hashes)
        state/...              # whatever Expander.save_state wrote
      .substrates/<kind>/<content_hash>.v<format_version>/
        manifest.json          # kind, key, checksums, sizes, created-at
        state/...              # the substrate's serialised state
      .tmp/                    # staging area for in-flight writes

Shared substrates (co-occurrence embeddings, entity representations, the
causal entity LM) are stored **once**, content-addressed under
``.substrates``, and method manifests *reference* them by content hash
instead of embedding a private copy per method.  GC is reference-aware: a
substrate is never collected while a surviving method manifest points at
it, and a substrate orphaned by method evictions is collected instead of
stranding its bytes.

Method and substrate artifacts share one writer, one verifier and one
directory scan.  Writes are atomic: state is staged under ``.tmp``,
checksummed into the manifest, and moved into place with one
``os.replace``-style rename, so a crashed writer never leaves a half-written
artifact where a reader could find it.  Restores verify the manifest's
format version and every file checksum before any state is deserialised;
corrupt or version-mismatched artifacts raise a
:class:`~repro.exceptions.StoreError` subtype that consumers treat as a miss
(fall back to refit, then overwrite).  A restore is a pure read: it changes
no file in the store.  GC (``repro store gc``) collects by fingerprint and
age, not by recency of use.
"""

from __future__ import annotations

import os
import platform
import shutil
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import (
    ArtifactCorruptError,
    ArtifactNotFoundError,
    ArtifactVersionError,
    PersistenceError,
    StoreError,
)
from repro.store.serialization import read_json_state, sha256_file, write_json_state

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports store)
    from repro.core.base import Expander
    from repro.dataset.ultrawiki import UltraWikiDataset

#: bump when the store layout or manifest schema changes incompatibly.
FORMAT_VERSION = 1

_MANIFEST_NAME = "manifest.json"
_STATE_DIR = "state"

#: dot-directory (skipped by ``ls``) holding content-addressed substrates.
_SUBSTRATES_DIRNAME = ".substrates"

#: staging directories younger than this are treated as in-flight saves and
#: left alone by ``gc`` — deleting them would race a concurrent writer.
_STALE_TMP_SECONDS = 3600.0

#: unreferenced substrate artifacts younger than this are never collected:
#: a substrate is published *before* the method manifest that references it
#: renames into place, so a fresh orphan may simply be mid-publication (or a
#: deliberate ``repro fit --substrates-only`` prefit awaiting its consumers).
_ORPHAN_GRACE_SECONDS = 600.0

#: how long a computed ``stats()`` summary may be served from memory; the
#: summary requires a full manifest scan, and /stats gets polled.
_STATS_TTL_SECONDS = 5.0


@dataclass(frozen=True)
class ArtifactInfo:
    """One row of ``ArtifactStore.ls()`` — the manifest, summarised."""

    method: str
    fingerprint: str
    format_version: int
    state_version: int
    expander_class: str
    created_at: float
    total_bytes: int
    num_files: int
    path: str
    library_versions: dict = field(default_factory=dict)
    #: substrate references from the manifest: tuples of
    #: ``{"kind", "content_hash", "params_hash"}`` dicts.
    substrates: tuple = ()

    @property
    def age_seconds(self) -> float:
        return max(0.0, time.time() - self.created_at)

    @classmethod
    def from_manifest(cls, manifest: dict, path: Path) -> "ArtifactInfo":
        files = manifest.get("files", {})
        return cls(
            method=str(manifest["method"]),
            fingerprint=str(manifest["fingerprint"]),
            format_version=int(manifest["format_version"]),
            state_version=int(manifest["state_version"]),
            expander_class=str(manifest.get("expander_class", "")),
            created_at=float(manifest.get("created_at", 0.0)),
            total_bytes=sum(int(meta["bytes"]) for meta in files.values()),
            num_files=len(files),
            path=str(path),
            library_versions=dict(manifest.get("library_versions", {})),
            substrates=tuple(manifest.get("substrates", []) or ()),
        )


@dataclass(frozen=True)
class SubstrateArtifactInfo:
    """One row of ``ArtifactStore.ls_substrates()`` — a substrate, summarised."""

    kind: str
    content_hash: str
    fingerprint: str
    params_hash: str
    format_version: int
    created_at: float
    total_bytes: int
    num_files: int
    path: str

    @property
    def age_seconds(self) -> float:
        return max(0.0, time.time() - self.created_at)

    @classmethod
    def from_manifest(cls, manifest: dict, path: Path) -> "SubstrateArtifactInfo":
        files = manifest.get("files", {})
        return cls(
            kind=str(manifest["kind"]),
            content_hash=str(manifest["content_hash"]),
            fingerprint=str(manifest.get("fingerprint", "")),
            params_hash=str(manifest.get("params_hash", "")),
            format_version=int(manifest["format_version"]),
            created_at=float(manifest.get("created_at", 0.0)),
            total_bytes=sum(int(meta["bytes"]) for meta in files.values()),
            num_files=len(files),
            path=str(path),
        )


class _ManifestSubstrates:
    """Resolver handed to ``Expander.load_state`` during a restore: it loads
    exactly the substrates the method manifest references, checksum-verified,
    from this store's content-addressed artifacts."""

    def __init__(self, store: "ArtifactStore", refs: list[dict]):
        self._store = store
        self._refs = {(ref["kind"], ref["content_hash"]) for ref in refs}

    def has(self, kind: str, content_hash: str) -> bool:
        return (kind, content_hash) in self._refs

    def load(self, kind: str, content_hash: str, loader):
        return self._store.restore_substrate(kind, content_hash, loader)


class ArtifactStore:
    """Saves and restores fitted expander state under one root directory."""

    def __init__(self, root: str | Path, format_version: int = FORMAT_VERSION):
        if format_version < 1:
            raise StoreError("format_version must be >= 1")
        self.root = Path(root)
        self.format_version = format_version
        self.root.mkdir(parents=True, exist_ok=True)
        self._tmp_root = self.root / ".tmp"
        # Serialises publishes/evictions within this process; cross-process
        # safety comes from staging + atomic rename.
        self._lock = threading.Lock()
        #: short-lived cache of :meth:`stats` (a full manifest scan) so that
        #: polling a monitoring endpoint does not hammer the filesystem.
        self._stats_cache: tuple[float, dict] | None = None

    # -- paths -------------------------------------------------------------------
    @staticmethod
    def _normalize(method: str) -> str:
        method = method.strip().lower()
        if not method or any(sep in method for sep in ("/", "\\", "..")):
            raise StoreError(f"invalid method name {method!r}")
        if method.startswith("."):
            # Dot-names would collide with store-internal directories
            # (``.tmp``, ``.fitlocks``, ``.substrates``).
            raise StoreError(f"invalid method name {method!r}")
        return method

    def artifact_dir(self, method: str, fingerprint: str) -> Path:
        """The directory an artifact for this store's key lives in.

        The format version is part of the path, not just the manifest, so
        mixed-version fleets sharing one store simply *miss* each other's
        artifacts (and coexist) instead of evicting and rewriting them back
        and forth on every cold start.
        """
        if not fingerprint or any(sep in fingerprint for sep in ("/", "\\", "..")):
            raise StoreError(f"invalid fingerprint {fingerprint!r}")
        return self.root / self._normalize(method) / f"{fingerprint}.v{self.format_version}"

    def contains(self, method: str, fingerprint: str) -> bool:
        """True when an artifact directory with a manifest exists (unverified)."""
        return (self.artifact_dir(method, fingerprint) / _MANIFEST_NAME).exists()

    # -- writing -----------------------------------------------------------------
    def save(self, method: str, fingerprint: str, expander: "Expander") -> ArtifactInfo:
        """Persist ``expander``'s fitted state, replacing any previous artifact.

        Substrates the fit depends on are published (idempotently) into this
        store's content-addressed ``.substrates`` area *before* the method
        manifest referencing them appears, so a reader can never observe a
        manifest with dangling substrate references.
        """
        method = self._normalize(method)
        target = self.artifact_dir(method, fingerprint)
        substrates = expander.publish_substrates(self)
        manifest = self._publish(
            target,
            f"artifact {method}/{fingerprint}",
            {
                "method": method,
                "fingerprint": fingerprint,
                "state_version": type(expander).state_version,
                "expander_class": type(expander).__name__,
                "substrates": substrates,
            },
            expander.save_state,
            replace=True,
        )
        return ArtifactInfo.from_manifest(manifest, target)

    def _publish(
        self, target: Path, label: str, fields: dict, writer, replace: bool
    ) -> dict:
        """The one staged write; returns the manifest it published.

        ``writer`` fills a staging ``state`` directory; the manifest
        (``fields`` plus format version, creation time, library versions and
        a checksum and size per file) is written last and the whole
        directory is renamed into place in one step.  With ``replace`` an
        existing artifact is moved aside first (a method refit supersedes
        it); otherwise the first publisher's copy is kept (a content address
        guarantees equivalence).
        """
        self._tmp_root.mkdir(parents=True, exist_ok=True)
        staging = self._tmp_root / f"{target.parent.name}-{target.name}-{uuid.uuid4().hex}"
        state_dir = staging / _STATE_DIR
        state_dir.mkdir(parents=True)
        try:
            writer(state_dir)
            manifest = {
                **fields,
                "format_version": self.format_version,
                "created_at": time.time(),
                "library_versions": {
                    "python": platform.python_version(),
                    "numpy": np.__version__,
                },
                "files": self._checksum_tree(state_dir),
            }
            write_json_state(staging / _MANIFEST_NAME, manifest)
            with self._lock:
                target.parent.mkdir(parents=True, exist_ok=True)
                if replace and target.exists():
                    # Move the old artifact aside first so readers never see
                    # a partially-deleted directory at the published path.
                    graveyard = self._tmp_root / f"evicted-{uuid.uuid4().hex}"
                    os.replace(target, graveyard)
                    shutil.rmtree(graveyard, ignore_errors=True)
                if target.exists():
                    shutil.rmtree(staging, ignore_errors=True)
                else:
                    os.replace(staging, target)
                self._stats_cache = None
        except (StoreError, PersistenceError):
            shutil.rmtree(staging, ignore_errors=True)
            raise
        except OSError as exc:
            shutil.rmtree(staging, ignore_errors=True)
            raise StoreError(f"cannot write {label}: {exc}") from exc
        return manifest

    @staticmethod
    def _checksum_tree(state_dir: Path) -> dict[str, dict]:
        files: dict[str, dict] = {}
        for path in sorted(state_dir.rglob("*")):
            if path.is_file():
                relative = path.relative_to(state_dir).as_posix()
                files[relative] = {
                    "sha256": sha256_file(path),
                    "bytes": path.stat().st_size,
                }
        return files

    # -- reading -----------------------------------------------------------------
    def _verify(self, target: Path, label: str, required: tuple[str, ...]) -> dict:
        """The one manifest read and checksum verify: the ``required`` keys,
        the format version, then every state file's size and sha256.
        Returns the manifest."""
        manifest_path = target / _MANIFEST_NAME
        if not manifest_path.exists():
            raise ArtifactNotFoundError(f"no {label}")
        manifest = read_json_state(manifest_path)
        for key in (*required, "format_version", "files"):
            if key not in manifest:
                raise ArtifactCorruptError(f"manifest {manifest_path} lacks {key!r}")
        if int(manifest["format_version"]) != self.format_version:
            raise ArtifactVersionError(
                f"{label} has format_version {manifest['format_version']}, "
                f"store expects {self.format_version}"
            )
        state_dir = target / _STATE_DIR
        for relative, meta in manifest["files"].items():
            path = state_dir / relative
            try:
                if not path.is_file():
                    raise ArtifactCorruptError(f"{label} lost state file {relative!r}")
                if (
                    path.stat().st_size != int(meta["bytes"])
                    or sha256_file(path) != meta["sha256"]
                ):
                    raise ArtifactCorruptError(
                        f"{label} checksum mismatch on {relative!r}"
                    )
            except OSError as exc:
                # A concurrent evict/replace can remove files mid-scan; the
                # caller must see a StoreError, never a raw filesystem error.
                raise ArtifactCorruptError(f"{label} became unreadable: {exc}") from exc
        return manifest

    def verify(self, method: str, fingerprint: str) -> ArtifactInfo:
        """Check versions and every file checksum; raise a StoreError on failure."""
        target = self.artifact_dir(method, fingerprint)
        manifest = self._verify(
            target,
            f"artifact {method}/{fingerprint}",
            ("method", "fingerprint", "state_version"),
        )
        return ArtifactInfo.from_manifest(manifest, target)

    def restore(
        self,
        method: str,
        fingerprint: str,
        expander: "Expander",
        dataset: "UltraWikiDataset",
    ) -> ArtifactInfo:
        """Verify the artifact, then load its state into ``expander``.

        Any failure during deserialisation is reported as corruption so that
        callers uniformly fall back to refitting.
        """
        info = self.verify(method, fingerprint)
        if info.state_version != type(expander).state_version:
            raise ArtifactVersionError(
                f"artifact {method}/{fingerprint} has state_version "
                f"{info.state_version}, expander {type(expander).__name__} "
                f"expects {type(expander).state_version}"
            )
        if info.expander_class != type(expander).__name__:
            raise ArtifactVersionError(
                f"artifact {method}/{fingerprint} was saved by "
                f"{info.expander_class}, not {type(expander).__name__}"
            )
        refs = list(info.substrates)
        for ref in refs:
            # Reference-aware GC keeps this invariant; enforce it defensively
            # so an externally-mutilated store degrades to a refit, not a
            # half-restored expander.
            if not self.contains_substrate(ref["kind"], ref["content_hash"]):
                raise ArtifactCorruptError(
                    f"artifact {method}/{fingerprint} references missing "
                    f"substrate {ref['kind']}/{ref['content_hash']}"
                )
        state_dir = Path(info.path) / _STATE_DIR
        resolver = _ManifestSubstrates(self, refs) if refs else None
        try:
            expander.load_state(state_dir, dataset, substrates=resolver)
        except StoreError:
            raise
        except PersistenceError as exc:
            # The state is intact but was fitted under an incompatible
            # expander configuration — a version-style mismatch, not
            # corruption, so consumers refit without evicting the artifact.
            raise ArtifactVersionError(
                f"artifact {method}/{fingerprint} does not match this "
                f"expander configuration: {exc}"
            ) from exc
        except Exception as exc:  # noqa: BLE001 - any load failure means corrupt state
            raise ArtifactCorruptError(
                f"artifact {method}/{fingerprint} failed to load: {exc}"
            ) from exc
        return info

    # -- substrates --------------------------------------------------------------
    @staticmethod
    def _normalize_substrate(kind: str, content_hash: str) -> tuple[str, str]:
        for value, label in ((kind, "substrate kind"), (content_hash, "content hash")):
            if (
                not value
                or value.startswith(".")
                or any(sep in value for sep in ("/", "\\", ".."))
            ):
                raise StoreError(f"invalid {label} {value!r}")
        return kind, content_hash

    def substrate_dir(self, kind: str, content_hash: str) -> Path:
        """Where the content-addressed substrate artifact lives."""
        kind, content_hash = self._normalize_substrate(kind, content_hash)
        return (
            self.root
            / _SUBSTRATES_DIRNAME
            / kind
            / f"{content_hash}.v{self.format_version}"
        )

    def contains_substrate(self, kind: str, content_hash: str) -> bool:
        """True when a substrate artifact with a manifest exists (unverified)."""
        return (self.substrate_dir(kind, content_hash) / _MANIFEST_NAME).exists()

    def save_substrate(
        self,
        kind: str,
        content_hash: str,
        fingerprint: str,
        params_hash: str,
        writer,
    ) -> SubstrateArtifactInfo:
        """Persist one substrate under its content address (idempotent).

        ``writer`` serialises the substrate's fitted state into the staging
        state directory, written like a method artifact.  Content addressing
        makes the operation idempotent: an existing artifact is returned
        untouched, so several methods publishing the same substrate never
        rewrite it.
        """
        target = self.substrate_dir(kind, content_hash)
        if (target / _MANIFEST_NAME).exists():
            return SubstrateArtifactInfo.from_manifest(
                read_json_state(target / _MANIFEST_NAME), target
            )
        manifest = self._publish(
            target,
            f"substrate {kind}/{content_hash}",
            {
                "kind": kind,
                "content_hash": content_hash,
                "fingerprint": fingerprint,
                "params_hash": params_hash,
            },
            writer,
            replace=False,
        )
        return SubstrateArtifactInfo.from_manifest(manifest, target)

    def verify_substrate(self, kind: str, content_hash: str) -> SubstrateArtifactInfo:
        """Check the format version and every file checksum of a substrate
        artifact; raise a StoreError on failure."""
        target = self.substrate_dir(kind, content_hash)
        manifest = self._verify(
            target, f"substrate {kind}/{content_hash}", ("kind", "content_hash")
        )
        return SubstrateArtifactInfo.from_manifest(manifest, target)

    def restore_substrate(self, kind: str, content_hash: str, loader):
        """Verify the substrate artifact, then run ``loader`` on its state dir.

        Any loader failure is reported as corruption so callers uniformly
        fall back to refitting (and republishing) the substrate.
        """
        target = Path(self.verify_substrate(kind, content_hash).path)
        try:
            instance = loader(target / _STATE_DIR)
        except StoreError:
            raise
        except Exception as exc:  # noqa: BLE001 - any load failure means corrupt state
            raise ArtifactCorruptError(
                f"substrate {kind}/{content_hash} failed to load: {exc}"
            ) from exc
        return instance

    def ls_substrates(self) -> list[SubstrateArtifactInfo]:
        """All substrate artifacts, newest first (unreadable ones skipped)."""
        return self._scan(
            self.root / _SUBSTRATES_DIRNAME, SubstrateArtifactInfo.from_manifest
        )

    def substrate_references(self) -> dict[tuple[str, str], list[str]]:
        """Back-references: ``(kind, content_hash)`` -> referencing methods.

        Scans every method manifest; the values are ``method/fingerprint``
        labels, the truth GC consults before touching any substrate.
        """
        references: dict[tuple[str, str], list[str]] = {}
        for info in self.ls():
            for ref in info.substrates:
                key = (str(ref.get("kind")), str(ref.get("content_hash")))
                references.setdefault(key, []).append(
                    f"{info.method}/{info.fingerprint}"
                )
        return references

    def evict_substrate(
        self, kind: str, content_hash: str, force: bool = False
    ) -> bool:
        """Remove a substrate artifact; refuses while method manifests still
        reference it unless ``force`` (used when the artifact is corrupt and
        useless to its referrers anyway)."""
        kind, content_hash = self._normalize_substrate(kind, content_hash)
        if not force:
            referencing = self.substrate_references().get((kind, content_hash))
            if referencing:
                raise StoreError(
                    f"substrate {kind}/{content_hash} is referenced by "
                    f"{sorted(referencing)}; evict those artifacts first"
                )
        return self._remove(self.substrate_dir(kind, content_hash))

    # -- management --------------------------------------------------------------
    def ls(self) -> list[ArtifactInfo]:
        """All artifacts in the store, newest first (unreadable ones skipped)."""
        return self._scan(self.root, ArtifactInfo.from_manifest)

    @staticmethod
    def _scan(root: Path, from_manifest) -> list:
        """The one directory scan: every ``<root>/<group>/<artifact>`` with a
        readable manifest, newest first.  Dot-groups (store internals such as
        ``.tmp`` and ``.substrates``) are skipped."""
        infos: list = []
        if not root.exists():
            return infos
        for group in sorted(root.iterdir()):
            if not group.is_dir() or group.name.startswith("."):
                continue
            for artifact_dir in sorted(group.iterdir()):
                manifest_path = artifact_dir / _MANIFEST_NAME
                if not manifest_path.exists():
                    continue
                try:
                    infos.append(from_manifest(read_json_state(manifest_path), artifact_dir))
                except (StoreError, KeyError, TypeError, ValueError):
                    continue
        infos.sort(key=lambda info: -info.created_at)
        return infos

    def evict(self, method: str, fingerprint: str) -> bool:
        """Remove this store version's artifact; returns True when it existed."""
        return self._remove(self.artifact_dir(method, fingerprint))

    def _remove(self, target: Path) -> bool:
        with self._lock:
            if not target.exists():
                return False
            self._tmp_root.mkdir(parents=True, exist_ok=True)
            graveyard = self._tmp_root / f"evicted-{uuid.uuid4().hex}"
            os.replace(target, graveyard)
            shutil.rmtree(graveyard, ignore_errors=True)
            self._prune_empty(target.parent)
            self._stats_cache = None
            return True

    def gc(
        self,
        keep_fingerprints: set[str] | None = None,
        max_age_seconds: float | None = None,
    ) -> list:
        """Remove stale artifacts and abandoned staging directories.

        An artifact is collected when its fingerprint is not in
        ``keep_fingerprints`` (if given) or it is older than
        ``max_age_seconds`` (if given); with neither filter only the staging
        area is cleaned.  Substrate artifacts matching the same filters are
        collected too, but **never** while a surviving method manifest still
        references them — the reference graph outranks every filter — and
        never within their publication grace period (a fresh orphan may be a
        save in flight whose referencing manifest has not landed yet).
        Staging directories are only removed once they are old enough to be
        abandoned, never while a concurrent ``save`` may still be writing
        into them.  Returns the artifacts removed (methods and substrates).
        """
        removed: list = []
        now = time.time()

        def stale(info, fingerprint: str) -> bool:
            if keep_fingerprints is not None and fingerprint not in keep_fingerprints:
                return True
            return (
                max_age_seconds is not None
                and now - info.created_at > max_age_seconds
            )

        for info in self.ls():
            # Remove via the listed path: ``ls`` surfaces artifacts of every
            # format version, including ones this store would not address.
            if stale(info, info.fingerprint) and self._remove(Path(info.path)):
                removed.append(info)
        if keep_fingerprints is not None or max_age_seconds is not None:
            references = self.substrate_references()
            for info in self.ls_substrates():
                if (info.kind, info.content_hash) in references:
                    continue  # still referenced: never collected by filters
                if now - info.created_at <= _ORPHAN_GRACE_SECONDS:
                    continue  # possibly mid-publication: a manifest may land
                if stale(info, info.fingerprint) and self._remove(Path(info.path)):
                    removed.append(info)
        if self._tmp_root.exists():
            for leftover in self._tmp_root.iterdir():
                try:
                    abandoned = now - leftover.stat().st_mtime > _STALE_TMP_SECONDS
                except OSError:
                    continue  # a concurrent save just renamed it away
                if abandoned:
                    shutil.rmtree(leftover, ignore_errors=True)
        return removed

    def stats(self) -> dict:
        """A store summary, cached briefly (it scans every manifest).

        Writes through this store invalidate the cache immediately; only
        another process's concurrent writes can be missed, for at most
        ``_STATS_TTL_SECONDS``.
        """
        now = time.time()
        with self._lock:
            if self._stats_cache is not None and now < self._stats_cache[0]:
                return dict(self._stats_cache[1])
        infos = self.ls()
        substrates = self.ls_substrates()
        summary = {
            "root": str(self.root),
            "format_version": self.format_version,
            "artifacts": len(infos),
            "total_bytes": sum(info.total_bytes for info in infos),
            "methods": sorted({info.method for info in infos}),
            "substrates": len(substrates),
            "substrate_bytes": sum(info.total_bytes for info in substrates),
            "substrate_kinds": sorted({info.kind for info in substrates}),
        }
        with self._lock:
            self._stats_cache = (now + _STATS_TTL_SECONDS, summary)
        return dict(summary)

    # -- helpers -----------------------------------------------------------------
    @staticmethod
    def _prune_empty(method_dir: Path) -> None:
        try:
            next(method_dir.iterdir())
        except StopIteration:
            shutil.rmtree(method_dir, ignore_errors=True)
        except OSError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ArtifactStore(root={str(self.root)!r}, format_version={self.format_version})"
