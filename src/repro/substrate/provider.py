"""Fit-once model substrates shared across every expansion method.

The paper's methods all stand on a small set of expensive shared substrates:

* the PPMI-SVD **co-occurrence embeddings** (CGExpan, CaSE, and the context
  encoder's pre-trained token vectors);
* the context-encoder **entity representations** (RetExpan's hidden-state
  vectors and ProbExpan's mask distributions);
* the continually pre-trained **causal entity LM** (GenExpan's backbone).

Before this layer each expander fitted its own private copy and persisted it
whole inside its method artifact, so a fleet serving all seven methods paid
the same substrate cost up to 7x in fit time, memory, and store bytes.  The
:class:`SubstrateProvider` fits each substrate **at most once per dataset**,
keyed by ``(kind, dataset fingerprint, params hash)``:

* an in-memory cache hands the same instance to every resident expander;
* with an :class:`~repro.store.ArtifactStore` attached, a miss first tries
  to *restore* the substrate from its content-addressed artifact
  (``<store>/.substrates/<kind>/<content hash>.v<N>``) and a fresh fit is
  written through so sibling processes and restarts skip it;
* with a store attached, cold fits run through
  :func:`~repro.store.fitlock.single_payer`, the same
  :class:`~repro.store.FitLock` election the method registry uses, so a
  cluster sharing one store trains each substrate exactly once.

The *substrate persistence protocol* is intentionally tiny: a substrate is
any object that can write its fitted state into a directory and be
reconstructed from it bitwise-identically —
:class:`~repro.lm.embeddings.CooccurrenceEmbeddings` (``save``/``load``),
:class:`~repro.lm.context_encoder.EntityRepresentations` (``save``/``load``),
and :class:`~repro.lm.causal_lm.CausalEntityLM`
(``save_state``/``load_state``) implement it; the per-kind adapters below
bind the three shapes to one provider interface.  The raw
:class:`~repro.lm.context_encoder.ContextEncoder` is a *memory-only*
substrate: it is only needed to produce an entity-representations substrate,
so it is cached per provider but never persisted on its own.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

from repro.config import CausalLMConfig, EncoderConfig
from repro.dataset.ultrawiki import UltraWikiDataset
from repro.exceptions import StoreError, SubstrateError
from repro.lm.causal_lm import CausalEntityLM
from repro.lm.context_encoder import ContextEncoder, EntityRepresentations
from repro.lm.embeddings import CooccurrenceEmbeddings
from repro.obs import MetricsRegistry, span
from repro.store.fitlock import FitLock, FitLockCounters, single_payer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

    from repro.store import ArtifactStore

#: PPMI-SVD token + entity embeddings over the dataset corpus.
COOCCURRENCE_EMBEDDINGS = "cooccurrence_embeddings"
#: context-encoder hidden-state / distribution representations per entity.
ENTITY_REPRESENTATIONS = "entity_representations"
#: the (continually pre-trained) causal entity LM.
CAUSAL_LM = "causal_lm"
#: IVF-style partitioned ANN index over one entity vector map.
ANN_INDEX = "ann_index"

#: every persistable substrate kind, in dependency order (embeddings feed
#: the encoder that produces the representations; ANN indexes partition the
#: vector map of whichever substrate they reference).
SUBSTRATE_KINDS = (
    COOCCURRENCE_EMBEDDINGS,
    ENTITY_REPRESENTATIONS,
    CAUSAL_LM,
    ANN_INDEX,
)

#: hex digits kept from the sha256 digests used in keys and content hashes.
_HASH_CHARS = 16


class Substrate(Protocol):  # pragma: no cover - structural typing only
    """The persistence contract a substrate object must satisfy.

    Concretely: it can serialise its fitted state into a directory and a
    module-level loader can rebuild a bitwise-identical instance from that
    directory (plus the dataset).  The provider's per-kind adapters map the
    three real substrate classes onto this shape.
    """

    def save(self, directory: "str | Path") -> None: ...


def hash_params(params: dict) -> str:
    """Deterministic short hash of a JSON-native substrate parameter dict."""
    try:
        canonical = json.dumps(params, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise SubstrateError(f"substrate params are not JSON-serialisable: {exc}") from exc
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:_HASH_CHARS]


def cooccurrence_params_from_encoder(config: EncoderConfig) -> dict:
    """The co-occurrence substrate parameters an encoder config implies.

    Mirrors exactly how the shared resource pool has always constructed
    :class:`CooccurrenceEmbeddings` (constructor defaults resolved so the
    hash is stable even if those defaults later grow new spellings).
    """
    return {
        "dim": config.embedding_dim,
        "window": 6,
        "seed": config.seed,
        "entity_dim": 3 * config.embedding_dim,
    }


def entity_representation_params(config: EncoderConfig, trained: bool) -> dict:
    """Parameters of an entity-representations substrate (encoder + arm)."""
    return {"encoder": _encoder_dict(config), "trained": bool(trained)}


def causal_lm_params(config: CausalLMConfig, further_pretrain: bool) -> dict:
    """Parameters of a causal-LM substrate (config with the ablation arm applied)."""
    return {**config.__dict__, "further_pretrain": bool(further_pretrain)}


def ann_index_params(
    source_kind: str,
    source_params: dict,
    field: str = "entity",
    dim: int | None = None,
    normalize: bool = False,
    n_lists: int | None = None,
    seed: int = 0,
) -> dict:
    """Parameters of an ANN-index substrate.

    The index content-addresses everything that shapes its layout: the
    source substrate (kind + params), which vector map of it is indexed
    (``field``: ``"entity"`` embeddings, encoder ``"hidden"`` states, or
    mask ``"distribution"`` vectors), the dimension slice and row
    normalization the consuming ranker applies, and the partition geometry.
    """
    if field not in ("entity", "hidden", "distribution"):
        raise SubstrateError(f"unknown ann index field {field!r}")
    return {
        "source": {"kind": source_kind, "params": source_params},
        "field": field,
        "dim": dim,
        "normalize": bool(normalize),
        "n_lists": n_lists,
        "seed": int(seed),
    }


def vector_map(instance: object, field: str) -> dict:
    """The ``field`` vector map of a fitted substrate: co-occurrence
    ``"entity"`` embeddings, or encoder ``"hidden"`` states or mask
    ``"distribution"`` vectors of an entity-representations substrate."""
    if field == "entity":
        return instance.entity_vectors()
    if field == "hidden":
        return instance.hidden
    if field == "distribution":
        return instance.distribution
    raise SubstrateError(f"unknown vector field {field!r}")


def _encoder_dict(config: EncoderConfig) -> dict:
    return dict(config.__dict__)


@dataclass(frozen=True)
class SubstrateKey:
    """Identity of one fitted substrate: what it is, on what data, and how."""

    kind: str
    fingerprint: str
    params_hash: str

    @property
    def content_hash(self) -> str:
        """The content address of this substrate's artifact.

        Derived from the full key, so two substrates fitted with identical
        code paths share one artifact and anything differing in kind,
        dataset, or parameters can never collide.
        """
        digest = hashlib.sha256(
            f"{self.kind}\n{self.fingerprint}\n{self.params_hash}".encode("utf-8")
        )
        return digest.hexdigest()[:_HASH_CHARS]

    def to_ref(self) -> dict:
        """The manifest reference a method artifact stores for this substrate."""
        return {
            "kind": self.kind,
            "content_hash": self.content_hash,
            "params_hash": self.params_hash,
        }


class SubstrateProvider:
    """Fits, caches, persists, and shares substrates for one dataset."""

    def __init__(
        self,
        dataset: UltraWikiDataset,
        store: "ArtifactStore | None" = None,
        fit_lock_wait_seconds: float = 600.0,
    ):
        self.dataset = dataset
        self.store = store
        self.fit_lock_wait_seconds = fit_lock_wait_seconds
        self._fingerprint: str | None = None
        self._lock = threading.Lock()
        #: SubstrateKey -> fitted substrate instance (the shared copies).
        self._cache: dict[SubstrateKey, object] = {}
        #: per-key fit locks so concurrent requests fit each substrate once.
        self._key_locks: dict[SubstrateKey, threading.Lock] = {}
        #: memory-only context encoders keyed by (encoder params hash, trained).
        self._encoders: dict[tuple[str, bool], ContextEncoder] = {}
        self.metrics = MetricsRegistry()
        self._bind_instruments(self.metrics)
        #: wall-clock seconds of the most recent fit / restore per kind.
        self._fit_seconds: dict[str, float] = {}
        self._restore_seconds: dict[str, float] = {}

    def _bind_instruments(self, metrics: MetricsRegistry) -> None:
        self._hits = metrics.counter(
            "repro_substrate_hits_total", "Substrate lookups served a resident copy."
        )
        self._misses = metrics.counter(
            "repro_substrate_misses_total", "Substrate lookups that required a fit."
        )
        self._fits = metrics.counter(
            "repro_substrate_fits_total", "Substrate fits paid by this process."
        )
        self._restores = metrics.counter(
            "repro_substrate_restores_total", "Substrates restored from artifacts."
        )
        self._publishes = metrics.counter(
            "repro_substrate_publishes_total", "Substrate artifacts published."
        )
        self._store_errors = metrics.counter(
            "repro_substrate_store_errors_total", "Store failures absorbed."
        )
        self._fit_lock = FitLockCounters(metrics, "substrate", "substrate")
        self._resident = metrics.gauge(
            "repro_substrate_resident", "Distinct substrate instances in memory."
        )
        self._ann_queries = metrics.counter(
            "repro_ann_queries_total", "Expand queries answered via a probed ANN shortlist."
        )
        self._ann_probes = metrics.counter(
            "repro_ann_probes_total", "ANN index lists probed across all queries."
        )
        self._ann_shortlist = metrics.counter(
            "repro_ann_shortlist_total",
            "Candidates exact-rescored from probed shortlists (sum of sizes).",
        )

    def attach_metrics(self, metrics: MetricsRegistry) -> None:
        """Re-home this provider's instruments onto ``metrics``.

        Called by the serving registry so substrate counters render on the
        service's ``/v1/metrics`` alongside everything else.  Values counted
        before the attach (an injected, pre-warmed provider) are replayed
        into the new registry so no traffic is lost; idempotent for the
        registry already attached.
        """
        if metrics is self.metrics:
            return
        with self._lock:
            previous = [counter.total() for counter in self._counters()]
            resident = len(self._cache)
            self.metrics = metrics
            self._bind_instruments(metrics)
            for counter, total in zip(self._counters(), previous):
                if total:
                    counter.inc(total)
            self._resident.set(resident)

    def _counters(self) -> tuple:
        return (
            self._hits,
            self._misses,
            self._fits,
            self._restores,
            self._publishes,
            self._store_errors,
            *self._fit_lock.instruments(),
            self._ann_queries,
            self._ann_probes,
            self._ann_shortlist,
        )

    # -- identity ----------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        if self._fingerprint is None:
            self._fingerprint = self.dataset.fingerprint()
        return self._fingerprint

    def key(self, kind: str, params: dict) -> SubstrateKey:
        if kind not in SUBSTRATE_KINDS:
            raise SubstrateError(
                f"unknown substrate kind {kind!r}; available: {list(SUBSTRATE_KINDS)}"
            )
        return SubstrateKey(kind, self.fingerprint, hash_params(params))

    def attach_store(self, store: "ArtifactStore") -> None:
        """Back this provider with an artifact store (no-op when it has one).

        Called by the serving registry so the substrates behind its methods
        share the registry's store without re-plumbing every constructor.
        """
        if self.store is None:
            self.store = store

    # -- cache -------------------------------------------------------------------
    def peek(self, kind: str, params: dict) -> object | None:
        """The resident substrate if already built, without fitting."""
        with self._lock:
            return self._cache.get(self.key(kind, params))

    def adopt(self, kind: str, params: dict, instance: object) -> None:
        """Seed the cache with an already-built substrate.

        A provider that already holds an instance keeps it — adopting must
        never replace state other consumers hold.
        """
        key = self.key(kind, params)
        with self._lock:
            self._cache.setdefault(key, instance)

    def resident_count(self, kind: str | None = None) -> int:
        """How many distinct substrate instances this provider holds (of
        ``kind`` only, when given)."""
        with self._lock:
            if kind is None:
                return len(self._cache)
            return sum(1 for key in self._cache if key.kind == kind)

    # -- the one entry point -----------------------------------------------------
    def get(self, kind: str, params: dict, resolver=None) -> object:
        """The fitted substrate for ``(kind, params)``, built at most once.

        Resolution order: in-memory cache, then ``resolver`` (the
        content-addressed state dirs of a method artifact currently being
        restored), then this provider's own store, then a fresh fit (under
        cross-process leader election when a store is attached).  Every path
        ends with the instance cached so all resident expanders share it.
        """
        key = self.key(kind, params)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._hits.inc()
                return cached
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        with key_lock:
            with self._lock:
                cached = self._cache.get(key)
                if cached is not None:
                    self._hits.inc()
                    return cached
            instance = self._materialize(key, kind, params, resolver)
            with self._lock:
                self._cache[key] = instance
                self._resident.set(len(self._cache))
            return instance

    # -- materialisation ---------------------------------------------------------
    def _materialize(
        self, key: SubstrateKey, kind: str, params: dict, resolver
    ) -> object:
        if resolver is not None and resolver.has(kind, key.content_hash):
            # The substrate referenced by the artifact being restored; a
            # failure here is the artifact's corruption and must propagate
            # so the caller falls back to a refit of the whole method.
            started = time.perf_counter()
            with span("substrate_restore", kind=kind, source="resolver"):
                instance = resolver.load(
                    kind, key.content_hash, lambda d: self._load_substrate(kind, d)
                )
            self._restores.inc()
            with self._lock:
                self._restore_seconds[kind] = time.perf_counter() - started
            return instance
        instance = self._try_restore_from_store(key, kind)
        if instance is not None:
            return instance
        self._misses.inc()
        lock = None
        if self.store is not None:
            lock = FitLock(self.store.root, f"substrate-{kind}", key.content_hash)
        return single_payer(
            lock,
            lambda: self._try_restore_from_store(key, kind),
            lambda: self._fit_and_publish(key, kind, params),
            self._fit_lock,
            self.fit_lock_wait_seconds,
        )

    def _try_restore_from_store(self, key: SubstrateKey, kind: str) -> object | None:
        if self.store is None:
            return None
        try:
            if not self.store.contains_substrate(kind, key.content_hash):
                return None
            started = time.perf_counter()
            with span("substrate_restore", kind=kind, source="store"):
                instance = self.store.restore_substrate(
                    kind, key.content_hash, lambda d: self._load_substrate(kind, d)
                )
        except (StoreError, OSError):
            # Corrupt substrate artifact: evict it (even though method
            # manifests may reference it — it is unusable either way) so the
            # write-through after the fallback fit publishes a good copy.
            try:
                self.store.evict_substrate(kind, key.content_hash, force=True)
            except (StoreError, OSError):
                pass
            self._store_errors.inc()
            return None
        self._restores.inc()
        with self._lock:
            self._restore_seconds[kind] = time.perf_counter() - started
        return instance

    def _fit_and_publish(self, key: SubstrateKey, kind: str, params: dict) -> object:
        started = time.perf_counter()
        with span("substrate_fit", kind=kind):
            instance = self._fit_substrate(kind, params)
        self._fits.inc()
        with self._lock:
            self._fit_seconds[kind] = time.perf_counter() - started
        if self.store is not None:
            self._publish_instance(key, kind, instance, self.store)
        return instance

    # -- publication -------------------------------------------------------------
    def publish(self, store: "ArtifactStore", kind: str, params: dict) -> dict:
        """Ensure the substrate's artifact exists in ``store``; return its ref.

        Called by :meth:`ArtifactStore.save` while persisting a method
        artifact, so every manifest reference resolves even when the
        provider itself was built without a store.  Idempotent: an existing
        artifact is referenced, never rewritten.  Raises
        :class:`~repro.exceptions.StoreError` when the substrate could not
        be made durable — a manifest must never be written with a dangling
        reference, and the caller's write-through already treats a failed
        save as "skip persistence", never as a serving failure.
        """
        key = self.key(kind, params)
        if not store.contains_substrate(kind, key.content_hash):
            self._publish_instance(key, kind, self.get(kind, params), store)
            if not store.contains_substrate(kind, key.content_hash):
                raise StoreError(
                    f"substrate {kind}/{key.content_hash} could not be "
                    "published; refusing to write a dangling manifest reference"
                )
        return key.to_ref()

    def _publish_instance(
        self, key: SubstrateKey, kind: str, instance: object, store: "ArtifactStore"
    ) -> None:
        try:
            store.save_substrate(
                kind,
                key.content_hash,
                key.fingerprint,
                key.params_hash,
                lambda d: self._save_substrate(kind, instance, d),
            )
        except (StoreError, OSError):
            # Persistence is an optimisation; a failed write must never take
            # down the fit that just produced a good substrate.
            self._store_errors.inc()
            return
        self._publishes.inc()

    # -- per-kind adapters -------------------------------------------------------
    def _fit_substrate(self, kind: str, params: dict) -> object:
        corpus = self.dataset.corpus
        entities = self.dataset.entities()
        if kind == COOCCURRENCE_EMBEDDINGS:
            return CooccurrenceEmbeddings(
                dim=int(params["dim"]),
                window=int(params["window"]),
                seed=int(params["seed"]),
                entity_dim=int(params["entity_dim"]),
            ).fit(corpus, entities)
        if kind == ENTITY_REPRESENTATIONS:
            encoder = self.context_encoder(
                EncoderConfig(**params["encoder"]), trained=bool(params["trained"])
            )
            if params["trained"]:
                return encoder.entity_representations(corpus, entities)
            return encoder.entity_representations(
                corpus, entities, with_distributions=False
            )
        if kind == CAUSAL_LM:
            return CausalEntityLM(CausalLMConfig(**params)).fit(corpus, entities)
        if kind == ANN_INDEX:
            return self._fit_ann_index(params)
        raise SubstrateError(f"unknown substrate kind {kind!r}")

    def _fit_ann_index(self, params: dict):
        """Partition the referenced substrate's vector map (resolving the
        source through :meth:`get`, so it is fitted/restored at most once)."""
        from repro.retrieval import CandidateMatrix, PartitionedIndex

        source = params["source"]
        instance = self.get(source["kind"], source["params"])
        dim = params.get("dim")
        matrix = CandidateMatrix.from_vectors(
            vector_map(instance, params["field"]),
            dim=int(dim) if dim is not None else None,
            normalize=bool(params.get("normalize", False)),
        )
        return PartitionedIndex.build(
            matrix.matrix,
            matrix.ids,
            n_lists=params.get("n_lists"),
            seed=int(params.get("seed", 0)),
        )

    @staticmethod
    def _save_substrate(kind: str, instance: object, directory: "Path") -> None:
        if kind == CAUSAL_LM:
            instance.save_state(directory)
        else:
            instance.save(directory)

    def _load_substrate(self, kind: str, directory: "Path") -> object:
        if kind == COOCCURRENCE_EMBEDDINGS:
            return CooccurrenceEmbeddings.load(directory)
        if kind == ENTITY_REPRESENTATIONS:
            return EntityRepresentations.load(directory)
        if kind == CAUSAL_LM:
            return CausalEntityLM.load_state(directory, self.dataset.entities())
        if kind == ANN_INDEX:
            from repro.retrieval import PartitionedIndex

            return PartitionedIndex.load(directory)
        raise SubstrateError(f"unknown substrate kind {kind!r}")

    def context_encoder(self, config: EncoderConfig, trained: bool = True) -> ContextEncoder:
        """The (memory-only) masked-entity encoder for ``config``.

        Built at most once per ``(config, trained)`` and never persisted: it
        exists to *produce* an entity-representations substrate, which is
        what serving actually consumes.
        """
        cache_key = (hash_params(_encoder_dict(config)), bool(trained))
        with self._lock:
            encoder = self._encoders.get(cache_key)
            if encoder is not None:
                return encoder
        pretrained = self.get(
            COOCCURRENCE_EMBEDDINGS, cooccurrence_params_from_encoder(config)
        )
        encoder = ContextEncoder(config).fit(
            self.dataset.corpus,
            self.dataset.entities(),
            pretrained=pretrained,
            train=trained,
        )
        with self._lock:
            return self._encoders.setdefault(cache_key, encoder)

    # -- telemetry ---------------------------------------------------------------
    def record_ann_query(self, probes: int, shortlist_size: int) -> None:
        """Count one probed retrieval (called from the expand hot path)."""
        self._ann_queries.inc()
        self._ann_probes.inc(probes)
        self._ann_shortlist.inc(shortlist_size)

    # -- introspection -----------------------------------------------------------
    def stats(self) -> dict:
        """The legacy stats dict (wire shape pinned), as a registry view."""
        with self._lock:
            resident = len(self._cache)
            resident_kinds = sorted({key.kind for key in self._cache})
            fit_seconds = dict(self._fit_seconds)
            restore_seconds = dict(self._restore_seconds)
        return {
            "resident": resident,
            "resident_kinds": resident_kinds,
            "hits": int(self._hits.total()),
            "misses": int(self._misses.total()),
            "fits": int(self._fits.total()),
            "restores": int(self._restores.total()),
            "publishes": int(self._publishes.total()),
            "store_errors": int(self._store_errors.total()),
            "fit_seconds": fit_seconds,
            "restore_seconds": restore_seconds,
            "fit_lock": self._fit_lock.stats(enabled=self.store is not None),
            "ann": {
                "queries": int(self._ann_queries.total()),
                "probes": int(self._ann_probes.total()),
                "shortlisted": int(self._ann_shortlist.total()),
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"SubstrateProvider(resident={self.resident_count()}, "
            f"store={'attached' if self.store is not None else 'none'})"
        )
