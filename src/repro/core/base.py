"""The common expander interface.

Every method — the paper's RetExpan and GenExpan, the prior baselines, and
the GPT-4 oracle — implements :class:`Expander`: ``fit`` binds the method to
a dataset (training whatever models it needs) and ``expand`` maps a query to
a ranked list of candidate entity ids that never contains the seed entities.

Fitted state is also *persistable*: methods that set
``supports_persistence`` implement ``_save_state`` / ``_load_state`` so the
artifact store (:mod:`repro.store`) can write a fit to disk once and restore
it on later restarts or in sibling worker processes without re-training.

Methods built on shared substrates (:mod:`repro.substrate`) additionally
declare them via :meth:`Expander.substrate_dependencies`; their artifacts
then *reference* the content-addressed substrate artifacts instead of
embedding a private copy, and ``_load_state`` resolves the substrates
through the shared provider (store-restored, never refitted, when the
artifact being restored references them).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from pathlib import Path

from repro.dataset.ultrawiki import UltraWikiDataset
from repro.exceptions import ExpansionError, PersistenceError
from repro.obs import span
from repro.types import ExpansionResult, Query


class Expander(ABC):
    """Abstract base class of all entity-set-expansion methods."""

    #: human-readable method name used in reports and benchmarks.
    name: str = "expander"

    #: True when the subclass implements ``_save_state`` / ``_load_state``.
    supports_persistence: bool = False

    #: bumped by a subclass whenever its on-disk state layout changes; the
    #: artifact store refuses to restore state written under another version.
    state_version: int = 1

    def __init__(self):
        self._dataset: UltraWikiDataset | None = None
        #: substrate resolver of the artifact currently being restored (set
        #: by ``load_state`` for the duration of ``_load_state`` only).
        self._inline_substrates = None

    # -- lifecycle --------------------------------------------------------------
    def fit(self, dataset: UltraWikiDataset) -> "Expander":
        """Bind the expander to ``dataset`` and train its underlying models."""
        self._dataset = dataset
        self._fit(dataset)
        return self

    def _fit(self, dataset: UltraWikiDataset) -> None:
        """Hook for subclasses; the default needs no training."""

    @property
    def dataset(self) -> UltraWikiDataset:
        if self._dataset is None:
            raise ExpansionError(f"{self.name} has not been fitted to a dataset")
        return self._dataset

    @property
    def is_fitted(self) -> bool:
        return self._dataset is not None

    # -- persistence -------------------------------------------------------------
    def save_state(self, directory: str | Path) -> None:
        """Write this expander's fitted state under ``directory``.

        The layout is owned by the subclass (``_save_state``); callers such
        as the artifact store only require that ``load_state`` on a freshly
        constructed, identically configured instance reproduces the fit.
        """
        if not self.supports_persistence:
            raise PersistenceError(f"{type(self).__name__} does not support persistence")
        if not self.is_fitted:
            raise PersistenceError(f"{self.name} is not fitted; nothing to save")
        self._save_state(Path(directory))

    def load_state(
        self,
        directory: str | Path,
        dataset: UltraWikiDataset,
        substrates=None,
    ) -> "Expander":
        """Restore fitted state from ``directory`` and bind to ``dataset``.

        The dataset must be the one the state was fitted on (the artifact
        store guarantees this by keying artifacts on the dataset
        fingerprint); the expander ends up indistinguishable from one whose
        ``fit`` ran in-process.  ``substrates`` (passed by the artifact
        store) resolves the substrate references of the artifact being
        restored; ``_load_state`` reaches it through
        :meth:`_resolve_substrate`.
        """
        if not self.supports_persistence:
            raise PersistenceError(f"{type(self).__name__} does not support persistence")
        self._inline_substrates = substrates
        try:
            self._load_state(Path(directory), dataset)
        finally:
            self._inline_substrates = None
        self._dataset = dataset
        return self

    def _save_state(self, directory: Path) -> None:
        """Hook for subclasses; only called when ``supports_persistence``."""
        raise NotImplementedError

    def _load_state(self, directory: Path, dataset: UltraWikiDataset) -> None:
        """Hook for subclasses; only called when ``supports_persistence``."""
        raise NotImplementedError

    # -- substrates --------------------------------------------------------------
    def substrate_dependencies(self) -> list[tuple[str, dict]]:
        """The shared substrates this method's fit stands on.

        Returns ``(kind, params)`` pairs the
        :class:`~repro.substrate.SubstrateProvider` resolves; the default is
        none.  Methods overriding this get substrate-aware persistence (the
        artifact references the substrate instead of embedding it), and a
        traced cold fit shows the substrate fits (``fit_substrates``) apart
        from the method's own training (``train``).
        """
        return []

    def _substrate_provider(self):
        """The shared provider behind this expander's resource pool, if any."""
        resources = getattr(self, "_resources", None)
        return None if resources is None else resources.provider

    def _resolve_substrate(self, kind: str, params: dict):
        """Fetch one substrate during ``_load_state`` / serving.

        Prefers the content-addressed state shipped with the artifact being
        restored (never refits), then the provider's memory cache, store,
        or — as a last resort — a fresh fit.  While restoring, the key this
        configuration computes **must** match a manifest reference: the
        method-private state was trained against exactly that substrate, so
        a mismatch (e.g. the server restarted under a different encoder
        config) is a version-style refusal, never a silent refit that would
        bind old method state to a different substrate.
        """
        provider = self._substrate_provider()
        if provider is None:
            raise PersistenceError(
                f"{type(self).__name__} has no resource pool to resolve "
                f"substrate {kind!r} from"
            )
        resolver = self._inline_substrates
        if resolver is not None:
            key = provider.key(kind, params)
            if not resolver.has(kind, key.content_hash):
                raise PersistenceError(
                    f"saved {type(self).__name__} state references a "
                    f"{kind} substrate fitted under different parameters "
                    "than this configuration; refit instead of restoring"
                )
        return provider.get(kind, params, resolver=resolver)

    def publish_substrates(self, store) -> list[dict]:
        """Publish this fit's substrate artifacts into ``store`` (idempotent)
        and return the manifest references; called by ``ArtifactStore.save``."""
        provider = self._substrate_provider()
        if provider is None:
            return []
        return [
            provider.publish(store, kind, params)
            for kind, params in self.substrate_dependencies()
        ]

    # -- expansion ---------------------------------------------------------------
    def expand(self, query: Query, top_k: int = 100) -> ExpansionResult:
        """Expand ``query`` into a ranked list of at most ``top_k`` entities."""
        if top_k <= 0:
            raise ExpansionError("top_k must be positive")
        dataset = self.dataset
        if query.class_id not in dataset.ultra_classes:
            raise ExpansionError(
                f"query {query.query_id!r} references unknown class {query.class_id!r}"
            )
        with span("expand", method=self.name, query=query.query_id):
            result = self._expand(query, top_k)
        seeds = query.seed_ids()
        filtered = [item for item in result.ranking if item.entity_id not in seeds]
        return ExpansionResult(query_id=result.query_id, ranking=tuple(filtered[:top_k]))

    @abstractmethod
    def _expand(self, query: Query, top_k: int) -> ExpansionResult:
        """Produce the raw ranking (seed filtering is applied by ``expand``)."""

    # -- helpers -------------------------------------------------------------------
    def candidate_ids(self, query: Query) -> list[int]:
        """All candidate entity ids excluding the query's seeds."""
        seeds = query.seed_ids()
        return [eid for eid in self.dataset.entity_ids() if eid not in seeds]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}(name={self.name!r}, fitted={self.is_fitted})"
