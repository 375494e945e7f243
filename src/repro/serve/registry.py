"""Fitted expanders for the serving layer, each fitted once per worker.

``Expander.fit`` is by far the most expensive step of every method (training
the context encoder, continued pre-training of the causal LM, ...), so an
online service must amortise it: the :class:`ExpanderRegistry` fits each
named method **once** and hands the same fitted instance to every request
for the life of the process.

A registry serves the one dataset it was built with, so its map is keyed by
method name alone; a worker that needs another dataset is a new process.
Fitting is guarded by a per-method lock: when N requests race for an
unfitted method, one fits while the other N-1 block, and nobody fits twice.
Nothing is evicted: a worker serves a handful of methods (seven by
default), and an evicted one would only be fitted again on its next
request.

With an :class:`~repro.store.ArtifactStore` attached, fits also become
durable: a registry miss first tries to *restore* the fitted state from disk
(written by an earlier process, a prefit run, or a sibling worker), and a
fresh fit is written through to the store so the next restart skips it.
Corrupt or version-mismatched artifacts are evicted and refitted — the store
can only ever make a fit cheaper, never wrong.

Resident expanders also share one :class:`~repro.substrate.SubstrateProvider`
(through the registry's :class:`SharedResources` pool): the co-occurrence
embeddings, entity representations, and causal LM behind the methods exist
**once** in memory per dataset regardless of how many methods are resident,
and substrate fits restore from (and write through to) the registry's store
as content-addressed artifacts.  Substrate hit/miss/fit counters surface
under ``stats()["substrates"]`` (and ``/v1/stats``).

Across *processes*, the store also carries a :class:`~repro.store.FitLock`
whenever one is attached: a cold fit runs through
:func:`~repro.store.fitlock.single_payer`, the same election the substrate
provider uses, so N workers sharing a store pay each fit exactly once — the
leader re-checks the store, then trains and publishes; the waiters restore
the published artifact.  A stuck or dead leader goes stale and waiters fall
back to fitting locally; the lock can delay a fit, never block serving.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Callable, Mapping

from repro.baselines import CGExpan, CaSE, GPT4Expander, ProbExpan, SetExpan
from repro.core.base import Expander
from repro.core.resources import SharedResources
from repro.dataset.ultrawiki import UltraWikiDataset
from repro.exceptions import (
    ArtifactNotFoundError,
    ArtifactVersionError,
    StoreError,
    UnknownMethodError,
)
from repro.genexpan import GenExpan
from repro.obs import MetricsRegistry, span
from repro.retexpan import RetExpan
from repro.store.fitlock import FitLock, FitLockCounters, single_payer
from repro.substrate import SubstrateProvider

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store import ArtifactStore

#: canonical method name -> factory over the shared substrates.
ExpanderFactory = Callable[[SharedResources], Expander]

DEFAULT_FACTORIES: dict[str, ExpanderFactory] = {
    "retexpan": lambda res: RetExpan(resources=res),
    "genexpan": lambda res: GenExpan(resources=res),
    "setexpan": lambda res: SetExpan(),
    "case": lambda res: CaSE(resources=res),
    "cgexpan": lambda res: CGExpan(resources=res),
    "probexpan": lambda res: ProbExpan(resources=res),
    "gpt4": lambda res: GPT4Expander(resources=res),
}


class ExpanderRegistry:
    """Fits each named expander once against one dataset and keeps it."""

    def __init__(
        self,
        dataset: UltraWikiDataset,
        resources: SharedResources | None = None,
        factories: Mapping[str, ExpanderFactory] | None = None,
        store: "ArtifactStore | None" = None,
        fit_lock_wait_seconds: float = 600.0,
        metrics: MetricsRegistry | None = None,
    ):
        """With a ``store``, every cold fit first elects a cross-process
        leader (a lock file in the store directory), so sibling workers
        sharing the store pay each fit once."""
        self.dataset = dataset
        # The pool's substrate provider shares the registry's store and its
        # fit-lock wait budget, so substrate fits restore from (and write
        # through to) the same content-addressed artifacts the method
        # manifests reference, and wait for a sibling's substrate fit no
        # longer than for its method fit.  An injected pool that already
        # has its own store keeps it, and keeps its own budget.
        if resources is None:
            resources = SharedResources(
                dataset,
                provider=SubstrateProvider(
                    dataset, store=store, fit_lock_wait_seconds=fit_lock_wait_seconds
                ),
            )
        elif store is not None:
            resources.provider.attach_store(store)
        self.resources = resources
        self.store = store
        self.fit_lock_wait_seconds = fit_lock_wait_seconds
        self._factories = dict(
            DEFAULT_FACTORIES if factories is None else factories
        )
        self._fingerprint = dataset.fingerprint()
        self._lock = threading.Lock()
        #: method -> its fitted expander, kept for the life of the registry.
        self._entries: dict[str, Expander] = {}
        self._fit_locks: dict[str, threading.Lock] = {}
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._fits = self.metrics.counter(
            "repro_registry_fits_total", "Expander fits paid by this process."
        )
        self._hits = self.metrics.counter(
            "repro_registry_hits_total", "Registry lookups served a resident expander."
        )
        #: artifact-store traffic counters (all zero when no store is attached).
        self._restore_hits = self.metrics.counter(
            "repro_registry_restore_hits_total", "Expander restores from the store."
        )
        self._restore_misses = self.metrics.counter(
            "repro_registry_restore_misses_total", "Store restores that missed."
        )
        self._write_throughs = self.metrics.counter(
            "repro_registry_write_throughs_total", "Fits written through to the store."
        )
        self._store_errors = self.metrics.counter(
            "repro_registry_store_errors_total", "Store failures absorbed while serving."
        )
        self._fit_lock = FitLockCounters(self.metrics, "registry", "artifact")
        # Substrate counters join the same registry so /v1/metrics exposes
        # the full picture; an injected provider replays its prior values.
        self.resources.provider.attach_metrics(self.metrics)
        #: wall-clock seconds of the most recent fit / restore per method.
        self._fit_seconds: dict[str, float] = {}
        self._restore_seconds: dict[str, float] = {}
        #: cached persistence metadata per method (from a throwaway instance).
        self._descriptions: dict[str, dict] = {}

    # -- lookup ------------------------------------------------------------------
    def methods(self) -> list[str]:
        """The method names this registry can serve."""
        return sorted(self._factories)

    def is_fitted(self, method: str) -> bool:
        with self._lock:
            return self._key(method) in self._entries

    def peek(self, method: str) -> Expander | None:
        """The fitted expander if present, without fitting it."""
        with self._lock:
            return self._entries.get(self._key(method))

    @staticmethod
    def _key(method: str) -> str:
        return method.strip().lower()

    def ensure_known(self, method: str) -> None:
        """Raise :class:`UnknownMethodError` unless ``method`` is servable."""
        if self._key(method) not in self._factories:
            raise UnknownMethodError(
                f"unknown method {method!r}; available: {self.methods()}"
            )

    def describe(self, method: str) -> dict:
        """Static persistence metadata of a method, without fitting it.

        Built once per method from a throwaway (unfitted) factory instance —
        construction is cheap for every registered expander; only ``fit``
        trains models — and cached for subsequent ``/v1/methods`` calls.
        """
        self.ensure_known(method)
        name = self._key(method)
        with self._lock:
            cached = self._descriptions.get(name)
            if cached is not None:
                return dict(cached)
        prototype = self._factories[name](self.resources)
        description = {
            "supports_persistence": bool(prototype.supports_persistence),
            "state_version": int(prototype.state_version),
        }
        with self._lock:
            self._descriptions[name] = description
            return dict(description)

    def artifact_available(self, method: str) -> bool | None:
        """Whether the store holds an artifact for ``method`` on the current
        dataset fingerprint; ``None`` when no store is attached."""
        if self.store is None:
            return None
        name = self._key(method)
        try:
            return self.store.contains(name, self._fingerprint)
        except (StoreError, OSError):
            return False

    def get(self, method: str) -> Expander:
        """The fitted expander for ``method``, fitting it on first use."""
        return self._resident(method)[0]

    def fit(self, method: str) -> str:
        """Make ``method`` resident exactly as an expand's :meth:`get`
        does and say how this call got it: ``already_fitted`` (resident, or
        made so by a concurrent caller this one waited for), ``restored``
        (from the store) or ``fitted`` (trained and published).  ``repro
        fit`` and ``POST /v1/fits`` both report this outcome."""
        return self._resident(method)[1]

    def _resident(self, method: str) -> tuple[Expander, str]:
        """The expander for ``method`` and the :meth:`fit` outcome of
        getting it."""
        self.ensure_known(method)
        name = self._key(method)
        with self._lock:
            expander = self._entries.get(name)
            if expander is not None:
                self._hits.inc()
                return expander, "already_fitted"
            fit_lock = self._fit_locks.setdefault(name, threading.Lock())
        # Fit outside the registry lock so other methods stay servable, but
        # under the per-method lock so concurrent requests fit at most once.
        with fit_lock:
            with self._lock:
                expander = self._entries.get(name)
                if expander is not None:
                    self._hits.inc()
                    return expander, "already_fitted"
            expander, outcome = self._materialize(name)
            with self._lock:
                self._entries[name] = expander
            return expander, outcome

    def _materialize(self, name: str) -> tuple[Expander, str]:
        """Produce a fitted expander: restore from the store when possible,
        otherwise fit — with a cross-process fit lock electing one leader per
        ``(method, fingerprint)`` so a fleet sharing the store trains once."""
        expander = self._factories[name](self.resources)
        with span("store_restore", method=name):
            if self._try_restore(name, expander):
                return expander, "restored"
        lock = None
        if self.store is not None and expander.supports_persistence:
            lock = FitLock(self.store.root, name, self._fingerprint)

        def restore_published() -> tuple[Expander, str] | None:
            # A manifest-existence probe gates the checksum-verified restore,
            # so the plain cold-fit path stays a single restore miss.
            if self.artifact_available(name) and self._try_restore(name, expander):
                return expander, "restored"
            return None

        return single_payer(
            lock,
            restore_published,
            lambda: self._fit_and_publish(name, expander),
            self._fit_lock,
            self.fit_lock_wait_seconds,
        )

    def _fit_and_publish(self, name: str, expander: Expander) -> tuple[Expander, str]:
        # Resolve the declared substrates first: a warm provider (another
        # resident method, or a persisted substrate artifact) makes the
        # training span below method-only work, and a trace shows the two
        # apart.
        dependencies = expander.substrate_dependencies()
        if dependencies:
            provider = self.resources.provider
            with span("fit_substrates", method=name):
                for kind, params in dependencies:
                    provider.get(kind, params)
        started = time.perf_counter()
        with span("train", method=name):
            expander.fit(self.dataset)
        elapsed = time.perf_counter() - started
        self._fits.inc()
        with self._lock:
            self._fit_seconds[name] = elapsed
        with span("publish", method=name):
            self._write_through(name, expander)
        return expander, "fitted"

    def _try_restore(self, name: str, expander: Expander) -> bool:
        """Restore ``expander`` from the artifact store; False means refit.

        A corrupt or version-mismatched artifact is evicted so the
        write-through after the fallback fit replaces it with a good one.
        """
        if self.store is None or not expander.supports_persistence:
            return False
        started = time.perf_counter()
        try:
            self.store.restore(name, self._fingerprint, expander, self.dataset)
        except ArtifactNotFoundError:
            self._restore_misses.inc()
            return False
        except ArtifactVersionError:
            # Another (older or newer) build wrote this artifact.  Treat it
            # as a miss but leave it in place: evicting would let
            # mixed-version workers sharing one store destroy each other's
            # artifacts back and forth.  The write-through after the refit
            # re-publishes this build's version.
            self._restore_misses.inc()
            self._store_errors.inc()
            return False
        except (StoreError, OSError):
            # Corrupt state (or a raw filesystem race): evict so the
            # write-through after the fallback fit publishes a good artifact.
            try:
                self.store.evict(name, self._fingerprint)
            except (StoreError, OSError):
                # A read-only store must not take down serving; refit anyway.
                pass
            self._restore_misses.inc()
            self._store_errors.inc()
            return False
        elapsed = time.perf_counter() - started
        self._restore_hits.inc()
        with self._lock:
            self._restore_seconds[name] = elapsed
        return True

    def _write_through(self, name: str, expander: Expander) -> None:
        if self.store is None or not expander.supports_persistence:
            return
        try:
            self.store.save(name, self._fingerprint, expander)
        except (StoreError, OSError):
            # Persistence is an optimisation; a failed write must never take
            # down the serving path that just produced a good fit.
            self._store_errors.inc()
            return
        self._write_throughs.inc()

    def stats(self) -> dict:
        """The registry's ``/v1/stats`` section, a view over its counters."""
        with self._lock:
            fitted = sorted(self._entries)
            fit_seconds = dict(self._fit_seconds)
            restore_seconds = dict(self._restore_seconds)
        return {
            "fitted": fitted,
            "dataset_fingerprint": self._fingerprint,
            "fits": int(self._fits.total()),
            "hits": int(self._hits.total()),
            "fit_seconds": fit_seconds,
            "restore_seconds": restore_seconds,
            "store": {
                "enabled": self.store is not None,
                "restore_hits": int(self._restore_hits.total()),
                "restore_misses": int(self._restore_misses.total()),
                "write_throughs": int(self._write_throughs.total()),
                "errors": int(self._store_errors.total()),
            },
            "fit_lock": self._fit_lock.stats(enabled=self.store is not None),
            "substrates": self.resources.provider.stats(),
        }
