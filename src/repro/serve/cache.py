"""A thread-safe LRU + TTL cache for expansion results.

Repeated queries dominate realistic expansion traffic (the same seed sets
get re-issued by pollers, retries, and pagination), so the service caches
``(method, query, top_k) -> ExpansionResult`` with two independent bounds:

* **capacity** — least-recently-used entries are evicted once the cache is
  full, and
* **TTL** — entries older than ``ttl_seconds`` are treated as misses and
  dropped, so long-lived services pick up refitted models eventually.

All operations are O(1) under a single lock; hit/miss/eviction/expiry
counters live on a :class:`~repro.obs.MetricsRegistry` (a private one by
default, the owning service's when injected) and :meth:`stats` stays a
wire-compatible view over them for the ``/stats`` endpoint.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Hashable

from repro.obs import MetricsRegistry


class ResultCache:
    """Bounded LRU cache with optional per-entry time-to-live."""

    def __init__(
        self,
        capacity: int = 1024,
        ttl_seconds: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        metrics: MetricsRegistry | None = None,
    ):
        """``clock`` is injectable so tests can drive expiry deterministically."""
        self.capacity = capacity
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._lock = threading.Lock()
        #: key -> (value, insertion timestamp); order is recency (newest last).
        self._entries: OrderedDict[Hashable, tuple[Any, float]] = OrderedDict()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._hits = self.metrics.counter(
            "repro_cache_hits_total", "Result-cache lookups served from cache."
        )
        self._misses = self.metrics.counter(
            "repro_cache_misses_total", "Result-cache lookups that missed."
        )
        self._evictions = self.metrics.counter(
            "repro_cache_evictions_total",
            "Entries evicted by the LRU capacity bound.",
        )
        self._expirations = self.metrics.counter(
            "repro_cache_expirations_total", "Entries dropped past their TTL."
        )
        self._size = self.metrics.gauge(
            "repro_cache_size", "Entries currently resident in the result cache."
        )
        # hot-path handles: every lookup touches one of these.
        self._hits_series = self._hits.labels()
        self._misses_series = self._misses.labels()
        self._evictions_series = self._evictions.labels()
        self._expirations_series = self._expirations.labels()
        self._size_series = self._size.labels()

    def get(self, key: Hashable) -> Any | None:
        """The cached value, or ``None`` on a miss or an expired entry."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses_series.inc()
                return None
            value, stored_at = entry
            if self._expired(stored_at):
                del self._entries[key]
                self._size_series.set(len(self._entries))
                self._expirations_series.inc()
                self._misses_series.inc()
                return None
            self._entries.move_to_end(key)
            self._hits_series.inc()
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh ``key``; evicts the LRU entry when full."""
        if self.capacity == 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = (value, self._clock())
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions_series.inc()
            self._size_series.set(len(self._entries))

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._size.set(0)

    def _expired(self, stored_at: float) -> bool:
        return self.ttl_seconds is not None and (
            self._clock() - stored_at > self.ttl_seconds
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        """The legacy counter dict, now a view over the metrics registry."""
        with self._lock:
            size = len(self._entries)
        hits = int(self._hits.total())
        misses = int(self._misses.total())
        total = hits + misses
        return {
            "size": size,
            "capacity": self.capacity,
            "ttl_seconds": self.ttl_seconds,
            "hits": hits,
            "misses": misses,
            "hit_rate": (hits / total) if total else 0.0,
            "evictions": int(self._evictions.total()),
            "expirations": int(self._expirations.total()),
        }
