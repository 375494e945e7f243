"""A thread-safe LRU cache for expansion results.

Repeated queries dominate realistic expansion traffic (the same seed sets
get re-issued by pollers, retries, and pagination), so the service caches
``(method, query, top_k) -> ExpansionResult``.  Least-recently-used entries
are evicted once the cache holds ``capacity`` of them.  Nothing else
expires an entry: a worker fits each method once and keeps it, so a cached
ranking stays the ranking that method gives for as long as the worker runs.

All operations are O(1) under a single lock; hit/miss/eviction counters
live on a :class:`~repro.obs.MetricsRegistry` (a private one by default, the
owning service's when injected) and :meth:`stats` is the cache's
``/v1/stats`` section, a view over them.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable

from repro.obs import MetricsRegistry


class ResultCache:
    """Bounded LRU cache of expansion results."""

    def __init__(self, capacity: int = 1024, metrics: MetricsRegistry | None = None):
        self.capacity = capacity
        self._lock = threading.Lock()
        #: key -> value; order is recency (newest last).
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
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
        self._size = self.metrics.gauge(
            "repro_cache_size", "Entries currently resident in the result cache."
        )
        # hot-path handles: every lookup touches one of these.
        self._hits_series = self._hits.labels()
        self._misses_series = self._misses.labels()
        self._evictions_series = self._evictions.labels()
        self._size_series = self._size.labels()

    def get(self, key: Hashable) -> Any | None:
        """The cached value, or ``None`` on a miss."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
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
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions_series.inc()
            self._size_series.set(len(self._entries))

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._size.set(0)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        """The cache's ``/v1/stats`` section, a view over its counters."""
        with self._lock:
            size = len(self._entries)
        hits = int(self._hits.total())
        misses = int(self._misses.total())
        total = hits + misses
        return {
            "size": size,
            "capacity": self.capacity,
            "hits": hits,
            "misses": misses,
            "hit_rate": (hits / total) if total else 0.0,
            "evictions": int(self._evictions.total()),
        }
