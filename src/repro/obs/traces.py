"""A searchable in-memory store of completed traces.

:class:`TraceCollector` is the worker- and gateway-side backing store for
``GET /v1/traces``: a bounded ring buffer of finished request traces with
**head sampling** (a coin flip per request against ``sample_rate``, taken
before the trace is built so a rate of 0.0 keeps the hot path trace-free,
and once per request across both tiers)
plus **always-keep** rules — a trace that exists anyway (slow-query
tracing, ``include_timings``) is retained when the request ran slower than
the slow threshold or errored, regardless of the sampling verdict.

The ring is deliberately small (default 256 traces): this is a flight
recorder for debugging tail latency, not a durable span warehouse.  A
collector that wants off-box retention polls ``GET /v1/traces``.

Thread safety: ``offer`` and the query surface take one lock; records are
plain dicts snapshot at offer time, so readers never see a trace mutate.
"""

from __future__ import annotations

import random
import threading
import time
from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.obs.trace import _PROPAGATION, Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import ServiceConfig

#: bound on one query() response, whatever ``limit`` the caller asked for.
MAX_QUERY_LIMIT = 200


class TraceCollector:
    """Bounded ring buffer of completed traces with head sampling."""

    def __init__(
        self,
        capacity: int = 256,
        sample_rate: float = 0.0,
        slow_ms: float | None = None,
        rng: random.Random | None = None,
    ):
        self.capacity = max(1, int(capacity))
        self.sample_rate = min(1.0, max(0.0, float(sample_rate)))
        self.slow_ms = slow_ms
        self._rng = rng if rng is not None else random.Random()
        self._lock = threading.Lock()
        #: trace_id -> record, insertion-ordered (oldest first) so eviction
        #: pops from the left; doubles as the O(1) id index.
        self._records: OrderedDict[str, dict] = OrderedDict()
        self._sampled = 0
        self._kept = 0
        self._evicted = 0
        self._discarded = 0

    # -- head sampling ---------------------------------------------------------------
    def sample(self) -> bool:
        """One head-sampling coin flip.  Deterministic under a seeded RNG:
        the k-th call returns the same verdict for the same seed and rate.

        A request whose hop arrived with an unsampled ``traceparent`` (a
        bound :class:`~repro.obs.trace.propagation_scope`) flips no coin:
        the upstream tier took this request's one flip.  The check reads
        the ContextVar directly, so it adds no Python call."""
        if self.sample_rate <= 0.0 or _PROPAGATION.get() is not None:
            return False
        if self.sample_rate >= 1.0:
            with self._lock:
                self._sampled += 1
            return True
        with self._lock:
            verdict = self._rng.random() < self.sample_rate
            if verdict:
                self._sampled += 1
        return verdict

    # -- ingestion -------------------------------------------------------------------
    def offer(
        self,
        trace: Trace,
        duration_ms: float,
        method: str | None = None,
        tenant: str | None = None,
        error: str | None = None,
        sampled: bool = False,
    ) -> bool:
        """Offer a finished trace; keep it when head sampling selected it or
        an always-keep rule (slow, errored) applies.  Returns whether the
        trace was stored."""
        reason = None
        if sampled:
            reason = "sampled"
        elif error is not None:
            reason = "error"
        elif self.slow_ms is not None and duration_ms >= self.slow_ms:
            reason = "slow"
        if reason is None:
            with self._lock:
                self._discarded += 1
            return False
        record = {
            "trace_id": trace.trace_id,
            "request_id": trace.request_id,
            "tenant": tenant,
            "method": method,
            "duration_ms": round(duration_ms, 3),
            "error": error,
            "kept": reason,
            "unix_ms": int(time.time() * 1000),
            "spans": trace.to_span_dicts(),
        }
        with self._lock:
            self._kept += 1
            # A re-offered id (gateway graft after a worker stored the same
            # trace id) replaces the older record in place.
            self._records.pop(record["trace_id"], None)
            self._records[record["trace_id"]] = record
            while len(self._records) > self.capacity:
                self._records.popitem(last=False)
                self._evicted += 1
        return True

    # -- query surface ---------------------------------------------------------------
    def get(self, trace_id: str) -> dict | None:
        with self._lock:
            record = self._records.get(trace_id)
            return dict(record) if record is not None else None

    def query(
        self,
        tenant: str | None = None,
        method: str | None = None,
        min_duration_ms: float | None = None,
        error: bool | None = None,
        limit: int = 50,
    ) -> list[dict]:
        """Newest-first matching trace summaries (spans elided — fetch the
        full tree via :meth:`get` / ``GET /v1/traces/<trace_id>``)."""
        limit = max(1, min(int(limit), MAX_QUERY_LIMIT))
        with self._lock:
            records = list(self._records.values())
        matched: list[dict] = []
        for record in reversed(records):
            if tenant is not None and record["tenant"] != tenant:
                continue
            if method is not None and record["method"] != method:
                continue
            if (
                min_duration_ms is not None
                and record["duration_ms"] < min_duration_ms
            ):
                continue
            if error is not None and (record["error"] is not None) != error:
                continue
            summary = {
                key: value for key, value in record.items() if key != "spans"
            }
            summary["span_count"] = len(record["spans"])
            matched.append(summary)
            if len(matched) >= limit:
                break
        return matched

    def stats(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "sample_rate": self.sample_rate,
                "stored": len(self._records),
                "kept": self._kept,
                "sampled": self._sampled,
                "discarded": self._discarded,
                "evicted": self._evicted,
            }


def trace_collector_for(config: ServiceConfig) -> TraceCollector | None:
    """The collector a worker's (or, from its embedded worker config, a
    gateway's) ``trace_*`` fields and ``slow_query_ms`` describe.

    ``None`` when ``trace_sample_rate`` is ``None``: tracing is off.  A rate
    of 0.0 installs the collector with head sampling off, so it keeps only
    slow and errored traces."""
    if config.trace_sample_rate is None:
        return None
    return TraceCollector(
        capacity=config.trace_buffer_size,
        sample_rate=config.trace_sample_rate,
        slow_ms=config.slow_query_ms,
        rng=(
            random.Random(config.trace_sample_seed)
            if config.trace_sample_seed is not None
            else None
        ),
    )
