"""repro.obs — unified telemetry: metrics and tracing.

This package is the one place serving-layer counters live.  Components
expose :class:`~repro.obs.metrics.MetricsRegistry` instruments instead of
hand-rolled ``self._stats = {}`` dicts (a tier-1 lint test enforces this),
and per-request stage timings ride the :mod:`~repro.obs.trace` ContextVar
(a cold fit's phases are spans too).  Per-tenant usage is registry
counters too: the service charges compute seconds, cache hits and fits to
``repro_tenant_*`` families labelled ``tenant``.

Telemetry is pull-only: no process pushes metrics or spans anywhere, and
none writes a telemetry file of its own.  Collectors scrape ``GET
/v1/metrics`` (the registry as Prometheus text, with exemplars) and read
per-tenant usage from the ``usage`` key of ``GET /v1/stats``.  A request's
spans leave the process in two places only: its reply's ``debug.timings``
(``include_timings``) and its slow-query line; access-log and slow-query
lines go to loggers, which the CLI sends to stderr.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    PROMETHEUS_CONTENT_TYPE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_bucket_lists,
    percentile_from_buckets,
)
from repro.obs.slowlog import log_slow_query, slow_query_logger
from repro.obs.trace import (
    Trace,
    activate,
    current_request_id,
    current_tenant,
    current_trace,
    request_scope,
    span,
    tenant_scope,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_MS",
    "PROMETHEUS_CONTENT_TYPE",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Trace",
    "activate",
    "current_request_id",
    "current_tenant",
    "current_trace",
    "log_slow_query",
    "merge_bucket_lists",
    "percentile_from_buckets",
    "request_scope",
    "slow_query_logger",
    "span",
    "tenant_scope",
]
