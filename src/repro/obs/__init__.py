"""repro.obs — unified telemetry: metrics and tracing.

This package is the one place serving-layer counters live.  Components
expose :class:`~repro.obs.metrics.MetricsRegistry` instruments instead of
hand-rolled ``self._stats = {}`` dicts (a tier-1 lint test enforces this),
per-request stage timings ride the :mod:`~repro.obs.trace` ContextVar, and
completed traces land in a searchable :class:`~repro.obs.traces.TraceCollector`
ring (a cold fit's phases are spans too).  Per-tenant usage is registry
counters too: the service charges compute seconds, cache hits and fits to
``repro_tenant_*`` families labelled ``tenant``.

Telemetry is pull-only: no process pushes metrics or spans anywhere, and
none writes a telemetry file of its own.  Collectors scrape ``GET
/v1/metrics`` (the registry as Prometheus text, with exemplars), read kept
traces from ``GET /v1/traces`` and per-tenant usage from the ``usage`` key
of ``GET /v1/stats``; access-log and slow-query lines go to loggers, which
the CLI sends to stderr.
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
    TRACE_ID_HEADER,
    TRACE_SPANS_HEADER,
    TRACEPARENT_HEADER,
    Trace,
    TraceContext,
    activate,
    current_context,
    current_request_id,
    current_tenant,
    current_trace,
    format_traceparent,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    propagation_scope,
    recorded_activations,
    request_scope,
    span,
    tenant_scope,
)
from repro.obs.traces import TraceCollector, trace_collector_for

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_MS",
    "PROMETHEUS_CONTENT_TYPE",
    "TRACEPARENT_HEADER",
    "TRACE_ID_HEADER",
    "TRACE_SPANS_HEADER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Trace",
    "TraceCollector",
    "TraceContext",
    "activate",
    "current_context",
    "current_request_id",
    "current_tenant",
    "current_trace",
    "format_traceparent",
    "log_slow_query",
    "merge_bucket_lists",
    "new_span_id",
    "new_trace_id",
    "parse_traceparent",
    "percentile_from_buckets",
    "propagation_scope",
    "recorded_activations",
    "request_scope",
    "slow_query_logger",
    "span",
    "tenant_scope",
    "trace_collector_for",
]
