"""Slow-query log: JSON lines for expand requests over a latency threshold.

Enabled by ``ServiceConfig.slow_query_ms``; each emitted line carries the
request id, the tenant (when the front door resolved one), method, query
id, end-to-end latency, cache disposition, and the per-stage spans of the
request's trace — enough to answer "where did this slow expand spend its
time?" from the log alone.  The ``request_id`` on each line matches the
gateway's and the worker's access-log lines and the OpenMetrics exemplars
``/v1/metrics`` renders on the latency histogram buckets, so a fat p99
bucket joins straight to the span tree that caused it.

Lines go to the ``repro.obs.slowlog`` logger and nowhere else: ``repro
serve`` sends that logger to stderr, and ``repro cluster serve`` workers
inherit the cluster terminal's stderr, so where the lines land is the
operator's redirect to choose.
"""

from __future__ import annotations

import json
import logging

slow_query_logger = logging.getLogger("repro.obs.slowlog")


def log_slow_query(
    *,
    request_id: str | None,
    method: str,
    query_id: str | None,
    latency_ms: float,
    threshold_ms: float,
    cached: bool,
    tenant: str | None = None,
    spans: list[dict] | None = None,
    error: str | None = None,
) -> None:
    payload = {
        "event": "slow_query",
        "request_id": request_id,
        "method": method,
        "query_id": query_id,
        "latency_ms": round(latency_ms, 3),
        "threshold_ms": threshold_ms,
        "cached": cached,
    }
    if tenant is not None:
        payload["tenant"] = tenant
    if error is not None:
        payload["error"] = error
    if spans:
        payload["spans"] = spans
    slow_query_logger.warning(json.dumps(payload, sort_keys=True))
