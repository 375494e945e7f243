"""Billing-grade per-tenant usage metering.

:class:`UsageMeter` turns the execute measurements the serving path already
takes into per-tenant **compute-seconds** — the raw material for billing,
where request counts (the gate's view) are not enough because one tenant's
requests may be 100x more expensive than another's:

* an uncached expand is billed its execute wall-time (also when the
  expander raises: the compute was spent);
* cache hits are billed at cache cost — the time the lookup itself took —
  not at the cost of the execute they avoided;
* a ``POST /v1/fits`` is billed to the tenant that sent it, for the fit's
  full wall-time (also when the fit raises).

Totals live in memory only (bounded: tenants beyond ``max_tenants``
aggregate under :data:`OVERFLOW_TENANT`, mirroring the metrics registry's
per-family series cap) and are read from the ``usage`` key of
``/v1/stats``; :func:`fleet_usage` sums a gateway's workers into one table.
"""

from __future__ import annotations

import threading
from typing import Mapping

#: unkeyed traffic is attributed here (matches the gate's anonymous tenant).
ANONYMOUS_TENANT = "anonymous"
#: tenants beyond the cardinality cap aggregate under this bucket.
OVERFLOW_TENANT = "__overflow__"
#: default cap on distinct tenants tracked in memory (the metrics
#: registry's per-family series cap, same rationale).
MAX_TENANTS = 64

_ZERO = {
    "requests": 0,
    "cache_hits": 0,
    "fits": 0,
    "compute_seconds": 0.0,
    "fit_seconds": 0.0,
}


class UsageMeter:
    """Accumulates per-tenant compute-seconds in memory."""

    def __init__(self, max_tenants: int = MAX_TENANTS):
        self.max_tenants = max(1, int(max_tenants))
        self._lock = threading.Lock()
        self._totals: dict[str, dict] = {}
        self._dropped = 0

    # -- charging --------------------------------------------------------------------
    def charge_expand(
        self,
        tenant: str | None,
        compute_seconds: float,
        method: str | None = None,
        cached: bool = False,
    ) -> None:
        """Bill one expand request: its execute wall-time, or the
        cache-lookup cost for a hit."""
        del method  # attributed per tenant, not per method (keeps cardinality flat)
        with self._lock:
            bucket = self._bucket_locked(tenant)
            bucket["requests"] += 1
            if cached:
                bucket["cache_hits"] += 1
            bucket["compute_seconds"] += compute_seconds

    def charge_fit(
        self, tenant: str | None, compute_seconds: float, method: str | None = None
    ) -> None:
        """Bill a fit's wall-time to the tenant that requested it."""
        del method
        with self._lock:
            bucket = self._bucket_locked(tenant)
            bucket["fits"] += 1
            bucket["fit_seconds"] += compute_seconds
            bucket["compute_seconds"] += compute_seconds

    def _bucket_locked(self, tenant: str | None) -> dict:
        """The running total one charge lands in."""
        name = tenant if tenant else ANONYMOUS_TENANT
        totals = self._totals
        bucket = totals.get(name)
        if bucket is None:
            if len(totals) >= self.max_tenants:
                # Same discipline as MetricsRegistry's series cap: never grow
                # unboundedly off a hostile keyfile; aggregate and count.
                name = OVERFLOW_TENANT
                self._dropped += 1
                bucket = totals.get(name)
            if bucket is None:
                bucket = totals[name] = dict(_ZERO)
        return bucket

    # -- reporting -------------------------------------------------------------------
    def summary(self) -> dict:
        with self._lock:
            tenants = {
                tenant: {
                    **bucket,
                    "compute_seconds": round(bucket["compute_seconds"], 6),
                    "fit_seconds": round(bucket["fit_seconds"], 6),
                }
                for tenant, bucket in sorted(self._totals.items())
            }
            return {
                "tenants": tenants,
                "tracked": len(tenants),
                "max_tenants": self.max_tenants,
                "dropped": self._dropped,
            }

    def stats(self) -> dict:
        return self.summary()


def fleet_usage(stats: Mapping) -> dict | None:
    """Per-tenant usage across a gateway's fleet ``/v1/stats``: each
    worker's ``usage.tenants`` plus ``gateway.usage`` (the hits the gateway
    result cache answered), summed per tenant.  ``None`` when neither the
    gateway nor any worker meters usage."""
    summaries = [
        worker.get("usage") for worker in (stats.get("workers") or {}).values()
    ]
    summaries.append((stats.get("gateway") or {}).get("usage"))
    summaries = [summary for summary in summaries if isinstance(summary, dict)]
    if not summaries:
        return None
    totals: dict[str, dict] = {}
    for summary in summaries:
        for tenant, bucket in (summary.get("tenants") or {}).items():
            if not isinstance(bucket, Mapping):
                continue
            total = totals.setdefault(str(tenant), dict(_ZERO))
            for key in _ZERO:
                value = bucket.get(key, 0)
                if isinstance(value, (int, float)):
                    total[key] += value
    for total in totals.values():
        total["compute_seconds"] = round(total["compute_seconds"], 6)
        total["fit_seconds"] = round(total["fit_seconds"], 6)
    return {"tenants": {tenant: totals[tenant] for tenant in sorted(totals)}}
