"""Billing-grade per-tenant usage metering.

:class:`UsageMeter` turns the execute measurements the serving path already
takes into per-tenant **compute-seconds** — the raw material for billing,
where request counts (the gate's view) are not enough because one tenant's
requests may be 100x more expensive than another's:

* an uncached expand is billed its execute wall-time (also when the
  expander raises: the compute was spent);
* cache hits are billed at cache cost — the time the lookup itself took —
  not at the cost of the execute they avoided;
* fit jobs are billed to the tenant that requested them, for the fit's
  full wall-time.

Totals are kept in memory (bounded: tenants beyond ``max_tenants``
aggregate under :data:`OVERFLOW_TENANT`, mirroring the metrics registry's
per-family series cap) and periodically rolled up to a **JSONL ledger**:
one line per tenant per rollup window carrying the window's deltas, so the
ledger stays append-only, bounded by traffic-time rather than request
count, and summable offline — ``repro usage report`` does exactly that via
:func:`read_ledger`.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Callable, Iterable, Mapping

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
    """Accumulates per-tenant compute-seconds; optionally ledger-backed."""

    def __init__(
        self,
        ledger_path: str | None = None,
        rollup_interval_seconds: float = 30.0,
        max_tenants: int = MAX_TENANTS,
        clock: Callable[[], float] = time.time,
    ):
        self.ledger_path = ledger_path
        self.rollup_interval_seconds = max(0.1, float(rollup_interval_seconds))
        self.max_tenants = max(1, int(max_tenants))
        self.clock = clock
        self._lock = threading.Lock()
        self._totals: dict[str, dict] = {}
        #: per-tenant deltas since the last ledger rollup.
        self._window: dict[str, dict] = {}
        self._last_rollup = clock()
        self._dropped = 0
        self._write_errors = 0

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
            for entry in self._buckets_locked(tenant):
                entry["requests"] += 1
                if cached:
                    entry["cache_hits"] += 1
                entry["compute_seconds"] += compute_seconds
        if self.ledger_path is not None:
            self.maybe_rollup()

    def charge_fit(
        self, tenant: str | None, compute_seconds: float, method: str | None = None
    ) -> None:
        """Bill a fit job's wall-time to the tenant that requested it."""
        del method
        with self._lock:
            for entry in self._buckets_locked(tenant):
                entry["fits"] += 1
                entry["fit_seconds"] += compute_seconds
                entry["compute_seconds"] += compute_seconds
        if self.ledger_path is not None:
            self.maybe_rollup()

    def _buckets_locked(self, tenant: str | None) -> tuple[dict, ...]:
        """The buckets one charge lands in: always the running total;
        also the ledger window, but only when a ledger is configured —
        a meter without one skips the window entirely (metering sits on
        the cached hot path, so every dict touched here is paid per
        request)."""
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
        if self.ledger_path is None:
            return (bucket,)
        window = self._window.get(name)
        if window is None:
            window = self._window[name] = dict(_ZERO)
        return bucket, window

    # -- ledger ----------------------------------------------------------------------
    def maybe_rollup(self, force: bool = False) -> int:
        """Append the window's per-tenant deltas to the ledger when the
        rollup interval elapsed (or ``force``).  Returns lines written."""
        if self.ledger_path is None:
            return 0
        now = self.clock()
        with self._lock:
            due = force or (now - self._last_rollup) >= self.rollup_interval_seconds
            if not due or not self._window:
                return 0
            window, self._window = self._window, {}
            self._last_rollup = now
        lines = []
        for tenant in sorted(window):
            payload = {"event": "usage", "ts": round(now, 3), "tenant": tenant}
            payload.update(window[tenant])
            payload["compute_seconds"] = round(payload["compute_seconds"], 9)
            payload["fit_seconds"] = round(payload["fit_seconds"], 9)
            lines.append(json.dumps(payload, sort_keys=True))
        try:
            with open(self.ledger_path, "a", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
        except OSError:
            with self._lock:
                self._write_errors += 1
            return 0
        return len(lines)

    def close(self) -> None:
        """Flush any un-rolled-up window to the ledger."""
        self.maybe_rollup(force=True)

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
                "ledger": self.ledger_path,
                "write_errors": self._write_errors,
            }

    def stats(self) -> dict:
        return self.summary()


def read_ledger(path: str) -> dict[str, dict]:
    """Sum a JSONL usage ledger into per-tenant totals (offline; the
    ``repro usage report`` backend).  Malformed lines are skipped."""
    totals: dict[str, dict] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                continue
            if payload.get("event") != "usage":
                continue
            tenant = payload.get("tenant")
            if isinstance(tenant, str):
                _add_usage(totals, tenant, payload)
    return totals


def sum_usage(tables: Iterable[Mapping]) -> dict[str, dict]:
    """Sum several ``tenant -> usage bucket`` tables (ledgers, workers)."""
    totals: dict[str, dict] = {}
    for table in tables:
        for tenant, bucket in table.items():
            if isinstance(bucket, Mapping):
                _add_usage(totals, str(tenant), bucket)
    return totals


def _add_usage(totals: dict[str, dict], tenant: str, bucket: Mapping) -> None:
    total = totals.setdefault(tenant, dict(_ZERO))
    for key in _ZERO:
        value = bucket.get(key, 0)
        if isinstance(value, (int, float)):
            total[key] += value


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
    totals = sum_usage(summary.get("tenants") or {} for summary in summaries)
    for total in totals.values():
        total["compute_seconds"] = round(total["compute_seconds"], 6)
        total["fit_seconds"] = round(total["fit_seconds"], 6)
    return {"tenants": {tenant: totals[tenant] for tenant in sorted(totals)}}
