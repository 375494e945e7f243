"""Terminal renderer for the fleet view (`repro cluster top`).

Pure function from the gateway's fleet ``GET /v1/stats`` data to a
fixed-width table, so the CLI loop stays trivial (one read per refresh) and
tests can golden-check the rendering without a terminal.  The gateway joins
the fleet once, for ``/v1/stats``, and sums the workers' per-tenant usage
there; fleet health, merged latency and per-worker rates are computed here.
"""

from __future__ import annotations

from typing import Mapping

from repro.obs.metrics import merge_bucket_lists


def _fmt_ms(value) -> str:
    try:
        value = float(value)
    except (TypeError, ValueError):
        return "-"
    if value >= 1000:
        return f"{value / 1000:.2f}s"
    return f"{value:.1f}ms"


def _fmt_rate(value) -> str:
    try:
        return f"{float(value) * 100:.0f}%"
    except (TypeError, ValueError):
        return "-"


def _fmt_cost(value) -> str:
    """Compute-seconds for the tenants table's COST column."""
    try:
        return f"{float(value):.3f}"
    except (TypeError, ValueError):
        return "-"


def _hit_rate(hits, misses) -> float:
    lookups = int(hits) + int(misses)
    return int(hits) / lookups if lookups else 0.0


def _tenant_rows(stats: Mapping) -> list[tuple]:
    """``(tenant, requests, throttled, compute_seconds or None)`` rows: the
    gate's tenants on a gated fleet, otherwise every tenant the fleet's
    ``usage`` lists."""
    usage = (stats.get("usage") or {}).get("tenants") or {}
    gate = stats.get("gate")
    if gate is None:
        return [
            (tenant, bucket["requests"], 0, bucket["compute_seconds"])
            for tenant, bucket in usage.items()
        ]
    requests = gate.get("requests") or {}
    throttled = gate.get("throttled") or {}
    return [
        (
            tenant,
            requests.get(tenant, 0),
            throttled.get(tenant, 0),
            (usage.get(tenant) or {}).get("compute_seconds"),
        )
        for tenant in sorted(set(requests) | set(throttled))
    ]


def render_top(stats: Mapping) -> str:
    """Render one refresh frame from the fleet ``/v1/stats`` data."""
    workers = stats.get("workers") or {}
    cluster = stats.get("cluster") or {}
    gateway = stats.get("gateway") or {}
    healthy = {
        worker_id: worker
        for worker_id, worker in workers.items()
        if not worker.get("unreachable")
    }

    lines: list[str] = []
    if len(healthy) == len(workers):
        status = "OK"
    else:
        status = "DEGRADED" if healthy else "DOWN"
    lines.append(
        f"repro cluster top — fleet {status} "
        f"({len(healthy)}/{len(workers)} workers healthy)"
    )
    latency = merge_bucket_lists(
        (worker.get("service") or {}).get("latency_ms") or {}
        for worker in healthy.values()
    )
    hit_rate = _hit_rate(cluster.get("cache_hits", 0), cluster.get("cache_misses", 0))
    lines.append(
        "cluster: "
        f"requests={cluster.get('requests', 0)} "
        f"errors={cluster.get('errors', 0)} "
        f"cache_hit={_fmt_rate(hit_rate)} "
        f"p50={_fmt_ms(latency.get('p50'))} "
        f"p90={_fmt_ms(latency.get('p90'))} "
        f"p99={_fmt_ms(latency.get('p99'))}"
    )
    ann = {"queries": 0, "probes": 0, "shortlisted": 0}
    for worker in healthy.values():
        substrates = (worker.get("registry") or {}).get("substrates") or {}
        worker_ann = substrates.get("ann") or {}
        for field_name in ann:
            ann[field_name] += int(worker_ann.get(field_name, 0) or 0)
    queries = ann["queries"]
    if queries:
        # probed-retrieval hot path: how much of the fleet's expand traffic
        # ran on the ANN shortlist, and how large the shortlists were.
        lines.append(
            "ann: "
            f"queries={queries} "
            f"probes/q={ann['probes'] / queries:.1f} "
            f"shortlist/q={ann['shortlisted'] / queries:.0f}"
        )
    lines.append(
        "gateway: "
        f"proxied={gateway.get('proxied', 0)} "
        f"failovers={gateway.get('failovers', 0)} "
        f"backend_errors={gateway.get('backend_errors', 0)} "
        f"sidelined={len(gateway.get('sidelined', []) or [])}"
    )
    lines.append("")

    header = (
        f"{'WORKER':<12} {'STATE':<6} {'REQS':>7} {'ERRS':>6} {'CACHE':>6} "
        f"{'P50':>9} {'P99':>9} {'SUBS':>5} FITTED"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for worker_id in sorted(workers):
        worker = healthy.get(worker_id)
        if worker is None:
            lines.append(
                f"{worker_id:<12} {'DOWN':<6} {'-':>7} {'-':>6} {'-':>6} "
                f"{'-':>9} {'-':>9} {'-':>5} -"
            )
            continue
        service = worker.get("service") or {}
        cache = worker.get("cache") or {}
        registry = worker.get("registry") or {}
        worker_latency = service.get("latency_ms") or {}
        lines.append(
            f"{worker_id:<12} {'up':<6} "
            f"{int(service.get('requests', 0)):>7} "
            f"{int(service.get('errors', 0)):>6} "
            f"{_fmt_rate(_hit_rate(cache.get('hits', 0), cache.get('misses', 0))):>6} "
            f"{_fmt_ms(worker_latency.get('p50')):>9} "
            f"{_fmt_ms(worker_latency.get('p99')):>9} "
            f"{int((registry.get('substrates') or {}).get('resident', 0)):>5} "
            f"{','.join(registry.get('fitted') or []) or '-'}"
        )

    tenants = _tenant_rows(stats)
    if tenants:
        lines.append("")
        # the COST column appears once any tenant has been charged.
        with_cost = any(cost is not None for *_counts, cost in tenants)
        tenant_header = f"{'TENANT':<24} {'REQS':>8} {'THROTTLED':>10}"
        if with_cost:
            tenant_header += f" {'COST(s)':>10}"
        lines.append(tenant_header)
        lines.append("-" * len(tenant_header))
        for tenant, requests, throttled, cost in tenants:
            line = f"{str(tenant)[:24]:<24} {requests:>8} {throttled:>10}"
            if with_cost:
                line += f" {_fmt_cost(cost):>10}"
            lines.append(line)
    return "\n".join(lines)
