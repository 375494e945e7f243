"""Terminal renderer for the gateway dashboard (`repro cluster top`).

Pure function from the ``GET /v1/dashboard`` payload to a fixed-width
table, so the CLI loop stays trivial and tests can golden-check the
rendering without a terminal.
"""

from __future__ import annotations


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


#: character cells in a fit-job progress bar.
PROGRESS_BAR_WIDTH = 10


def _fmt_job(job: dict) -> str:
    """``method:phase`` plus a progress bar when the job reports one."""
    text = f"{job.get('method', '?')}:{job.get('phase') or job.get('status', '?')}"
    progress = job.get("progress")
    if not isinstance(progress, dict):
        return text
    try:
        fraction = min(max(float(progress.get("fraction")), 0.0), 1.0)
    except (TypeError, ValueError):
        return text
    filled = int(round(fraction * PROGRESS_BAR_WIDTH))
    bar = "=" * filled + "-" * (PROGRESS_BAR_WIDTH - filled)
    text += f" [{bar}] {fraction * 100:.0f}%"
    epoch, total = progress.get("epoch"), progress.get("total_epochs")
    if epoch is not None and total is not None:
        text += f" (ep {epoch}/{total})"
    return text


def render_dashboard(data: dict) -> str:
    """Render one refresh frame of the cluster dashboard."""
    fleet = data.get("fleet", {})
    cluster = data.get("cluster", {})
    workers = data.get("workers", {})
    gateway = data.get("gateway", {})

    lines: list[str] = []
    status = str(fleet.get("status", "unknown")).upper()
    lines.append(
        f"repro cluster top — fleet {status} "
        f"({fleet.get('healthy_workers', '?')}/{fleet.get('total_workers', '?')} workers healthy)"
    )
    latency = cluster.get("latency_ms", {})
    lines.append(
        "cluster: "
        f"requests={cluster.get('requests', 0)} "
        f"errors={cluster.get('errors', 0)} "
        f"cache_hit={_fmt_rate(cluster.get('cache_hit_rate'))} "
        f"p50={_fmt_ms(latency.get('p50'))} "
        f"p90={_fmt_ms(latency.get('p90'))} "
        f"p99={_fmt_ms(latency.get('p99'))}"
    )
    ann = cluster.get("ann") or {}
    queries = ann.get("queries", 0) or 0
    if queries:
        # probed-retrieval hot path: how much of the fleet's expand traffic
        # ran on the ANN shortlist, and how large the shortlists were.
        lines.append(
            "ann: "
            f"queries={queries} "
            f"probes/q={ann.get('probes', 0) / queries:.1f} "
            f"shortlist/q={ann.get('shortlisted', 0) / queries:.0f}"
        )
    gateway_line = (
        "gateway: "
        f"proxied={gateway.get('proxied', 0)} "
        f"failovers={gateway.get('failovers', 0)} "
        f"backend_errors={gateway.get('backend_errors', 0)} "
        f"sidelined={len(gateway.get('sidelined', []) or [])}"
    )
    gateway_cache = gateway.get("cache")
    if isinstance(gateway_cache, dict):
        gateway_line += f" cache_hit={_fmt_rate(gateway_cache.get('hit_rate'))}"
    lines.append(gateway_line)
    lines.append("")

    header = (
        f"{'WORKER':<12} {'STATE':<6} {'REQS':>7} {'ERRS':>6} {'CACHE':>6} "
        f"{'P50':>9} {'P99':>9} {'SUBS':>5} {'FITTED':<18} FIT JOBS"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for worker_id in sorted(workers):
        shard = workers[worker_id] or {}
        healthy = shard.get("healthy")
        state = "up" if healthy else "DOWN"
        shard_latency = shard.get("latency_ms", {}) or {}
        fitted = ",".join(shard.get("fitted", []) or []) or "-"
        jobs = shard.get("fit_jobs", []) or []
        job_text = " ".join(_fmt_job(job) for job in jobs) or "-"
        lines.append(
            f"{worker_id:<12} {state:<6} "
            f"{shard.get('requests', 0) if healthy else '-':>7} "
            f"{shard.get('errors', 0) if healthy else '-':>6} "
            f"{_fmt_rate(shard.get('cache_hit_rate')) if healthy else '-':>6} "
            f"{_fmt_ms(shard_latency.get('p50')) if healthy else '-':>9} "
            f"{_fmt_ms(shard_latency.get('p99')) if healthy else '-':>9} "
            f"{shard.get('substrates_resident', 0) if healthy else '-':>5} "
            f"{fitted[:18]:<18} {job_text}"
        )

    tenants = data.get("tenants") or []
    if tenants:
        lines.append("")
        # the COST column appears once any worker reports usage metering.
        with_cost = any("compute_seconds" in (row or {}) for row in tenants)
        tenant_header = f"{'TENANT':<24} {'REQS':>8} {'THROTTLED':>10}"
        if with_cost:
            tenant_header += f" {'COST(s)':>10}"
        lines.append(tenant_header)
        lines.append("-" * len(tenant_header))
        for row in tenants:
            line = (
                f"{str(row.get('tenant', '?'))[:24]:<24} "
                f"{row.get('requests', 0):>8} "
                f"{row.get('throttled', 0):>10}"
            )
            if with_cost:
                line += f" {_fmt_cost(row.get('compute_seconds')):>10}"
            lines.append(line)
    return "\n".join(lines)
