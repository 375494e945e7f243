"""Tests for a request's trace and per-tenant usage metering.

Covers the pinned ``debug.timings`` wire shape, the trace-free hot path of
a request that neither asks for timings nor crosses a slow-query threshold,
and usage metering on the service's ``repro_tenant_*`` counters
(cache-cost charging, fit attribution, ``/v1/metrics`` and ``/v1/stats``
agreeing, the series cap).
"""

from __future__ import annotations

import json
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.config import ServiceConfig
from repro.core.base import Expander
from repro.gate import ANONYMOUS_TENANT, TENANT_HEADER
from repro.obs import current_trace, tenant_scope
from repro.obs.metrics import MAX_SERIES_PER_FAMILY
from repro.serve import (
    ExpandOptions,
    ExpandRequest,
    ExpansionHTTPServer,
    ExpansionService,
)
from repro.types import ExpansionResult

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


class TraceStubExpander(Expander):
    name = "stub"

    def __init__(self):
        super().__init__()
        #: the trace active in each ``_expand`` call, in call order.
        self.seen_traces: list = []

    def _fit(self, dataset) -> None:
        pass

    def _expand(self, query, top_k) -> ExpansionResult:
        self.seen_traces.append(current_trace())
        scored = [(eid, 1.0 / (1.0 + eid)) for eid in self.dataset.entity_ids()]
        return ExpansionResult.from_scores(query.query_id, scored)


def make_service(dataset, **config_kwargs) -> ExpansionService:
    config = ServiceConfig(**config_kwargs)
    return ExpansionService(
        dataset, config=config, factories={"stub": lambda _res: TraceStubExpander()}
    )


def http_get(url: str, headers: dict | None = None):
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read(), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, error.read(), dict(error.headers)


def http_post(url: str, payload: dict, headers: dict | None = None):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


# ---------------------------------------------------------------------------
# debug.timings
# ---------------------------------------------------------------------------


class TestDebugTimings:
    def test_debug_timings_wire_shape_is_pinned_id_free(self, tiny_dataset):
        """``debug.timings`` entries carry a span's name, offsets, parent
        name and meta: the pinned shape has no span or trace ids."""
        service = make_service(tiny_dataset)
        with service:
            response = service.submit(
                ExpandRequest(
                    method="stub",
                    query_id=tiny_dataset.queries[0].query_id,
                    options=ExpandOptions(top_k=5, include_timings=True),
                )
            )
        for entry in response.to_v1_dict()["debug"]["timings"]:
            assert set(entry) <= {"name", "start_ms", "duration_ms", "parent", "meta"}
            assert "span_id" not in entry and "parent_id" not in entry


# ---------------------------------------------------------------------------
# usage metering (repro_tenant_* counters)
# ---------------------------------------------------------------------------

_USAGE_SERIES = {
    "repro_service_requests_total": "requests",
    "repro_tenant_cache_hits_total": "cache_hits",
    "repro_tenant_fits_total": "fits",
    "repro_tenant_compute_seconds_total": "compute_seconds",
    "repro_tenant_fit_seconds_total": "fit_seconds",
}


def _tenant_series(metrics_text: str, tenant: str) -> dict:
    """The usage fields of one tenant's series in Prometheus text."""
    values = {}
    for line in metrics_text.splitlines():
        name, _, rest = line.partition("{")
        if name in _USAGE_SERIES and f'tenant="{tenant}"' in rest:
            values[_USAGE_SERIES[name]] = float(rest.rsplit(" ", 1)[1])
    return values


class TestUsageMeter:
    def test_unkeyed_traffic_bills_to_the_anonymous_tenant(self, tiny_dataset):
        service = make_service(tiny_dataset)
        with service:
            service.submit(
                ExpandRequest(method="stub", query_id=tiny_dataset.queries[0].query_id)
            )
            usage = service.stats()["usage"]["tenants"]
            metrics = service.metrics.render_prometheus()
        assert list(usage) == [ANONYMOUS_TENANT]
        assert usage[ANONYMOUS_TENANT]["requests"] == 1
        assert usage[ANONYMOUS_TENANT]["compute_seconds"] > 0.0
        # unkeyed traffic takes the unlabeled series, as requests do.
        assert "tenant=" not in next(
            line for line in metrics.splitlines()
            if line.startswith("repro_tenant_compute_seconds_total{")
        )

    def test_metrics_and_stats_agree_per_tenant(self, tiny_dataset):
        """One miss, one cache hit and one fit under tenant ``alpha`` read
        the same in ``/v1/metrics`` and in ``/v1/stats`` ``usage``."""
        server = ExpansionHTTPServer(make_service(tiny_dataset), port=0).start()
        tenant = {TENANT_HEADER: "alpha"}
        body = {"method": "stub", "query_id": tiny_dataset.queries[0].query_id}
        try:
            for _ in range(2):
                status, _envelope, _ = http_post(server.url + "/v1/expand", body, tenant)
                assert status == 200
            status, fit, _ = http_post(server.url + "/v1/fits", {"method": "stub"}, tenant)
            assert status == 200
            status, stats, _ = http_get(server.url + "/v1/stats")
            assert status == 200
            status, metrics, _ = http_get(server.url + "/v1/metrics")
            assert status == 200
        finally:
            server.shutdown()
        alpha = json.loads(stats)["data"]["usage"]["tenants"]["alpha"]
        assert {key: alpha[key] for key in ("requests", "cache_hits", "fits")} == {
            "requests": 2, "cache_hits": 1, "fits": 1,
        }
        assert alpha["fit_seconds"] == pytest.approx(fit["data"]["seconds"], abs=1e-6)
        assert alpha["compute_seconds"] > alpha["fit_seconds"]
        series = _tenant_series(metrics.decode("utf-8"), "alpha")
        assert set(series) == set(alpha)
        for field, value in series.items():
            assert alpha[field] == pytest.approx(value, abs=1e-6), field

    def test_concurrent_charges_are_not_lost(self, tiny_dataset):
        """Eight request threads on two cores, four tenants bound on their
        first charge under contention: every request and cache hit lands."""
        service = make_service(tiny_dataset)
        query_id = tiny_dataset.queries[0].query_id
        interval = sys.getswitchinterval()
        errors: list[BaseException] = []

        def sender(index: int) -> None:
            try:
                with tenant_scope(f"tenant-{index % 4}"):
                    for _ in range(50):
                        service.submit(ExpandRequest(method="stub", query_id=query_id))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=sender, args=(i,)) for i in range(8)]
        with service:
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors
            usage = service.stats()["usage"]["tenants"]
        assert {tenant: row["requests"] for tenant, row in usage.items()} == {
            f"tenant-{index}": 100 for index in range(4)
        }
        hits = sum(row["cache_hits"] for row in usage.values())
        assert hits == service.cache.stats()["hits"] >= 400 - 8

    def test_tenant_cardinality_cap_drops_and_counts(self, tiny_dataset):
        """Past the registry's per-family series cap a tenant's charges are
        dropped and counted on the family, never raised."""
        service = make_service(tiny_dataset)
        query_id = tiny_dataset.queries[0].query_id
        with service:
            for index in range(MAX_SERIES_PER_FAMILY + 1):
                with tenant_scope(f"tenant-{index:02d}"):
                    service.submit(ExpandRequest(method="stub", query_id=query_id))
            usage = service.stats()["usage"]["tenants"]
        for name in ("repro_service_requests_total", "repro_tenant_compute_seconds_total"):
            assert service.metrics.counter(name).dropped_series == 1, name
        # the families keep and drop the same tenants.
        assert sorted(usage) == [f"tenant-{index:02d}" for index in range(MAX_SERIES_PER_FAMILY)]
        assert all(row["requests"] == 1 for row in usage.values())

    def test_tenant_handles_stop_at_the_cap(self, tiny_dataset):
        """Any caller may name a new tenant, so the service's per-tenant
        handle dicts stop growing at the series cap: 1,000 names leave at
        most the cap's entries plus one shared overflow entry, and the
        tenants under the cap are charged exactly as on a service that
        never saw the other 936."""
        query_id = tiny_dataset.queries[0].query_id
        names = [f"tenant-{index:04d}" for index in range(1000)]
        kept = names[:MAX_SERIES_PER_FAMILY]

        def serve(tenants):
            service = make_service(tiny_dataset)
            with service:
                # every tenant once, then the kept ones again (cache hits).
                for tenant in [*tenants, *kept]:
                    with tenant_scope(tenant):
                        service.submit(ExpandRequest(method="stub", query_id=query_id))
            return service

        crowded, reference = serve(names), serve(kept)
        assert len(crowded._series_by_tenant) <= MAX_SERIES_PER_FAMILY + 1
        assert len(crowded._latency_by_method) <= MAX_SERIES_PER_FAMILY + 1
        requests = crowded.metrics.counter("repro_service_requests_total")
        assert len(requests.series()) == MAX_SERIES_PER_FAMILY

        def counts(service):
            usage = service.stats()["usage"]["tenants"]
            latency = service.metrics.histogram("repro_request_latency_ms")
            return {
                tenant: (row["requests"], row["cache_hits"], row["fits"],
                         latency.count(method="stub", tenant=tenant))
                for tenant, row in usage.items()
            }

        assert sorted(counts(crowded)) == kept
        assert counts(crowded) == counts(reference)
        assert counts(reference)[kept[1]] == (2, 2, 0, 2)


# ---------------------------------------------------------------------------
# service integration: tracing + metering through the serving path
# ---------------------------------------------------------------------------


class TestServiceIntegration:
    def test_rate_zero_keeps_the_hot_path_trace_free(self, tiny_dataset):
        """No sampler picks requests to trace (in effect a zero sample
        rate): a trace is built only for a reader.  An expand that neither
        asks for ``include_timings`` nor runs under a slow-query threshold
        runs with no active trace, also when its HTTP request carries a
        sampled ``traceparent``; either reader gives ``_expand`` a trace."""
        query_id = tiny_dataset.queries[0].query_id
        untimed = ExpandRequest(
            method="stub", query_id=query_id, options=ExpandOptions(use_cache=False)
        )
        timed = ExpandRequest(
            method="stub",
            query_id=query_id,
            options=ExpandOptions(use_cache=False, include_timings=True),
        )
        service = make_service(tiny_dataset)
        with service:
            service.submit(untimed)
            service.submit(timed)
            seen = service.registry.get("stub").seen_traces
        assert seen[0] is None
        assert seen[1] is not None
        slow_logging = make_service(tiny_dataset, slow_query_ms=1e9)
        with slow_logging:
            slow_logging.submit(untimed)
            assert slow_logging.registry.get("stub").seen_traces[0] is not None
        server = ExpansionHTTPServer(make_service(tiny_dataset), port=0).start()
        try:
            status, _envelope, _headers = http_post(
                server.url + "/v1/expand",
                {"method": "stub", "query_id": query_id},
                headers={"traceparent": "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"},
            )
            assert status == 200
            assert server.service.registry.get("stub").seen_traces == [None]
        finally:
            server.shutdown()

    def test_stats_omit_traces_when_disabled(self, tiny_dataset):
        """No process keeps a trace ring, so ``/v1/stats`` has no ``traces``
        section, also on a service that traces every request for its
        slow-query log."""
        service = make_service(tiny_dataset, slow_query_ms=0.0)
        with service:
            service.submit(
                ExpandRequest(method="stub", query_id=tiny_dataset.queries[0].query_id)
            )
            stats = service.stats()
        assert "traces" not in stats
        assert stats["usage"]["tenants"][ANONYMOUS_TENANT]["requests"] == 1

    def test_usage_meters_expands_cache_hits_and_fits(self, tiny_dataset):
        service = make_service(tiny_dataset)
        query_id = tiny_dataset.queries[0].query_id
        with service:
            with tenant_scope("acme"):
                service.submit(ExpandRequest(method="stub", query_id=query_id))
                service.submit(ExpandRequest(method="stub", query_id=query_id))
                fit = service.fit("stub")
            usage = service.stats()["usage"]
        acme = usage["tenants"]["acme"]
        assert acme["requests"] == 2
        assert acme["cache_hits"] == 1  # second submit hit the result cache
        # the fit is billed once, on the request thread, its measured seconds
        assert acme["fits"] == 1
        assert acme["fit_seconds"] == pytest.approx(fit["seconds"], abs=1e-6)
        assert acme["compute_seconds"] > acme["fit_seconds"]


# ---------------------------------------------------------------------------
# client SDK accessors
# ---------------------------------------------------------------------------


class TestClientAccessors:
    def test_usage_through_the_in_process_client(self, tiny_dataset):
        from repro.client import ExpansionClient

        service = make_service(tiny_dataset)
        with service:
            client = ExpansionClient.in_process(service)
            assert client.usage() == {"tenants": {}}
            client.expand("stub", query_id=tiny_dataset.queries[0].query_id)
            assert client.usage() == service.stats()["usage"]
            assert client.usage()["tenants"][ANONYMOUS_TENANT]["requests"] == 1
