"""Tests for distributed-trace identity, the searchable trace store, and
per-tenant usage metering.

Covers the W3C-style ``traceparent`` round trip, span-id disambiguation of
duplicate sibling names (while the pinned ``debug.timings`` wire shape stays
id-free), :class:`TraceCollector` semantics (head sampling determinism under
a seeded RNG, always-keep for slow/errored requests, eviction, the query
surface, and concurrent offer/query under fan-out), usage metering on the
service's ``repro_tenant_*`` counters (cache-cost charging, fit attribution,
``/v1/metrics`` and ``/v1/stats`` agreeing, the series cap), and the worker
HTTP surface (``/v1/traces``, trace-id response headers, access-log
correlation).
"""

from __future__ import annotations

import json
import logging
import random
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.config import ServiceConfig
from repro.core.base import Expander
from repro.exceptions import DatasetError, ServiceError
from repro.gate import ANONYMOUS_TENANT, TENANT_HEADER
from repro.obs import (
    Trace,
    TraceCollector,
    TraceContext,
    activate,
    format_traceparent,
    parse_traceparent,
    span,
    tenant_scope,
)
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

    def _fit(self, dataset) -> None:
        pass

    def _expand(self, query, top_k) -> ExpansionResult:
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
# traceparent + span identity
# ---------------------------------------------------------------------------


class TestTraceparent:
    def test_round_trip(self):
        trace = Trace()
        trace.sampled = True
        context = trace.context()
        header = format_traceparent(context)
        assert header == f"00-{trace.trace_id}-{trace.span_id}-01"
        parsed = parse_traceparent(header)
        assert parsed == TraceContext(trace.trace_id, trace.span_id, True)

    def test_unsampled_flag_round_trips(self):
        header = format_traceparent(
            TraceContext("ab" * 16, "cd" * 8, sampled=False)
        )
        assert header.endswith("-00")
        assert parse_traceparent(header).sampled is False

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "garbage",
            "00-short-abcdefabcdefabcd-01",
            "00-" + "g" * 32 + "-abcdefabcdefabcd-01",  # non-hex trace id
            "00-" + "0" * 32 + "-abcdefabcdefabcd-01",  # all-zero trace id
            "00-" + "ab" * 16 + "-" + "0" * 16 + "-01",  # all-zero span id
            "ff-" + "ab" * 16 + "-abcdefabcdefabcd-01",  # forbidden version
            "00-" + "ab" * 16 + "-abcdefabcdefabcd",  # missing flags
            "00-" + "ab" * 16 + "-abcdefabcdefabcd-zz",
        ],
    )
    def test_malformed_headers_parse_to_none(self, header):
        assert parse_traceparent(header) is None

    def test_duplicate_sibling_names_stay_unambiguous(self):
        """Two same-named siblings get distinct span_ids, both pointing at
        the *specific* parent span instance via parent_id."""
        trace = Trace()
        with activate(trace):
            with span("outer"):
                with span("score_candidates"):
                    pass
                with span("score_candidates"):
                    pass
        full = {entry["span_id"]: entry for entry in trace.to_span_dicts()}
        outer = next(e for e in full.values() if e["name"] == "outer")
        siblings = [e for e in full.values() if e["name"] == "score_candidates"]
        assert len(siblings) == 2
        assert siblings[0]["span_id"] != siblings[1]["span_id"]
        for entry in siblings:
            assert entry["parent"] == "outer"
            assert entry["parent_id"] == outer["span_id"]

    def test_debug_timings_wire_shape_is_pinned_id_free(self, tiny_dataset):
        """``debug.timings`` predates span ids; the ids live only in the
        trace-store serialization (``to_span_dicts``), never in the pinned
        response-debug shape."""
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

    def test_graft_remote_rebases_and_skips_malformed(self):
        trace = Trace()
        trace.graft_remote(
            [
                {"name": "execute", "start_ms": 1.0, "duration_ms": 2.0,
                 "span_id": "aa" * 8},
                {"duration_ms": 1.0},  # no name: skipped
                "not-a-dict",  # skipped
            ],
            base_ms=100.0,
            parent="proxy",
            parent_id="bb" * 8,
        )
        spans = trace.spans()
        assert len(spans) == 1
        assert spans[0].start_ms == pytest.approx(101.0)
        assert spans[0].duration_ms == pytest.approx(2.0)
        assert spans[0].parent == "proxy"
        assert spans[0].parent_id == "bb" * 8


# ---------------------------------------------------------------------------
# TraceCollector
# ---------------------------------------------------------------------------


def finished_trace(**annotations) -> Trace:
    trace = Trace(request_id="req-t")
    with activate(trace):
        with span("work"):
            pass
    if annotations:
        trace.annotate(**annotations)
    return trace


class TestTraceCollector:
    def test_sampling_is_deterministic_under_a_seed(self):
        verdicts = [
            [
                TraceCollector(sample_rate=0.5, rng=random.Random(7)).sample()
                for _ in range(1)
            ]
            for _ in range(2)
        ]
        a = TraceCollector(sample_rate=0.5, rng=random.Random(7))
        b = TraceCollector(sample_rate=0.5, rng=random.Random(7))
        assert [a.sample() for _ in range(64)] == [b.sample() for _ in range(64)]
        assert verdicts[0] == verdicts[1]

    def test_rate_zero_never_samples_and_rate_one_always_does(self):
        off = TraceCollector(sample_rate=0.0)
        assert not any(off.sample() for _ in range(32))
        on = TraceCollector(sample_rate=1.0)
        assert all(on.sample() for _ in range(32))

    def test_always_keep_slow_and_errored_traces(self):
        collector = TraceCollector(sample_rate=0.0, slow_ms=50.0)
        assert not collector.offer(finished_trace(), duration_ms=10.0)
        assert collector.offer(finished_trace(), duration_ms=60.0)
        assert collector.offer(
            finished_trace(), duration_ms=1.0, error="UnknownMethodError"
        )
        kinds = {record["kept"] for record in collector.query()}
        assert kinds == {"slow", "error"}
        assert collector.stats()["discarded"] == 1

    def test_ring_evicts_oldest_and_reoffer_replaces_in_place(self):
        collector = TraceCollector(capacity=2, sample_rate=1.0)
        traces = [finished_trace() for _ in range(3)]
        for trace in traces:
            collector.offer(trace, duration_ms=1.0, sampled=True)
        assert collector.get(traces[0].trace_id) is None  # evicted
        assert collector.stats()["evicted"] == 1
        # a re-offered id replaces its record instead of double-counting.
        collector.offer(traces[2], duration_ms=9.0, sampled=True)
        assert collector.stats()["stored"] == 2
        assert collector.get(traces[2].trace_id)["duration_ms"] == 9.0

    def test_query_filters_and_limit(self):
        collector = TraceCollector(sample_rate=1.0)
        for index in range(6):
            collector.offer(
                finished_trace(),
                duration_ms=float(index),
                method="stub" if index % 2 == 0 else "other",
                tenant="acme" if index < 3 else "generic",
                error="Boom" if index == 5 else None,
                sampled=True,
            )
        assert len(collector.query()) == 6
        assert len(collector.query(method="stub")) == 3
        assert len(collector.query(tenant="acme")) == 3
        assert len(collector.query(min_duration_ms=4.0)) == 2
        assert len(collector.query(error=True)) == 1
        assert len(collector.query(error=False)) == 5
        assert len(collector.query(limit=2)) == 2
        newest = collector.query(limit=1)[0]
        assert newest["duration_ms"] == 5.0  # newest first
        assert "spans" not in newest and newest["span_count"] == 1

    def test_concurrent_offer_and_query_under_fan_out(self):
        collector = TraceCollector(capacity=64, sample_rate=1.0)
        errors: list[BaseException] = []

        def offerer(worker: int):
            try:
                for index in range(50):
                    collector.offer(
                        finished_trace(),
                        duration_ms=float(index),
                        method=f"m{worker}",
                        sampled=True,
                    )
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def reader():
            try:
                for _ in range(100):
                    collector.query(limit=10)
                    collector.stats()
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=offerer, args=(i,)) for i in range(4)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = collector.stats()
        assert stats["kept"] == 200
        assert stats["stored"] == 64
        assert stats["evicted"] == 200 - 64


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
    def test_sampled_request_lands_in_the_trace_store(self, tiny_dataset):
        service = make_service(
            tiny_dataset, trace_sample_rate=1.0, trace_sample_seed=7
        )
        query_id = tiny_dataset.queries[0].query_id
        with service:
            with tenant_scope("acme"):
                service.submit(ExpandRequest(method="stub", query_id=query_id))
            records = service.traces.query()
            assert len(records) == 1
            record = records[0]
            assert record["method"] == "stub"
            assert record["tenant"] == "acme"
            assert record["kept"] == "sampled"
            full = service.traces.get(record["trace_id"])
            names = {entry["name"] for entry in full["spans"]}
            assert {"cache_lookup", "admission", "execute"} <= names
            stats = service.stats()
            assert stats["traces"]["kept"] == 1

    def test_rate_zero_keeps_the_hot_path_trace_free(self, tiny_dataset):
        service = make_service(tiny_dataset, trace_sample_rate=0.0)
        query_id = tiny_dataset.queries[0].query_id
        with service:
            service.submit(ExpandRequest(method="stub", query_id=query_id))
            assert service.traces.stats()["stored"] == 0
            assert service.stats()["traces"]["sample_rate"] == 0.0

    def test_errored_requests_are_always_kept(self, tiny_dataset):
        service = make_service(tiny_dataset, trace_sample_rate=0.0, slow_query_ms=1e9)
        with service:
            with pytest.raises(Exception):
                service.submit(ExpandRequest(method="nope", query_id="missing"))
            kept = service.traces.query(error=True)
            assert len(kept) == 1
            assert kept[0]["kept"] == "error"

    def test_stats_omit_traces_when_disabled(self, tiny_dataset):
        service = make_service(tiny_dataset)
        with service:
            stats = service.stats()
        assert "traces" not in stats
        assert stats["usage"] == {"tenants": {}}

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
# worker HTTP surface
# ---------------------------------------------------------------------------


class TestWorkerTraceSurface:
    @pytest.fixture()
    def server(self, tiny_dataset):
        service = make_service(
            tiny_dataset, trace_sample_rate=1.0, access_log=True
        )
        server = ExpansionHTTPServer(service, port=0).start()
        yield server
        server.shutdown()

    def test_traced_request_surfaces_id_and_is_fetchable(
        self, server, tiny_dataset, caplog
    ):
        query_id = tiny_dataset.queries[0].query_id
        with caplog.at_level(logging.INFO, logger="repro.serve.access"):
            status, _envelope, headers = http_post(
                server.url + "/v1/expand", {"method": "stub", "query_id": query_id}
            )
            assert status == 200
            trace_id = headers["X-Repro-Trace-Id"]
            # the access-log line is written before the reply goes out.
            logged = [
                json.loads(record.message)
                for record in caplog.records
                if record.name == "repro.serve.access"
            ]
        assert len(trace_id) == 32
        assert any(line.get("trace_id") == trace_id for line in logged)

        status, body, _ = http_get(server.url + f"/v1/traces/{trace_id}")
        assert status == 200
        trace = json.loads(body)["data"]["trace"]
        assert trace["trace_id"] == trace_id
        names = {entry["name"] for entry in trace["spans"]}
        assert "execute" in names

        status, body, _ = http_get(server.url + "/v1/traces?method=stub&limit=5")
        assert status == 200
        rows = json.loads(body)["data"]["traces"]
        assert any(row["trace_id"] == trace_id for row in rows)

    def test_remote_context_is_continued_and_spans_returned(
        self, server, tiny_dataset
    ):
        query_id = tiny_dataset.queries[0].query_id
        upstream = Trace()
        upstream.sampled = True
        header = format_traceparent(upstream.context())
        status, _envelope, headers = http_post(
            server.url + "/v1/expand",
            {"method": "stub", "query_id": query_id},
            headers={"traceparent": header},
        )
        assert status == 200
        assert headers["X-Repro-Trace-Id"] == upstream.trace_id
        fragment = json.loads(headers["X-Repro-Trace"])
        assert fragment["trace_id"] == upstream.trace_id
        assert any(entry["name"] == "execute" for entry in fragment["spans"])

    @pytest.mark.parametrize("rate", [0.25, 0.5])
    def test_one_sampling_flip_per_expand_over_http(self, tiny_dataset, rate):
        """An expand over HTTP flips the head-sampling coin once, as in
        process: the same seed and request count keep the same traces, and
        each kept trace's id is on its reply."""
        query_id = tiny_dataset.queries[0].query_id
        requests = 200
        config = dict(
            trace_sample_rate=rate,
            trace_sample_seed=7,
            trace_buffer_size=requests,
            cache_capacity=0,
        )
        in_process = make_service(tiny_dataset, **config)
        with in_process:
            for _ in range(requests):
                in_process.submit(ExpandRequest(method="stub", query_id=query_id))
            expected = in_process.traces.stats()
        server = ExpansionHTTPServer(make_service(tiny_dataset, **config), port=0).start()
        try:
            replied = set()
            for _ in range(requests):
                status, _envelope, headers = http_post(
                    server.url + "/v1/expand", {"method": "stub", "query_id": query_id}
                )
                assert status == 200
                if "X-Repro-Trace-Id" in headers:
                    replied.add(headers["X-Repro-Trace-Id"])
            collector = server.service.traces
            stats = collector.stats()
            kept = {row["trace_id"] for row in collector.query(limit=requests)}
        finally:
            server.shutdown()
        assert 0 < expected["kept"] < requests
        assert (stats["sampled"], stats["kept"]) == (expected["sampled"], expected["kept"])
        assert kept == replied and len(kept) == stats["kept"]

    def test_probes_and_stats_reads_flip_no_coin(self, server):
        """Only an expand is traced: health probes and stats reads leave
        the sampler untouched, even at rate 1.0."""
        for path, times in (("/v1/healthz", 10), ("/v1/stats", 5)):
            for _ in range(times):
                status, _body, headers = http_get(server.url + path)
                assert status == 200
                assert "X-Repro-Trace-Id" not in headers
        traces = server.service.traces.stats()
        assert (traces["sampled"], traces["kept"]) == (0, 0)

    def test_unknown_trace_id_is_404_and_disabled_tracing_is_400(
        self, server, tiny_dataset
    ):
        status, body, _ = http_get(server.url + "/v1/traces/" + "ab" * 16)
        assert status == 404
        assert json.loads(body)["error"]["code"] == "not_found"

        service = make_service(tiny_dataset)
        bare = ExpansionHTTPServer(service, port=0).start()
        try:
            status, body, _ = http_get(bare.url + "/v1/traces")
            assert status == 400
            assert json.loads(body)["error"]["code"] == "invalid_request"
        finally:
            bare.shutdown()

    def test_malformed_trace_filters_are_400(self, server):
        for query in ("min_duration_ms=abc", "error=maybe", "limit=x"):
            status, body, _ = http_get(server.url + "/v1/traces?" + query)
            assert status == 400, query
            assert json.loads(body)["error"]["code"] == "invalid_request"


# ---------------------------------------------------------------------------
# client SDK accessors
# ---------------------------------------------------------------------------


class TestClientAccessors:
    def test_traces_and_usage_through_the_in_process_client(self, tiny_dataset):
        from repro.client import ExpansionClient

        service = make_service(tiny_dataset, trace_sample_rate=1.0)
        with service:
            client = ExpansionClient.in_process(service)
            client.expand("stub", query_id=tiny_dataset.queries[0].query_id)
            rows = client.traces(method="stub", limit=5)
            assert rows and rows[0]["method"] == "stub"
            tree = client.trace(rows[0]["trace_id"])
            assert tree["trace_id"] == rows[0]["trace_id"]
            assert tree["spans"]
            assert client.usage() == service.stats()["usage"]
            assert client.usage()["tenants"][ANONYMOUS_TENANT]["requests"] == 1
            with pytest.raises(DatasetError):
                client.trace("ab" * 16)

    def test_traces_raise_when_tracing_is_off(self, tiny_dataset):
        from repro.client import ExpansionClient

        service = make_service(tiny_dataset)
        with service:
            client = ExpansionClient.in_process(service)
            assert client.usage() == {"tenants": {}}
            with pytest.raises(ServiceError):
                client.traces()
