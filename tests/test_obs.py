"""Tests for the unified telemetry substrate (:mod:`repro.obs`).

Covers the metrics registry semantics (bucketing, label cardinality,
concurrent increments, Prometheus rendering), hot-path tracing (nesting,
contextvar isolation across threads), the slow-query log, the
``include_timings`` debug envelope, the worker's ``/v1/metrics`` endpoint,
request-id honoring, and the lint rule that keeps new ad-hoc counter dicts
out of the serving layers.
"""

from __future__ import annotations

import json
import logging
import re
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.config import ServiceConfig
from repro.core.base import Expander
from repro.obs import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
    Trace,
    activate,
    current_trace,
    merge_bucket_lists,
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


class ObsStubExpander(Expander):
    name = "stub"

    def _fit(self, dataset) -> None:
        pass

    def _expand(self, query, top_k) -> ExpansionResult:
        scored = [(eid, 1.0 / (1.0 + eid)) for eid in self.dataset.entity_ids()]
        return ExpansionResult.from_scores(query.query_id, scored)


def make_service(dataset, **config_kwargs) -> ExpansionService:
    config = ServiceConfig(**config_kwargs)
    return ExpansionService(
        dataset, config=config, factories={"stub": lambda _res: ObsStubExpander()}
    )


def http_get(url: str, headers: dict | None = None):
    request = urllib.request.Request(url, headers=headers or {})
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, response.read(), dict(response.headers)


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
# counters and gauges
# ---------------------------------------------------------------------------


class TestCountersAndGauges:
    def test_counter_accumulates_per_label_set(self):
        registry = MetricsRegistry()
        hits = registry.counter("repro_t_hits_total")
        hits.inc(method="a")
        hits.inc(2, method="a")
        hits.inc(method="b")
        assert hits.value(method="a") == 3
        assert hits.value(method="b") == 1
        assert hits.total() == 4

    def test_counter_rejects_decrements(self):
        counter = MetricsRegistry().counter("repro_t_down_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways_and_tracks_max(self):
        gauge = MetricsRegistry().gauge("repro_t_size")
        gauge.set(5)
        gauge.dec(2)
        assert gauge.value() == 3

    def test_family_type_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("repro_t_conflict")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_t_conflict")

    def test_invalid_metric_name_is_rejected(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            MetricsRegistry().counter("bad name!")

    def test_same_name_returns_the_same_family(self):
        registry = MetricsRegistry()
        assert registry.counter("repro_t_one") is registry.counter("repro_t_one")

    def test_disabled_registry_hands_out_noops(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("repro_t_off_total")
        counter.inc(5)
        assert counter.total() == 0
        histogram = registry.histogram("repro_t_off_ms")
        histogram.observe(1.0)
        assert histogram.count() == 0
        assert registry.render_prometheus() == "\n"


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------


class TestHistograms:
    def test_bucketing_and_percentile_interpolation(self):
        histogram = MetricsRegistry().histogram(
            "repro_t_lat_ms", buckets=(10.0, 20.0, 40.0)
        )
        for value in (5.0, 15.0, 35.0):
            histogram.observe(value)
        # p50 target rank 1.5 lands in the (10, 20] bucket, halfway through
        # its single observation: 10 + (20 - 10) * 0.5.
        assert histogram.percentile(50) == pytest.approx(15.0)
        assert histogram.count() == 3
        assert histogram.sum() == pytest.approx(55.0)

    def test_overflow_bucket_reports_the_largest_finite_bound(self):
        histogram = MetricsRegistry().histogram(
            "repro_t_inf_ms", buckets=(10.0, 20.0)
        )
        histogram.observe(500.0)
        assert histogram.percentile(99) == 20.0

    def test_merged_payload_is_cumulative_and_ends_at_inf(self):
        histogram = MetricsRegistry().histogram(
            "repro_t_merge_ms", buckets=(10.0, 20.0)
        )
        histogram.observe(5.0, method="a")
        histogram.observe(15.0, method="b")
        histogram.observe(100.0, method="b")
        merged = histogram.merged()
        assert merged["count"] == 3
        assert merged["buckets"] == [["10", 1], ["20", 2], ["+Inf", 3]]

    def test_merge_bucket_lists_joins_worker_payloads(self):
        r1 = MetricsRegistry().histogram("repro_t_w1_ms", buckets=(10.0, 20.0))
        r2 = MetricsRegistry().histogram("repro_t_w2_ms", buckets=(10.0, 20.0))
        for _ in range(9):
            r1.observe(5.0)
        r2.observe(15.0)
        fleet = merge_bucket_lists([r1.merged(), r2.merged()])
        assert fleet["count"] == 10
        assert fleet["sum"] == pytest.approx(60.0)
        assert fleet["p50"] <= 10.0
        assert fleet["p99"] > 10.0

    def test_merge_bucket_lists_of_nothing_is_zero(self):
        assert merge_bucket_lists([]) == {
            "count": 0, "sum": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0,
        }

    def test_label_cardinality_is_capped(self):
        counter = MetricsRegistry().counter("repro_t_cap_total")
        for index in range(MAX_SERIES_PER_FAMILY + 5):
            counter.inc(worker=f"w{index}")
        assert len(counter.series()) == MAX_SERIES_PER_FAMILY
        assert counter.dropped_series == 5
        # existing series keep counting after the cap is hit.
        counter.inc(worker="w0")
        assert counter.value(worker="w0") == 2

    def test_concurrent_increments_are_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_t_conc_total")
        histogram = registry.histogram("repro_t_conc_ms", buckets=(1.0, 10.0))

        def hammer():
            for _ in range(500):
                counter.inc(method="x")
                histogram.observe(0.5, method="x")

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.total() == 4000
        assert histogram.count() == 4000


# ---------------------------------------------------------------------------
# Prometheus rendering
# ---------------------------------------------------------------------------


class TestPrometheusRendering:
    def test_golden_exposition_text(self):
        registry = MetricsRegistry(const_labels={"dataset": "fp123"})
        hits = registry.counter("repro_test_hits_total", "Test hits.")
        hits.inc(method="alpha")
        hits.inc(2, method="beta")
        size = registry.gauge("repro_test_size", "Test size.")
        size.set(3)
        latency = registry.histogram(
            "repro_test_latency_ms", "Test latency.", buckets=(1.0, 2.0)
        )
        latency.observe(0.5)
        latency.observe(1.5)
        assert registry.render_prometheus() == (
            "# HELP repro_test_hits_total Test hits.\n"
            "# TYPE repro_test_hits_total counter\n"
            'repro_test_hits_total{dataset="fp123",method="alpha"} 1\n'
            'repro_test_hits_total{dataset="fp123",method="beta"} 2\n'
            "# HELP repro_test_latency_ms Test latency.\n"
            "# TYPE repro_test_latency_ms histogram\n"
            'repro_test_latency_ms_bucket{dataset="fp123",le="1"} 1\n'
            'repro_test_latency_ms_bucket{dataset="fp123",le="2"} 2\n'
            'repro_test_latency_ms_bucket{dataset="fp123",le="+Inf"} 2\n'
            'repro_test_latency_ms_sum{dataset="fp123"} 2\n'
            'repro_test_latency_ms_count{dataset="fp123"} 2\n'
            "# HELP repro_test_size Test size.\n"
            "# TYPE repro_test_size gauge\n"
            'repro_test_size{dataset="fp123"} 3\n'
        )

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("repro_t_esc_total").inc(q='say "hi"\n')
        rendered = registry.render_prometheus()
        assert 'q="say \\"hi\\"\\n"' in rendered


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


class TestTracing:
    def test_span_is_a_noop_without_an_active_trace(self):
        with span("anything") as active:
            assert active is None

    def test_nesting_records_parent_child(self):
        trace = Trace(request_id="req-t")
        with activate(trace):
            with span("outer"):
                with span("inner", detail="x"):
                    pass
        spans = {entry.name: entry for entry in trace.spans()}
        assert spans["outer"].parent is None
        assert spans["inner"].parent == "outer"
        assert spans["inner"].meta == {"detail": "x"}
        assert spans["inner"].duration_ms <= spans["outer"].duration_ms

    def test_traces_do_not_leak_across_threads(self):
        trace = Trace()
        seen_in_thread: list = []

        def probe():
            seen_in_thread.append(current_trace())
            with span("thread_side"):
                pass

        with activate(trace):
            worker = threading.Thread(target=probe)
            worker.start()
            worker.join()
        assert seen_in_thread == [None]  # fresh thread: no inherited trace
        assert trace.spans() == []  # and its span() was a no-op


# ---------------------------------------------------------------------------
# service integration: include_timings + slow-query log
# ---------------------------------------------------------------------------


class TestServiceTimings:
    def test_include_timings_ships_debug_spans(self, tiny_dataset):
        service = make_service(tiny_dataset)
        query_id = tiny_dataset.queries[0].query_id
        with service:
            response = service.submit(
                ExpandRequest(
                    method="stub",
                    query_id=query_id,
                    options=ExpandOptions(top_k=5, include_timings=True),
                )
            )
        assert response.timings is not None
        names = [entry["name"] for entry in response.timings]
        assert "cache_lookup" in names
        assert "admission" in names
        assert "expand" in names
        parents = {entry["name"]: entry.get("parent") for entry in response.timings}
        assert parents["execute"] == "admission"
        assert parents["expand"] == "execute"
        # top-level stage spans must fit inside the end-to-end latency
        # (tolerance: timings round to µs and the clock reads differ).
        top_level = sum(
            entry["duration_ms"]
            for entry in response.timings
            if "parent" not in entry
        )
        assert top_level <= response.latency_ms + 5.0
        payload = response.to_v1_dict()
        assert [e["name"] for e in payload["debug"]["timings"]] == names

    def test_timings_are_absent_by_default(self, tiny_dataset):
        service = make_service(tiny_dataset)
        query_id = tiny_dataset.queries[0].query_id
        with service:
            response = service.submit(
                ExpandRequest(method="stub", query_id=query_id)
            )
        assert response.timings is None
        assert "debug" not in response.to_v1_dict()

    def test_slow_query_log_emits_structured_json(self, tiny_dataset, caplog):
        service = make_service(tiny_dataset, slow_query_ms=0.0)
        query_id = tiny_dataset.queries[0].query_id
        with caplog.at_level(logging.WARNING, logger="repro.obs.slowlog"):
            with service:
                service.submit(ExpandRequest(method="stub", query_id=query_id))
        records = [
            json.loads(record.message)
            for record in caplog.records
            if record.name == "repro.obs.slowlog"
        ]
        assert len(records) == 1
        entry = records[0]
        assert entry["event"] == "slow_query"
        assert entry["method"] == "stub"
        assert entry["query_id"] == query_id
        assert entry["latency_ms"] >= 0.0
        assert entry["threshold_ms"] == 0.0
        assert any(s["name"] == "admission" for s in entry["spans"])

    def test_slow_query_line_names_the_tenant(self, tiny_dataset, caplog):
        """A slow request's line names the tenant the front door resolved,
        so one tenant's slow requests are found from the log alone; a
        request without a tenant has no ``tenant`` key, and no line carries
        a trace id."""
        service = make_service(tiny_dataset, slow_query_ms=0.0)
        query_id = tiny_dataset.queries[0].query_id
        with caplog.at_level(logging.WARNING, logger="repro.obs.slowlog"):
            with service:
                with tenant_scope("acme"):
                    service.submit(ExpandRequest(method="stub", query_id=query_id))
                service.submit(ExpandRequest(method="stub", query_id=query_id))
        keyed, unkeyed = [
            json.loads(record.message)
            for record in caplog.records
            if record.name == "repro.obs.slowlog"
        ]
        assert keyed["tenant"] == "acme"
        assert "tenant" not in unkeyed
        assert "trace_id" not in keyed and "trace_id" not in unkeyed
        names = {entry["name"] for entry in keyed["spans"]}
        assert {"cache_lookup", "admission", "execute", "expand"} <= names

    def test_fast_queries_stay_out_of_the_slow_log(self, tiny_dataset, caplog):
        service = make_service(tiny_dataset, slow_query_ms=1e9)
        query_id = tiny_dataset.queries[0].query_id
        with caplog.at_level(logging.WARNING, logger="repro.obs.slowlog"):
            with service:
                service.submit(ExpandRequest(method="stub", query_id=query_id))
        assert not [r for r in caplog.records if r.name == "repro.obs.slowlog"]

    def test_stats_service_block_carries_latency_percentiles(self, tiny_dataset):
        service = make_service(tiny_dataset)
        with service:
            for query in tiny_dataset.queries[:3]:
                service.submit(ExpandRequest(method="stub", query_id=query.query_id))
            stats = service.stats()
        latency = stats["service"]["latency_ms"]
        assert latency["count"] == 3
        for key in ("p50", "p90", "p99", "sum", "buckets"):
            assert key in latency


# ---------------------------------------------------------------------------
# worker HTTP surface: /v1/metrics + request-id honoring
# ---------------------------------------------------------------------------


class TestWorkerExposition:
    @pytest.fixture()
    def server(self, tiny_dataset):
        server = ExpansionHTTPServer(make_service(tiny_dataset), port=0).start()
        yield server
        server.shutdown()

    def test_metrics_endpoint_renders_prometheus_text(self, server, tiny_dataset):
        query_id = tiny_dataset.queries[0].query_id
        http_post(
            server.url + "/v1/expand", {"method": "stub", "query_id": query_id}
        )
        status, body, headers = http_get(server.url + "/v1/metrics")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        text = body.decode("utf-8")
        assert "# TYPE repro_service_requests_total counter" in text
        assert "# TYPE repro_request_latency_ms histogram" in text
        fingerprint = tiny_dataset.fingerprint()
        assert f'dataset="{fingerprint}"' in text
        assert 'method="stub"' in text
        assert re.search(r"repro_service_requests_total\{[^}]*\} 1", text)

    def test_valid_inbound_request_id_is_honored(self, server, tiny_dataset):
        query_id = tiny_dataset.queries[0].query_id
        status, envelope, headers = http_post(
            server.url + "/v1/expand",
            {"method": "stub", "query_id": query_id},
            headers={"X-Request-Id": "trace-me.01"},
        )
        assert status == 200
        assert envelope["request_id"] == "trace-me.01"
        assert headers["X-Request-Id"] == "trace-me.01"

    def test_malformed_inbound_request_id_is_replaced(self, server, tiny_dataset):
        query_id = tiny_dataset.queries[0].query_id
        status, envelope, headers = http_post(
            server.url + "/v1/expand",
            {"method": "stub", "query_id": query_id},
            headers={"X-Request-Id": "bad id\twith spaces"},
        )
        assert status == 200
        assert envelope["request_id"].startswith("req-")
        assert headers["X-Request-Id"] == envelope["request_id"]


# ---------------------------------------------------------------------------
# lint: no new ad-hoc counter dicts outside repro.obs
# ---------------------------------------------------------------------------

_AD_HOC_COUNTER = re.compile(
    r"self\._(stats|counters|metrics_dict)\s*=\s*(\{\}|\{\s*[\"']|dict\()"
)


class TestNoAdHocCounterDicts:
    def test_serving_layers_use_the_metrics_registry(self):
        """Telemetry counters belong in :mod:`repro.obs` instruments; a
        hand-rolled ``self._stats = {...}`` dict outside it regresses the
        unification this package introduced."""
        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        offenders = []
        for path in sorted(src.rglob("*.py")):
            if "obs" in path.relative_to(src).parts:
                continue
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1
            ):
                if _AD_HOC_COUNTER.search(line):
                    offenders.append(f"{path.relative_to(src)}:{number}: {line.strip()}")
        assert not offenders, (
            "ad-hoc counter dicts found (use repro.obs.MetricsRegistry):\n"
            + "\n".join(offenders)
        )
