"""Fleet-level distributed tracing + usage metering tests.

Thread-backed workers behind a real :class:`ClusterGateway`, as in
``tests/test_obs_cluster.py``.  A request routed through the gateway must
come back as ONE joined trace — the gateway's ``gateway``/``proxy`` spans
plus every worker fragment grafted under them, all carrying the same
``trace_id`` — searchable at the gateway's ``GET /v1/traces``.  Worker-only
traces stay reachable through the gateway via the scatter fallback, and
per-tenant usage rolls up into ``repro cluster top``'s cost column.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.client import ExpansionClient
from repro.cluster import ClusterConfig, ClusterGateway
from repro.config import ServiceConfig
from repro.core.base import Expander
from repro.obs.top import render_top
from repro.serve import ExpansionHTTPServer, ExpansionService
from repro.types import ExpansionResult

#: every server a test here starts must be gone, threads and sockets, by
#: the time the module is torn down (see ``no_leaks`` in conftest.py).
pytestmark = pytest.mark.usefixtures("no_leaks")

STUB_METHODS = tuple(f"stub{letter}" for letter in "abcdef")


class TraceStubExpander(Expander):
    def __init__(self, salt: str):
        super().__init__()
        self.name = salt
        self.salt = sum(ord(ch) for ch in salt)

    def _expand(self, query, top_k):
        scored = [
            (eid, 1.0 / (1.0 + ((eid * 2654435761 + self.salt) % 4093)))
            for eid in self.candidate_ids(query)
        ]
        return ExpansionResult.from_scores(query.query_id, scored)


def make_worker(dataset, **config_kwargs) -> ExpansionHTTPServer:
    factories = {
        method: (lambda _res, m=method: TraceStubExpander(m))
        for method in STUB_METHODS
    }
    service = ExpansionService(
        dataset,
        config=ServiceConfig(port=0, **config_kwargs),
        factories=factories,
    )
    return ExpansionHTTPServer(service, port=0).start()


def make_gateway(dataset, servers, **config_kwargs) -> ClusterGateway:
    config = ClusterConfig(
        failover_cooldown_seconds=0.2, proxy_timeout_seconds=30.0, **config_kwargs
    )
    return ClusterGateway(
        [(f"worker-{i}", server.url) for i, server in enumerate(servers)],
        config=config,
        fingerprint=dataset.fingerprint(),
        port=0,
    ).start()


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


@pytest.fixture()
def traced_fleet(tiny_dataset):
    """Two always-sampling workers behind an always-sampling gateway."""
    servers = [
        make_worker(tiny_dataset, trace_sample_rate=1.0),
        make_worker(tiny_dataset, trace_sample_rate=1.0),
    ]
    gateway = make_gateway(
        tiny_dataset,
        servers,
        service=ServiceConfig(trace_sample_rate=1.0),
    )
    yield gateway, servers
    gateway.shutdown()
    for server in servers:
        server.shutdown()


class TestJoinedTraces:
    def test_gateway_request_yields_one_joined_trace(
        self, traced_fleet, tiny_dataset
    ):
        gateway, servers = traced_fleet
        query_id = tiny_dataset.queries[0].query_id
        status, _envelope, headers = http_post(
            gateway.url + "/v1/expand",
            {"method": STUB_METHODS[0], "query_id": query_id},
        )
        assert status == 200
        trace_id = headers["X-Repro-Trace-Id"]
        assert len(trace_id) == 32

        status, body, _ = http_get(gateway.url + f"/v1/traces/{trace_id}")
        assert status == 200
        record = json.loads(body)["data"]["trace"]
        assert record["trace_id"] == trace_id
        assert record["method"] == STUB_METHODS[0]
        assert record["kept"] == "sampled"

        spans = record["spans"]
        by_name = {}
        for entry in spans:
            by_name.setdefault(entry["name"], []).append(entry)
        # the joined tree: gateway envelope span, the proxy hop, and the
        # worker-side stages grafted under it — one trace, both tiers.
        assert "gateway" in by_name
        assert "proxy" in by_name
        assert "execute" in by_name
        assert "cache_lookup" in by_name
        gateway_span = by_name["gateway"][0]
        proxy_span = by_name["proxy"][0]
        assert proxy_span["parent"] == "gateway"
        assert proxy_span["parent_id"] == gateway_span["span_id"]
        assert proxy_span["meta"]["worker"] in ("worker-0", "worker-1")
        # worker orphans hang under the specific proxy hop instance.
        execute_span = by_name["execute"][0]
        roots = [e for e in spans if e.get("parent_id") is None]
        assert roots == [gateway_span]

        # the worker kept its own fragment under the SAME trace id, and
        # grafting preserved span durations exactly.
        worker_records = [
            (server, server.service.traces.get(trace_id))
            for server in servers
            if server.service.traces.get(trace_id) is not None
        ]
        assert len(worker_records) == 1
        _worker, worker_record = worker_records[0]
        worker_execute = next(
            e for e in worker_record["spans"] if e["name"] == "execute"
        )
        assert worker_execute["duration_ms"] == execute_span["duration_ms"]
        assert worker_execute["span_id"] == execute_span["span_id"]

    def test_gateway_trace_search_filters(self, traced_fleet, tiny_dataset):
        gateway, _servers = traced_fleet
        query_id = tiny_dataset.queries[0].query_id
        for method in STUB_METHODS[:3]:
            status, _envelope, _ = http_post(
                gateway.url + "/v1/expand", {"method": method, "query_id": query_id}
            )
            assert status == 200
        status, body, _ = http_get(
            gateway.url + f"/v1/traces?method={STUB_METHODS[0]}"
        )
        assert status == 200
        data = json.loads(body)["data"]
        assert data["count"] >= 1
        assert all(row["method"] == STUB_METHODS[0] for row in data["traces"])
        # malformed filters answer 400, not a scatter storm.
        status, body, _ = http_get(gateway.url + "/v1/traces?limit=banana")
        assert status == 400

    def test_worker_only_traces_reachable_through_the_gateway(
        self, tiny_dataset
    ):
        """Front-line traffic traced worker-side only (gateway tracing off)
        is still fetchable by id through the gateway's scatter fallback."""
        servers = [make_worker(tiny_dataset, trace_sample_rate=1.0)]
        gateway = make_gateway(tiny_dataset, servers)
        try:
            query_id = tiny_dataset.queries[0].query_id
            status, _envelope, _ = http_post(
                gateway.url + "/v1/expand",
                {"method": STUB_METHODS[0], "query_id": query_id},
            )
            assert status == 200
            rows = servers[0].service.traces.query(limit=1)
            assert rows
            trace_id = rows[0]["trace_id"]
            status, body, headers = http_get(
                gateway.url + f"/v1/traces/{trace_id}"
            )
            assert status == 200
            assert headers["X-Repro-Worker"] == "worker-0"
            record = json.loads(body)["data"]["trace"]
            assert record["trace_id"] == trace_id
        finally:
            gateway.shutdown()
            for server in servers:
                server.shutdown()

    def test_fleet_reads_stay_out_of_the_trace_ring(self, traced_fleet):
        """`cluster top` polls /v1/stats; an always-sampling gateway keeps
        none of those reads, while a proxied read is still traced."""
        gateway, _servers = traced_fleet
        with ExpansionClient.connect(gateway.url) as client:
            client.stats()
            assert gateway.traces.query() == []
            client.methods()
        assert len(gateway.traces.query()) == 1

    def test_unknown_trace_id_is_a_fleet_wide_404(self, traced_fleet):
        gateway, _servers = traced_fleet
        status, body, _ = http_get(gateway.url + "/v1/traces/" + "ab" * 16)
        assert status == 404
        payload = json.loads(body)["error"]
        assert payload["code"] == "not_found"
        assert payload["details"]["trace_id"] == "ab" * 16


class TestOneSamplingVerdict:
    """The gateway flips a request's one head-sampling coin and every proxy
    hop forwards the verdict in its ``traceparent``; a worker continues a
    sampled hop and flips no coin of its own for an unsampled one."""

    @pytest.mark.parametrize("slow_query_ms", [None, 10000.0])
    def test_workers_flip_no_coin_behind_a_tracing_gateway(
        self, tiny_dataset, slow_query_ms
    ):
        """At 0.25 and seed 7 on both tiers, 200 uncached expands trace only
        what the gateway sampled, with or without a slow threshold (10 s: a
        slow-only gateway trace forwards ``-00``, not ``-01``)."""
        requests = 200
        tracing = dict(
            trace_sample_rate=0.25,
            trace_sample_seed=7,
            trace_buffer_size=requests,
            slow_query_ms=slow_query_ms,
        )
        servers = [
            make_worker(tiny_dataset, cache_capacity=0, **tracing) for _ in range(2)
        ]
        gateway = make_gateway(tiny_dataset, servers, service=ServiceConfig(**tracing))
        try:
            query_id = tiny_dataset.queries[0].query_id
            for index in range(requests):
                status, _envelope, _ = http_post(
                    gateway.url + "/v1/expand",
                    # the six stub methods cover both shards.
                    {"method": STUB_METHODS[index % 6], "query_id": query_id},
                )
                assert status == 200
            gateway_kept = {row["trace_id"] for row in gateway.traces.query(limit=requests)}
            worker_rows = [
                row for server in servers for row in server.service.traces.query(limit=requests)
            ]
            worker_stats = [server.service.stats() for server in servers]
        finally:
            gateway.shutdown()
            for server in servers:
                server.shutdown()
        assert 0 < gateway.traces.stats()["sampled"] == len(gateway_kept) < requests
        assert all(stats["service"]["requests"] > 0 for stats in worker_stats)
        assert [stats["traces"]["sampled"] for stats in worker_stats] == [0, 0]
        worker_kept = {row["trace_id"] for row in worker_rows}
        assert worker_kept <= gateway_kept
        # each sampled request's worker continued the gateway's trace.
        assert worker_kept == gateway_kept
        assert {row["kept"] for row in worker_rows} == {"sampled"}

    def test_a_slow_only_gateway_trace_joins_the_worker_fragment(self, tiny_dataset):
        """With sampling off and every request slow, both tiers keep each
        expand as ``slow`` under one trace id, and the gateway's tree holds
        the worker's stages: an unsampled hop is continued when the worker
        traces it anyway."""
        tracing = dict(trace_sample_rate=0.0, slow_query_ms=0.0)
        servers = [make_worker(tiny_dataset, **tracing)]
        gateway = make_gateway(tiny_dataset, servers, service=ServiceConfig(**tracing))
        try:
            status, _envelope, headers = http_post(
                gateway.url + "/v1/expand",
                {"method": STUB_METHODS[0], "query_id": tiny_dataset.queries[0].query_id},
            )
            assert status == 200
            trace_id = headers["X-Repro-Trace-Id"]
            joined = gateway.traces.get(trace_id)
            fragment = servers[0].service.traces.get(trace_id)
            worker_traces = servers[0].service.traces.stats()
        finally:
            gateway.shutdown()
            for server in servers:
                server.shutdown()
        assert joined["kept"] == "slow" and fragment["kept"] == "slow"
        assert worker_traces["sampled"] == 0 and worker_traces["stored"] == 1
        names = {entry["name"] for entry in joined["spans"]}
        assert {"gateway", "proxy", "admission", "execute"} <= names


class TestClusterUsageMetering:
    def test_usage_rolls_up_into_dashboard_and_cost_column(
        self, tiny_dataset
    ):
        servers = [make_worker(tiny_dataset), make_worker(tiny_dataset)]
        gateway = make_gateway(tiny_dataset, servers)
        try:
            query_id = tiny_dataset.queries[0].query_id
            for method in STUB_METHODS[:4]:
                status, _envelope, _ = http_post(
                    gateway.url + "/v1/expand",
                    {"method": method, "query_id": query_id},
                )
                assert status == 200
            status, body, _ = http_get(gateway.url + "/v1/stats")
            assert status == 200
            data = json.loads(body)["data"]
            # each worker meters the expands it served; the gateway only
            # sums them.
            assert "usage" not in data["gateway"]
            served = [
                worker["usage"]["tenants"]["anonymous"]
                for worker in data["workers"].values()
                if worker["usage"]["tenants"]
            ]
            assert sum(bucket["requests"] for bucket in served) == 4
            # without a gate, the metered tenants give the cost column a
            # home, and `cluster top` renders it.
            frame = render_top(data)
            assert "COST(s)" in frame
            row = next(line for line in frame.splitlines() if line.startswith("anonymous"))
            _tenant, requests, throttled, cost = row.split()
            assert (requests, throttled) == ("4", "0")
            assert float(cost) == pytest.approx(
                sum(bucket["compute_seconds"] for bucket in served), abs=1e-3
            )
        finally:
            gateway.shutdown()
            for server in servers:
                server.shutdown()

    def test_client_usage_sums_the_fleet(self, tiny_dataset):
        servers = [make_worker(tiny_dataset), make_worker(tiny_dataset)]
        gateway = make_gateway(tiny_dataset, servers)
        try:
            query_id = tiny_dataset.queries[0].query_id
            # the six stub methods cover both shards.
            for method in (*STUB_METHODS, STUB_METHODS[0]):
                status, _envelope, _ = http_post(
                    gateway.url + "/v1/expand",
                    {"method": method, "query_id": query_id},
                )
                assert status == 200
            with ExpansionClient.connect(gateway.url) as client:
                stats = client.stats()
                usage = client.usage()
            assert usage == stats["usage"]
            anonymous = usage["tenants"]["anonymous"]
            # 7 expands, the repeat answered from its worker's cache.
            assert anonymous["requests"] == 7
            assert anonymous["cache_hits"] == 1
            # the gateway's top-level usage is the two workers' rows summed.
            rows = [
                worker["usage"]["tenants"]["anonymous"]
                for worker in stats["workers"].values()
            ]
            assert len(rows) == 2 and all(row["requests"] for row in rows)
            for field, value in anonymous.items():
                assert value == pytest.approx(sum(row[field] for row in rows), abs=1e-6)
            with ExpansionClient.connect(servers[0].url) as client:
                assert set(client.usage()) == {"tenants"}
        finally:
            gateway.shutdown()
            for server in servers:
                server.shutdown()

    def test_client_usage_is_empty_before_any_traffic(self, tiny_dataset):
        servers = [make_worker(tiny_dataset)]
        gateway = make_gateway(tiny_dataset, servers)
        try:
            with ExpansionClient.connect(gateway.url) as client:
                assert client.usage() == {"tenants": {}}
        finally:
            gateway.shutdown()
            for server in servers:
                server.shutdown()

    def test_fit_jobs_bill_the_requesting_tenant(self, tiny_dataset):
        servers = [make_worker(tiny_dataset)]
        gateway = make_gateway(tiny_dataset, servers)
        try:
            status, envelope, _ = http_post(
                gateway.url + "/v1/fits", {"method": STUB_METHODS[0]}
            )
            assert status == 200
            # charged before the reply left the worker: no polling needed.
            usage = servers[0].service.stats()["usage"]["tenants"]["anonymous"]
            assert usage["fits"] == 1
            assert usage["fit_seconds"] == pytest.approx(envelope["data"]["seconds"], abs=1e-6)
            assert usage["compute_seconds"] >= usage["fit_seconds"]
        finally:
            gateway.shutdown()
            for server in servers:
                server.shutdown()
