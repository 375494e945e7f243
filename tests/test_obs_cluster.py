"""Fleet-level observability tests: the fleet /v1/stats and its
``repro cluster top`` rendering, gateway /v1/metrics, end-to-end
request-id correlation, and per-tenant usage summed across the fleet.

Thread-backed workers (real :class:`ExpansionHTTPServer` instances on
ephemeral ports) behind a real :class:`ClusterGateway`, as in
``tests/test_cluster.py`` — both access logs land in this process, so one
client-supplied ``X-Request-Id`` can be followed through the gateway log,
the worker log, and the response envelope.
"""

from __future__ import annotations

import json
import logging
import urllib.error
import urllib.request

import pytest

from repro.client import ExpansionClient
from repro.cluster import ClusterConfig, ClusterGateway
from repro.config import ServiceConfig
from repro.core.base import Expander
from repro.obs import PROMETHEUS_CONTENT_TYPE
from repro.obs.top import render_top
from repro.serve import ExpansionHTTPServer, ExpansionService
from repro.types import ExpansionResult

#: every server a test here starts must be gone, threads and sockets, by
#: the time the module is torn down (see ``no_leaks`` in conftest.py).
pytestmark = pytest.mark.usefixtures("no_leaks")

#: enough methods that a 2-worker ring owns some on each shard.
STUB_METHODS = tuple(f"stub{letter}" for letter in "abcdef")


class DashStubExpander(Expander):
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
        method: (lambda _res, m=method: DashStubExpander(m))
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


@pytest.fixture()
def fleet(tiny_dataset):
    """Two workers + gateway (with access logs on both tiers)."""
    servers = [
        make_worker(tiny_dataset, access_log=True),
        make_worker(tiny_dataset, access_log=True),
    ]
    gateway = make_gateway(tiny_dataset, servers, gateway_access_log=True)
    yield gateway, servers
    gateway.shutdown()
    for server in servers:
        try:
            server.shutdown()
        except Exception:
            pass  # one worker is shut down mid-test by design


class TestDashboard:
    def test_dashboard_joins_the_fleet_and_degrades_cleanly(self, fleet, tiny_dataset):
        gateway, servers = fleet
        query_id = tiny_dataset.queries[0].query_id
        for method in STUB_METHODS[:4]:
            status, envelope, _ = http_post(
                gateway.url + "/v1/expand", {"method": method, "query_id": query_id}
            )
            assert status == 200

        with ExpansionClient.connect(gateway.url) as client:
            stats = client.stats()
            frame = render_top(stats)
        assert stats["cluster"]["requests"] >= 4
        assert set(stats["workers"]) == {"worker-0", "worker-1"}
        fitted_somewhere = [
            method
            for worker in stats["workers"].values()
            for method in worker["registry"]["fitted"]
        ]
        assert set(fitted_somewhere) == set(STUB_METHODS[:4])
        assert stats["gateway"]["proxied"] >= 4
        assert "fleet OK (2/2 workers healthy)" in frame
        assert "DOWN" not in frame

        # one worker dies mid-test: the frame reports the fleet degraded.
        servers[1].shutdown()
        with ExpansionClient.connect(gateway.url) as client:
            stats = client.stats()
            frame = render_top(stats)
        assert stats["workers"]["worker-1"] == {"unreachable": True}
        assert "fleet DEGRADED (1/2 workers healthy)" in frame
        assert "worker-1" in frame and "DOWN" in frame

    def test_dashboard_route_is_gone(self, fleet):
        gateway, _servers = fleet
        for path in ("/v1/dashboard", "/v1/dashboard?format=html"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                http_get(gateway.url + path)
            assert excinfo.value.code == 404
            payload = json.loads(excinfo.value.read())["error"]
            assert payload["code"] == "not_found"


class TestRenderTop:
    """One scripted fleet document, rendered to a golden frame."""

    STATS = {
        "cluster": {"requests": 40, "errors": 1, "cache_hits": 30, "cache_misses": 10},
        "gateway": {
            "proxied": 47,
            "failovers": 1,
            "backend_errors": 2,
            "sidelined": ["worker-2"],
        },
        # the workers' usage rows summed per tenant by the gateway.
        "usage": {
            "tenants": {
                "acme": {
                    "requests": 20, "cache_hits": 5, "fits": 1,
                    "compute_seconds": 1.25, "fit_seconds": 1.0,
                },
                "beta": {
                    "requests": 8, "cache_hits": 0, "fits": 0,
                    "compute_seconds": 0.0421, "fit_seconds": 0.0,
                },
            }
        },
        "gate": {
            "requests": {"acme": 30, "beta": 12},
            "throttled": {"beta": 4, "mallory": 9},
        },
        "workers": {
            "worker-0": {
                "service": {
                    "requests": 25,
                    "errors": 1,
                    "latency_ms": {
                        "count": 25, "sum": 60.0, "p50": 1.5, "p99": 4.9,
                        "buckets": [[1.0, 5], [2.5, 20], [5.0, 25], ["+Inf", 25]],
                    },
                },
                "cache": {"hits": 20, "misses": 5},
                "registry": {
                    "fitted": ["retexpan", "genexpan", "setexpan"],
                    "substrates": {
                        "resident": 3,
                        "ann": {"queries": 10, "probes": 25, "shortlisted": 1200},
                    },
                },
                "usage": {
                    "tenants": {
                        "acme": {
                            "requests": 20, "cache_hits": 5, "fits": 1,
                            "compute_seconds": 1.25, "fit_seconds": 1.0,
                        }
                    }
                },
            },
            "worker-1": {
                "service": {
                    "requests": 15,
                    "errors": 0,
                    "latency_ms": {
                        "count": 15, "sum": 1500.0, "p50": 90.0, "p99": 1200.0,
                        "buckets": [[1.0, 0], [2.5, 5], [5.0, 10], ["+Inf", 15]],
                    },
                },
                "cache": {"hits": 10, "misses": 5},
                "registry": {
                    "fitted": [],
                    "substrates": {
                        "resident": 0,
                        "ann": {"queries": 0, "probes": 0, "shortlisted": 0},
                    },
                },
                "usage": {
                    "tenants": {
                        "beta": {
                            "requests": 8, "cache_hits": 0, "fits": 0,
                            "compute_seconds": 0.0421, "fit_seconds": 0.0,
                        }
                    }
                },
            },
            "worker-2": {"unreachable": True},
        },
    }
    FRAME = """\
repro cluster top — fleet DEGRADED (2/3 workers healthy)
cluster: requests=40 errors=1 cache_hit=75% p50=2.1ms p90=5.0ms p99=5.0ms
ann: queries=10 probes/q=2.5 shortlist/q=120
gateway: proxied=47 failovers=1 backend_errors=2 sidelined=1

WORKER       STATE     REQS   ERRS  CACHE       P50       P99  SUBS FITTED
--------------------------------------------------------------------------
worker-0     up          25      1    80%     1.5ms     4.9ms     3 retexpan,genexpan,setexpan
worker-1     up          15      0    67%    90.0ms     1.20s     0 -
worker-2     DOWN         -      -      -         -         -     - -

TENANT                       REQS  THROTTLED    COST(s)
-------------------------------------------------------
acme                           30          0      1.250
beta                           12          4      0.042
mallory                         0          9          -"""

    def test_golden_frame(self):
        assert render_top(self.STATS) == self.FRAME

    def test_open_fleet_rows_come_from_usage(self):
        stats = {key: value for key, value in self.STATS.items() if key != "gate"}
        frame = render_top(stats)
        tenants = frame.split("\n\n")[-1].splitlines()
        assert tenants[2:] == [
            "acme                           20          0      1.250",
            "beta                            8          0      0.042",
        ]


class TestGatewayMetrics:
    def test_gateway_metrics_render_prometheus_text(self, fleet, tiny_dataset):
        gateway, _servers = fleet
        query_id = tiny_dataset.queries[0].query_id
        http_post(
            gateway.url + "/v1/expand",
            {"method": STUB_METHODS[0], "query_id": query_id},
        )
        status, body, headers = http_get(gateway.url + "/v1/metrics")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        text = body.decode("utf-8")
        assert "# TYPE repro_gateway_requests_total counter" in text
        assert "# TYPE repro_gateway_routed_total counter" in text
        assert f'fingerprint="{tiny_dataset.fingerprint()}"' in text
        assert 'worker="worker-0"' in text
        assert 'worker="worker-1"' in text

    def test_gateway_stats_wire_shape_is_a_registry_view(self, fleet, tiny_dataset):
        gateway, _servers = fleet
        query_id = tiny_dataset.queries[0].query_id
        http_post(
            gateway.url + "/v1/expand",
            {"method": STUB_METHODS[0], "query_id": query_id},
        )
        stats = gateway.stats()
        assert set(stats) == {
            "workers", "fingerprint", "virtual_nodes", "requests", "proxied",
            "failovers", "backend_errors", "no_backend_available", "routed",
            "sidelined",
        }
        assert stats["requests"] >= 1
        assert stats["proxied"] >= 1
        assert set(stats["routed"]) == {"worker-0", "worker-1"}
        assert sum(stats["routed"].values()) == stats["proxied"]


def _log_lines(caplog, logger_name: str) -> list[dict]:
    """JSON records from ``logger_name``.  Each tier writes its access-log
    line before its reply goes out, so a client holding the gateway's reply
    already finds the worker's and the gateway's lines."""
    return [
        json.loads(record.message)
        for record in caplog.records
        if record.name == logger_name
    ]


class TestRequestIdCorrelation:
    def test_one_client_id_spans_gateway_log_worker_log_and_envelope(
        self, fleet, tiny_dataset, caplog
    ):
        gateway, _servers = fleet
        query_id = tiny_dataset.queries[0].query_id
        client_id = "e2e-correlate-42"
        with caplog.at_level(logging.INFO, logger="repro.serve.access"):
            with caplog.at_level(logging.INFO, logger="repro.cluster.access"):
                status, envelope, headers = http_post(
                    gateway.url + "/v1/expand",
                    {"method": STUB_METHODS[0], "query_id": query_id},
                    headers={"X-Request-Id": client_id},
                )
                worker_lines = _log_lines(caplog, "repro.serve.access")
                gateway_lines = _log_lines(caplog, "repro.cluster.access")
        assert status == 200
        assert envelope["request_id"] == client_id
        assert headers["X-Request-Id"] == client_id
        assert any(line["request_id"] == client_id for line in worker_lines)
        assert any(line["request_id"] == client_id for line in gateway_lines)
        matched = [line for line in gateway_lines if line["request_id"] == client_id]
        assert matched[0]["route"] == "/v1/expand"
        assert matched[0]["worker"] in ("worker-0", "worker-1")

    def test_malformed_client_id_is_replaced_at_the_gateway(
        self, fleet, tiny_dataset
    ):
        gateway, _servers = fleet
        query_id = tiny_dataset.queries[0].query_id
        status, envelope, headers = http_post(
            gateway.url + "/v1/expand",
            {"method": STUB_METHODS[0], "query_id": query_id},
            headers={"X-Request-Id": "not ok\x01"},
        )
        assert status == 200
        assert envelope["request_id"].startswith("req-")
        assert headers["X-Request-Id"] == envelope["request_id"]


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
