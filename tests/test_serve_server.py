"""HTTP round-trip tests for the serving front-end (ephemeral port)."""

from __future__ import annotations

import json
import logging
import urllib.error
import urllib.request

import pytest

from repro.config import ServiceConfig
from repro.core.base import Expander
from repro.serve import ExpansionHTTPServer, ExpansionService
from repro.types import ExpansionResult


class StubExpander(Expander):
    name = "stub"

    def _expand(self, query, top_k):
        scored = [(eid, 1.0 / (1.0 + eid)) for eid in self.candidate_ids(query)]
        return ExpansionResult.from_scores(query.query_id, scored)


@pytest.fixture(scope="module")
def server(tiny_dataset):
    service = ExpansionService(
        tiny_dataset,
        config=ServiceConfig(port=0),
        factories={"stub": lambda _resources: StubExpander()},
    )
    server = ExpansionHTTPServer(service, port=0).start()
    yield server
    server.shutdown()


def get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=10) as response:
        return response.status, json.loads(response.read())


def post(server, path, payload):
    body = json.dumps(payload).encode("utf-8") if not isinstance(payload, bytes) else payload
    request = urllib.request.Request(
        server.url + path, data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestEndpoints:
    def test_healthz(self, server):
        status, payload = get(server, "/v1/healthz")
        assert status == 200
        assert payload["data"] == {"status": "ok"}

    def test_methods_lists_the_registry(self, server):
        status, payload = get(server, "/v1/methods")
        assert status == 200
        assert {row["method"] for row in payload["data"]["methods"]} == {"stub"}

    def test_expand_round_trip_and_cache_hit(self, server, tiny_dataset):
        query = tiny_dataset.queries[0]
        body = {"method": "stub", "query_id": query.query_id, "options": {"top_k": 10}}

        status, payload = post(server, "/v1/expand", body)
        first = payload["data"]
        assert status == 200
        assert first["cached"] is False
        assert first["query_id"] == query.query_id
        assert len(first["ranking"]) == 10
        returned = {item["entity_id"] for item in first["ranking"]}
        assert not returned & set(query.seed_ids())

        hits_before = get(server, "/v1/stats")[1]["data"]["cache"]["hits"]
        status, payload = post(server, "/v1/expand", body)
        second = payload["data"]
        assert status == 200
        assert second["cached"] is True
        assert [i["entity_id"] for i in second["ranking"]] == [
            i["entity_id"] for i in first["ranking"]
        ]
        assert get(server, "/v1/stats")[1]["data"]["cache"]["hits"] == hits_before + 1

    def test_stats_shape(self, server):
        status, payload = get(server, "/v1/stats")
        assert status == 200
        assert set(payload["data"]) == {"service", "cache", "registry", "usage"}
        assert payload["data"]["service"]["requests"] >= 1

    def test_concurrent_http_clients(self, server, tiny_dataset):
        from concurrent.futures import ThreadPoolExecutor

        queries = tiny_dataset.queries[:6]
        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(
                pool.map(
                    lambda q: post(
                        server,
                        "/v1/expand",
                        {"method": "stub", "query_id": q.query_id, "options": {"top_k": 5}},
                    ),
                    queries,
                )
            )
        assert all(status == 200 for status, _ in results)
        assert {payload["data"]["query_id"] for _, payload in results} == {
            q.query_id for q in queries
        }


class TestErrorMapping:
    def test_unknown_method_is_404(self, server, tiny_dataset):
        status, payload = post(
            server,
            "/v1/expand",
            {"method": "nope", "query_id": tiny_dataset.queries[0].query_id},
        )
        assert status == 404
        assert payload["error"]["error"] == "UnknownMethodError"

    def test_unknown_class_is_404(self, server):
        status, payload = post(
            server,
            "/v1/expand",
            {"method": "stub", "class_id": "no-such-class", "positive_seed_ids": [0]},
        )
        assert status == 404
        assert payload["error"]["error"] == "DatasetError"

    def test_unknown_query_id_is_404(self, server):
        status, _ = post(server, "/v1/expand", {"method": "stub", "query_id": "missing"})
        assert status == 404

    def test_malformed_json_is_400(self, server):
        status, payload = post(server, "/v1/expand", b"{not json")
        assert status == 400
        assert "JSON" in payload["error"]["message"]

    def test_non_numeric_content_length_is_400(self, server):
        import http.client

        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.putrequest("POST", "/v1/expand")
            connection.putheader("Content-Length", "abc")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            error = json.loads(response.read())["error"]
            assert error["message"].startswith("Content-Length")
        finally:
            connection.close()

    def test_error_responses_close_the_connection(self, server):
        status, _ = post(server, "/v1/expand", b"{not json")
        assert status == 400
        # header check via a raw connection
        import http.client

        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.request(
                "POST",
                "/v1/expand",
                body=b"{broken",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            assert response.getheader("Connection") == "close"
        finally:
            connection.close()

    def test_invalid_request_fields_are_400(self, server, tiny_dataset):
        status, _ = post(
            server,
            "/v1/expand",
            {
                "method": "stub",
                "query_id": tiny_dataset.queries[0].query_id,
                "options": {"top_k": -3},
            },
        )
        assert status == 400

    def test_unknown_route_is_404(self, server):
        status, _ = post(server, "/elsewhere", {"method": "stub"})
        assert status == 404
        try:
            with urllib.request.urlopen(server.url + "/nothing", timeout=10) as response:
                status = response.status
        except urllib.error.HTTPError as error:
            status = error.code
        assert status == 404


class TestV1Endpoints:
    def test_v1_routes_serve_envelopes_with_request_ids(self, server, tiny_dataset):
        status, payload = get(server, "/v1/healthz")
        assert status == 200
        assert payload["api_version"] == "v1"
        assert payload["request_id"].startswith("req-")
        assert payload["data"] == {"status": "ok"}

        query = tiny_dataset.queries[0]
        status, payload = post(
            server,
            "/v1/expand",
            {"method": "stub", "query_id": query.query_id, "options": {"top_k": 5}},
        )
        assert status == 200
        assert payload["api_version"] == "v1"
        data = payload["data"]
        assert data["count"] == len(data["ranking"]) == 5
        assert data["total"] == 5
        assert data["offset"] == 0

    def test_v1_request_id_header_is_echoed(self, server):
        with urllib.request.urlopen(server.url + "/v1/healthz", timeout=10) as response:
            header = response.headers.get("X-Request-Id")
            payload = json.loads(response.read())
        assert header == payload["request_id"]

    def test_v1_errors_carry_the_taxonomy(self, server):
        status, payload = post(server, "/v1/expand", {"method": "nope", "query_id": "q"})
        assert status == 404
        error = payload["error"]
        assert set(error) == {"error", "code", "message", "details", "retryable"}
        assert error["code"] == "unknown_method"
        assert error["retryable"] is False

    def test_v1_methods_report_persistence_metadata(self, server):
        status, payload = get(server, "/v1/methods")
        assert status == 200
        (row,) = payload["data"]["methods"]
        assert row["method"] == "stub"
        assert row["supports_persistence"] is False
        assert row["state_version"] == 1
        assert row["store_artifact"] is None  # no store attached

    def test_v1_stats_carry_no_job_counters(self, server):
        status, payload = get(server, "/v1/stats")
        assert status == 200
        assert {"service", "cache", "registry"} <= set(payload["data"])
        assert "jobs" not in payload["data"]

    def test_post_to_unknown_or_get_only_v1_route_is_404_even_without_a_body(
        self, server
    ):
        """Routing must win over body validation: a 400 for an empty body on a
        route that does not exist would mislead clients probing paths."""
        import http.client

        host, port = server.address
        for path in ("/v1/nothing", "/v1/healthz"):
            connection = http.client.HTTPConnection(host, port, timeout=10)
            try:
                connection.request("POST", path)  # no body at all
                response = connection.getresponse()
                assert response.status == 404
                assert json.loads(response.read())["error"]["code"] == "not_found"
            finally:
                connection.close()

    def test_unknown_v1_route_is_an_enveloped_404(self, server):
        try:
            urllib.request.urlopen(server.url + "/v1/nothing", timeout=10)
            raise AssertionError("expected a 404")
        except urllib.error.HTTPError as error:
            assert error.code == 404
            payload = json.loads(error.read())
        assert payload["api_version"] == "v1"
        assert payload["error"]["code"] == "not_found"


def test_access_log_emits_structured_lines(tiny_dataset, caplog):
    """Per-request JSON access logging behind ServiceConfig.access_log;
    health probes stay out of it."""
    service = ExpansionService(
        tiny_dataset,
        config=ServiceConfig(port=0, access_log=True),
        factories={"stub": lambda _resources: StubExpander()},
    )
    query = tiny_dataset.queries[0]
    with caplog.at_level(logging.INFO, logger="repro.serve.access"):
        with ExpansionHTTPServer(service, port=0).start() as server:
            get(server, "/v1/healthz")
            post(
                server,
                "/v1/expand",
                {"method": "stub", "query_id": query.query_id, "options": {"top_k": 5}},
            )
    lines = [json.loads(record.getMessage()) for record in caplog.records
             if record.name == "repro.serve.access"]
    assert len(lines) == 1
    (expand,) = lines
    assert set(expand) == {
        "request_id", "method", "route", "status", "latency_ms", "cached",
    }
    assert expand["request_id"].startswith("req-")
    assert expand["status"] == 200
    assert expand["latency_ms"] >= 0.0
    assert expand["route"] == "/v1/expand"
    assert expand["method"] == "POST"
    assert expand["cached"] is False


def test_access_log_is_off_by_default(tiny_dataset, caplog):
    service = ExpansionService(
        tiny_dataset,
        config=ServiceConfig(port=0),
        factories={"stub": lambda _resources: StubExpander()},
    )
    with caplog.at_level(logging.INFO, logger="repro.serve.access"):
        with ExpansionHTTPServer(service, port=0).start() as server:
            get(server, "/v1/healthz")
    assert not [r for r in caplog.records if r.name == "repro.serve.access"]


def test_server_shutdown_closes_the_service(tiny_dataset):
    service = ExpansionService(
        tiny_dataset,
        config=ServiceConfig(port=0),
        factories={"stub": lambda _resources: StubExpander()},
    )
    server = ExpansionHTTPServer(service, port=0).start()
    assert get(server, "/v1/healthz")[0] == 200
    server.shutdown()
    with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
        urllib.request.urlopen(server.url + "/v1/healthz", timeout=1)
