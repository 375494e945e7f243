"""Client SDK tests: transport parity, retries, error mapping, back-compat.

The same :class:`ExpansionService` is served to an in-process client and,
through :class:`ExpansionHTTPServer`, to an HTTP client — the two must be
indistinguishable: same responses, same exception classes, same envelopes.
A separate flaky stdlib server exercises the HTTP transport's bounded
retry-on-retryable behaviour.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.client import ExpansionClient, HttpTransport
from repro.config import ServiceConfig
from repro.core.base import Expander
from repro.exceptions import (
    DatasetError,
    ServiceError,
    TransportError,
    UnknownMethodError,
)
from repro.serve import ExpandOptions, ExpansionHTTPServer, ExpansionService
from repro.serve.server import stop_serve_loop
from repro.types import ExpansionResult


class StubExpander(Expander):
    name = "stub"
    supports_persistence = False

    def _expand(self, query, top_k):
        scored = [(eid, 1.0 / (1.0 + eid)) for eid in self.candidate_ids(query)]
        return ExpansionResult.from_scores(query.query_id, scored)


class SlowFitExpander(StubExpander):
    name = "slowstub"

    def _fit(self, dataset):
        import time

        time.sleep(0.2)


@pytest.fixture(scope="module")
def service(tiny_dataset):
    service = ExpansionService(
        tiny_dataset,
        config=ServiceConfig(port=0),
        factories={
            "stub": lambda _resources: StubExpander(),
            "slowstub": lambda _resources: SlowFitExpander(),
            # reserved for the concurrent-fit test: never fitted elsewhere,
            # so its first fit reliably outlives the second caller's arrival.
            "slowstub2": lambda _resources: SlowFitExpander(),
        },
    )
    yield service
    service.close()


@pytest.fixture(scope="module")
def server(service):
    server = ExpansionHTTPServer(service, port=0).start()
    yield server
    stop_serve_loop(server._httpd)  # keep the shared service alive for other tests
    server._httpd.server_close()


@pytest.fixture(scope="module")
def http_client(server):
    return ExpansionClient.connect(server.url)


@pytest.fixture(scope="module")
def inproc_client(service):
    return ExpansionClient.in_process(service)


@pytest.fixture(scope="module", params=["in_process", "http"])
def client(request, http_client, inproc_client):
    """Every test using this fixture runs once per transport."""
    return http_client if request.param == "http" else inproc_client


class TestTransportParity:
    def test_expand_is_identical_across_transports(
        self, http_client, inproc_client, tiny_dataset
    ):
        qid = tiny_dataset.queries[0].query_id
        options = ExpandOptions(top_k=10, use_cache=False)
        via_http = http_client.expand("stub", query_id=qid, options=options)
        via_inproc = inproc_client.expand("stub", query_id=qid, options=options)
        assert via_http.entity_ids() == via_inproc.entity_ids()
        assert [i.name for i in via_http.ranking] == [i.name for i in via_inproc.ranking]
        assert via_http.top_k == via_inproc.top_k == 10
        assert via_http.total == via_inproc.total

    def test_methods_and_stats_shapes_match(self, http_client, inproc_client):
        assert http_client.methods() == inproc_client.methods()
        assert set(http_client.stats()) == set(inproc_client.stats())
        assert http_client.healthz() == inproc_client.healthz() == {"status": "ok"}

    def test_both_transports_assign_request_ids(self, client):
        client.healthz()
        assert client.last_request_id is not None
        assert client.last_request_id.startswith("req-")

    def test_error_classes_match_across_transports(
        self, http_client, inproc_client, tiny_dataset
    ):
        qid = tiny_dataset.queries[0].query_id
        for make_call in (
            lambda c: c.expand("nope", query_id=qid),
            lambda c: c.expand("stub", query_id="no-such-query"),
            lambda c: c.expand("stub", class_id="no-such-class", positive_seed_ids=[0]),
            lambda c: c.expand("stub"),
        ):
            with pytest.raises(Exception) as http_exc:
                make_call(http_client)
            with pytest.raises(Exception) as inproc_exc:
                make_call(inproc_client)
            assert type(http_exc.value) is type(inproc_exc.value)
            assert str(http_exc.value) == str(inproc_exc.value)


class TestClientSurface:
    def test_expand_kwargs_build_options(self, client, tiny_dataset):
        qid = tiny_dataset.queries[0].query_id
        response = client.expand("stub", query_id=qid, top_k=8, offset=2, limit=3)
        assert response.total == 8
        assert response.offset == 2
        assert len(response.ranking) == 3

    def test_options_object_and_kwargs_are_exclusive(self, client):
        with pytest.raises(ServiceError):
            client.expand(
                "stub", query_id="q", options=ExpandOptions(top_k=5), top_k=5
            )

    def test_return_names_false_yields_nameless_ranking(self, client, tiny_dataset):
        qid = tiny_dataset.queries[0].query_id
        response = client.expand("stub", query_id=qid, top_k=5, return_names=False)
        assert response.names_resolved is False
        assert all(item.name is None for item in response.ranking)

    @pytest.mark.parametrize(
        "verb, path, payload",
        [
            # N expands are N requests.
            ("POST", "/v1/expand/batch", {"requests": [{"method": "stub"}]}),
            # a request's spans go to its reply or its slow-query line.
            ("GET", "/v1/traces", None),
            ("GET", "/v1/traces/" + "ab" * 16, None),
        ],
        ids=["batch", "traces", "trace-by-id"],
    )
    def test_retired_routes_are_enveloped_404s(self, client, verb, path, payload):
        """The batch and trace-search routes are gone: a worker and the
        in-process transport answer them like any unknown route."""
        status, body = client.transport.request(verb, path, payload)
        assert status == 404
        assert body["api_version"] == "v1"
        assert body["error"]["code"] == "not_found"
        assert body["error"]["details"] == {"path": path}

    def test_fit_workflow_round_trip(self, client):
        # the service is shared by both transports: whichever runs first fits.
        first = client.fit("slowstub")
        assert first["method"] == "slowstub"
        assert first["outcome"] in ("fitted", "already_fitted")
        assert first["seconds"] >= 0.0
        # a second fit of a fitted method completes as a no-op
        assert client.fit("slowstub")["outcome"] == "already_fitted"
        assert "slowstub" in client.stats()["registry"]["fitted"]

    def test_concurrent_fits_share_one_fit(self, http_client, inproc_client):
        # slowstub2 (a 0.2 s fit) is fitted nowhere else.  Whichever
        # transport takes the per-method lock first fits; the other waits for
        # it (or arrives after it) and pays nothing.
        fits_before = inproc_client.stats()["registry"]["fits"]
        results = {}
        threads = [
            threading.Thread(
                target=lambda name=name, c=c: results.update({name: c.fit("slowstub2")})
            )
            for name, c in (("inproc", inproc_client), ("http", http_client))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        outcomes = sorted(result["outcome"] for result in results.values())
        assert outcomes == ["already_fitted", "fitted"]
        assert inproc_client.stats()["registry"]["fits"] == fits_before + 1


class TestHttpErrorMapping:
    """Pinned status-code -> exception mapping over real HTTP."""

    def test_400_maps_to_service_error(self, http_client, tiny_dataset):
        with pytest.raises(ServiceError) as exc:
            http_client.expand("stub", query_id=tiny_dataset.queries[0].query_id, top_k=0)
        assert not isinstance(exc.value, (UnknownMethodError, DatasetError))

    def test_404_maps_to_unknown_method_and_dataset_errors(self, http_client):
        with pytest.raises(UnknownMethodError):
            http_client.expand("nope", query_id="whatever")
        with pytest.raises(DatasetError):
            http_client.expand("stub", query_id="no-such-query")

    def test_unknown_error_code_maps_to_service_error(self):
        script = _FlakyScript([(409, _error_body("conflict", retryable=False))])
        transport, shutdown = script.start()
        try:
            with pytest.raises(ServiceError) as exc:
                ExpansionClient(transport).fit("stub")
            assert type(exc.value) is ServiceError
            assert transport.attempts == 1
        finally:
            shutdown()

    def test_500_maps_to_service_error_after_retries(self):
        script = _FlakyScript(
            [(500, _error_body("internal", retryable=True))] * 3
        )
        transport, shutdown = script.start()
        try:
            client = ExpansionClient(transport)
            with pytest.raises(ServiceError):
                client.healthz()
            assert transport.attempts == 3  # initial + max_retries(2)
        finally:
            shutdown()


def _error_body(code: str, retryable: bool) -> dict:
    return {
        "api_version": "v1",
        "request_id": "req-flaky",
        "error": {
            "error": "ServerScripted",
            "code": code,
            "message": f"scripted {code}",
            "details": {},
            "retryable": retryable,
        },
    }


class _FlakyScript:
    """A real stdlib HTTP server answering from a scripted response list;
    once the script is exhausted it answers a healthy v1 envelope."""

    def __init__(self, responses: list[tuple[int, dict]]):
        self.responses = list(responses)

    def start(self, max_retries: int = 2):
        script = self.responses
        lock = threading.Lock()

        class Handler(BaseHTTPRequestHandler):
            def _answer(self):
                with lock:
                    if script:
                        status, body = script.pop(0)
                    else:
                        status, body = 200, {
                            "api_version": "v1",
                            "request_id": "req-ok",
                            "data": {"status": "ok", "job": {"job_id": "fit-x"}},
                        }
                encoded = json.dumps(body).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(encoded)))
                self.end_headers()
                self.wfile.write(encoded)

            do_GET = do_POST = _answer

            def log_message(self, *args):
                pass

        httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        host, port = httpd.server_address[:2]
        transport = HttpTransport(
            f"http://{host}:{port}",
            timeout=5.0,
            max_retries=max_retries,
            sleep=lambda _seconds: None,  # skip real backoff in tests
        )

        def shutdown():
            stop_serve_loop(httpd)
            httpd.server_close()

        return transport, shutdown


class TestHttpRetries:
    def test_retryable_responses_are_retried_until_success(self):
        script = _FlakyScript([(503, _error_body("unavailable", retryable=True))] * 2)
        transport, shutdown = script.start(max_retries=3)
        try:
            client = ExpansionClient(transport)
            assert client.healthz()["status"] == "ok"
            assert transport.attempts == 3  # two 503s, then the success
        finally:
            shutdown()

    def test_non_retryable_errors_are_not_retried(self):
        script = _FlakyScript([(404, _error_body("unknown_method", retryable=False))])
        transport, shutdown = script.start(max_retries=3)
        try:
            client = ExpansionClient(transport)
            with pytest.raises(UnknownMethodError):
                client.healthz()
            assert transport.attempts == 1
        finally:
            shutdown()

    def test_connection_failures_exhaust_into_transport_error(self):
        transport = HttpTransport(
            "http://127.0.0.1:9",  # discard port: nothing listens
            timeout=0.2,
            max_retries=1,
            sleep=lambda _seconds: None,
        )
        with pytest.raises(TransportError):
            transport.request("GET", "/v1/healthz")
        assert transport.attempts == 2

    def test_post_is_not_replayed_after_connection_failure(self):
        """A POST that may have reached the server must not be re-sent blindly
        (it may still be running there)."""
        transport = HttpTransport(
            "http://127.0.0.1:9",
            timeout=0.2,
            max_retries=3,
            sleep=lambda _seconds: None,
        )
        with pytest.raises(TransportError):
            transport.request("POST", "/v1/fits", {"method": "stub"})
        assert transport.attempts == 1


class TestKeepAlive:
    """Satellite: connection pooling on the HTTP transport."""

    def test_connections_are_reused_across_requests(self, server):
        transport = HttpTransport(server.url, timeout=10.0)
        try:
            for _ in range(3):
                status, _body = transport.request("GET", "/v1/healthz")
                assert status == 200
            assert transport.connections_opened == 1
            assert transport.stale_reconnects == 0
        finally:
            transport.close()

    def test_stale_pooled_connection_is_replayed_on_a_fresh_one(self, server):
        """A keep-alive socket the server closed while idle must not surface
        an error: the request replays once on a fresh connection."""
        import socket as socket_module

        transport = HttpTransport(server.url, timeout=10.0)
        try:
            assert transport.request("GET", "/v1/healthz")[0] == 200
            assert len(transport._idle) == 1
            # simulate the server dropping the idle keep-alive socket
            transport._idle[0].sock.shutdown(socket_module.SHUT_RDWR)
            status, body = transport.request("GET", "/v1/healthz")
            assert status == 200
            assert body["data"] == {"status": "ok"}
            assert transport.stale_reconnects == 1
            assert transport.attempts == 2  # two requests, no outer retries
        finally:
            transport.close()

    def test_replay_bypasses_a_pool_full_of_stale_sockets(self, server):
        """After e.g. a server restart every idle pooled socket is dead; the
        one-shot replay must use a genuinely fresh connection, not pop the
        next stale socket from the pool and give up."""
        import socket as socket_module

        transport = HttpTransport(server.url, timeout=10.0)
        try:
            assert transport.request("GET", "/v1/healthz")[0] == 200
            # hand-craft a second pooled connection, then kill both sockets
            extra = transport._fresh_connection()
            extra.request("GET", "/v1/healthz")
            extra.getresponse().read()
            transport._checkin(extra)
            assert len(transport._idle) == 2
            for connection in transport._idle:
                connection.sock.shutdown(socket_module.SHUT_RDWR)
            status, body = transport.request("GET", "/v1/healthz")
            assert status == 200
            assert body["data"] == {"status": "ok"}
            assert transport.stale_reconnects == 1
        finally:
            transport.close()

    def test_error_responses_do_not_poison_the_pool(self, server):
        """The server closes the connection on errors; the transport must not
        pool the dead socket (and the next call just opens a fresh one)."""
        transport = HttpTransport(server.url, timeout=10.0)
        try:
            status, _body = transport.request(
                "POST", "/v1/expand", {"method": "nope", "query_id": "q"}
            )
            assert status == 404
            assert transport._idle == []  # Connection: close honoured
            assert transport.request("GET", "/v1/healthz")[0] == 200
        finally:
            transport.close()
