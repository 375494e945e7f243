"""One HTTP contract for both serving tiers.

The worker (:class:`ExpansionHTTPServer`) and the gateway
(:class:`ClusterGateway`) share one HTTP front (:class:`HttpFront`), so the
HTTP mechanics — request ids, body limits, error replies, unknown routes and
shutdown — are checked once against each tier.  The last tests check that a
front starts no background work when its port is taken, and that shutting a
worker and gateway down leaves no threads or sockets behind.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import socket
import threading
import weakref
from http.server import BaseHTTPRequestHandler

import pytest

from repro.client import ExpansionClient
from repro.cluster import ClusterGateway
from repro.config import DatasetConfig, ServiceConfig
from repro.core.base import Expander
from repro.dataset.builder import build_dataset
from repro.serve import ExpansionHTTPServer, ExpansionService
from repro.serve.server import MAX_BODY_BYTES, _Handler, _TrackingHTTPServer
from repro.types import ExpansionResult

#: every server a test here starts must be gone, threads and sockets, by
#: the time the module is torn down (see ``no_leaks`` in conftest.py).
pytestmark = pytest.mark.usefixtures("no_leaks")

TIERS = ("worker", "gateway")


class StubExpander(Expander):
    name = "stub"

    def _expand(self, query, top_k):
        scored = [(eid, 1.0 / (1.0 + eid)) for eid in self.candidate_ids(query)]
        return ExpansionResult.from_scores(query.query_id, scored)


def make_worker(dataset) -> ExpansionHTTPServer:
    service = ExpansionService(
        dataset,
        config=ServiceConfig(port=0),
        factories={"stub": lambda _resources: StubExpander()},
    )
    return ExpansionHTTPServer(service, port=0).start()


def make_gateway(dataset, worker: ExpansionHTTPServer) -> ClusterGateway:
    return ClusterGateway(
        [("worker-0", worker.url)], fingerprint=dataset.fingerprint(), port=0
    ).start()


@pytest.fixture(scope="module")
def tiers(tiny_dataset):
    worker = make_worker(tiny_dataset)
    gateway = make_gateway(tiny_dataset, worker)
    yield {"worker": worker, "gateway": gateway}
    gateway.shutdown()
    worker.shutdown()


@pytest.fixture(params=TIERS)
def front(request, tiers):
    return tiers[request.param]


def call(front, verb, path, body=None, headers=None):
    """One request on a fresh connection: (status, headers, JSON body)."""
    connection = http.client.HTTPConnection(*front.address, timeout=10)
    try:
        connection.request(verb, path, body=body, headers=headers or {})
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), json.loads(response.read())
    finally:
        connection.close()


class TestHttpContract:
    def test_valid_request_id_is_echoed(self, front):
        status, headers, payload = call(
            front, "GET", "/v1/healthz", headers={"X-Request-Id": "client-42.a_b"}
        )
        assert status == 200
        assert headers["X-Request-Id"] == payload["request_id"] == "client-42.a_b"

    @pytest.mark.parametrize("bad_id", ["not ok!", "x" * 129])
    def test_malformed_request_id_is_replaced(self, front, bad_id):
        status, headers, payload = call(
            front, "GET", "/v1/healthz", headers={"X-Request-Id": bad_id}
        )
        assert status == 200
        assert payload["request_id"].startswith("req-")
        assert headers["X-Request-Id"] == payload["request_id"]

    @pytest.mark.parametrize("length", ["abc", str(MAX_BODY_BYTES + 1)])
    def test_bad_content_length_is_400_invalid_request(self, front, length):
        status, headers, payload = call(
            front, "POST", "/v1/expand", headers={"Content-Length": length}
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"
        assert headers["X-Request-Id"] == payload["request_id"]

    def test_error_reply_closes_the_connection(self, front):
        status, headers, payload = call(
            front,
            "POST",
            "/v1/expand",
            body=b"{broken",
            headers={"Content-Type": "application/json"},
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"
        assert headers["Connection"] == "close"

    @pytest.mark.parametrize(
        "body",
        [
            b'{"method": "stub", "query_id": "QID", "options": {"top_k": 1e999}}',
            b'{"method": "stub", "query_id": "QID", "options": {"top_k": 2.9}}',
            b'{"method": "stub", "class_id": "CID", "positive_seed_ids": [1e999]}',
        ],
    )
    def test_non_integral_numbers_are_400_not_retryable(
        self, front, tiny_dataset, body
    ):
        """JSON 1e999 parses to inf: a bad request, never a retryable 500."""
        query = tiny_dataset.queries[0]
        body = body.replace(b"QID", query.query_id.encode()).replace(
            b"CID", query.class_id.encode()
        )
        status, _headers, payload = call(front, "POST", "/v1/expand", body=body)
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"
        assert payload["error"]["retryable"] is False

    @pytest.mark.parametrize(
        "verb, path",
        [
            ("GET", "/v1/nothing"),
            ("GET", "/healthz"),
            ("POST", "/expand"),
            ("POST", "/v1/expand/batch"),  # retired: N expands are N requests
            # retired: a request's spans go to its reply or its slow-query line
            ("GET", "/v1/traces"),
            ("GET", "/v1/traces/" + "ab" * 16),
        ],
    )
    def test_unknown_route_is_an_enveloped_404(self, front, verb, path):
        status, headers, payload = call(front, verb, path)
        assert status == 404
        assert payload["api_version"] == "v1"
        assert payload["error"]["code"] == "not_found"
        assert payload["error"]["details"] == {"path": path}
        assert headers["X-Request-Id"] == payload["request_id"]

    def test_an_inbound_traceparent_is_ignored(self, front, tiny_dataset):
        """A sampled W3C ``traceparent`` neither traces the request nor
        changes its reply: no trace id or span fragment comes back."""
        body = json.dumps(
            {"method": "stub", "query_id": tiny_dataset.queries[0].query_id}
        )
        traceparent = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"
        status, headers, payload = call(
            front, "POST", "/v1/expand", body=body, headers={"traceparent": traceparent}
        )
        assert status == 200
        assert payload["data"]["ranking"]
        assert "debug" not in payload["data"]
        assert not {"X-Repro-Trace-Id", "X-Repro-Trace"} & set(headers)


@pytest.mark.parametrize("tier", TIERS)
def test_shutdown_severs_open_keep_alive_connections(tiny_dataset, tier):
    """A stopped front must not keep answering on a connection a client
    still holds: the next request on it fails instead of getting a 200."""
    worker = make_worker(tiny_dataset)
    front = make_gateway(tiny_dataset, worker) if tier == "gateway" else worker
    connection = http.client.HTTPConnection(*front.address, timeout=10)
    try:
        connection.request("GET", "/v1/methods")
        response = connection.getresponse()
        response.read()
        assert response.status == 200
        assert not response.will_close
        front.shutdown()
        with pytest.raises(ConnectionError):
            connection.request("GET", "/v1/methods")
            connection.getresponse()
    finally:
        connection.close()
        for server in {front, worker}:
            server.shutdown()  # a second shutdown is a no-op


def test_severed_connections_stay_quiet(capsys):
    """A peer hang-up (or a connection shutdown severed) prints no
    traceback; any other handler failure keeps socketserver's report."""
    httpd = _TrackingHTTPServer(("127.0.0.1", 0), BaseHTTPRequestHandler)
    try:
        for error, reported in ((ConnectionResetError(), False), (ValueError(), True)):
            try:
                raise error
            except Exception:
                httpd.handle_error(None, ("127.0.0.1", 0))
            assert ("Traceback" in capsys.readouterr().err) is reported
    finally:
        httpd.server_close()


def test_port_clash_starts_no_background_work(tiny_dataset):
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        before = set(threading.enumerate())
        with pytest.raises(OSError):
            ClusterGateway(
                [("worker-0", "http://127.0.0.1:9")],
                fingerprint=tiny_dataset.fingerprint(),
                host="127.0.0.1",
                port=taken.getsockname()[1],
            )
        assert [t.name for t in threading.enumerate() if t not in before] == []


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_shutdown_leaves_no_threads_or_sockets(tiny_dataset, process_snapshot):
    worker = make_worker(tiny_dataset)
    gateway = make_gateway(tiny_dataset, worker)
    client = ExpansionClient.connect(gateway.url)
    query_id = tiny_dataset.queries[0].query_id
    for _ in range(2):  # a miss, then a cache hit, on one kept-alive socket
        response = client.expand("stub", query_id=query_id, top_k=5)
        assert len(response.ranking) == 5
    # a fleet read puts the gateway's scatter pool to work.
    assert client.stats()["cluster"]["requests"] == 2
    # shut both tiers down while the client still holds its keep-alive socket.
    gateway.shutdown()
    worker.shutdown()
    leftover_threads = process_snapshot.leftover_threads()
    assert not leftover_threads, leftover_threads
    client.close()
    leftover_fds = process_snapshot.leftover_fds()
    assert not leftover_fds, leftover_fds


def test_a_shut_down_stack_is_freed_without_the_cycle_collector():
    """Shut down, a worker and a gateway hold no reference cycle through
    their fronts or routes: dropping them frees the service and the dataset
    by reference counting alone, with the cyclic collector off."""
    dataset = build_dataset(DatasetConfig.tiny(seed=5))
    gc.collect()
    gc.disable()
    try:
        worker = make_worker(dataset)
        gateway = make_gateway(dataset, worker)
        with ExpansionClient.connect(gateway.url) as client:
            client.expand("stub", query_id=dataset.queries[0].query_id, top_k=5)
        service, dataset = weakref.ref(worker.service), weakref.ref(dataset)
        gateway.shutdown()
        worker.shutdown()
        del worker, gateway
        assert service() is None
        assert dataset() is None
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "request_line, reply",
    [
        (b"GET /v1/healthz HTTP/1.1", b""),  # ended without a reply, as severed
        (b"PUT /v1/healthz HTTP/1.1", b"HTTP/1.1 501 "),  # http.server's own error
    ],
    ids=["GET", "PUT"],
)
def test_a_request_racing_shutdown_ends_cleanly(tiny_dataset, capsys, request_line, reply):
    """A connection accepted just before shutdown, handled after it: the
    stopped front has let go of its server, and the request still ends
    without a traceback."""
    worker = make_worker(tiny_dataset)
    httpd = worker._httpd
    worker.shutdown()
    with socket.create_server(("127.0.0.1", 0)) as listener:
        with socket.create_connection(listener.getsockname()) as client:
            accepted, address = listener.accept()
            with accepted:
                accepted.settimeout(10)
                client.sendall(request_line + b"\r\nHost: x\r\nConnection: close\r\n\r\n")
                _Handler(accepted, address, httpd)
            received = client.recv(4096)
    assert received.startswith(reply) and bool(received) == bool(reply), received[:40]
    assert "Traceback" not in capsys.readouterr().err
