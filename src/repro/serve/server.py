"""The one HTTP front of the serving stack, and the worker built on it.

:class:`HttpFront` holds everything HTTP that a serving tier needs, on the
stdlib :mod:`http.server` so the repo needs no web framework: binding, the
serve thread, a prompt :meth:`~HttpFront.shutdown` that also severs live
keep-alive connections, ``X-Request-Id`` handling (a valid inbound id is
honored, anything else replaced), body reads under :data:`MAX_BODY_BYTES`,
reply writing, and the JSON access log (one line per request, written just
before the reply goes out; ``GET /v1/healthz`` probes are left out).  A tier
implements only :meth:`~HttpFront.respond`, turning a :class:`Request` into a
:class:`Reply`.

:class:`ExpansionHTTPServer` is the worker tier: every ``/v1`` route of the
shared dispatcher (:class:`repro.api.v1.ApiV1`) in the versioned envelope,
plus Prometheus text at ``/v1/metrics``; any other path is an enveloped 404.
:class:`repro.cluster.ClusterGateway` is the other tier.
"""

from __future__ import annotations

import json
import logging
import socket
import sys
import threading
import time
from dataclasses import dataclass, field
from email.message import Message
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import BinaryIO

import repro.api.v1 as apiv1
from repro.api.envelope import (
    REQUEST_ID_HEADER,
    is_valid_request_id,
    new_request_id,
)
from repro.api.errors import error_payload, route_not_found_payload
from repro.exceptions import ReproError
from repro.gate import (
    API_KEY_HEADER,
    TENANT_HEADER,
    is_valid_tenant_id,
    operation_for,
    retry_after_header,
)
from repro.obs import PROMETHEUS_CONTENT_TYPE, request_scope, tenant_scope
from repro.serve.service import ExpansionService

#: request body size guard (1 MiB) against accidental or hostile payloads.
MAX_BODY_BYTES = 1 << 20

#: the liveness probe, which the access log leaves out.
_HEALTHZ = ("GET", "/v1/healthz")

#: the worker's structured access-log destination (one JSON document per line).
access_logger = logging.getLogger("repro.serve.access")


@dataclass
class Request:
    """One inbound request, as :meth:`HttpFront.respond` sees it."""

    verb: str
    #: the path without its query string or trailing slash.
    path: str
    #: the client's ``X-Request-Id`` when valid, else a fresh id.
    request_id: str
    headers: Message
    rfile: BinaryIO

    def header(self, name: str) -> str | None:
        """One header's stripped value; ``None`` when absent or blank."""
        return (self.headers.get(name) or "").strip() or None

    def read_body(self) -> bytes:
        """The body (``b""`` when there is none), read under
        :data:`MAX_BODY_BYTES`.  A malformed or oversized ``Content-Length``
        raises :class:`ReproError`, which maps to 400 ``invalid_request``."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError as exc:
            raise ReproError("Content-Length header is not a number") from exc
        if length > MAX_BODY_BYTES:
            raise ReproError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        return self.rfile.read(length) if length > 0 else b""


@dataclass
class Reply:
    """One reply: status, encoded body, extra headers, and the tier's own
    access-log fields."""

    status: int
    body: bytes
    headers: dict[str, str] = field(default_factory=dict)
    content_type: str = "application/json"
    log_fields: dict = field(default_factory=dict)

    @classmethod
    def envelope(cls, status: int, envelope: dict) -> "Reply":
        return cls(status, json.dumps(envelope).encode("utf-8"))


class _Handler(BaseHTTPRequestHandler):
    """Hands each request to the :class:`HttpFront` that owns the server and
    writes the :class:`Reply` it returns."""

    protocol_version = "HTTP/1.1"
    # Each reply goes out as two sends (buffered headers, then body); with
    # Nagle on, the body segment can sit in the server's TCP stack ~40ms
    # waiting for a delayed ACK from a keep-alive client.
    disable_nagle_algorithm = True

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._handle("POST")

    def do_DELETE(self) -> None:  # noqa: N802 (http.server API)
        self._handle("DELETE")

    def version_string(self) -> str:
        front: HttpFront | None = self.server.front  # type: ignore[attr-defined]
        product = (front or HttpFront).server_version
        return f"{product} {self.sys_version}"

    def _handle(self, verb: str) -> None:
        front: HttpFront | None = self.server.front  # type: ignore[attr-defined]
        if front is None:
            # the front shut down after this connection was accepted: end it
            # as shutdown ends the connections it severs, without a reply.
            self.close_connection = True
            return
        started = time.perf_counter()
        path = self.path.partition("?")[0]
        # Honor a syntactically valid client-supplied X-Request-Id so one id
        # correlates gateway log, worker log, and envelope; replace anything
        # malformed rather than echoing hostile bytes into logs and headers.
        inbound = (self.headers.get(REQUEST_ID_HEADER) or "").strip()
        request = Request(
            verb=verb,
            path=path.rstrip("/") or "/",
            request_id=inbound if is_valid_request_id(inbound) else new_request_id(),
            headers=self.headers,
            rfile=self.rfile,
        )
        # The request id rides a contextvar through respond() so deeper
        # layers (spans, the slow-query log, proxy hops) recover it unplumbed.
        with request_scope(request.request_id):
            reply = front.respond(request)
        # a proxied reply already carries the worker's echo of this same id.
        reply.headers.setdefault(REQUEST_ID_HEADER, request.request_id)
        # Logged before the reply goes out: a client that holds its reply
        # can already find the line.
        front._log_access(request, reply, started)
        self.send_response(reply.status)
        self.send_header("Content-Type", reply.content_type)
        self.send_header("Content-Length", str(len(reply.body)))
        for name, value in reply.headers.items():
            self.send_header(name, value)
        if reply.status >= 400:
            # An error reply may leave an unread request body on the socket;
            # closing keeps keep-alive clients from desynchronizing.
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(reply.body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silent: the structured access log (or nothing) replaces
        http.server's per-request stderr lines."""


def stop_serve_loop(httpd: ThreadingHTTPServer) -> None:
    """Stop ``httpd``'s running ``serve_forever`` loop and wait for it.

    socketserver's ``shutdown()`` alone waits for the loop's next 0.5 s
    poll.  Shutting the listening socket down first wakes the loop at once;
    a shorter poll would too, but would wake every serving process many
    times a second for nothing.
    """
    try:
        httpd.socket.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # refused on some platforms: the loop then stops at its next poll
    httpd.shutdown()


class _TrackingHTTPServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` that can sever live keep-alive connections.

    ``shutdown()`` only stops *new* connections; an idle keep-alive socket a
    client still holds (e.g. a gateway's connection pool) would keep being
    served by its handler thread, leaving a stopped front looking healthy
    to its clients.
    """

    daemon_threads = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._open_connections: set = set()
        self._connections_lock = threading.Lock()

    def process_request(self, request, client_address):
        with self._connections_lock:
            self._open_connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):  # runs on the handler thread
        with self._connections_lock:
            self._open_connections.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request, client_address):
        # A peer hang-up, or a connection close_all_connections() severed
        # mid-read, is routine; anything else keeps the default traceback.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def close_all_connections(self) -> None:
        with self._connections_lock:
            connections = list(self._open_connections)
            self._open_connections.clear()
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the peer already hung up


class HttpFront:
    """Binding, the serve thread, shutdown, and the HTTP plumbing of every
    request, shared by the worker and the gateway.

    The constructor binds ``(host, port)`` (port 0 picks a free one), so a
    port clash raises before a subclass starts any background work.  A
    subclass implements :meth:`respond` and releases what it owns in
    :meth:`_release`.
    """

    #: the ``Server`` header's product token.
    server_version = "repro-serve/1.0"
    #: name of the :meth:`start` thread.
    thread_name = "repro-serve"

    def __init__(
        self,
        host: str,
        port: int,
        access_log: logging.Logger | None = None,
    ):
        self._httpd = _TrackingHTTPServer((host, port), _Handler)
        self._httpd.front = self  # type: ignore[attr-defined]
        #: where access-log lines go; ``None`` keeps the access log off.
        self.access_log = access_log
        self._thread: threading.Thread | None = None
        self._serving = False

    def respond(self, request: Request) -> Reply:
        """Answer one request on its handler thread."""
        raise NotImplementedError

    def _release(self) -> None:
        """Release what the subclass owns, once serving has stopped."""

    # -- lifecycle ---------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — useful with an ephemeral port 0."""
        host, port = self._httpd.server_address[:2]
        return (str(host), int(port))

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self):
        """Serve on a daemon thread and return immediately (test/embedded use)."""
        self._serving = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name=self.thread_name, daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (CLI use)."""
        self._serving = True
        self._httpd.serve_forever()

    def shutdown(self) -> None:
        """Stop serving: wake the serve loop, sever live connections, close
        the listening socket, then release the subclass's resources."""
        if self._serving:
            # socketserver's shutdown() waits for a running serve loop to
            # exit, so on a never-started front it would block forever.
            self._serving = False
            stop_serve_loop(self._httpd)
        self._httpd.close_all_connections()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()
        # The server links back to its front; a stopped one lets go, so the
        # stack it served is freed as soon as its owner drops it rather than
        # at the next cyclic garbage collection.
        self._httpd.front = None  # type: ignore[attr-defined]
        self._release()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def _log_access(self, request: Request, reply: Reply, started: float) -> None:
        # Health probes (a worker pool's every 0.5 s) would bury the
        # request lines, so they stay out of the log.
        if self.access_log is None or (request.verb, request.path) == _HEALTHZ:
            return
        line = {
            "request_id": reply.headers[REQUEST_ID_HEADER],
            "method": request.verb,
            "route": request.path,
            "status": reply.status,
            "latency_ms": round((time.perf_counter() - started) * 1000.0, 3),
            **reply.log_fields,
        }
        self.access_log.info("%s", json.dumps(line, sort_keys=True))


class ExpansionHTTPServer(HttpFront):
    """One worker: the v1 API of one :class:`ExpansionService` over HTTP."""

    def __init__(
        self,
        service: ExpansionService,
        host: str | None = None,
        port: int | None = None,
    ):
        super().__init__(
            host if host is not None else service.config.host,
            port if port is not None else service.config.port,
            access_log=access_logger if service.config.access_log else None,
        )
        self.service = service
        self.api = apiv1.ApiV1(service)

    def respond(self, request: Request) -> Reply:
        verb, path = request.verb, request.path
        if verb == "GET" and path == "/v1/metrics":
            return Reply(
                200,
                self.service.metrics.render_prometheus().encode("utf-8"),
                content_type=PROMETHEUS_CONTENT_TYPE,
                log_fields={"cached": None},
            )

        # The front door: authenticate + charge quota before reading the
        # body or dispatching.  Liveness probes stay exempt (a throttled
        # worker must not look dead to its pool), and /v1/metrics returned
        # above so scrapes never burn tenant quota.
        gate = self.service.gate
        gate_error: "apiv1.ApiResult | None" = None
        tenant: str | None = None
        if gate is not None and not (verb == "GET" and path == "/v1/healthz"):
            try:
                tenant = gate.check(
                    request.header(API_KEY_HEADER), operation_for(verb, path)
                )
            except ReproError as exc:
                status, error = error_payload(exc)
                gate_error = apiv1.ApiResult(status=status, error=error)
        elif gate is None:
            # Behind a cluster gateway the worker runs open; it honors the
            # gateway's forwarded tenant (syntactically validated) so
            # per-tenant metrics attribute correctly fleet-wide.
            hint = request.header(TENANT_HEADER)
            if is_valid_tenant_id(hint):
                tenant = hint

        # The resolved tenant rides a contextvar through dispatch so deeper
        # layers (metric labels, the slow-query log) recover it unplumbed.
        with tenant_scope(tenant):
            result = gate_error or self._dispatch(request)
        headers: dict[str, str] = {}
        retry_after = ((result.error or {}).get("details") or {}).get("retry_after")
        if retry_after is not None:
            # integral delta-seconds, rounded up (RFC 9110); the exact float
            # rides in the error payload's details.retry_after.
            headers["Retry-After"] = retry_after_header(retry_after)
        return Reply(
            result.status,
            json.dumps(apiv1.render_v1_body(result, request.request_id)).encode("utf-8"),
            headers,
            log_fields={"cached": result.cached},
        )

    def _dispatch(self, request: Request) -> "apiv1.ApiResult":
        """Resolve the route, then read the body (POST), then dispatch.

        Routing comes first so an unknown path is a deterministic 404
        regardless of what (or whether) a body was sent."""
        verb, path = request.verb, request.path
        if not self.api.resolves(verb, path):
            return apiv1.ApiResult(status=404, error=route_not_found_payload(path))
        payload = None
        if verb == "POST":
            try:
                payload = _read_json(request)
            except ReproError as exc:
                status, error = error_payload(exc)
                return apiv1.ApiResult(status=status, error=error)
        return self.api.dispatch(verb, path, payload)

    def _release(self) -> None:
        self.service.close()


def _read_json(request: Request):
    raw = request.read_body()
    if not raw:
        raise ReproError("request body is empty")
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ReproError(f"request body is not valid JSON: {exc}") from exc
