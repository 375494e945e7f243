"""A dependency-free JSON/HTTP front-end for the expansion service.

Built on the stdlib :mod:`http.server` (``ThreadingHTTPServer``) so the repo
stays installable without a web framework.  All routes are served by the
shared v1 dispatcher (:class:`repro.api.v1.ApiV1`):

* ``/v1/healthz`` ``/v1/methods`` ``/v1/stats`` ``/v1/expand``
  ``/v1/expand/batch`` ``/v1/fits[...]`` (``POST``/``GET``/``DELETE``) —
  versioned envelope responses
  (``api_version`` + server-assigned ``request_id``, also echoed in the
  ``X-Request-Id`` header) with the structured error taxonomy;
* ``/healthz`` ``/methods`` ``/stats`` ``/expand`` — **deprecated** aliases
  that delegate to the same v1 handlers but keep the exact pre-v1 wire
  shapes (no envelope, ``{"error", "message"}`` failures) and answer with a
  ``Deprecation: true`` header.

With ``ServiceConfig.access_log`` enabled, every request emits one
structured JSON line (request_id, verb, route, status, latency_ms, cache
hit) on the ``repro.serve.access`` logger instead of
``BaseHTTPRequestHandler``'s default stderr chatter.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

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
from repro.obs import (
    PROMETHEUS_CONTENT_TYPE,
    TRACE_ID_HEADER,
    TRACE_SPANS_HEADER,
    TRACEPARENT_HEADER,
    Trace,
    activate,
    parse_traceparent,
    request_scope,
    tenant_scope,
)
from repro.serve.service import ExpansionService

#: request body size guard (1 MiB) against accidental or hostile payloads.
MAX_BODY_BYTES = 1 << 20

#: structured access-log destination (one JSON document per line).
access_logger = logging.getLogger("repro.serve.access")

#: deprecated unversioned route -> the v1 route it delegates to.
LEGACY_ROUTES = {
    ("GET", "/healthz"): "/v1/healthz",
    ("GET", "/methods"): "/v1/methods",
    ("GET", "/stats"): "/v1/stats",
    ("POST", "/expand"): "/v1/expand",
}


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the :class:`ApiV1` dispatcher set on the server."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    # The handler writes each response as two sends (buffered headers, then
    # body); with Nagle on, the body segment can sit in the server's TCP
    # stack ~40ms waiting for a delayed ACK from a keep-alive client.
    disable_nagle_algorithm = True

    @property
    def service(self) -> ExpansionService:
        return self.server.service  # type: ignore[attr-defined]

    @property
    def api(self) -> "apiv1.ApiV1":
        return self.server.api  # type: ignore[attr-defined]

    # -- routing -----------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._handle("POST")

    def do_DELETE(self) -> None:  # noqa: N802 (http.server API)
        self._handle("DELETE")

    def _handle(self, verb: str) -> None:
        started = time.perf_counter()
        raw_path, _, query = self.path.partition("?")
        path = raw_path.rstrip("/") or "/"
        # Honor a syntactically valid client-supplied X-Request-Id so one id
        # correlates gateway log, worker log, and envelope; replace anything
        # malformed rather than echoing hostile bytes into logs and headers.
        inbound = (self.headers.get(REQUEST_ID_HEADER) or "").strip()
        request_id = inbound if is_valid_request_id(inbound) else new_request_id()
        if verb == "GET" and path == "/v1/metrics":
            self._send_raw(
                200,
                self.service.metrics.render_prometheus().encode("utf-8"),
                PROMETHEUS_CONTENT_TYPE,
                request_id,
            )
            self._access_log(
                request_id=request_id,
                verb=verb,
                route=path,
                status=200,
                latency_ms=(time.perf_counter() - started) * 1000.0,
                cached=None,
                deprecated=False,
            )
            return
        legacy_target = LEGACY_ROUTES.get((verb, path))
        is_v1 = path.startswith("/v1")
        target = legacy_target or path

        # The front door: authenticate + charge quota before reading the
        # body or dispatching.  Liveness probes stay exempt (a throttled
        # worker must not look dead to its pool), and /v1/metrics returned
        # above so scrapes never burn tenant quota.
        gate = self.service.gate
        gate_error: "apiv1.ApiResult | None" = None
        tenant: str | None = None
        if gate is not None and not (verb == "GET" and target == "/v1/healthz"):
            api_key = (self.headers.get(API_KEY_HEADER) or "").strip() or None
            try:
                tenant = gate.check(api_key, operation_for(verb, target))
            except ReproError as exc:
                status, error = error_payload(exc)
                gate_error = apiv1.ApiResult(status=status, error=error)
        elif gate is None:
            # Behind a cluster gateway the worker runs open; it honors the
            # gateway's forwarded tenant (syntactically validated) so
            # per-tenant metrics attribute correctly fleet-wide.
            hint = (self.headers.get(TENANT_HEADER) or "").strip()
            if is_valid_tenant_id(hint):
                tenant = hint

        # Trace continuation/creation: a gateway hop carries a sampled
        # ``traceparent`` we must continue under the same trace_id; a
        # front-line worker makes its own head-sampling decision (or traces
        # anyway when a slow-query threshold might want the spans).
        context = parse_traceparent(self.headers.get(TRACEPARENT_HEADER))
        collector = self.service.traces
        trace: Trace | None = None
        if context is not None and context.sampled:
            trace = Trace(
                request_id=request_id,
                trace_id=context.trace_id,
                parent_span_id=context.span_id,
            )
            trace.sampled = True
        elif collector is not None:
            sampled = collector.sample()
            if sampled or collector.slow_ms is not None:
                trace = Trace(request_id=request_id)
                trace.sampled = sampled

        # The request id (and resolved tenant, and trace) ride contextvars
        # through dispatch so deeper layers (spans, the slow-query log,
        # metric labels) can recover them unplumbed.
        with request_scope(request_id), tenant_scope(tenant):
            if trace is not None:
                with activate(trace):
                    result = gate_error or self._dispatch(
                        verb, target, is_v1 or bool(legacy_target), query
                    )
            else:
                result = gate_error or self._dispatch(
                    verb, target, is_v1 or bool(legacy_target), query
                )
        if legacy_target is not None:
            body = apiv1.render_legacy_body(result)
        elif is_v1:
            body = apiv1.render_v1_body(result, request_id)
        else:
            # exact pre-v1 unrouted-404 body (lower-case error value).
            body = {"error": "not_found", "message": f"no route {path!r}"}
        retry_after = None
        if result.error is not None:
            retry_after = (result.error.get("details") or {}).get("retry_after")
        extra_headers: list[tuple[str, str]] = []
        if trace is not None:
            extra_headers.append((TRACE_ID_HEADER, trace.trace_id))
            if context is not None:
                # remote hop: return this worker's span fragment so the
                # gateway can graft it into its joined trace.
                fragment = json.dumps(
                    {"trace_id": trace.trace_id, "spans": trace.to_span_dicts()},
                    separators=(",", ":"),
                )
                extra_headers.append((TRACE_SPANS_HEADER, fragment))
        self._send(
            result.status,
            body,
            request_id,
            deprecated=legacy_target is not None,
            retry_after=retry_after,
            extra_headers=extra_headers,
        )
        self._access_log(
            request_id=request_id,
            verb=verb,
            route=path,
            status=result.status,
            latency_ms=(time.perf_counter() - started) * 1000.0,
            cached=result.cached,
            deprecated=legacy_target is not None,
            trace_id=trace.trace_id if trace is not None else None,
        )

    def _dispatch(
        self, verb: str, path: str, routed: bool, query: str = ""
    ) -> "apiv1.ApiResult":
        """Resolve the route, then read the body (POST), then dispatch.

        Routing comes first so an unknown path is a deterministic 404
        regardless of what (or whether) a body was sent."""
        if not routed or not self.api.resolves(verb, path):
            return apiv1.ApiResult(status=404, error=route_not_found_payload(path))
        payload = None
        if verb == "POST":
            try:
                payload = self._read_json()
            except ReproError as exc:
                status, error = error_payload(exc)
                return apiv1.ApiResult(status=status, error=error)
        return self.api.dispatch(verb, path, payload, query=query)

    # -- plumbing ----------------------------------------------------------------
    def _read_json(self) -> dict:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError as exc:
            raise ReproError("Content-Length header is not a number") from exc
        if length <= 0:
            raise ReproError("request body is empty")
        if length > MAX_BODY_BYTES:
            raise ReproError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ReproError(f"request body is not valid JSON: {exc}") from exc

    def _send(
        self,
        status: int,
        body,
        request_id: str,
        deprecated: bool = False,
        retry_after: float | None = None,
        extra_headers: list[tuple[str, str]] | None = None,
    ) -> None:
        self._send_raw(
            status,
            json.dumps(body).encode("utf-8"),
            "application/json",
            request_id,
            deprecated=deprecated,
            retry_after=retry_after,
            extra_headers=extra_headers,
        )

    def _send_raw(
        self,
        status: int,
        encoded: bytes,
        content_type: str,
        request_id: str,
        deprecated: bool = False,
        retry_after: float | None = None,
        extra_headers: list[tuple[str, str]] | None = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(encoded)))
        self.send_header(REQUEST_ID_HEADER, request_id)
        for name, value in extra_headers or ():
            self.send_header(name, value)
        if deprecated:
            self.send_header("Deprecation", "true")
        if retry_after is not None:
            # integral delta-seconds, rounded up (RFC 9110); the exact float
            # rides in the error payload's details.retry_after.
            self.send_header("Retry-After", retry_after_header(retry_after))
        if status >= 400:
            # An error response may leave an unread request body on the
            # socket; closing keeps keep-alive clients from desynchronizing.
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(encoded)

    def _access_log(
        self,
        request_id: str,
        verb: str,
        route: str,
        status: int,
        latency_ms: float,
        cached: bool | None,
        deprecated: bool,
        trace_id: str | None = None,
    ) -> None:
        if not self.service.config.access_log:
            return
        line = {
            "request_id": request_id,
            "method": verb,
            "route": route,
            "status": status,
            "latency_ms": round(latency_ms, 3),
            "cached": cached,
            "deprecated": deprecated,
        }
        # only stamped on traced requests, keeping the untraced line's
        # exact key set (pinned by wire-shape tests) unchanged.
        if trace_id is not None:
            line["trace_id"] = trace_id
        access_logger.info("%s", json.dumps(line, sort_keys=True))

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        # The structured access log (or silence) replaces the default
        # per-request stderr chatter; opt back in with verbose=True.
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)


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
    served by its handler thread, leaving a stopped worker looking healthy
    to the rest of the fleet.
    """

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

    def close_all_connections(self) -> None:
        with self._connections_lock:
            connections = list(self._open_connections)
            self._open_connections.clear()
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the peer already hung up


class ExpansionHTTPServer:
    """Owns the listening socket and (optionally) a background serving thread."""

    def __init__(
        self,
        service: ExpansionService,
        host: str | None = None,
        port: int | None = None,
        verbose: bool = False,
    ):
        host = host if host is not None else service.config.host
        port = port if port is not None else service.config.port
        self.service = service
        self._httpd = _TrackingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.service = service  # type: ignore[attr-defined]
        self._httpd.api = apiv1.ApiV1(service)  # type: ignore[attr-defined]
        self._httpd.verbose = verbose  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None
        self._serving = False

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — useful with an ephemeral port 0."""
        host, port = self._httpd.server_address[:2]
        return (str(host), int(port))

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ExpansionHTTPServer":
        """Serve on a daemon thread and return immediately (test/embedded use)."""
        self._serving = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (CLI use)."""
        self._serving = True
        self._httpd.serve_forever()

    def shutdown(self) -> None:
        if self._serving:
            # socketserver's shutdown() waits for a running serve loop to
            # exit, so on a never-started server it would block forever.
            self._serving = False
            stop_serve_loop(self._httpd)
        self._httpd.close_all_connections()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()
        self._httpd.api.close()  # type: ignore[attr-defined]
        self.service.close()

    def __enter__(self) -> "ExpansionHTTPServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
