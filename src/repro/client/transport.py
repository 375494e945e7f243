"""Client transports: how :class:`ExpansionClient` reaches a service.

Both transports expose one method — ``request(verb, path, payload) ->
(status, body)`` where ``body`` is the parsed v1 envelope — so the client is
transport-agnostic:

* :class:`InProcessTransport` drives the same :class:`~repro.api.v1.ApiV1`
  dispatcher the HTTP server mounts, directly against an
  :class:`ExpansionService` in this process (no sockets, no serialization of
  intermediate objects beyond the v1 rendering itself);
* :class:`HttpTransport` speaks JSON over a pool of keep-alive stdlib
  :class:`http.client.HTTPConnection` sockets.  Connections are reused
  across requests (one TCP+HTTP handshake amortised over a chatty caller's
  whole session) and returned to a bounded idle pool; a reused socket the
  server closed while it sat idle is detected (``RemoteDisconnected`` /
  ``BadStatusLine`` / reset before any response byte) and the request is
  replayed once on a fresh connection — the server never saw it, so the
  replay is safe for every verb.  On top of that sit the same per-request
  timeout and bounded retries as before: fresh-connection failures and
  responses whose taxonomy error is marked ``retryable`` are retried with
  exponential backoff (connection-level failures only for GETs — a POST
  that may have reached the server is never replayed blindly), everything
  else is returned to the caller once.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from typing import Callable, Mapping
from urllib.parse import urlsplit

import repro.api.v1 as apiv1
from repro.api.envelope import new_request_id
from repro.api.errors import CODE_INTERNAL, is_retryable
from repro.exceptions import TransportError
from repro.gate import API_KEY_HEADER
from repro.obs import request_scope

#: ceiling on a server-supplied Retry-After hint the client will honor; a
#: hostile or buggy server must not park a caller for an hour.
MAX_RETRY_AFTER_SECONDS = 30.0

#: failures that mean "the server closed this socket before answering" —
#: on a *reused* keep-alive connection these signal a stale socket whose
#: request never reached the application, so a one-shot replay is safe.
_STALE_CONNECTION_ERRORS = (
    http.client.RemoteDisconnected,
    http.client.BadStatusLine,
    ConnectionResetError,
    BrokenPipeError,
)


class InProcessTransport:
    """Serves client calls from an :class:`ExpansionService` in this process."""

    def __init__(self, service):
        self.service = service
        self._api = apiv1.ApiV1(service)

    def request(
        self, verb: str, path: str, payload: Mapping | None = None
    ) -> tuple[int, dict]:
        # Mint the id before dispatch and bind it for the duration, so the
        # id in the rendered envelope matches what traces and the slow-query
        # log recorded — the same contract the HTTP handler provides.
        request_id = new_request_id()
        with request_scope(request_id):
            result = self._api.dispatch(verb, path, payload)
        return result.status, apiv1.render_v1_body(result, request_id)


class HttpTransport:
    """Speaks the v1 protocol over pooled keep-alive HTTP connections."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 10.0,
        max_retries: int = 2,
        backoff_seconds: float = 0.1,
        sleep: Callable[[float], None] = time.sleep,
        max_idle_connections: int = 4,
        api_key: str | None = None,
    ):
        """``max_retries`` counts *additional* attempts after the first;
        ``sleep`` is injectable so tests can skip the real backoff.
        ``max_idle_connections`` bounds the idle pool so a burst of
        concurrent callers cannot accumulate sockets forever.
        ``api_key`` is sent as the ``X-Api-Key`` header on every request
        (required when the server runs a keyfile without anonymous access)."""
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self.base_url = base_url.rstrip("/")
        parts = urlsplit(self.base_url if "://" in self.base_url else f"http://{self.base_url}")
        if parts.scheme not in ("http", "https") or parts.hostname is None:
            raise ValueError(f"unsupported base url {base_url!r}")
        self._scheme = parts.scheme
        self._host = parts.hostname
        self._port = parts.port or (443 if parts.scheme == "https" else 80)
        self._prefix = parts.path.rstrip("/")
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_seconds = backoff_seconds
        self.max_idle_connections = max(0, max_idle_connections)
        self.api_key = api_key
        self._sleep = sleep
        self._pool_lock = threading.Lock()
        self._idle: list[http.client.HTTPConnection] = []
        #: attempts actually made, for tests and debugging.
        self.attempts = 0
        #: sockets opened / stale keep-alive sockets replaced, for tests.
        self.connections_opened = 0
        self.stale_reconnects = 0

    def request(
        self, verb: str, path: str, payload: Mapping | None = None
    ) -> tuple[int, dict]:
        attempt = 0
        delay_hint: float | None = None
        while True:
            if attempt:
                if delay_hint is not None:
                    # the server told us when capacity/quota returns (429
                    # Retry-After or details.retry_after on a shed 503);
                    # honoring it beats blind exponential backoff.
                    self._sleep(min(delay_hint, MAX_RETRY_AFTER_SECONDS))
                else:
                    self._sleep(self.backoff_seconds * (2 ** (attempt - 1)))
            delay_hint = None
            self.attempts += 1
            try:
                status, body, retry_after = self._request_once(verb, path, payload)
            except (OSError, http.client.HTTPException) as exc:
                # Fresh-connection failure: the request may or may not have
                # reached the server.  Only GETs are safe to replay blindly:
                # a POST may still be running there (a cold expand, a fit),
                # and a replay would hold a second thread and admission slot
                # for the same work.
                if verb.upper() == "GET" and attempt < self.max_retries:
                    attempt += 1
                    continue
                raise TransportError(
                    f"{verb} {self.base_url}{path} failed after "
                    f"{attempt + 1} attempt(s): {exc}"
                ) from exc
            if (
                status >= 400
                and is_retryable(body.get("error") or {})
                and attempt < self.max_retries
            ):
                # The server answered and declined (e.g. 503 shutting down):
                # nothing was duplicated, so any verb may retry.
                delay_hint = self._delay_hint(body, retry_after)
                attempt += 1
                continue
            return status, body

    @staticmethod
    def _delay_hint(body: dict, header_value: str | None) -> float | None:
        """The server's preferred backoff: ``details.retry_after`` (exact
        float) first, the integral ``Retry-After`` header as fallback."""
        details = (body.get("error") or {}).get("details") or {}
        for hint in (details.get("retry_after"), header_value):
            if hint is None:
                continue
            try:
                return max(0.0, float(hint))
            except (TypeError, ValueError):
                continue
        return None

    def _request_once(
        self, verb: str, path: str, payload: Mapping | None
    ) -> tuple[int, dict, str | None]:
        body = None
        headers = {"Accept": "application/json"}
        if self.api_key is not None:
            headers[API_KEY_HEADER] = self.api_key
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        for replayed in (False, True):
            if replayed:
                # the replay leg must not pick *another* possibly-stale
                # pooled socket (e.g. after a server restart with several
                # idle connections): force a genuinely fresh one.
                connection, reused = self._fresh_connection(), False
            else:
                connection, reused = self._checkout()
            try:
                connection.request(verb, self._prefix + path, body=body, headers=headers)
                response = connection.getresponse()
            except _STALE_CONNECTION_ERRORS:
                connection.close()
                if reused and not replayed:
                    # The server closed this idle keep-alive socket before
                    # our request reached it; replay once on a fresh one.
                    self.stale_reconnects += 1
                    continue
                raise
            except (OSError, http.client.HTTPException):
                connection.close()
                raise
            # The status line arrived, so the server definitively received
            # (and processed) the request: a failure from here on must NOT
            # be replayed — it surfaces to the caller's retry policy.
            try:
                raw = response.read()
            except (OSError, http.client.HTTPException):
                connection.close()
                raise
            status = response.status
            retry_after = response.getheader("Retry-After")
            if not response.will_close:
                self._checkin(connection)
            else:
                connection.close()
            return status, self._parse_body(raw, status), retry_after
        raise TransportError(f"{verb} {self.base_url}{path}: unreachable")  # pragma: no cover

    # -- connection pool ---------------------------------------------------------
    def _checkout(self) -> tuple[http.client.HTTPConnection, bool]:
        """An idle pooled connection (reused=True) or a fresh one."""
        with self._pool_lock:
            if self._idle:
                return self._idle.pop(), True
        return self._fresh_connection(), False

    def _fresh_connection(self) -> http.client.HTTPConnection:
        factory = (
            http.client.HTTPSConnection
            if self._scheme == "https"
            else http.client.HTTPConnection
        )
        self.connections_opened += 1
        connection = factory(self._host, self._port, timeout=self.timeout)
        # http.client writes a POST as two sends (headers, then body), and
        # on a reused keep-alive socket that pattern collides with Nagle +
        # delayed ACK: the body segment sits in the client's TCP stack for
        # ~40ms waiting for an ACK the server's stack is deliberately
        # withholding.  TCP_NODELAY turns that stall off; connect eagerly
        # so the option is set before the first request (failures surface
        # through the same OSError path a lazy connect used).
        connection.connect()
        try:
            connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except (AttributeError, OSError):
            pass  # non-TCP transport (tests may stub the socket): Nagle stays on
        return connection

    def _checkin(self, connection: http.client.HTTPConnection) -> None:
        with self._pool_lock:
            if len(self._idle) < self.max_idle_connections:
                self._idle.append(connection)
                return
        connection.close()

    @staticmethod
    def _parse_body(raw: bytes, status: int) -> dict:
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            body = None
        if isinstance(body, dict):
            return body
        # A non-JSON body (proxy error page, truncated response): surface it
        # through the taxonomy so the client's error mapping stays uniform.
        return {
            "error": {
                "error": "TransportError",
                "code": CODE_INTERNAL,
                "message": f"non-JSON response body (HTTP {status})",
                "details": {},
                "retryable": status >= 500,
            }
        }

    def close(self) -> None:
        """Close every idle pooled connection."""
        with self._pool_lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()
