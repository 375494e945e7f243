"""The cluster routing gateway: one v1 endpoint in front of N workers.

The gateway speaks the exact same v1 wire protocol as a single ``repro
serve`` process, so :class:`~repro.client.ExpansionClient` (and any raw HTTP
caller) points at it unchanged.  Its HTTP side is the worker's own
:class:`~repro.serve.server.HttpFront` (binding, request ids, body limits,
reply writing, the access log with its ``worker`` field, shutdown); the
gateway adds only :meth:`ClusterGateway.handle`.  Behind that it does three
jobs:

* **shard routing** — method-affine calls (``POST /v1/expand``, ``POST
  /v1/fits``) are consistent-hashed by ``(method, dataset fingerprint)`` to
  one worker, so each worker's expander registry and result cache stay hot
  for its shard instead of every worker paying every fit; responses are
  proxied byte-for-byte (the worker's envelope, ``request_id`` and all),
  which is what makes gateway answers identical to single-process answers;
* **fleet reads** — ``GET /v1/stats`` and ``GET /v1/healthz`` scatter to
  every worker concurrently and aggregate their answers with the gateway's
  own counters;
* **failover** — a worker that fails at the transport level is sidelined
  for ``failover_cooldown_seconds`` and the request is retried on the next
  node of the consistent-hash ring, so killing a worker mid-traffic costs a
  shard move, not an outage.  A POST the worker received but did not answer
  (a fit past ``proxy_timeout_seconds``) is never replayed on another node:
  it gets a retryable 503 while the worker finishes, and a repeat ``POST
  /v1/fits`` then answers ``already_fitted``.
"""

from __future__ import annotations

import http.client
import json
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Mapping, Sequence
from urllib.parse import urlsplit

from repro.api.envelope import (
    REQUEST_ID_HEADER,
    error_envelope,
    new_request_id,
    success_envelope,
)
from repro.api.errors import error_payload, route_not_found_payload
from repro.cluster.hashring import HashRing, shard_key
from repro.config import ClusterConfig
from repro.exceptions import ReproError, ServiceError, ServiceUnavailableError
from repro.gate import (
    API_KEY_HEADER,
    TENANT_HEADER,
    Gate,
    gate_for,
    operation_for,
    retry_after_header,
)
from repro.obs import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
    current_request_id,
    current_tenant,
    request_scope,
    tenant_scope,
)
from repro.serve.server import HttpFront, Reply, Request

#: header naming the worker that actually served a proxied response.
WORKER_HEADER = "X-Repro-Worker"

#: structured gateway access-log destination (one JSON document per line),
#: enabled with ``ClusterConfig.gateway_access_log``.
gateway_access_logger = logging.getLogger("repro.cluster.access")

#: routes the front-door gate never charges: liveness probes (a throttled
#: fleet must not look dead) and metrics scrapes (observability is free).
_GATE_EXEMPT = {("GET", "/v1/healthz"), ("GET", "/v1/metrics")}


class _BackendError(Exception):
    """The request never reached the worker (connect failure, refused,
    stale socket on a fresh connection).  Safe to fail over for any verb."""


class _BackendUnsafe(_BackendError):
    """The worker *received* the request but no usable response arrived
    (timeout mid-serve, connection lost after the status line).  Failing
    over would replay work the worker may already be doing — only
    idempotent, cheap GETs are retried on another node."""


class ClusterGateway(HttpFront):
    """Routes the v1 protocol across a fleet of serving workers."""

    server_version = "repro-gateway/1.0"
    thread_name = "repro-gateway"

    def __init__(
        self,
        backends: Sequence[tuple[str, str]],
        config: ClusterConfig | None = None,
        fingerprint: str = "",
        host: str | None = None,
        port: int | None = None,
    ):
        """``backends`` is a sequence of ``(worker_id, url)`` pairs; they are
        the complete, stable fleet (a restarted worker keeps its id and URL).
        ``fingerprint`` pins the dataset half of the routing key; when empty
        it is learned from the first reachable worker at :meth:`start`."""
        self.config = config or ClusterConfig()
        self.config.validate()
        if not backends:
            raise ServiceError("the gateway needs at least one backend worker")
        self._urls: dict[str, tuple[str, int]] = {}
        for worker_id, url in backends:
            parts = urlsplit(url)
            if parts.hostname is None or parts.port is None:
                raise ServiceError(f"backend {worker_id!r} needs host:port, got {url!r}")
            self._urls[worker_id] = (parts.hostname, parts.port)
        self._backend_urls = {worker_id: url for worker_id, url in backends}
        self.fingerprint = fingerprint
        self._ring = HashRing(list(self._urls), virtual_nodes=self.config.virtual_nodes)
        self._lock = threading.Lock()
        #: worker_id -> monotonic time until which it is sidelined.
        self._down_until: dict[str, float] = {}
        #: gateway-owned telemetry; the fingerprint const label is stamped
        #: once it is learned (render_prometheus reads const_labels live).
        self.metrics = MetricsRegistry()
        if fingerprint:
            self.metrics.const_labels["fingerprint"] = fingerprint
        self._requests = self.metrics.counter(
            "repro_gateway_requests_total", "Requests accepted by the gateway."
        )
        self._proxied = self.metrics.counter(
            "repro_gateway_proxied_total", "Requests proxied to a worker."
        )
        self._failovers = self.metrics.counter(
            "repro_gateway_failovers_total", "Failover hops to another worker."
        )
        self._backend_errors = self.metrics.counter(
            "repro_gateway_backend_errors_total",
            "Worker transport failures of proxied client requests.",
        )
        self._no_backend = self.metrics.counter(
            "repro_gateway_no_backend_total",
            "Requests that exhausted every worker.",
        )
        self._routed = self.metrics.counter(
            "repro_gateway_routed_total", "Proxied requests per worker."
        )
        self._sidelined = self.metrics.gauge(
            "repro_gateway_sidelined_workers", "Workers currently sidelined."
        )
        for worker_id in self._urls:
            # materialize one series per worker so stats()/scrapes list the
            # whole fleet from the first render, not just workers hit so far.
            self._routed.inc(0, worker=worker_id)
        #: keep-alive connections to each worker (the gateway->worker hop
        #: carries all traffic; re-handshaking per proxy call would dominate).
        self._conn_pool: dict[str, list[http.client.HTTPConnection]] = {
            worker_id: [] for worker_id in self._urls
        }
        # The cluster's front door: auth + quotas enforced once, here, so
        # workers behind the gateway stay open and merely trust the
        # forwarded tenant header for metric attribution.
        self.gate: Gate | None = gate_for(self.config, self.metrics)
        self._conn_pool_size = 8
        self._scatter_pool = ThreadPoolExecutor(
            max_workers=max(4, 2 * len(self._urls)),
            thread_name_prefix="repro-gateway",
        )
        super().__init__(
            host if host is not None else self.config.gateway_host,
            port if port is not None else self.config.gateway_port,
            access_log=(
                gateway_access_logger if self.config.gateway_access_log else None
            ),
        )

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> "ClusterGateway":
        if not self.fingerprint:
            self._resolve_fingerprint()
        return super().start()

    def serve_forever(self) -> None:
        if not self.fingerprint:
            self._resolve_fingerprint()
        super().serve_forever()

    def _release(self) -> None:
        self._scatter_pool.shutdown(wait=False)
        for worker_id in list(self._conn_pool):
            self._flush_connections(worker_id)

    def _resolve_fingerprint(self) -> None:
        """Learn the dataset fingerprint from the first reachable worker so
        the routing key matches what the fleet is actually serving.  The key
        must never change once traffic flows, so this runs exactly once,
        before the listening thread starts."""
        for worker_id in self._ring.nodes:
            try:
                status, raw, _headers = self._forward(
                    worker_id, "GET", "/v1/stats", None, proxied=False
                )
            except _BackendError:
                continue
            data = self._parse_envelope_data((status, raw)) or {}
            fingerprint = (data.get("registry") or {}).get("dataset_fingerprint")
            if fingerprint:
                self.fingerprint = str(fingerprint)
                self.metrics.const_labels["fingerprint"] = self.fingerprint
                return

    # -- dispatch ----------------------------------------------------------------
    def respond(self, request: Request) -> Reply:
        try:
            body = (request.read_body() if request.verb == "POST" else b"") or None
        except ReproError as exc:
            reply = self._error_reply(*error_payload(exc))
        else:
            reply = self.handle(
                request.verb,
                request.path,
                body,
                api_key=request.header(API_KEY_HEADER),
            )
        reply.log_fields["worker"] = reply.headers.get(WORKER_HEADER)
        return reply

    def handle(
        self,
        verb: str,
        path: str,
        body: bytes | None,
        api_key: str | None = None,
    ) -> Reply:
        """Serve one gateway request; never raises."""
        self._requests.inc()
        tenant: str | None = None
        if self.gate is not None and (verb, path) not in _GATE_EXEMPT:
            try:
                tenant = self.gate.check(api_key, operation_for(verb, path))
            except ReproError as exc:
                status, payload = error_payload(exc)
                return self._error_reply(status, payload)
        try:
            with tenant_scope(tenant):
                return self._route(verb, path, body)
        except Exception as exc:  # noqa: BLE001 - rendered as a 500 envelope
            return self._error_reply(
                500,
                {
                    "error": type(exc).__name__,
                    "code": "internal",
                    "message": f"gateway failure: {exc}",
                    "details": {},
                    "retryable": True,
                },
            )

    def _route(self, verb: str, path: str, body: bytes | None) -> Reply:
        if (verb, path) == ("GET", "/v1/healthz"):
            return self._aggregate_health()
        if (verb, path) == ("GET", "/v1/stats"):
            return self._aggregate_stats()
        if (verb, path) == ("GET", "/v1/metrics"):
            return Reply(
                200,
                self.metrics.render_prometheus().encode("utf-8"),
                content_type=PROMETHEUS_CONTENT_TYPE,
            )
        if (verb, path) == ("GET", "/v1/methods"):
            return self._forward_any(verb, path)
        if (verb, path) == ("POST", "/v1/expand"):
            return self._route_by_method(verb, path, body)
        if (verb, path) == ("POST", "/v1/fits"):
            return self._route_by_method(verb, path, body)
        return self._error_reply(404, route_not_found_payload(path))

    # -- proxying ----------------------------------------------------------------
    def _forward(
        self,
        worker_id: str,
        verb: str,
        path: str,
        body: bytes | None,
        proxied: bool = True,
    ) -> tuple[int, bytes, dict[str, str]]:
        """One proxy attempt to one worker over a pooled keep-alive
        connection; raises :class:`_BackendError` when the worker never got
        the request (sidelining it) or :class:`_BackendUnsafe` when it did
        but no usable response arrived.  Only a failed ``proxied`` (client)
        request counts as a backend error; a fleet read (``proxied=False``)
        just sidelines the worker."""
        headers = {"Accept": "application/json"}
        # Propagate the inbound request id so the worker's access log and
        # envelope carry the same correlation handle as the gateway's.
        request_id = current_request_id()
        if request_id:
            headers[REQUEST_ID_HEADER] = request_id
        # Forward the tenant the gateway's gate resolved, so worker-side
        # per-tenant metrics attribute fleet traffic correctly.
        tenant = current_tenant()
        if tenant:
            headers[TENANT_HEADER] = tenant
        if body is not None:
            headers["Content-Type"] = "application/json"
        for replay in (False, True):
            if replay:
                connection, reused = self._fresh_worker_connection(worker_id), False
            else:
                connection, reused = self._conn_checkout(worker_id)
            try:
                connection.request(verb, path, body=body, headers=headers)
                response = connection.getresponse()
            except TimeoutError as exc:
                # Alive but slow (e.g. an in-request cold fit): not evidence
                # the worker is down, and the request may be mid-serve.
                connection.close()
                raise _BackendUnsafe(
                    f"worker {worker_id!r} timed out serving {verb} {path}: {exc}"
                ) from exc
            except (OSError, http.client.HTTPException) as exc:
                connection.close()
                if reused:
                    # a pooled socket the worker closed while idle; the
                    # request never reached it — retry on a fresh connection
                    # to the *same* worker before declaring it down.
                    continue
                self._mark_down(worker_id, counted=proxied)
                raise _BackendError(
                    f"worker {worker_id!r} unreachable: {exc}"
                ) from exc
            # Status line received: the worker processed the request.  A
            # failure from here on must not look failover-safe.
            try:
                raw = response.read()
            except (OSError, http.client.HTTPException) as exc:
                connection.close()
                self._mark_down(worker_id, counted=proxied)
                raise _BackendUnsafe(
                    f"worker {worker_id!r} dropped mid-response: {exc}"
                ) from exc
            passthrough: dict[str, str] = {}
            request_id = response.getheader(REQUEST_ID_HEADER)
            if request_id:
                passthrough[REQUEST_ID_HEADER] = request_id
            # a worker shedding load answers 503 + Retry-After; the hint
            # must survive the proxy hop for client backoff to honor it.
            retry_after = response.getheader("Retry-After")
            if retry_after:
                passthrough["Retry-After"] = retry_after
            if response.will_close:
                connection.close()
            else:
                self._conn_checkin(worker_id, connection)
            return response.status, raw, passthrough
        raise _BackendError(f"worker {worker_id!r} unreachable")  # pragma: no cover

    # -- gateway->worker connection pool -----------------------------------------
    def _fresh_worker_connection(self, worker_id: str) -> http.client.HTTPConnection:
        host, port = self._urls[worker_id]
        return http.client.HTTPConnection(
            host, port, timeout=self.config.proxy_timeout_seconds
        )

    def _conn_checkout(
        self, worker_id: str
    ) -> tuple[http.client.HTTPConnection, bool]:
        with self._lock:
            idle = self._conn_pool[worker_id]
            if idle:
                return idle.pop(), True
        return self._fresh_worker_connection(worker_id), False

    def _conn_checkin(
        self, worker_id: str, connection: http.client.HTTPConnection
    ) -> None:
        with self._lock:
            idle = self._conn_pool[worker_id]
            if len(idle) < self._conn_pool_size:
                idle.append(connection)
                return
        connection.close()

    def _flush_connections(self, worker_id: str) -> None:
        with self._lock:
            idle, self._conn_pool[worker_id] = self._conn_pool[worker_id], []
        for connection in idle:
            connection.close()

    def _mark_down(self, worker_id: str, counted: bool) -> None:
        # pooled sockets to a worker that just failed are almost certainly
        # dead too; drop them so recovery probes start clean.
        self._flush_connections(worker_id)
        if counted:
            self._backend_errors.inc()
        with self._lock:
            self._down_until[worker_id] = (
                time.monotonic() + self.config.failover_cooldown_seconds
            )
            self._refresh_sidelined_locked()

    def _mark_up(self, worker_id: str) -> None:
        with self._lock:
            self._down_until.pop(worker_id, None)
            self._refresh_sidelined_locked()

    def _refresh_sidelined_locked(self) -> None:
        now = time.monotonic()
        self._sidelined.set(
            sum(1 for until in self._down_until.values() if now < until)
        )

    def _down_snapshot(self) -> dict[str, float]:
        """One locked copy of the sideline table.  Callers that need several
        workers' states read this snapshot instead of taking the lock per
        worker — per-worker reads could interleave with a concurrent
        ``_mark_down`` and order the same preference list inconsistently."""
        with self._lock:
            return dict(self._down_until)

    def _attempt_order(self, key: str) -> list[str]:
        """Failover order for ``key``: ring preference with sidelined workers
        moved to the back (not dropped — if the whole fleet looks down, the
        request should still try everyone once rather than fail blind)."""
        preference = self._ring.preference(key)
        down_until = self._down_snapshot()
        now = time.monotonic()

        def sidelined(worker_id: str) -> bool:
            return down_until.get(worker_id, 0.0) > now

        up = [worker_id for worker_id in preference if not sidelined(worker_id)]
        down = [worker_id for worker_id in preference if sidelined(worker_id)]
        return up + down

    def owner(self, method: str) -> str:
        """The worker that owns ``method`` while the fleet is healthy (the
        routing invariant tests pin)."""
        return self._ring.route(shard_key(method, self.fingerprint))

    def _proxy_with_failover(
        self, key: str, verb: str, path: str, body: bytes | None
    ) -> Reply:
        last_error: _BackendError | None = None
        for worker_id in self._attempt_order(key):
            try:
                status, raw, headers = self._forward(worker_id, verb, path, body)
            except _BackendUnsafe as exc:
                if verb != "GET":
                    # The worker may be serving this very request (e.g. a
                    # slow in-request fit): replaying it on another node
                    # would duplicate the work, so surface a retryable
                    # error and let the *client's* policy decide.
                    return self._error_reply(*error_payload(ServiceUnavailableError(str(exc))))
                last_error = exc
                self._failovers.inc()
                continue
            except _BackendError as exc:
                last_error = exc
                self._failovers.inc()
                continue
            self._mark_up(worker_id)
            self._proxied.inc()
            self._routed.inc(worker=worker_id)
            headers[WORKER_HEADER] = worker_id
            return Reply(status, raw, headers)
        self._no_backend.inc()
        return self._error_reply(
            *error_payload(
                ServiceUnavailableError(f"no worker available for this request ({last_error})")
            )
        )

    def _route_by_method(self, verb: str, path: str, body: bytes | None) -> Reply:
        payload = self._parse_json(body)
        if not isinstance(payload, Mapping):
            return self._error_reply(
                *error_payload(ServiceError("request body must be a JSON object"))
            )
        method = payload.get("method")
        if not isinstance(method, str) or not method.strip():
            return self._error_reply(*error_payload(ServiceError("request must name a method")))
        return self._proxy_with_failover(
            shard_key(method, self.fingerprint), verb, path, body
        )

    def _forward_any(self, verb: str, path: str) -> Reply:
        """Forward to any worker (healthy first) — used for fleet-uniform
        answers like ``/v1/methods``."""
        return self._proxy_with_failover(shard_key("__any__", self.fingerprint), verb, path, None)

    # -- aggregation -------------------------------------------------------------
    def _worker_scatter(
        self, verb: str, path: str
    ) -> dict[str, tuple[int, bytes] | None]:
        """Call every worker concurrently; ``None`` marks an unreachable one.
        A fleet read is not client traffic: an unreachable worker is
        sidelined but not counted in ``backend_errors``."""
        request_id = current_request_id()

        def run_one(worker_id: str) -> "tuple[int, bytes] | None":
            try:
                with request_scope(request_id):
                    status, raw, _headers = self._forward(
                        worker_id, verb, path, None, proxied=False
                    )
            except _BackendError:
                return None
            self._mark_up(worker_id)
            return status, raw

        futures = {
            worker_id: self._scatter_pool.submit(run_one, worker_id)
            for worker_id in self._ring.nodes
        }
        return {worker_id: future.result() for worker_id, future in futures.items()}

    def _aggregate_health(self) -> Reply:
        results = self._worker_scatter("GET", "/v1/healthz")
        workers = []
        healthy = 0
        for worker_id in self._ring.nodes:
            result = results[worker_id]
            ok = result is not None and result[0] == 200
            healthy += int(ok)
            workers.append(
                {
                    "worker_id": worker_id,
                    "url": self._backend_urls[worker_id],
                    "healthy": ok,
                }
            )
        if healthy == len(workers):
            status, label = 200, "ok"
        elif healthy:
            status, label = 200, "degraded"
        else:
            status, label = 503, "down"
        data = {
            "status": label,
            "workers": workers,
            "healthy_workers": healthy,
            "total_workers": len(workers),
        }
        if status >= 400:
            payload = error_payload(ServiceUnavailableError("no healthy workers"))[1]
            payload["details"] = data
            return self._error_reply(status, payload)
        return self._data_reply(data)

    def _aggregate_stats(self) -> Reply:
        """The fleet document: every worker's own ``/v1/stats`` (or
        ``{"unreachable": true}``), their summed totals and per-tenant usage,
        and the gateway's and gate's counters.  perfbench reads it, and
        ``repro cluster top`` renders it (:func:`repro.obs.top.render_top`)."""
        results = self._worker_scatter("GET", "/v1/stats")
        workers: dict[str, dict] = {}
        totals = {"requests": 0, "errors": 0, "cache_hits": 0, "cache_misses": 0}
        usage: dict[str, dict] = {}
        for worker_id, result in results.items():
            data = self._parse_envelope_data(result)
            if data is None:
                workers[worker_id] = {"unreachable": True}
                continue
            workers[worker_id] = data
            service = data.get("service") or {}
            cache = data.get("cache") or {}
            totals["requests"] += int(service.get("requests", 0))
            totals["errors"] += int(service.get("errors", 0))
            totals["cache_hits"] += int(cache.get("hits", 0))
            totals["cache_misses"] += int(cache.get("misses", 0))
            tenants = (data.get("usage") or {}).get("tenants") or {}
            for tenant, bucket in tenants.items():
                total = usage.setdefault(tenant, {})
                for name, value in bucket.items():
                    total[name] = total.get(name, 0) + value
        data = {
            "gateway": self.stats(),
            "cluster": totals,
            "workers": workers,
            "usage": {
                "tenants": {
                    tenant: {name: round(value, 6) for name, value in usage[tenant].items()}
                    for tenant in sorted(usage)
                }
            },
        }
        if self.gate is not None:
            # additive: only gated clusters grow this key, so the pinned
            # default shape is unchanged.
            data["gate"] = self.gate.stats()
        return self._data_reply(data)

    @staticmethod
    def _parse_envelope_data(result: "tuple[int, bytes] | None") -> dict | None:
        """The ``data`` object of one scattered worker envelope, or ``None``
        for an unreachable/failed worker or an unparseable body."""
        if result is None or result[0] != 200:
            return None
        try:
            data = json.loads(result[1].decode("utf-8")).get("data")
        except (UnicodeDecodeError, ValueError, AttributeError):
            return None
        return data if isinstance(data, dict) else None

    # -- introspection -----------------------------------------------------------
    def stats(self) -> dict:
        """The legacy stats dict (wire shape pinned), as a registry view."""
        down_until = self._down_snapshot()
        now = time.monotonic()
        return {
            "workers": list(self._ring.nodes),
            "fingerprint": self.fingerprint,
            "virtual_nodes": self._ring.virtual_nodes,
            "requests": int(self._requests.total()),
            "proxied": int(self._proxied.total()),
            "failovers": int(self._failovers.total()),
            "backend_errors": int(self._backend_errors.total()),
            "no_backend_available": int(self._no_backend.total()),
            "routed": {
                worker_id: int(self._routed.value(worker=worker_id))
                for worker_id in self._urls
            },
            "sidelined": sorted(
                worker_id
                for worker_id, until in down_until.items()
                if now < until
            ),
        }

    # -- helpers -----------------------------------------------------------------
    @staticmethod
    def _parse_json(body: bytes | None):
        if not body:
            return None
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return None

    @staticmethod
    def _data_reply(data: dict) -> Reply:
        """A 200 success envelope under the current request id."""
        request_id = current_request_id() or new_request_id()
        return Reply.envelope(200, success_envelope(request_id, data))

    @staticmethod
    def _error_reply(status: int, payload: dict) -> Reply:
        request_id = current_request_id() or new_request_id()
        reply = Reply.envelope(status, error_envelope(request_id, payload))
        # 429/503 refusals carry their backoff hint on the wire too.
        retry_after = (payload.get("details") or {}).get("retry_after")
        if retry_after is not None:
            reply.headers["Retry-After"] = retry_after_header(retry_after)
        return reply

