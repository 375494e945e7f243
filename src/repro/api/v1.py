"""The transport-agnostic v1 route dispatcher.

:class:`ApiV1` maps ``(verb, path, payload)`` onto an
:class:`ExpansionService` and returns an :class:`ApiResult` — status, domain
data, and (on failure) a taxonomy error payload — which
:func:`render_v1_body` wraps in the versioned envelope.

Both the worker's HTTP front (:mod:`repro.serve.server`) and the client SDK's
in-process transport (:mod:`repro.client.transport`) drive this same
dispatcher, which is what guarantees transport parity: same routes, same
statuses, same envelopes, same errors.

Routes::

    GET  /v1/healthz         liveness probe
    GET  /v1/methods         servable methods + persistence/artifact state
    GET  /v1/stats           merged service/cache/registry counters
    POST /v1/expand          one ExpandRequest (v1 wire shape, paginated)
    POST /v1/fits            {"method"} -> blocks until the method is
                             resident -> {method, outcome, seconds}
    GET  /v1/traces          search kept traces (?tenant=&method=
                               &min_duration_ms=&error=&limit=)
    GET  /v1/traces/<trace_id> one kept trace with its full span tree
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Mapping
from urllib.parse import parse_qs

from repro.api.envelope import error_envelope, success_envelope
from repro.api.errors import error_payload, route_not_found_payload
from repro.exceptions import DatasetError, ServiceError
from repro.serve.protocol import ExpandRequest
from repro.utils.iox import to_jsonable

@dataclass
class ApiResult:
    """One dispatched call: HTTP status plus either data or a taxonomy error."""

    status: int
    data: Any | None = None
    error: dict | None = None
    #: result-cache outcome of an expand call, for the access log.
    cached: bool | None = None


class ApiV1:
    """Routes v1 calls onto one :class:`ExpansionService`."""

    def __init__(self, service):
        self.service = service

    # -- dispatch ----------------------------------------------------------------
    def resolves(self, verb: str, path: str) -> bool:
        """Whether a handler exists for ``(verb, path)`` — lets transports
        answer 404 *before* reading a request body."""
        path, _, query = path.partition("?")
        return self._find(verb.upper(), path, query) is not None

    def dispatch(
        self,
        verb: str,
        path: str,
        payload: Mapping | None = None,
        query: str = "",
    ) -> ApiResult:
        """Serve one call; never raises — failures become taxonomy errors.

        ``query`` is the raw query string; in-process transports may instead
        leave it embedded in ``path`` (``/v1/traces?limit=5``) and it is
        split off here."""
        if "?" in path:
            path, _, embedded = path.partition("?")
            query = query or embedded
        handler = self._find(verb.upper(), path, query)
        if handler is None:
            return ApiResult(status=404, error=route_not_found_payload(path))
        try:
            return handler(payload)
        except Exception as exc:  # noqa: BLE001 - rendered into the envelope
            status, error = error_payload(exc)
            return ApiResult(status=status, error=error)

    def _find(
        self, verb: str, path: str, query: str = ""
    ) -> "Callable[[Mapping | None], ApiResult] | None":
        handler = _STATIC_ROUTES.get((verb, path))
        if handler is not None:
            return partial(handler, self)
        if verb == "GET" and path == "/v1/traces":
            return lambda _payload: self.list_traces(query)
        if verb == "GET" and path.startswith("/v1/traces/"):
            trace_id = path[len("/v1/traces/"):]
            if trace_id and "/" not in trace_id:
                return lambda _payload: self.trace_detail(trace_id)
        return None

    # -- handlers ----------------------------------------------------------------
    def healthz(self) -> ApiResult:
        return ApiResult(status=200, data={"status": "ok"})

    def methods(self) -> ApiResult:
        return ApiResult(status=200, data={"methods": self.service.methods()})

    def stats(self) -> ApiResult:
        return ApiResult(status=200, data=self.service.stats())

    def expand(self, payload: Mapping | None) -> ApiResult:
        request = ExpandRequest.from_dict(payload)
        response = self.service.submit(request)
        return ApiResult(status=200, data=response, cached=response.cached)

    def fit(self, payload: Mapping | None) -> ApiResult:
        if not isinstance(payload, Mapping):
            raise ServiceError("fit payload must be a JSON object")
        unknown = set(payload) - {"method"}
        if unknown:
            raise ServiceError(f"unknown fit fields: {sorted(unknown)}")
        method = payload.get("method")
        if not isinstance(method, str) or not method.strip():
            raise ServiceError("fit payload must name a method")
        return ApiResult(status=200, data=self.service.fit(method))

    # -- trace search ------------------------------------------------------------
    def _collector(self):
        collector = getattr(self.service, "traces", None)
        if collector is None:
            raise ServiceError(
                "tracing is not enabled on this service (set trace_sample_rate)"
            )
        return collector

    def list_traces(self, query: str = "") -> ApiResult:
        rows = self._collector().query(**parse_trace_query(query))
        return ApiResult(status=200, data={"traces": rows, "count": len(rows)})

    def trace_detail(self, trace_id: str) -> ApiResult:
        record = self._collector().get(trace_id)
        if record is None:
            raise DatasetError(f"no kept trace {trace_id!r}")
        return ApiResult(status=200, data={"trace": record})


#: ``(verb, path) -> handler(api, payload)``, one table for every
#: dispatcher: handlers bound to ``self`` and kept on it would make each
#: dispatcher a reference cycle, so a closed service would wait for the
#: cyclic garbage collector instead of being freed at once.
_STATIC_ROUTES: dict[tuple[str, str], Callable[[ApiV1, Mapping | None], ApiResult]] = {
    ("GET", "/v1/healthz"): lambda api, _payload: api.healthz(),
    ("GET", "/v1/methods"): lambda api, _payload: api.methods(),
    ("GET", "/v1/stats"): lambda api, _payload: api.stats(),
    ("POST", "/v1/expand"): ApiV1.expand,
    ("POST", "/v1/fits"): ApiV1.fit,
}


def parse_trace_query(query: str) -> dict:
    """Parse a ``/v1/traces`` query string into TraceCollector.query kwargs.

    Shared by the worker API and the gateway, so the search surface stays
    identical at both tiers.  Raises :class:`ServiceError` (400) on
    malformed values rather than silently ignoring them.
    """
    params = parse_qs(query or "", keep_blank_values=False)
    filters: dict = {}
    tenant = (params.get("tenant") or [None])[-1]
    if tenant:
        filters["tenant"] = tenant
    method = (params.get("method") or [None])[-1]
    if method:
        filters["method"] = method
    raw = (params.get("min_duration_ms") or [None])[-1]
    if raw is not None:
        try:
            filters["min_duration_ms"] = float(raw)
        except ValueError as exc:
            raise ServiceError("min_duration_ms must be a number") from exc
    raw = (params.get("error") or [None])[-1]
    if raw is not None:
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes"):
            filters["error"] = True
        elif lowered in ("0", "false", "no"):
            filters["error"] = False
        else:
            raise ServiceError('error filter must be "true" or "false"')
    raw = (params.get("limit") or [None])[-1]
    if raw is not None:
        try:
            filters["limit"] = int(raw)
        except ValueError as exc:
            raise ServiceError("limit must be an integer") from exc
    return filters


# -- rendering -------------------------------------------------------------------------
def _render_data(data: Any) -> Any:
    if hasattr(data, "to_v1_dict"):
        return data.to_v1_dict()
    return to_jsonable(data)


def render_v1_body(result: ApiResult, request_id: str) -> dict:
    """An :class:`ApiResult` as the versioned envelope body."""
    if result.error is not None:
        return error_envelope(request_id, result.error)
    return success_envelope(request_id, _render_data(result.data))
