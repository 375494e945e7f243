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

Any other route is the enveloped 404 ``not_found``, the retired batch
and trace-search routes included: a request's spans come back only on its
own reply (``include_timings``) and on its slow-query line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.api.envelope import error_envelope, success_envelope
from repro.api.errors import error_payload, route_not_found_payload
from repro.exceptions import ServiceError
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
        return (verb.upper(), path) in _ROUTES

    def dispatch(
        self, verb: str, path: str, payload: Mapping | None = None
    ) -> ApiResult:
        """Serve one call; never raises — failures become taxonomy errors."""
        handler = _ROUTES.get((verb.upper(), path))
        if handler is None:
            return ApiResult(status=404, error=route_not_found_payload(path))
        try:
            return handler(self, payload)
        except Exception as exc:  # noqa: BLE001 - rendered into the envelope
            status, error = error_payload(exc)
            return ApiResult(status=status, error=error)

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


#: ``(verb, path) -> handler(api, payload)``, one table for every
#: dispatcher: handlers bound to ``self`` and kept on it would make each
#: dispatcher a reference cycle, so a closed service would wait for the
#: cyclic garbage collector instead of being freed at once.
_ROUTES: dict[tuple[str, str], Callable[[ApiV1, Mapping | None], ApiResult]] = {
    ("GET", "/v1/healthz"): lambda api, _payload: api.healthz(),
    ("GET", "/v1/methods"): lambda api, _payload: api.methods(),
    ("GET", "/v1/stats"): lambda api, _payload: api.stats(),
    ("POST", "/v1/expand"): ApiV1.expand,
    ("POST", "/v1/fits"): ApiV1.fit,
}


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
