"""The Python client SDK for the v1 expansion API.

:class:`ExpansionClient` wraps a transport (in-process or HTTP — see
:mod:`repro.client.transport`) behind typed methods::

    client = ExpansionClient.connect("http://127.0.0.1:8080")   # HTTP
    client = ExpansionClient.in_process(service)                # same process

    client.fit("genexpan")                # blocks until resident
    response = client.expand("genexpan", query_id="q-...", top_k=20)

Server-side failures arrive as the structured taxonomy and are re-raised as
the *same* exception classes the in-process service raises
(:class:`UnknownMethodError`, :class:`DatasetError`,
:class:`ServiceUnavailableError`, ...), so code written against one
transport behaves identically on the other.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.api.errors import exception_for_payload
from repro.api.options import ExpandOptions
from repro.exceptions import ServiceError, TransportError
from repro.serve.protocol import ExpandRequest, ExpandResponse, MethodInfo
from repro.client.transport import HttpTransport, InProcessTransport


class ExpansionClient:
    """A v1 API client over an interchangeable transport."""

    def __init__(self, transport):
        self.transport = transport
        #: server-assigned id of the most recent call, for log correlation.
        self.last_request_id: str | None = None

    # -- constructors ------------------------------------------------------------
    @classmethod
    def connect(
        cls,
        url: str,
        timeout: float = 10.0,
        max_retries: int = 2,
        backoff_seconds: float = 0.1,
        api_key: str | None = None,
    ) -> "ExpansionClient":
        """A client speaking HTTP to a running ``repro serve`` endpoint.

        ``api_key`` authenticates against a server running the multi-tenant
        front door (sent as ``X-Api-Key`` on every request)."""
        return cls(
            HttpTransport(
                url,
                timeout=timeout,
                max_retries=max_retries,
                backoff_seconds=backoff_seconds,
                api_key=api_key,
            )
        )

    @classmethod
    def in_process(cls, service) -> "ExpansionClient":
        """A client serving calls from an :class:`ExpansionService` directly."""
        return cls(InProcessTransport(service))

    # -- expansion ---------------------------------------------------------------
    def expand(
        self,
        method: str,
        query_id: str | None = None,
        class_id: str | None = None,
        positive_seed_ids: Sequence[int] = (),
        negative_seed_ids: Sequence[int] = (),
        options: ExpandOptions | None = None,
        top_k: int | None = None,
        use_cache: bool | None = None,
        offset: int | None = None,
        limit: int | None = None,
        return_names: bool | None = None,
    ) -> ExpandResponse:
        """Expand one query; pass ``options`` or the individual kwargs."""
        request = ExpandRequest(
            method=method,
            query_id=query_id,
            class_id=class_id,
            positive_seed_ids=tuple(positive_seed_ids),
            negative_seed_ids=tuple(negative_seed_ids),
            options=_merge_options(
                options,
                top_k=top_k,
                use_cache=use_cache,
                offset=offset,
                limit=limit,
                return_names=return_names,
            ),
        )
        return self.expand_request(request)

    def expand_request(self, request: ExpandRequest) -> ExpandResponse:
        """Expand a pre-built :class:`ExpandRequest` (protocol-level callers)."""
        data = self._call("POST", "/v1/expand", request.to_v1_dict())
        return ExpandResponse.from_v1_dict(data)

    # -- fits --------------------------------------------------------------------
    def fit(self, method: str) -> dict:
        """Make ``method`` resident on the server; blocks until it is and
        returns ``{method, outcome, seconds}``, ``outcome`` being
        ``already_fitted``, ``restored`` or ``fitted``.  A server keeps a
        fitted method for as long as it runs.  Over HTTP the client's
        ``timeout`` must exceed the fit time."""
        return self._call("POST", "/v1/fits", {"method": method})

    # -- introspection -----------------------------------------------------------
    def methods(self) -> list[MethodInfo]:
        rows = self._call("GET", "/v1/methods")["methods"]
        return [MethodInfo(**row) for row in rows]

    def stats(self) -> dict:
        return self._call("GET", "/v1/stats")

    def healthz(self) -> dict:
        return self._call("GET", "/v1/healthz")

    def usage(self) -> dict:
        """The server's per-tenant usage (``{"tenants": {...}}``): a
        worker's own, or through a gateway every worker's summed per
        tenant."""
        return self.stats()["usage"]

    # -- plumbing ----------------------------------------------------------------
    def _call(self, verb: str, path: str, payload: Mapping | None = None) -> dict:
        status, body = self.transport.request(verb, path, payload)
        if not isinstance(body, Mapping):
            raise TransportError(f"malformed response body for {verb} {path}")
        self.last_request_id = body.get("request_id", self.last_request_id)
        error = body.get("error")
        if error is not None:
            raise exception_for_payload(error)
        if status >= 400:
            raise TransportError(f"{verb} {path} returned HTTP {status} without an error body")
        data = body.get("data")
        if data is None:
            raise ServiceError(f"{verb} {path} returned an envelope without data")
        return data

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        close = getattr(self.transport, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "ExpansionClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _merge_options(
    options: ExpandOptions | None,
    top_k: int | None,
    use_cache: bool | None,
    offset: int | None,
    limit: int | None,
    return_names: bool | None,
) -> ExpandOptions:
    kwargs = {
        "top_k": top_k,
        "use_cache": use_cache,
        "offset": offset,
        "limit": limit,
        "return_names": return_names,
    }
    provided = {key: value for key, value in kwargs.items() if value is not None}
    if options is None:
        merged = ExpandOptions(**provided)
    elif provided:
        raise ServiceError(
            "pass either an ExpandOptions object or individual option kwargs, not both"
        )
    else:
        merged = options
    merged.validate()
    return merged
