"""Request / response dataclasses of the expansion service.

The protocol is deliberately transport-agnostic: :class:`ExpandRequest` and
:class:`ExpandResponse` are plain dataclasses used directly by in-process
callers (:meth:`ExpansionService.submit`) and serialised to JSON by the v1
API (:mod:`repro.api`).

A request addresses a query in one of two ways:

* ``query_id`` — one of the dataset's pre-built benchmark queries; or
* inline seeds — ``class_id`` + ``positive_seed_ids`` (and optionally
  ``negative_seed_ids``) for ad-hoc expansion, mirroring how a production
  caller would phrase "more entities like these, unlike those".

*How* the request is served lives on one typed
:class:`~repro.api.options.ExpandOptions` object (``top_k``, ``use_cache``,
``offset``/``limit`` pagination, ``return_names``) instead of loose kwargs;
the v1 wire shape nests it under ``"options"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.api.options import ExpandOptions, coerce_int
from repro.exceptions import ServiceError
from repro.types import ExpansionResult


def _parse_seed_ids(payload: Mapping, field_name: str) -> tuple[int, ...]:
    value = payload.get(field_name, ())
    if isinstance(value, (str, bytes)):
        raise ServiceError(f"{field_name} must be an array of entity ids")
    try:
        items = list(value)
    except TypeError as exc:
        raise ServiceError(f"{field_name} must be an array of entity ids") from exc
    return tuple(coerce_int(item, f"{field_name}[{i}]") for i, item in enumerate(items))


@dataclass(frozen=True)
class ExpandRequest:
    """One expansion request submitted to the service."""

    method: str
    query_id: str | None = None
    class_id: str | None = None
    positive_seed_ids: tuple[int, ...] = ()
    negative_seed_ids: tuple[int, ...] = ()
    #: how to serve the request (ranked-list size, caching, pagination, names).
    options: ExpandOptions = field(default_factory=ExpandOptions)

    # -- option conveniences ----------------------------------------------------
    @property
    def top_k(self) -> int | None:
        return self.options.top_k

    @property
    def use_cache(self) -> bool:
        return self.options.use_cache

    def validate(self) -> None:
        if not self.method:
            raise ServiceError("request must name a method")
        if self.query_id is None:
            if self.class_id is None:
                raise ServiceError(
                    "request must provide either query_id or class_id with seeds"
                )
            if not self.positive_seed_ids:
                raise ServiceError("ad-hoc requests need at least one positive seed")
        elif self.class_id is not None or self.positive_seed_ids or self.negative_seed_ids:
            raise ServiceError("query_id and inline seeds are mutually exclusive")
        self.options.validate()

    def cache_key(self, top_k: int) -> tuple:
        """The result-cache key; equivalent requests must collide, so the
        method is normalized the same way the registry normalizes it.
        Pagination and name resolution are views over the cached ranking and
        deliberately do not participate."""
        if self.query_id is not None:
            query_part: tuple = ("q", self.query_id)
        else:
            query_part = (
                "s",
                self.class_id,
                tuple(sorted(self.positive_seed_ids)),
                tuple(sorted(self.negative_seed_ids)),
            )
        return (self.method.strip().lower(), query_part, top_k)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ExpandRequest":
        """Parse a v1 JSON payload (serving options nested under
        ``"options"``), rejecting unknown fields."""
        if not isinstance(payload, Mapping):
            raise ServiceError("request payload must be a JSON object")
        known = {
            "method",
            "query_id",
            "class_id",
            "positive_seed_ids",
            "negative_seed_ids",
            "options",
        }
        unknown = set(payload) - known
        if unknown:
            raise ServiceError(f"unknown request fields: {sorted(unknown)}")
        options_payload = payload.get("options")
        options = (
            ExpandOptions() if options_payload is None
            else ExpandOptions.from_dict(options_payload)
        )
        try:
            return cls(
                method=str(payload.get("method", "")),
                query_id=(
                    None if payload.get("query_id") is None else str(payload["query_id"])
                ),
                class_id=(
                    None if payload.get("class_id") is None else str(payload["class_id"])
                ),
                positive_seed_ids=_parse_seed_ids(payload, "positive_seed_ids"),
                negative_seed_ids=_parse_seed_ids(payload, "negative_seed_ids"),
                options=options,
            )
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"malformed request: {exc}") from exc

    def to_v1_dict(self) -> dict:
        """The v1 wire form of this request (the client SDK's send path)."""
        payload: dict = {"method": self.method, "options": self.options.to_dict()}
        if self.query_id is not None:
            payload["query_id"] = self.query_id
        if self.class_id is not None:
            payload["class_id"] = self.class_id
        if self.positive_seed_ids:
            payload["positive_seed_ids"] = list(self.positive_seed_ids)
        if self.negative_seed_ids:
            payload["negative_seed_ids"] = list(self.negative_seed_ids)
        return payload


@dataclass(frozen=True)
class RankedEntityView:
    """One ranked entry of a response, resolved to its surface form.

    ``name`` is ``None`` when the request opted out of name resolution
    (``ExpandOptions.return_names=False``); the v1 serializer then omits the
    key entirely.
    """

    entity_id: int
    name: str | None
    score: float


@dataclass(frozen=True)
class ExpandResponse:
    """The service's answer to one :class:`ExpandRequest`."""

    method: str
    query_id: str
    top_k: int
    #: the requested page of the ranking (see ``offset``/``total``).
    ranking: tuple[RankedEntityView, ...]
    #: True when the ranking was served from the result cache.
    cached: bool
    latency_ms: float
    #: pagination: index of ``ranking[0]`` within the full ranked list ...
    offset: int = 0
    #: ... whose overall length (before slicing) is ``total``.
    total: int = 0
    #: whether entity names were resolved for this response.
    names_resolved: bool = True
    #: per-stage trace timings (span dicts), only when the request asked for
    #: them via ``ExpandOptions.include_timings``; serialised under
    #: ``debug.timings`` on the v1 wire.
    timings: tuple | None = None

    def entity_ids(self) -> list[int]:
        return [item.entity_id for item in self.ranking]

    @classmethod
    def from_result(
        cls,
        request_method: str,
        result: ExpansionResult,
        names: Mapping[int, str] | None,
        top_k: int,
        cached: bool,
        latency_ms: float,
        options: ExpandOptions | None = None,
        timings: tuple | None = None,
    ) -> "ExpandResponse":
        """Build a response view over an :class:`ExpansionResult`.

        ``names=None`` skips surface-form resolution; ``options`` applies
        ``offset``/``limit`` pagination to the (already top-k-bounded) list.
        """
        options = options or ExpandOptions()
        total = len(result.ranking)
        stop = None if options.limit is None else options.offset + options.limit
        page = result.ranking[options.offset:stop]
        resolve = names.get if names is not None else None
        ranking = tuple(
            RankedEntityView(
                entity_id=item.entity_id,
                name=(resolve(item.entity_id) or "") if resolve is not None else None,
                score=item.score,
            )
            for item in page
        )
        return cls(
            method=request_method,
            query_id=result.query_id,
            top_k=top_k,
            ranking=ranking,
            cached=cached,
            latency_ms=latency_ms,
            offset=options.offset,
            total=total,
            names_resolved=names is not None,
            timings=timings,
        )

    # -- wire shapes ---------------------------------------------------------------
    def to_v1_dict(self) -> dict:
        """The ``data`` payload served under ``/v1/expand``."""
        items = []
        for item in self.ranking:
            row = {"entity_id": item.entity_id, "score": item.score}
            if self.names_resolved:
                row["name"] = item.name
            items.append(row)
        payload = {
            "method": self.method,
            "query_id": self.query_id,
            "top_k": self.top_k,
            "offset": self.offset,
            "total": self.total,
            "count": len(items),
            "ranking": items,
            "names_resolved": self.names_resolved,
            "cached": self.cached,
            "latency_ms": self.latency_ms,
        }
        if self.timings is not None:
            payload["debug"] = {"timings": [dict(entry) for entry in self.timings]}
        return payload

    @classmethod
    def from_v1_dict(cls, data: Mapping) -> "ExpandResponse":
        """Rebuild a response from its v1 wire form (client SDK side)."""
        ranking = tuple(
            RankedEntityView(
                entity_id=int(item["entity_id"]),
                name=item.get("name"),
                score=float(item["score"]),
            )
            for item in data.get("ranking", ())
        )
        debug = data.get("debug")
        timings = None
        if isinstance(debug, Mapping) and isinstance(debug.get("timings"), list):
            timings = tuple(dict(entry) for entry in debug["timings"])
        return cls(
            method=str(data.get("method", "")),
            query_id=str(data.get("query_id", "")),
            top_k=int(data.get("top_k", 0)),
            ranking=ranking,
            cached=bool(data.get("cached", False)),
            latency_ms=float(data.get("latency_ms", 0.0)),
            offset=int(data.get("offset", 0)),
            total=int(data.get("total", len(ranking))),
            names_resolved=bool(data.get("names_resolved", True)),
            timings=timings,
        )


@dataclass(frozen=True)
class MethodInfo:
    """One row of the ``/v1/methods`` listing.

    Beyond the fit state, the row reports what a fit of the method would
    do: whether the method's state can be persisted at all
    (``supports_persistence`` / ``state_version``) and whether the attached
    store already holds an artifact for the current dataset fingerprint
    (``store_artifact``; ``None`` when no store is attached) — i.e. whether
    ``POST /v1/fits`` would restore or train.
    """

    method: str
    fitted: bool
    expander_name: str | None = None
    supports_persistence: bool = False
    state_version: int = 1
    store_artifact: bool | None = None
