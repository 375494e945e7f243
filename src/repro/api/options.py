"""Expansion request options — one typed object instead of loose kwargs.

:class:`ExpandOptions` carries everything about *how* to serve an expansion
(ranked-list size, caching, pagination, name resolution) separately from
*what* to expand (the query addressing on
:class:`~repro.serve.protocol.ExpandRequest`).  The service threads the whole
object down the request path, so adding an option is one field here rather
than a new kwarg on every layer.

The module also owns the strict JSON integer coercion shared by the request
parsers: JSON booleans are *rejected* where ids or counts are expected,
because ``int(True) == 1`` would otherwise silently turn ``true`` into
entity id 1 or ``top_k`` 1.  Fractional, infinite and NaN numbers are
rejected for the same reason: ``int(2.9) == 2`` would serve ``top_k`` 2,
and ``1e999`` parses to ``inf``, which ``int`` cannot convert at all.
Integral floats such as ``5.0`` are accepted.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Mapping

from repro.exceptions import ServiceError


def coerce_int(value: Any, field_name: str, minimum: int | None = None) -> int:
    """``value`` as an int, rejecting bools, non-integral numbers and
    sub-minimum values."""
    if isinstance(value, bool):
        raise ServiceError(f"{field_name} must be an integer, not a boolean")
    if isinstance(value, float) and not value.is_integer():
        raise ServiceError(f"{field_name} must be an integer, got {value!r}")
    try:
        coerced = int(value)
    except (TypeError, ValueError) as exc:
        raise ServiceError(f"{field_name} must be an integer, got {value!r}") from exc
    if minimum is not None and coerced < minimum:
        raise ServiceError(f"{field_name} must be >= {minimum}, got {coerced}")
    return coerced


def coerce_optional_int(
    value: Any, field_name: str, minimum: int | None = None
) -> int | None:
    """Like :func:`coerce_int` but passes ``None`` through."""
    return None if value is None else coerce_int(value, field_name, minimum)


def coerce_bool(value: Any, field_name: str) -> bool:
    """``value`` as a bool, rejecting everything that is not a JSON boolean."""
    if not isinstance(value, bool):
        raise ServiceError(f"{field_name} must be a boolean, got {value!r}")
    return value


@dataclass(frozen=True)
class ExpandOptions:
    """How one expansion request should be served."""

    #: ranked-list size; ``None`` uses the service's ``default_top_k``.
    top_k: int | None = None
    #: set to ``False`` to bypass the result cache (always recompute).
    use_cache: bool = True
    #: pagination into the ranked list: skip the first ``offset`` entries ...
    offset: int = 0
    #: ... and return at most ``limit`` entries (``None`` = the rest).
    limit: int | None = None
    #: resolve entity ids to surface forms; ``False`` halves the wire size.
    return_names: bool = True
    #: return per-stage trace timings in a ``debug.timings`` block of the
    #: response (cache lookup, execution, expander stages, ...).
    include_timings: bool = False

    def validate(self) -> None:
        if isinstance(self.top_k, bool) or (
            self.top_k is not None and self.top_k <= 0
        ):
            raise ServiceError("top_k must be a positive integer")
        if isinstance(self.offset, bool) or self.offset < 0:
            raise ServiceError("offset must be a non-negative integer")
        if isinstance(self.limit, bool) or (self.limit is not None and self.limit <= 0):
            raise ServiceError("limit must be a positive integer or null")

    def resolved_top_k(self, default: int) -> int:
        return self.top_k if self.top_k is not None else default

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ExpandOptions":
        """Parse a JSON ``options`` object, rejecting unknown fields."""
        if not isinstance(payload, Mapping):
            raise ServiceError("options must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ServiceError(f"unknown options fields: {sorted(unknown)}")
        options = cls(
            top_k=coerce_optional_int(payload.get("top_k"), "top_k", minimum=1),
            use_cache=coerce_bool(payload.get("use_cache", True), "use_cache"),
            offset=coerce_int(payload.get("offset", 0), "offset", minimum=0),
            limit=coerce_optional_int(payload.get("limit"), "limit", minimum=1),
            return_names=coerce_bool(
                payload.get("return_names", True), "return_names"
            ),
            include_timings=coerce_bool(
                payload.get("include_timings", False), "include_timings"
            ),
        )
        options.validate()
        return options

    def to_dict(self) -> dict:
        return {
            "top_k": self.top_k,
            "use_cache": self.use_cache,
            "offset": self.offset,
            "limit": self.limit,
            "return_names": self.return_names,
            "include_timings": self.include_timings,
        }
