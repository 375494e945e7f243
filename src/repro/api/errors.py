"""The structured error taxonomy of the v1 API.

Every failure crossing the API boundary is rendered as one payload shape::

    {"error": "<exception class>", "code": "<stable code>",
     "message": "...", "details": {...}, "retryable": bool}

``code`` is the machine-readable contract: it is stable across refactors of
the exception hierarchy, maps deterministically to an HTTP status, and tells
clients whether retrying can help (``retryable``).  The same table is used in
both directions — the server maps exceptions to payloads
(:func:`error_payload`) and the client SDK maps payloads back to the matching
exception class (:func:`exception_for_payload`) so in-process and HTTP
callers observe identical error types.
"""

from __future__ import annotations

from repro.exceptions import (
    AuthenticationError,
    DatasetError,
    RateLimitedError,
    ReproError,
    ServiceError,
    ServiceUnavailableError,
    UnknownMethodError,
)

# -- stable error codes ---------------------------------------------------------------
CODE_INVALID_REQUEST = "invalid_request"
CODE_UNKNOWN_METHOD = "unknown_method"
CODE_NOT_FOUND = "not_found"
CODE_UNAUTHENTICATED = "unauthenticated"
CODE_RATE_LIMITED = "rate_limited"
CODE_UNAVAILABLE = "unavailable"
CODE_INTERNAL = "internal"

#: exception class -> (HTTP status, code, retryable); ordered most-specific
#: first because the mapping walks it with ``isinstance``.
_TAXONOMY: tuple[tuple[type[BaseException], int, str, bool], ...] = (
    (UnknownMethodError, 404, CODE_UNKNOWN_METHOD, False),
    (AuthenticationError, 401, CODE_UNAUTHENTICATED, False),
    (RateLimitedError, 429, CODE_RATE_LIMITED, True),
    (ServiceUnavailableError, 503, CODE_UNAVAILABLE, True),
    (DatasetError, 404, CODE_NOT_FOUND, False),
    (ReproError, 400, CODE_INVALID_REQUEST, False),
)

#: code -> exception class raised by the client SDK; the inverse of the
#: table above, so both transports surface the same exception types.
_CLIENT_EXCEPTIONS: dict[str, type[ReproError]] = {
    CODE_INVALID_REQUEST: ServiceError,
    CODE_UNKNOWN_METHOD: UnknownMethodError,
    CODE_NOT_FOUND: DatasetError,
    CODE_UNAUTHENTICATED: AuthenticationError,
    CODE_RATE_LIMITED: RateLimitedError,
    CODE_UNAVAILABLE: ServiceUnavailableError,
    CODE_INTERNAL: ServiceError,
}


def error_payload(exc: BaseException) -> tuple[int, dict]:
    """Map an exception to ``(http_status, taxonomy payload)``."""
    for exc_type, status, code, retryable in _TAXONOMY:
        if isinstance(exc, exc_type):
            break
    else:
        status, code, retryable = 500, CODE_INTERNAL, True
    return status, {
        "error": type(exc).__name__,
        "code": code,
        "message": str(exc),
        "details": dict(getattr(exc, "details", {}) or {}),
        "retryable": retryable,
    }


def route_not_found_payload(path: str) -> dict:
    """The taxonomy payload for a path no handler serves."""
    return {
        "error": "NotFound",
        "code": CODE_NOT_FOUND,
        "message": f"no route {path!r}",
        "details": {"path": path},
        "retryable": False,
    }


def exception_for_payload(error: dict) -> ReproError:
    """Reconstruct the exception a taxonomy payload describes (client side)."""
    code = error.get("code", CODE_INTERNAL)
    exc_type = _CLIENT_EXCEPTIONS.get(code, ServiceError)
    exc = exc_type(error.get("message", f"server error (code={code})"))
    details = error.get("details")
    if details:
        exc.details = dict(details)
    return exc


def is_retryable(error: dict) -> bool:
    """Whether a taxonomy payload marks the failure as retryable."""
    return bool(error.get("retryable", False))
