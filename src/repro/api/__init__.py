"""The versioned public API of the expansion service.

This package owns everything about the v1 protocol that is independent of a
transport:

* :mod:`repro.api.envelope` — the ``{api_version, request_id, data|error}``
  response envelope and server-assigned request ids;
* :mod:`repro.api.errors` — the structured error taxonomy
  ``{error, code, message, details, retryable}`` mapped to HTTP statuses in
  both directions (server render / client raise);
* :mod:`repro.api.options` — :class:`ExpandOptions`, the typed per-request
  serving options threaded through :class:`ExpansionService`;
* :mod:`repro.api.v1` — the transport-agnostic route dispatcher shared by
  the HTTP server and the client SDK's in-process transport (imported as a
  submodule, not re-exported here, to keep this package import-light).
"""

from repro.api.envelope import (
    API_VERSION,
    REQUEST_ID_HEADER,
    error_envelope,
    new_request_id,
    success_envelope,
)
from repro.api.errors import (
    error_payload,
    exception_for_payload,
    is_retryable,
    route_not_found_payload,
)
from repro.api.options import ExpandOptions

__all__ = [
    "API_VERSION",
    "REQUEST_ID_HEADER",
    "new_request_id",
    "success_envelope",
    "error_envelope",
    "error_payload",
    "exception_for_payload",
    "is_retryable",
    "route_not_found_payload",
    "ExpandOptions",
]
