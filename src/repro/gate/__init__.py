"""repro.gate — the multi-tenant front door: identity, quotas, admission.

Three layers stand between a socket and the serving hot path:

* :mod:`~repro.gate.tenants` — API-key -> tenant resolution from a
  reloadable keyfile (keys stored as SHA-256 hashes, hot-reloaded on
  mtime change, optional anonymous tenant for dev);
* :mod:`~repro.gate.limiter` — per-tenant and per-(tenant, operation)
  token buckets (steady rate + burst, monotonic-clock refill), surfaced
  as 429 + ``Retry-After`` through the ``rate_limited`` taxonomy code;
* :mod:`~repro.gate.admission` — a bounded admission queue per worker
  with two priority lanes (interactive ``/v1/expand`` preempts
  ``/v1/fits``, the batch lane) and early load-shedding (retryable 503)
  past a watermark.

:class:`~repro.gate.auth.Gate` composes the first two into the single
``check(api_key, operation)`` call the HTTP server and cluster gateway
make before dispatch; the resolved tenant id rides the request context
(:func:`repro.obs.tenant_scope`) next to the request id, so per-tenant
metric labels and access-log attribution need no extra plumbing.
"""

from repro.gate.admission import ADMISSION_LANES, AdmissionController
from repro.gate.auth import (
    API_KEY_HEADER,
    TENANT_HEADER,
    Gate,
    gate_for,
    operation_for,
    retry_after_header,
)
from repro.gate.limiter import QuotaSpec, RateLimiter, TokenBucket
from repro.gate.tenants import (
    ANONYMOUS_TENANT,
    Tenant,
    TenantDirectory,
    hash_key,
    is_valid_tenant_id,
)

__all__ = [
    "ADMISSION_LANES",
    "ANONYMOUS_TENANT",
    "API_KEY_HEADER",
    "AdmissionController",
    "Gate",
    "QuotaSpec",
    "RateLimiter",
    "Tenant",
    "TenantDirectory",
    "TENANT_HEADER",
    "TokenBucket",
    "gate_for",
    "hash_key",
    "is_valid_tenant_id",
    "operation_for",
    "retry_after_header",
]
