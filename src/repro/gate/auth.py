"""The Gate: one ``check(api_key, operation)`` call before dispatch.

Composes :class:`~repro.gate.tenants.TenantDirectory` (who are you) with
:class:`~repro.gate.limiter.RateLimiter` (are you within quota) and hands
back the tenant id the request should run under.  Refusals are typed:

* unknown / missing key while a keyfile is configured without anonymous
  access -> :class:`~repro.exceptions.AuthenticationError` (401, final);
* quota exhausted -> :class:`~repro.exceptions.RateLimitedError` (429,
  retryable, ``retry_after`` in details and on the wire as a
  ``Retry-After`` header).

With no keyfile at all the gate still works: every caller is the
anonymous tenant sharing the ``default_quota`` — that is the
``--default-quota``-only dev configuration.  With neither keyfile nor
default quota the server simply builds no gate and stays fully open,
which keeps all pre-gate deployments working unchanged.
"""

from __future__ import annotations

import math
import threading
import time
from typing import TYPE_CHECKING

from repro.exceptions import AuthenticationError, RateLimitedError
from repro.gate.limiter import QuotaSpec, RateLimiter
from repro.gate.tenants import (
    ANONYMOUS_TENANT,
    OPERATION_EXPAND,
    OPERATION_FIT,
    OPERATION_READ,
    Tenant,
    TenantDirectory,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import ClusterConfig, ServiceConfig

__all__ = [
    "API_KEY_HEADER",
    "Gate",
    "TENANT_HEADER",
    "gate_for",
    "operation_for",
    "retry_after_header",
]

#: Header carrying the caller's API key.
API_KEY_HEADER = "X-Api-Key"
#: Header the gateway uses to forward the resolved tenant to workers
#: (trusted attribution hint only — workers behind a gateway do not
#: re-authenticate, mirroring ``X-Repro-Worker``).
TENANT_HEADER = "X-Repro-Tenant"


def operation_for(verb: str, path: str) -> str:
    """Classify a request into the quota operation it charges."""
    if path == "/v1/expand":
        return OPERATION_EXPAND
    if path.startswith("/v1/fits") and verb == "POST":
        return OPERATION_FIT
    return OPERATION_READ


def retry_after_header(seconds: float) -> str:
    """``Retry-After`` wire value: RFC 9110 wants delta-seconds as an
    integer, so round up — never tell a client to retry too early."""
    return str(max(1, math.ceil(seconds)))


class Gate:
    """Authentication + quota enforcement for one server process."""

    def __init__(
        self,
        directory: TenantDirectory | None = None,
        default_quota: QuotaSpec | None = None,
        metrics=None,
        clock=time.monotonic,
    ):
        self.directory = directory
        self.default_quota = default_quota
        self._limiter = RateLimiter(clock=clock)
        self._lock = threading.Lock()
        self._requests: dict[str, int] = {}
        self._throttled: dict[str, int] = {}
        self._auth_failures = 0
        self._metrics = metrics
        if metrics is not None:
            self._requests_counter = metrics.counter(
                "repro_gate_requests_total",
                "Requests admitted through the gate, by tenant.",
            )
            self._throttled_counter = metrics.counter(
                "repro_gate_throttled_total",
                "Requests refused with 429 by the token buckets, by tenant.",
            )
            self._auth_failures_counter = metrics.counter(
                "repro_gate_auth_failures_total",
                "Requests refused with 401 (missing or unknown API key).",
            )
        else:
            self._requests_counter = None
            self._throttled_counter = None
            self._auth_failures_counter = None
        self._requests_series: dict[str, object] = {}
        self._throttled_series: dict[str, object] = {}

    def check(self, api_key: str | None, operation: str) -> str:
        """Admit or refuse one request; returns the resolved tenant id."""
        tenant = self._resolve(api_key)
        quota = tenant.quota if tenant.quota is not None else self.default_quota
        method_quotas = tenant.method_quotas
        wait = self._limiter.check(
            tenant.tenant_id,
            quota,
            operation=operation,
            method_quota=method_quotas.get(operation) if method_quotas else None,
        )
        if wait > 0.0:
            self._count(self._throttled, self._throttled_counter,
                        self._throttled_series, tenant.tenant_id)
            raise RateLimitedError(
                f"tenant {tenant.tenant_id!r} is over quota for "
                f"{operation!r}; retry in {wait:.3f}s",
                retry_after=wait,
            )
        self._count(self._requests, self._requests_counter,
                    self._requests_series, tenant.tenant_id)
        return tenant.tenant_id

    def _resolve(self, api_key: str | None) -> Tenant:
        if self.directory is None:
            # no keyfile: one shared anonymous tenant under the default quota.
            return Tenant(tenant_id=ANONYMOUS_TENANT, quota=self.default_quota)
        tenant = self.directory.resolve(api_key)
        if tenant is None:
            with self._lock:
                self._auth_failures += 1
            if self._auth_failures_counter is not None:
                self._auth_failures_counter.inc()
            if api_key:
                raise AuthenticationError("unknown API key")
            raise AuthenticationError(
                f"missing API key ({API_KEY_HEADER} header required)"
            )
        return tenant

    def _count(self, table, counter, series, tenant_id: str) -> None:
        with self._lock:
            table[tenant_id] = table.get(tenant_id, 0) + 1
        if counter is None:
            return
        bound = series.get(tenant_id)
        if bound is None:
            # one bound handle per tenant; the registry's per-family series
            # cap bounds cardinality if tenant ids explode.
            bound = counter.labels(tenant=tenant_id)
            series[tenant_id] = bound
        bound.inc()

    def stats(self) -> dict:
        with self._lock:
            requests = dict(self._requests)
            throttled = dict(self._throttled)
            auth_failures = self._auth_failures
        payload = {
            "requests": requests,
            "throttled": throttled,
            "auth_failures": auth_failures,
            "limiter": self._limiter.stats(),
            "default_quota": (
                None if self.default_quota is None else self.default_quota.to_dict()
            ),
        }
        if self.directory is not None:
            payload["directory"] = self.directory.stats()
        return payload


def gate_for(config: ServiceConfig | ClusterConfig, metrics) -> Gate | None:
    """The front door a worker's or a gateway's ``keyfile`` and
    ``default_quota`` describe, counting on ``metrics``; ``None`` when
    neither is set, so the server stays open and carries no gate state."""
    if config.keyfile is None and config.default_quota is None:
        return None
    return Gate(
        directory=None if config.keyfile is None else TenantDirectory(config.keyfile),
        default_quota=(
            None if config.default_quota is None else QuotaSpec.parse(config.default_quota)
        ),
        metrics=metrics,
    )
