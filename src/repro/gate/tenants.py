"""Tenant identity: keyfile parsing, hashed API keys, hot reload.

The keyfile is JSON::

    {
      "anonymous": {"quota": "5:10"},          # optional; null/absent = off
      "tenants": [
        {"tenant": "acme",
         "key_sha256": "<hex>",               # or "key": "plaintext" (hashed at load)
         "quota": "100:200",                  # rate[:burst], number, or mapping
         "method_quotas": {"fit": "1:2"}}     # optional per-operation overrides
      ]
    }

A ``method_quotas`` key must name an operation class (:data:`OPERATIONS`):
a typo fails the load instead of silently never throttling.

Keys never live in memory as plaintext past load time: a ``key`` entry is
hashed immediately and only the SHA-256 digest is kept.  The directory
re-stats the file at most once per ``reload_interval_seconds`` and swaps
in a freshly-parsed table when (mtime_ns, size) changes; a file that goes
bad after a successful load keeps serving the last good table and counts
a reload error instead of taking the front door down.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError
from repro.gate.limiter import QuotaSpec

__all__ = [
    "ANONYMOUS_TENANT",
    "Tenant",
    "TenantDirectory",
    "hash_key",
    "is_valid_tenant_id",
]

#: Tenant id assigned to unauthenticated callers when anonymous access is on
#: (and to all callers when no keyfile is configured at all).
ANONYMOUS_TENANT = "anonymous"

#: Operation classes a request charges (see
#: :func:`repro.gate.auth.operation_for`) and a ``method_quotas`` key may
#: name; coarse on purpose — quotas distinguish traffic classes, not
#: individual routes.
OPERATION_EXPAND = "expand"
OPERATION_FIT = "fit"
OPERATION_READ = "read"
OPERATIONS = (OPERATION_EXPAND, OPERATION_FIT, OPERATION_READ)

MAX_TENANT_ID_LENGTH = 64
_TENANT_ID_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
)


def hash_key(api_key: str) -> str:
    """SHA-256 hex digest of an API key — the only form keys are stored in."""
    return hashlib.sha256(api_key.encode("utf-8")).hexdigest()


def is_valid_tenant_id(tenant_id) -> bool:
    """Same shape rules as request ids: short, printable, header-safe."""
    return (
        isinstance(tenant_id, str)
        and 0 < len(tenant_id) <= MAX_TENANT_ID_LENGTH
        and all(ch in _TENANT_ID_CHARS for ch in tenant_id)
    )


@dataclass(frozen=True)
class Tenant:
    """One resolved identity with its quotas."""

    tenant_id: str
    quota: QuotaSpec | None = None
    method_quotas: dict[str, QuotaSpec] = field(default_factory=dict)


def _parse_method_quotas(raw, where: str) -> dict[str, QuotaSpec]:
    """``where``'s ``method_quotas`` object, each key an operation class."""
    if not raw:
        return {}
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{where}.method_quotas must be an object")
    unknown = sorted(set(raw) - set(OPERATIONS))
    if unknown:
        raise ConfigurationError(
            f"{where}.method_quotas names unknown operations {unknown} "
            f"(expected {', '.join(OPERATIONS)})"
        )
    return {op: QuotaSpec.parse(spec) for op, spec in raw.items()}


def _parse_tenant_entry(entry, index: int) -> tuple[str, Tenant]:
    if not isinstance(entry, dict):
        raise ConfigurationError(f"tenants[{index}] must be an object, got {entry!r}")
    tenant_id = entry.get("tenant")
    if not is_valid_tenant_id(tenant_id):
        raise ConfigurationError(
            f"tenants[{index}].tenant must be 1-{MAX_TENANT_ID_LENGTH} chars of "
            f"[A-Za-z0-9._-], got {tenant_id!r}"
        )
    if "key_sha256" in entry:
        digest = entry["key_sha256"]
        if not (isinstance(digest, str) and len(digest) == 64):
            raise ConfigurationError(
                f"tenants[{index}].key_sha256 must be a 64-char hex digest"
            )
        digest = digest.lower()
    elif "key" in entry:
        key = entry["key"]
        if not (isinstance(key, str) and key):
            raise ConfigurationError(f"tenants[{index}].key must be a non-empty string")
        digest = hash_key(key)
    else:
        raise ConfigurationError(f"tenants[{index}] needs a 'key' or 'key_sha256'")
    quota = entry.get("quota")
    tenant = Tenant(
        tenant_id=tenant_id,
        quota=None if quota is None else QuotaSpec.parse(quota),
        method_quotas=_parse_method_quotas(
            entry.get("method_quotas"), f"tenants[{index}]"
        ),
    )
    return digest, tenant


def _parse_keyfile(text: str) -> tuple[dict[str, Tenant], Tenant | None]:
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ConfigurationError(f"keyfile is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigurationError("keyfile must be a JSON object")
    unknown = set(payload) - {"anonymous", "tenants"}
    if unknown:
        raise ConfigurationError(
            f"unknown keyfile keys: {sorted(unknown)} (expected anonymous, tenants)"
        )
    entries = payload.get("tenants", [])
    if not isinstance(entries, list):
        raise ConfigurationError("keyfile 'tenants' must be a list")
    table: dict[str, Tenant] = {}
    for index, entry in enumerate(entries):
        digest, tenant = _parse_tenant_entry(entry, index)
        if digest in table:
            raise ConfigurationError(
                f"tenants[{index}] reuses the key of tenant "
                f"{table[digest].tenant_id!r}"
            )
        table[digest] = tenant
    anonymous = payload.get("anonymous")
    anonymous_tenant = None
    if anonymous is not None:
        if not isinstance(anonymous, dict):
            raise ConfigurationError("keyfile 'anonymous' must be an object or null")
        unknown = set(anonymous) - {"quota", "method_quotas"}
        if unknown:
            raise ConfigurationError(f"unknown anonymous keys: {sorted(unknown)}")
        anonymous_tenant = Tenant(
            tenant_id=ANONYMOUS_TENANT,
            quota=(
                None
                if anonymous.get("quota") is None
                else QuotaSpec.parse(anonymous["quota"])
            ),
            method_quotas=_parse_method_quotas(
                anonymous.get("method_quotas"), "anonymous"
            ),
        )
    return table, anonymous_tenant


class TenantDirectory:
    """API-key -> :class:`Tenant` resolution backed by a hot-reloaded keyfile."""

    def __init__(
        self,
        path: str,
        reload_interval_seconds: float = 1.0,
        clock=time.monotonic,
    ):
        self.path = str(path)
        self.reload_interval_seconds = float(reload_interval_seconds)
        self._clock = clock
        self._lock = threading.Lock()
        self._reloads = 0
        self._reload_errors = 0
        self._table, self._anonymous = self._load()  # bad file at boot raises
        self._signature = self._file_signature()
        self._checked_at = clock()

    def _load(self) -> tuple[dict[str, Tenant], Tenant | None]:
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigurationError(f"cannot read keyfile {self.path}: {exc}") from None
        return _parse_keyfile(text)

    def _file_signature(self):
        try:
            stat = os.stat(self.path)
        except OSError:
            return None
        return (stat.st_mtime_ns, stat.st_size)

    def _maybe_reload(self) -> None:
        now = self._clock()
        # Unlocked pre-check: within the reload interval (the common case on
        # the per-request hot path) resolve() costs one clock read and one
        # compare.  A stale read just delays one reload by an interval.
        if now - self._checked_at < self.reload_interval_seconds:
            return
        with self._lock:
            if now - self._checked_at < self.reload_interval_seconds:
                return
            self._checked_at = now
            signature = self._file_signature()
            if signature is None or signature == self._signature:
                return
            try:
                table, anonymous = self._load()
            except ConfigurationError:
                # keep serving the last good table; a truncated write or a
                # typo must not lock every tenant out.
                self._reload_errors += 1
                self._signature = signature  # don't re-parse until it changes again
                return
            self._table = table
            self._anonymous = anonymous
            self._signature = signature
            self._reloads += 1

    def resolve(self, api_key: str | None) -> Tenant | None:
        """Look up a key (``None`` = no key presented).  Returns the tenant,
        the anonymous tenant when allowed, or ``None`` for a refusal."""
        self._maybe_reload()
        if api_key is None or api_key == "":
            return self._anonymous
        return self._table.get(hash_key(api_key))

    @property
    def allows_anonymous(self) -> bool:
        return self._anonymous is not None

    def stats(self) -> dict:
        with self._lock:
            return {
                "path": self.path,
                "tenants": len({t.tenant_id for t in self._table.values()}),
                "keys": len(self._table),
                "anonymous": self._anonymous is not None,
                "reloads": self._reloads,
                "reload_errors": self._reload_errors,
            }
