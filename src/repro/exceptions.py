"""Exception hierarchy for the UltraWiki reproduction library.

All library-raised exceptions derive from :class:`ReproError` so that callers
can catch the whole family with a single ``except`` clause while still being
able to distinguish configuration problems from data problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class ConfigurationError(ReproError):
    """A configuration object contains invalid or inconsistent values."""


class DatasetError(ReproError):
    """The dataset is malformed or a construction step cannot be completed."""


class VocabularyError(ReproError):
    """A token or entity is not present in the vocabulary."""


class ModelError(ReproError):
    """A model is used before it has been fitted, or with incompatible data."""


class ExpansionError(ReproError):
    """An expansion query cannot be executed (e.g. unknown seed entities)."""


class EvaluationError(ReproError):
    """Evaluation inputs are inconsistent (e.g. empty ground truth)."""


class ServiceError(ReproError):
    """An online serving request is invalid or cannot be fulfilled."""

    #: structured context merged into the API error envelope's ``details``;
    #: set per instance (``None`` here so instances never share a dict).
    details: dict | None = None


class UnknownMethodError(ServiceError):
    """A serving request names a method the registry does not provide."""


class ServiceUnavailableError(ServiceError):
    """The service is shutting down (or not yet ready); safe to retry elsewhere."""


class AuthenticationError(ServiceError):
    """The request presented no API key, or one the keyfile does not know."""


class RateLimitedError(ServiceError):
    """The tenant exhausted its token-bucket quota; retry after a delay.

    ``retry_after`` (seconds until the bucket refills enough for one
    request) rides in ``details`` so it survives the wire round trip and
    feeds both the ``Retry-After`` header and client backoff.
    """

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        if retry_after is not None:
            self.details = {"retry_after": round(float(retry_after), 3)}


class OverloadedError(ServiceUnavailableError):
    """Admission control shed the request (queue full or wait timed out).

    Subclasses :class:`ServiceUnavailableError` so it maps to the existing
    retryable 503 taxonomy entry; ``retry_after`` and the shed lane ride
    in ``details``.
    """

    def __init__(
        self,
        message: str,
        retry_after: float | None = None,
        lane: str | None = None,
    ):
        super().__init__(message)
        details: dict = {}
        if retry_after is not None:
            details["retry_after"] = round(float(retry_after), 3)
        if lane is not None:
            details["lane"] = lane
        if details:
            self.details = details


class TransportError(ReproError):
    """An API client transport failed to reach the server (after retries)."""


class PersistenceError(ReproError):
    """An expander cannot save or load its fitted state."""


class SubstrateError(ReproError):
    """A shared-substrate request is invalid (unknown kind, bad parameters)."""


class StoreError(ReproError):
    """An artifact-store operation failed; consumers fall back to refitting."""


class ArtifactNotFoundError(StoreError):
    """No artifact exists for the requested (method, fingerprint) key."""


class ArtifactCorruptError(StoreError):
    """An artifact exists but its manifest, checksums, or payload are broken."""


class ArtifactVersionError(StoreError):
    """An artifact was written under an incompatible format or state version."""
