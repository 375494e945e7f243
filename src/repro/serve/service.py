"""The expansion service: registry + cache + admission behind one API.

:class:`ExpansionService` is the in-process facade the v1 API, the client
SDK's in-process transport, and tests all talk to.  One ``submit`` call is
one request, served start to finish on the calling thread; the hot path is::

    request -> validate -> resolve query -> result cache? -> admission slot?
            -> ExpanderRegistry (fitted once, on first use) -> expand -> cache
            -> paginate / resolve names (ExpandOptions)

Every expander ranks one query at a time, so an uncached expand simply runs
inline; the optional :class:`~repro.gate.AdmissionController` is the one
bound on how many run at once.

Cold fits can also be paid explicitly instead of by a first request:
:meth:`fit` (``POST /v1/fits`` on the wire) runs the same registry lookup
an expand runs, on the calling thread, and returns once the method is
resident.

Telemetry is unified on one :class:`~repro.obs.MetricsRegistry` owned by the
service (labelled with the dataset fingerprint) and shared with the cache,
registry, and substrate provider; :meth:`stats` is a wire-compatible
view over it, and the same registry renders ``GET /v1/metrics``.  Per-tenant
usage (compute seconds, cache hits, fits) is a set of counter families on
that registry, read back as the ``usage`` key of :meth:`stats`.  A request
carries a :class:`~repro.obs.Trace` through the hot path exactly when
something reads it: it asks for ``include_timings`` (the spans come back on
the response) or the service logs slow queries
(``ServiceConfig.slow_query_ms``; the spans of a request over the threshold
land on its slow-query line).  Any other request runs with no trace.

The service writes no telemetry file: telemetry is read over HTTP or from
its loggers, the only files it writes are fits published to the artifact
store, and store GC is ``repro store gc``'s job, run out of process.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from repro.api.options import ExpandOptions
from repro.config import ServiceConfig
from repro.core.resources import SharedResources
from repro.dataset.ultrawiki import UltraWikiDataset
from repro.exceptions import DatasetError, ServiceUnavailableError
from repro.gate import ANONYMOUS_TENANT, AdmissionController, Gate, gate_for
from repro.obs import (
    MetricsRegistry,
    Trace,
    activate,
    current_request_id,
    current_tenant,
    log_slow_query,
    span,
)
from repro.obs.metrics import MAX_SERIES_PER_FAMILY
from repro.serve.cache import ResultCache
from repro.serve.protocol import ExpandRequest, ExpandResponse, MethodInfo
from repro.serve.registry import ExpanderFactory, ExpanderRegistry
from repro.store import ArtifactStore
from repro.types import ExpansionResult, Query


#: the key under which a service keeps the one shared entry of no-op handles
#: for every tenant past a family's series cap (see ``_bounded_handle``).
_OVERFLOW = object()


class _TenantSeries(NamedTuple):
    """One entry per tenant-labelled counter family of the service: the
    families themselves, or one tenant's bound series of each."""

    requests: Any
    errors: Any
    compute_seconds: Any
    cache_hits: Any
    fits: Any
    fit_seconds: Any


class ExpansionService:
    """Serves expansion queries over a fitted expander fleet."""

    def __init__(
        self,
        dataset: UltraWikiDataset,
        config: ServiceConfig | None = None,
        resources: SharedResources | None = None,
        factories: Mapping[str, ExpanderFactory] | None = None,
        store: ArtifactStore | None = None,
    ):
        """``resources`` lets callers share already-fitted substrates (e.g.
        an :class:`ExperimentContext`).  ``store`` (or ``config.store_dir``)
        attaches the persistent artifact store so fits survive restarts and
        are shared across worker processes."""
        self.config = config or ServiceConfig()
        self.config.validate()
        self.dataset = dataset
        if store is None and self.config.store_dir is not None:
            store = ArtifactStore(self.config.store_dir)
        self.store = store
        # One registry for every serving layer; stats() endpoints are views
        # over it and /v1/metrics renders it.  metrics_enabled=False swaps in
        # shared no-op instruments (the benchmark overhead baseline).
        self.metrics = MetricsRegistry(
            enabled=self.config.metrics_enabled,
            const_labels={"dataset": dataset.fingerprint()},
        )
        self.registry = ExpanderRegistry(
            dataset,
            resources=resources,
            factories=factories,
            store=store,
            fit_lock_wait_seconds=self.config.fit_lock_wait_seconds,
            metrics=self.metrics,
        )
        self.cache = ResultCache(capacity=self.config.cache_capacity, metrics=self.metrics)
        # The front door (repro.gate): built only when configured, so a
        # plain service carries zero gate state and stays fully open.
        self.gate: Gate | None = gate_for(self.config, self.metrics)
        self.admission: AdmissionController | None = None
        if self.config.admission_max_concurrent is not None:
            self.admission = AdmissionController(
                max_concurrent=self.config.admission_max_concurrent,
                queue_depth=self.config.admission_queue_depth,
                timeout_seconds=self.config.admission_timeout_seconds,
                metrics=self.metrics,
            )
        self._queries_by_id: dict[str, Query] = {
            q.query_id: q for q in dataset.queries
        }
        self._entity_names: dict[int, str] = {
            e.entity_id: e.name for e in dataset.entities()
        }
        self._lock = threading.Lock()
        self._requests = self.metrics.counter(
            "repro_service_requests_total", "Expand requests submitted."
        )
        self._errors = self.metrics.counter(
            "repro_service_errors_total", "Expand requests that raised."
        )
        self._adhoc = self.metrics.counter(
            "repro_service_adhoc_queries_total", "Inline-seed (ad-hoc) queries."
        )
        # Exemplars capture the current request id per latency bucket, so a
        # fat p99 bucket on /v1/metrics joins straight to a slow-query line.
        self._latency = self.metrics.histogram(
            "repro_request_latency_ms",
            "End-to-end expand latency (cached and uncached).",
            exemplars=True,
        )
        # hot-path handles: label resolution paid once, not per request
        # (keyed by method, or by (method, tenant); see _bounded_handle).
        self._latency_by_method: dict = {}
        # Usage: an uncached expand is charged its execute wall time (also
        # when the expander raises), a cache hit the lookup's own time, a fit
        # its wall time.  A tenant's series of every family here are bound
        # together on its first request or fit, so the registry's
        # MAX_SERIES_PER_FAMILY cap keeps or drops a tenant in all of them
        # at once; unkeyed traffic takes the unlabeled series.
        self._tenant_families = _TenantSeries(
            requests=self._requests,
            errors=self._errors,
            compute_seconds=self.metrics.counter(
                "repro_tenant_compute_seconds_total",
                "Compute seconds charged per tenant (execute, cache lookup, fit).",
            ),
            cache_hits=self.metrics.counter(
                "repro_tenant_cache_hits_total",
                "Expand requests per tenant answered from the result cache.",
            ),
            fits=self.metrics.counter("repro_tenant_fits_total", "Fits requested per tenant."),
            fit_seconds=self.metrics.counter(
                "repro_tenant_fit_seconds_total", "Fit wall time per tenant."
            ),
        )
        self._series_by_tenant: dict = {}
        #: serial for adhoc query ids; must stay exact even with metrics off.
        self._adhoc_serial = 0
        self._closed = False

    # -- request path ----------------------------------------------------------------
    def submit(self, request: ExpandRequest) -> ExpandResponse:
        """Serve one request synchronously; raises a ReproError on bad input."""
        started = time.perf_counter()
        # A trace is only built when someone will read it (the response's
        # debug block or the slow-query log); the untraced hot path pays
        # one ContextVar read per span site.
        trace: Trace | None = None
        if request.options.include_timings or self.config.slow_query_ms is not None:
            trace = Trace(request_id=current_request_id())
        try:
            if trace is not None:
                with activate(trace):
                    response = self._submit(request, started, trace)
            else:
                response = self._submit(request, started, trace)
        except BaseException as exc:
            self._count_request(error=True)
            self._log_if_slow(
                trace,
                request,
                latency_ms=(time.perf_counter() - started) * 1000.0,
                cached=False,
                error=type(exc).__name__,
            )
            raise
        self._count_request()
        self._log_if_slow(
            trace,
            request,
            latency_ms=response.latency_ms,
            cached=response.cached,
            query_id=response.query_id,
        )
        return response

    def _count_request(self, error: bool = False) -> None:
        """Count one request under the caller's tenant."""
        series = self._tenant_series(current_tenant())
        series.requests.inc()
        if error:
            series.errors.inc()

    def _tenant_series(self, tenant: str | None) -> _TenantSeries:
        """The tenant's bound series of every tenant-labelled family, bound
        on its first request or fit."""
        series = self._series_by_tenant.get(tenant)
        if series is None:
            labels = {} if tenant is None else {"tenant": tenant}
            series = _bounded_handle(
                self._series_by_tenant,
                tenant,
                lambda: _TenantSeries(
                    *(family.labels(**labels) for family in self._tenant_families)
                ),
            )
        return series

    def _submit(
        self,
        request: ExpandRequest,
        started: float,
        trace: Trace | None = None,
    ) -> ExpandResponse:
        if self._closed:
            raise ServiceUnavailableError("service is shut down")
        request.validate()
        method = request.method.strip().lower()
        self.registry.ensure_known(request.method)
        query = self._resolve_query(request)
        options = request.options
        top_k = options.resolved_top_k(self.config.default_top_k)

        key = request.cache_key(top_k)
        if options.use_cache:
            lookup_started = time.perf_counter()
            with span("cache_lookup"):
                cached = self.cache.get(key)
            if cached is not None:
                # a hit costs the lookup, not the execute the cache saved.
                series = self._tenant_series(current_tenant())
                series.cache_hits.inc()
                series.compute_seconds.inc(time.perf_counter() - lookup_started)
                return self._respond(
                    method, cached, options, top_k, True, started, trace
                )

        with span("admission", method=method):
            if self.admission is not None:
                # cache hits returned above never touch admission — only the
                # expensive registry/expand section competes for slots.
                with self.admission.admit("interactive"):
                    result = self._execute(method, query, top_k)
            else:
                result = self._execute(method, query, top_k)
        if options.use_cache:
            with span("cache_store"):
                self.cache.put(key, result)
        return self._respond(method, result, options, top_k, False, started, trace)

    def _respond(
        self,
        method: str,
        result: ExpansionResult,
        options: ExpandOptions,
        top_k: int,
        cached: bool,
        started: float,
        trace: Trace | None = None,
    ) -> ExpandResponse:
        latency_ms = (time.perf_counter() - started) * 1000.0
        tenant = current_tenant()
        key = method if tenant is None else (method, tenant)
        observer = self._latency_by_method.get(key)
        if observer is None:
            labels = {"method": method}
            if tenant is not None:
                labels["tenant"] = tenant
            observer = _bounded_handle(
                self._latency_by_method, key, lambda: self._latency.labels(**labels)
            )
        observer.observe(latency_ms)
        timings = None
        if trace is not None and options.include_timings:
            timings = tuple(trace.to_list())
        return ExpandResponse.from_result(
            method,
            result,
            self._entity_names if options.return_names else None,
            top_k=top_k,
            cached=cached,
            latency_ms=latency_ms,
            options=options,
            timings=timings,
        )

    def _log_if_slow(
        self,
        trace: Trace | None,
        request: ExpandRequest,
        latency_ms: float,
        cached: bool,
        query_id: str | None = None,
        error: str | None = None,
    ) -> None:
        threshold = self.config.slow_query_ms
        if threshold is None or latency_ms < threshold:
            return
        # with a threshold set, submit traced this request.
        log_slow_query(
            request_id=trace.request_id,
            method=request.method,
            query_id=query_id if query_id is not None else request.query_id,
            latency_ms=latency_ms,
            threshold_ms=threshold,
            cached=cached,
            tenant=current_tenant(),
            spans=trace.to_list(),
            error=error,
        )

    def _resolve_query(self, request: ExpandRequest) -> Query:
        if request.query_id is not None:
            query = self._queries_by_id.get(request.query_id)
            if query is None:
                raise DatasetError(f"unknown query id {request.query_id!r}")
            return query
        if request.class_id not in self.dataset.ultra_classes:
            raise DatasetError(f"unknown ultra-fine-grained class {request.class_id!r}")
        for entity_id in (*request.positive_seed_ids, *request.negative_seed_ids):
            self.dataset.entity(entity_id)  # raises DatasetError when unknown
        with self._lock:
            self._adhoc_serial += 1
            serial = self._adhoc_serial
        self._adhoc.inc()
        return Query(
            query_id=f"adhoc-{serial}",
            class_id=request.class_id,
            positive_seed_ids=request.positive_seed_ids,
            negative_seed_ids=request.negative_seed_ids,
        )

    def _execute(self, method: str, query: Query, top_k: int) -> ExpansionResult:
        """Run one uncached expand on the calling thread.  Its wall time is
        charged to the caller's tenant, also when the expander raises: the
        compute was spent."""
        started = time.perf_counter()
        try:
            with span("execute", method=method):
                return self.registry.get(method).expand(query, top_k)
        finally:
            self._tenant_series(current_tenant()).compute_seconds.inc(
                time.perf_counter() - started
            )

    # -- warm-up / fits ---------------------------------------------------------------
    def warm_up(self, methods: Sequence[str] = ("retexpan",)) -> None:
        """Fit the given methods up front (e.g. at server start)."""
        for method in methods:
            self.registry.fit(method)

    def fit(self, method: str) -> dict:
        """Make ``method`` resident and return ``{method, outcome,
        seconds}``; ``POST /v1/fits`` on the wire.

        It runs the registry lookup an expand runs, on the calling thread,
        holding one batch-lane admission slot behind interactive expands
        (so under load it sheds with the same retryable 503).  Its wall time is charged
        to the caller's tenant, also when the fit raises: the compute was
        spent.
        """
        if self._closed:
            raise ServiceUnavailableError("service is shut down")
        self.registry.ensure_known(method)
        name = method.strip().lower()
        slot = self.admission.admit("batch") if self.admission is not None else nullcontext()
        with slot:
            started = time.perf_counter()
            try:
                outcome = self.registry.fit(name)
            finally:
                seconds = time.perf_counter() - started
                series = self._tenant_series(current_tenant())
                series.fits.inc()
                series.fit_seconds.inc(seconds)
                series.compute_seconds.inc(seconds)
        return {"method": name, "outcome": outcome, "seconds": seconds}

    # -- introspection -----------------------------------------------------------------
    def methods(self) -> list[MethodInfo]:
        infos = []
        for name in self.registry.methods():
            fitted = self.registry.peek(name)
            description = self.registry.describe(name)
            infos.append(
                MethodInfo(
                    method=name,
                    fitted=fitted is not None,
                    expander_name=fitted.name if fitted is not None else None,
                    supports_persistence=description["supports_persistence"],
                    state_version=description["state_version"],
                    store_artifact=self.registry.artifact_available(name),
                )
            )
        return infos

    def stats(self) -> dict:
        latency = self._latency.merged()
        latency.update(self._latency.percentiles())
        service = {
            "requests": int(self._requests.total()),
            "errors": int(self._errors.total()),
            "adhoc_queries": int(self._adhoc.total()),
            "dataset_queries": len(self._queries_by_id),
            "entities": len(self._entity_names),
            # latency rides inside the pinned "service" sub-dict; the raw
            # bucket list lets the gateway merge per-worker distributions
            # into fleet-level percentiles.
            "latency_ms": latency,
        }
        merged = {
            "service": service,
            "cache": self.cache.stats(),
            "registry": self.registry.stats(),
            "usage": self._usage_stats(),
        }
        # gate/admission keys appear only when configured, so the default
        # stats payload (pinned by wire-shape tests) is unchanged.
        if self.gate is not None:
            merged["gate"] = self.gate.stats()
        if self.admission is not None:
            merged["admission"] = self.admission.stats()
        if self.store is not None:
            merged["store"] = self.store.stats()
        return merged

    def _usage_stats(self) -> dict:
        """Per-tenant usage read back from the counters: one row per tenant
        seen so far, unkeyed traffic under ``anonymous``."""
        families = self._tenant_families
        tenants: dict[str, dict] = {}
        for key, seconds in families.compute_seconds.series().items():
            labels = dict(key)
            row = tenants.setdefault(
                labels.get("tenant", ANONYMOUS_TENANT),
                {"requests": 0, "cache_hits": 0, "fits": 0,
                 "compute_seconds": 0.0, "fit_seconds": 0.0},
            )
            row["requests"] += int(families.requests.value(**labels))
            row["cache_hits"] += int(families.cache_hits.value(**labels))
            row["fits"] += int(families.fits.value(**labels))
            row["compute_seconds"] = round(row["compute_seconds"] + seconds, 6)
            row["fit_seconds"] = round(
                row["fit_seconds"] + families.fit_seconds.value(**labels), 6
            )
        return {"tenants": {tenant: tenants[tenant] for tenant in sorted(tenants)}}

    # -- lifecycle ---------------------------------------------------------------------
    def close(self) -> None:
        self._closed = True

    def __enter__(self) -> "ExpansionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _bounded_handle(handles: dict, key, bind: Callable[[], Any]) -> Any:
    """The handle of a ``key`` that ``handles`` does not hold yet: bound by
    ``bind()`` and kept under ``key`` for its later lookups.

    Only these dicts bind series of their families, so a dict holding
    MAX_SERIES_PER_FAMILY keys means families that refuse new series.  The
    first newcomer past that binds anyway (each family counts it in its
    ``dropped_series``) and its no-op handles become one shared overflow
    entry, handed to every later newcomer: any caller may name a new
    tenant, so a dict holds at most the cap's keys plus that entry."""
    handle = handles.get(_OVERFLOW)
    if handle is None:
        handle = bind()
        # benign race: both losers bind the same series, one wins the slot.
        full = len(handles) >= MAX_SERIES_PER_FAMILY
        handle = handles.setdefault(_OVERFLOW if full else key, handle)
    return handle
