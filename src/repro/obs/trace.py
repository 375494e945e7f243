"""Lightweight request tracing for the expand hot path and cold fits.

A :class:`Trace` collects named spans (start offset + duration in
milliseconds, relative to the trace's birth) for one request.  The active
trace rides a :mod:`contextvars` ContextVar, so instrumented code deep in
the stack opens spans with the module-level :func:`span` context manager
without threading a trace object through every signature — and when no
trace is active, :func:`span` is a no-op costing one ContextVar read,
which is what keeps the uninstrumented hot path fast.

Traces carry a W3C-trace-context-style identity: every trace owns a
128-bit ``trace_id`` and every span a 64-bit ``span_id`` with a
``parent_id`` pointer, so duplicate sibling names (two ``score_candidates``
spans in one request) stay unambiguous.  The legacy name-based ``parent``
attribute is kept alongside because the ``debug.timings`` wire shape is
pinned.  :func:`format_traceparent` / :func:`parse_traceparent` serialize
the identity as a ``traceparent`` header (``00-<trace>-<span>-<flags>``),
whose flags carry the head-sampling verdict from the gateway to a worker.
:class:`propagation_scope` binds a :class:`TraceContext` where no trace
runs, so a verdict reaches the next hop (the gateway's lost coin) or the
sampler (a worker's unsampled inbound hop) without building a trace.

Threading rules:

* ``Trace._stack`` (the open-span chain used for parent/child nesting) is
  only touched by the thread that activated the trace; it is *not*
  shared across threads.
* The span list and annotations are guarded by the trace's lock, so a
  trace may be read from another thread while it is still being written.

The same module carries the request-id ContextVar: the HTTP handler (or
in-process transport) enters :func:`request_scope` around dispatch so any
layer — gateway forwarding, envelope rendering, slow-query logging — can
recover the id via :func:`current_request_id` without plumbing.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import threading
import time
from dataclasses import dataclass, field
from typing import NamedTuple

#: inbound/outbound W3C trace-context header carried on every worker hop.
TRACEPARENT_HEADER = "traceparent"
#: response header surfacing the trace id minted (or continued) for a request.
TRACE_ID_HEADER = "X-Repro-Trace-Id"
#: response header a worker uses to return its span list to the gateway
#: (compact JSON: ``{"trace_id": ..., "spans": [...]}``), so the gateway can
#: graft the worker fragment into its own tree.
TRACE_SPANS_HEADER = "X-Repro-Trace"

_TRACE: contextvars.ContextVar["Trace | None"] = contextvars.ContextVar(
    "repro_obs_trace", default=None
)
_PROPAGATION: contextvars.ContextVar["TraceContext | None"] = contextvars.ContextVar(
    "repro_obs_trace_context", default=None
)
_ACTIVATED: contextvars.ContextVar["list[Trace] | None"] = contextvars.ContextVar(
    "repro_obs_activated_traces", default=None
)
_REQUEST_ID: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_obs_request_id", default=None
)
_TENANT: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_obs_tenant", default=None
)


def new_trace_id() -> str:
    """A 128-bit lowercase-hex trace id (W3C traceparent format)."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A 64-bit lowercase-hex span id."""
    return os.urandom(8).hex()


class TraceContext(NamedTuple):
    """The propagatable identity of one point in a trace; ``sampled`` is
    the head-sampling verdict the ``traceparent`` flags carry."""

    trace_id: str
    span_id: str
    sampled: bool = True


def format_traceparent(context: TraceContext) -> str:
    flags = "01" if context.sampled else "00"
    return f"00-{context.trace_id}-{context.span_id}-{flags}"


def _is_hex(value: str) -> bool:
    try:
        int(value, 16)
    except ValueError:
        return False
    return True


def parse_traceparent(header: str | None) -> TraceContext | None:
    """Parse a ``traceparent`` header; ``None`` for anything malformed."""
    if not header:
        return None
    parts = header.strip().split("-")
    if len(parts) != 4:
        return None
    version, trace_id, span_id, flags = parts
    if len(version) != 2 or not _is_hex(version) or version.lower() == "ff":
        return None
    if len(trace_id) != 32 or not _is_hex(trace_id) or set(trace_id) == {"0"}:
        return None
    if len(span_id) != 16 or not _is_hex(span_id) or set(span_id) == {"0"}:
        return None
    if len(flags) != 2 or not _is_hex(flags):
        return None
    return TraceContext(
        trace_id.lower(), span_id.lower(), sampled=bool(int(flags, 16) & 1)
    )


@dataclass
class Span:
    name: str
    start_ms: float
    duration_ms: float
    parent: str | None = None
    meta: dict = field(default_factory=dict)
    span_id: str = ""
    parent_id: str | None = None

    def to_dict(self) -> dict:
        """The pinned ``debug.timings`` wire shape — ids deliberately absent."""
        payload = {
            "name": self.name,
            "start_ms": round(self.start_ms, 3),
            "duration_ms": round(self.duration_ms, 3),
        }
        if self.parent is not None:
            payload["parent"] = self.parent
        if self.meta:
            payload["meta"] = self.meta
        return payload

    def to_full_dict(self) -> dict:
        """The trace-store shape: the pinned fields plus span identity."""
        payload = self.to_dict()
        payload["span_id"] = self.span_id
        payload["parent_id"] = self.parent_id
        return payload


class Trace:
    """Per-request span collector.  Cheap to build, safe to share for writes."""

    __slots__ = (
        "request_id",
        "trace_id",
        "parent_span_id",
        "span_id",
        "sampled",
        "t0",
        "_lock",
        "_spans",
        "_stack",
        "_annotations",
    )

    def __init__(
        self,
        request_id: str | None = None,
        trace_id: str | None = None,
        parent_span_id: str | None = None,
    ):
        self.request_id = request_id
        #: pass ``trace_id``/``parent_span_id`` to continue a remote context
        #: (a worker picking up the gateway's traceparent).
        self.trace_id = trace_id if trace_id is not None else new_trace_id()
        self.parent_span_id = parent_span_id
        #: the trace's own synthetic root id — the propagation fallback when
        #: no span is open on the activating thread.
        self.span_id = new_span_id()
        #: whether head sampling selected this trace (set by its creator).
        self.sampled = False
        self.t0 = time.perf_counter()
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        # Open (name, span_id) pairs for nesting; only the activating
        # thread touches it.
        self._stack: list[tuple[str, str]] = []
        self._annotations: dict = {}

    def now_ms(self) -> float:
        return (time.perf_counter() - self.t0) * 1000.0

    def open_span_id(self) -> str:
        """The innermost open span's id (activating thread only), falling
        back to the trace's synthetic root id."""
        return self._stack[-1][1] if self._stack else self.span_id

    def context(self) -> TraceContext:
        """The propagatable identity at the current nesting point, with
        this trace's own sampling verdict (activating thread only —
        captures ``open_span_id``)."""
        return TraceContext(self.trace_id, self.open_span_id(), self.sampled)

    def annotate(self, **attributes) -> None:
        """Attach trace-level attributes (e.g. the routed method) read back
        when the finished trace is offered to a collector."""
        with self._lock:
            self._annotations.update(attributes)

    def annotations(self) -> dict:
        with self._lock:
            return dict(self._annotations)

    def add_span(
        self,
        name: str,
        start_ms: float,
        duration_ms: float,
        parent: str | None = None,
        span_id: str | None = None,
        parent_id: str | None = None,
        **meta,
    ) -> None:
        """Record a finished span (thread-safe; usable from worker threads)."""
        entry = Span(
            name,
            start_ms,
            duration_ms,
            parent=parent,
            meta=dict(meta),
            span_id=span_id if span_id is not None else new_span_id(),
            parent_id=parent_id,
        )
        with self._lock:
            self._spans.append(entry)

    def graft_remote(
        self,
        spans: list[dict],
        base_ms: float,
        parent: str | None = None,
        parent_id: str | None = None,
    ) -> None:
        """Graft serialized spans from a remote hop (a worker's
        :data:`TRACE_SPANS_HEADER` payload), shifting their start offsets by
        ``base_ms`` — the local clock offset of the remote call — and hanging
        orphans under ``parent``/``parent_id``.  Malformed entries are
        skipped; tracing must never fail a request."""
        with self._lock:
            for raw in spans:
                try:
                    entry = Span(
                        str(raw["name"]),
                        base_ms + float(raw["start_ms"]),
                        float(raw["duration_ms"]),
                        parent=raw.get("parent", parent),
                        meta=dict(raw.get("meta") or {}),
                        span_id=str(raw.get("span_id") or new_span_id()),
                        parent_id=raw.get("parent_id") or parent_id,
                    )
                except (KeyError, TypeError, ValueError):
                    continue
                self._spans.append(entry)

    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def to_list(self) -> list[dict]:
        spans = self.spans()
        spans.sort(key=lambda entry: entry.start_ms)
        return [entry.to_dict() for entry in spans]

    def to_span_dicts(self) -> list[dict]:
        """The trace-store serialization: id-bearing span dicts by start."""
        spans = self.spans()
        spans.sort(key=lambda entry: entry.start_ms)
        return [entry.to_full_dict() for entry in spans]


def current_trace() -> Trace | None:
    return _TRACE.get()


def current_context() -> TraceContext | None:
    """The propagatable trace identity for the calling context: the active
    trace's live nesting point when one is activated here, else whatever a
    :class:`propagation_scope` bound (a hop's verdict with no trace)."""
    trace = _TRACE.get()
    if trace is not None:
        return trace.context()
    return _PROPAGATION.get()


@contextlib.contextmanager
def activate(trace: Trace | None):
    """Make ``trace`` the active trace for the calling context (and record
    it in an enclosing :class:`recorded_activations` scope)."""
    if trace is not None:
        recorded = _ACTIVATED.get()
        if recorded is not None:
            recorded.append(trace)
    token = _TRACE.set(trace)
    try:
        yield trace
    finally:
        _TRACE.reset(token)


class recorded_activations:  # noqa: N801 - context-manager used like a function
    """Collect, in order, every trace :func:`activate` makes active in the
    calling context while the scope is open.

    A layer that hands a request down learns this way which trace the
    request ran under, even when a layer below decided whether to trace it
    and opened the trace itself: the worker's HTTP front reads the trace id
    for its reply header from here.  A plain class, not
    ``@contextmanager``, because it wraps every request.
    """

    __slots__ = ("_recorded", "_token")

    def __enter__(self) -> list[Trace]:
        self._recorded: list[Trace] = []
        self._token = _ACTIVATED.set(self._recorded)
        return self._recorded

    def __exit__(self, *_exc_info) -> None:
        _ACTIVATED.reset(self._token)


class propagation_scope:  # noqa: N801 - context-manager used like a function
    """Bind a :class:`TraceContext` for the calling context, with no trace
    to record spans on: a hop's head-sampling verdict.

    The gateway binds an unsampled context of fresh ids when its coin lost
    and it built no trace, so its proxy hops still forward ``-00``.  A
    worker binds the unsampled context a hop arrived with, so the
    sampler (:meth:`~repro.obs.traces.TraceCollector.sample`) flips no coin
    of its own, and a trace the worker opens anyway (``include_timings``,
    a slow-query threshold) continues the hop's trace_id.
    """

    __slots__ = ("_context", "_token")

    def __init__(self, context: TraceContext | None):
        self._context = context

    def __enter__(self) -> TraceContext | None:
        self._token = _PROPAGATION.set(self._context)
        return self._context

    def __exit__(self, *_exc_info) -> None:
        _PROPAGATION.reset(self._token)


@contextlib.contextmanager
def span(name: str, **meta):
    """Record a span on the active trace; a no-op when tracing is off.

    Nesting is inferred from the activating thread's open-span stack, so

        with span("admission"):
            with span("execute"): ...

    records ``execute`` with ``parent="admission"`` — and, since every open
    span is assigned a ``span_id`` on entry, with ``parent_id`` pointing at
    that *specific* ``admission`` span, which keeps duplicate sibling names
    unambiguous.
    """
    trace = _TRACE.get()
    if trace is None:
        yield None
        return
    parent, parent_id = trace._stack[-1] if trace._stack else (None, None)
    span_id = new_span_id()
    trace._stack.append((name, span_id))
    start_ms = trace.now_ms()
    started = time.perf_counter()
    try:
        yield trace
    finally:
        duration_ms = (time.perf_counter() - started) * 1000.0
        trace._stack.pop()
        trace.add_span(
            name,
            start_ms,
            duration_ms,
            parent=parent,
            span_id=span_id,
            parent_id=parent_id,
            **meta,
        )


def current_request_id() -> str | None:
    return _REQUEST_ID.get()


@contextlib.contextmanager
def request_scope(request_id: str | None):
    """Bind the request id for the calling context (handler-entry scope)."""
    token = _REQUEST_ID.set(request_id)
    try:
        yield request_id
    finally:
        _REQUEST_ID.reset(token)


def current_tenant() -> str | None:
    """The tenant id the front door resolved for this request, if any."""
    return _TENANT.get()


class tenant_scope:  # noqa: N801 - context-manager used like a function
    """Bind the resolved tenant id for the calling context.

    Entered by the HTTP handler (or cluster gateway) right after the gate
    admits a request, next to :func:`request_scope` — so per-tenant metric
    labels, access-log attribution, and worker forwarding all read it via
    :func:`current_tenant` without plumbing.  ContextVars do not cross
    thread-pool boundaries: work handed to a pool thread sees no tenant
    unless it re-enters this scope there.

    A plain class, not ``@contextmanager``: this sits on the per-request
    hot path and the generator protocol costs ~1us per entry that a
    ``__slots__`` object does not.
    """

    __slots__ = ("_tenant_id", "_token")

    def __init__(self, tenant_id: str | None):
        self._tenant_id = tenant_id

    def __enter__(self) -> str | None:
        self._token = _TENANT.set(self._tenant_id)
        return self._tenant_id

    def __exit__(self, *_exc_info) -> None:
        _TENANT.reset(self._token)
