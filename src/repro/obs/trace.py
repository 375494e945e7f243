"""Lightweight request tracing for the expand hot path and cold fits.

A :class:`Trace` collects named spans (start offset + duration in
milliseconds, relative to the trace's birth) for one request.  The active
trace rides a :mod:`contextvars` ContextVar, so instrumented code deep in
the stack opens spans with the module-level :func:`span` context manager
without threading a trace object through every signature — and when no
trace is active, :func:`span` is a no-op costing one ContextVar read,
which is what keeps the uninstrumented hot path fast.

A trace is built only when something reads it: the reply's
``debug.timings`` (``include_timings``) or the slow-query line
(``slow_query_ms``).  Spans nest by name: each records the name of the
span open around it as ``parent``, the pinned ``debug.timings`` shape.

Threading rules:

* ``Trace._stack`` (the open-span chain used for parent/child nesting) is
  only touched by the thread that activated the trace; it is *not*
  shared across threads.
* The span list is guarded by the trace's lock, so a trace may be read
  from another thread while it is still being written.

The same module carries the request-id ContextVar: the HTTP handler (or
in-process transport) enters :func:`request_scope` around dispatch so any
layer — gateway forwarding, envelope rendering, slow-query logging — can
recover the id via :func:`current_request_id` without plumbing.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
import time
from dataclasses import dataclass, field

_TRACE: contextvars.ContextVar["Trace | None"] = contextvars.ContextVar(
    "repro_obs_trace", default=None
)
_REQUEST_ID: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_obs_request_id", default=None
)
_TENANT: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_obs_tenant", default=None
)


@dataclass
class Span:
    name: str
    start_ms: float
    duration_ms: float
    parent: str | None = None
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The pinned ``debug.timings`` wire shape."""
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


class Trace:
    """Per-request span collector.  Cheap to build, safe to share for writes."""

    __slots__ = ("request_id", "t0", "_lock", "_spans", "_stack")

    def __init__(self, request_id: str | None = None):
        self.request_id = request_id
        self.t0 = time.perf_counter()
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        # Names of the open spans, innermost last; only the activating
        # thread touches it.
        self._stack: list[str] = []

    def now_ms(self) -> float:
        return (time.perf_counter() - self.t0) * 1000.0

    def add_span(
        self,
        name: str,
        start_ms: float,
        duration_ms: float,
        parent: str | None = None,
        **meta,
    ) -> None:
        """Record a finished span (thread-safe; usable from worker threads)."""
        entry = Span(name, start_ms, duration_ms, parent=parent, meta=meta)
        with self._lock:
            self._spans.append(entry)

    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def to_list(self) -> list[dict]:
        spans = self.spans()
        spans.sort(key=lambda entry: entry.start_ms)
        return [entry.to_dict() for entry in spans]


def current_trace() -> Trace | None:
    return _TRACE.get()


@contextlib.contextmanager
def activate(trace: Trace | None):
    """Make ``trace`` the active trace for the calling context."""
    token = _TRACE.set(trace)
    try:
        yield trace
    finally:
        _TRACE.reset(token)


@contextlib.contextmanager
def span(name: str, **meta):
    """Record a span on the active trace; a no-op when tracing is off.

    Nesting is inferred from the activating thread's open-span stack, so

        with span("admission"):
            with span("execute"): ...

    records ``execute`` with ``parent="admission"``.
    """
    trace = _TRACE.get()
    if trace is None:
        yield None
        return
    parent = trace._stack[-1] if trace._stack else None
    trace._stack.append(name)
    start_ms = trace.now_ms()
    started = time.perf_counter()
    try:
        yield trace
    finally:
        duration_ms = (time.perf_counter() - started) * 1000.0
        trace._stack.pop()
        trace.add_span(name, start_ms, duration_ms, parent=parent, **meta)


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
