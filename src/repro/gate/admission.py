"""Bounded admission with two priority lanes and early load-shedding.

The controller guards the expensive part of a request (an uncached
expand or a fit, each run on the request's own thread) with
``max_concurrent`` execution slots, so it is the one bound on how many run
at once.
Callers that cannot run immediately wait in one of two lanes:

* ``interactive`` — online ``/v1/expand`` traffic; always served first;
* ``batch`` — ``POST /v1/fits``, which can hold a slot for seconds.

A freed slot goes to a waiting interactive caller before any batch
caller, so a backlog of fits cannot starve online traffic.  The queue
is bounded: once ``queue_depth`` callers are already waiting, new
arrivals are rejected immediately with a retryable
:class:`~repro.exceptions.OverloadedError` (HTTP 503 + ``Retry-After``)
instead of timing out slowly — overload turns into a cheap, early,
well-typed signal the client's backoff understands.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from repro.exceptions import OverloadedError

__all__ = ["ADMISSION_LANES", "AdmissionController"]

ADMISSION_LANES = ("interactive", "batch")


class AdmissionController:
    """Slot-limited admission with priority lanes and bounded waiting."""

    def __init__(
        self,
        max_concurrent: int,
        queue_depth: int = 32,
        timeout_seconds: float = 10.0,
        shed_retry_after_seconds: float = 1.0,
        metrics=None,
    ):
        if max_concurrent < 1:
            raise ValueError(f"max_concurrent must be >= 1, got {max_concurrent!r}")
        if queue_depth < 0:
            raise ValueError(f"queue_depth must be >= 0, got {queue_depth!r}")
        self.max_concurrent = int(max_concurrent)
        self.queue_depth = int(queue_depth)
        self.timeout_seconds = float(timeout_seconds)
        self.shed_retry_after_seconds = float(shed_retry_after_seconds)
        self._condition = threading.Condition()
        self._active = 0
        self._waiting = {lane: 0 for lane in ADMISSION_LANES}
        self._admitted = {lane: 0 for lane in ADMISSION_LANES}
        self._shed = {lane: 0 for lane in ADMISSION_LANES}
        self._timeouts = {lane: 0 for lane in ADMISSION_LANES}
        if metrics is not None:
            shed_counter = metrics.counter(
                "repro_gate_shed_total",
                "Requests shed by the admission controller, by lane.",
            )
            self._shed_series = {
                lane: shed_counter.labels(lane=lane) for lane in ADMISSION_LANES
            }
        else:
            self._shed_series = None

    @contextmanager
    def admit(self, lane: str = "interactive"):
        """``with admission.admit(lane):`` around the expensive section."""
        self.acquire(lane)
        try:
            yield
        finally:
            self.release()

    def acquire(self, lane: str = "interactive") -> None:
        if lane not in self._waiting:
            raise ValueError(f"unknown admission lane {lane!r}")
        with self._condition:
            if self._can_grant_locked(lane):
                self._grant_locked(lane)
                return
            total_waiting = sum(self._waiting.values())
            if total_waiting >= self.queue_depth:
                self._record_shed_locked(lane)
                raise OverloadedError(
                    f"admission queue full ({total_waiting} waiting, "
                    f"depth {self.queue_depth}); shedding {lane} request",
                    retry_after=self.shed_retry_after_seconds,
                    lane=lane,
                )
            self._waiting[lane] += 1
            try:
                remaining = self.timeout_seconds
                while not self._can_grant_locked(lane):
                    if remaining <= 0.0:
                        self._timeouts[lane] += 1
                        self._record_shed_locked(lane)
                        raise OverloadedError(
                            f"admission wait exceeded {self.timeout_seconds:.1f}s; "
                            f"shedding {lane} request",
                            retry_after=self.shed_retry_after_seconds,
                            lane=lane,
                        )
                    before = time.monotonic()
                    self._condition.wait(timeout=remaining)
                    remaining -= time.monotonic() - before
                self._grant_locked(lane)
            finally:
                self._waiting[lane] -= 1
                # a batch waiter may be runnable now that this interactive
                # waiter is gone (grant rule checks interactive waiter count).
                self._condition.notify_all()

    def release(self) -> None:
        with self._condition:
            self._active -= 1
            self._condition.notify_all()

    def _can_grant_locked(self, lane: str) -> bool:
        if self._active >= self.max_concurrent:
            return False
        # batch traffic yields to any waiting interactive caller.
        return lane == "interactive" or self._waiting["interactive"] == 0

    def _grant_locked(self, lane: str) -> None:
        self._active += 1
        self._admitted[lane] += 1

    def _record_shed_locked(self, lane: str) -> None:
        self._shed[lane] += 1
        if self._shed_series is not None:
            self._shed_series[lane].inc()

    def stats(self) -> dict:
        with self._condition:
            return {
                "max_concurrent": self.max_concurrent,
                "queue_depth": self.queue_depth,
                "active": self._active,
                "waiting": dict(self._waiting),
                "admitted": dict(self._admitted),
                "shed": dict(self._shed),
                "timeouts": dict(self._timeouts),
            }
