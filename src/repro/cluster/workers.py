"""Subprocess worker fleet: spawn, health-check, restart with backoff.

A :class:`WorkerPool` owns N serving processes (normally ``repro serve``
subprocesses, but any command that answers ``GET /v1/healthz`` works).  Each
worker is described by a :class:`WorkerSpec` — a stable id, the URL it will
listen on, and the argv to spawn it — and managed through its lifecycle:

* **start**: every spec is spawned at once, then polled on
  ``/v1/healthz`` until it answers;
* **monitor**: a background thread probes each worker every
  ``health_interval``; a worker whose process exited, or that failed
  ``unhealthy_threshold`` consecutive probes, is declared down, terminated
  if still running, and scheduled for restart.  Probes of a worker still
  starting count only once it has outlasted the start-up timeout given to
  ``start``: on a busy machine imports and the dataset load can outlast a
  few probe intervals;
* **restart**: respawns are delayed by exponential backoff (bounded by
  ``restart_backoff_max``) plus a per-worker stagger so a crash loop cannot
  hot-spin and simultaneous crashes don't restart in lockstep;
* **stop**: SIGTERM, bounded wait, then SIGKILL — ``repro serve`` installs a
  SIGTERM handler, so a healthy worker exits 0.

A worker's stdout is discarded and its stderr is inherited: access-log and
slow-query lines and crash tracebacks reach the pool owner's stderr.

The pool never routes traffic itself; the gateway (:mod:`.gateway`) reads
:meth:`endpoints` / health and does its own passive failover, so the two
stay independently testable.
"""

from __future__ import annotations

import http.client
import subprocess
import threading
import time
from dataclasses import dataclass, field
from typing import Sequence
from urllib.parse import urlsplit

from repro.exceptions import ServiceError

#: worker lifecycle states.
STARTING, HEALTHY, DOWN, STOPPED = "starting", "healthy", "down", "stopped"


def probe_health(url: str, timeout: float = 2.0, path: str = "/v1/healthz") -> bool:
    """One liveness probe: True iff ``GET url+path`` answers 200."""
    parts = urlsplit(url)
    connection = http.client.HTTPConnection(
        parts.hostname, parts.port or 80, timeout=timeout
    )
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        response.read()
        return response.status == 200
    except (OSError, http.client.HTTPException):
        return False
    finally:
        connection.close()


@dataclass(frozen=True)
class WorkerSpec:
    """One worker to manage: stable identity, serving URL, spawn command."""

    worker_id: str
    url: str
    command: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.worker_id:
            raise ServiceError("worker_id must be non-empty")
        if not self.command:
            raise ServiceError(f"worker {self.worker_id!r} needs a spawn command")


@dataclass(frozen=True)
class WorkerEndpoint:
    """A routing-facing snapshot of one worker."""

    worker_id: str
    url: str
    healthy: bool


@dataclass
class _Managed:
    """Mutable pool-internal state of one worker (guarded by the pool lock)."""

    spec: WorkerSpec
    index: int
    process: subprocess.Popen | None = None
    state: str = STARTING
    restarts: int = 0
    consecutive_failures: int = 0
    #: monotonic time before which the worker must not be respawned.
    next_restart_at: float = 0.0
    #: monotonic time of the latest spawn.
    spawned_at: float = 0.0
    exit_codes: list[int] = field(default_factory=list)


class WorkerPool:
    """Spawns and babysits a fleet of serving subprocesses."""

    def __init__(
        self,
        specs: Sequence[WorkerSpec],
        health_interval: float = 0.5,
        health_timeout: float = 2.0,
        unhealthy_threshold: int = 3,
        restart_backoff: float = 0.5,
        restart_backoff_max: float = 30.0,
        restart_stagger: float = 0.25,
    ):
        if not specs:
            raise ServiceError("a worker pool needs at least one WorkerSpec")
        ids = [spec.worker_id for spec in specs]
        if len(set(ids)) != len(ids):
            raise ServiceError(f"duplicate worker ids: {sorted(ids)}")
        self.health_interval = health_interval
        self.health_timeout = health_timeout
        self.unhealthy_threshold = max(1, unhealthy_threshold)
        self.restart_backoff = restart_backoff
        self.restart_backoff_max = restart_backoff_max
        self.restart_stagger = restart_stagger
        self._lock = threading.Lock()
        self._workers = [
            _Managed(spec=spec, index=index) for index, spec in enumerate(specs)
        ]
        self._stop_event = threading.Event()
        self._monitor: threading.Thread | None = None
        self._started = False
        self._restarts_total = 0
        #: how long a (re)spawned worker may stay STARTING; set by ``start``.
        self._startup_timeout = 60.0

    # -- lifecycle ---------------------------------------------------------------
    def start(self, wait_healthy: bool = True, timeout: float = 60.0) -> "WorkerPool":
        """Spawn every worker and (optionally) block until all are healthy."""
        with self._lock:
            if self._started:
                raise ServiceError("worker pool is already started")
            self._started = True
            self._startup_timeout = timeout
        for worker in self._workers:
            self._spawn(worker)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-cluster-monitor", daemon=True
        )
        self._monitor.start()
        if wait_healthy:
            self.wait_until_healthy(timeout=timeout)
        return self

    def wait_until_healthy(self, timeout: float = 60.0) -> None:
        """Block until every worker answers its health probe."""
        deadline = time.monotonic() + timeout
        pending = {worker.spec.worker_id for worker in self._workers}
        while pending:
            for worker in self._workers:
                if worker.spec.worker_id not in pending:
                    continue
                if probe_health(worker.spec.url, timeout=self.health_timeout):
                    with self._lock:
                        worker.state = HEALTHY
                        worker.consecutive_failures = 0
                    pending.discard(worker.spec.worker_id)
            if not pending:
                return
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"workers not healthy after {timeout:.0f}s: {sorted(pending)}"
                )
            time.sleep(min(0.05, self.health_interval))

    def stop(self, timeout: float = 10.0) -> None:
        """Terminate every worker (SIGTERM, bounded wait, SIGKILL) and join."""
        self._stop_event.set()
        monitor = self._monitor
        if monitor is not None:
            monitor.join(timeout=max(1.0, self.health_interval * 4))
            self._monitor = None
        with self._lock:
            workers = list(self._workers)
        for worker in workers:
            process = worker.process
            if process is not None and process.poll() is None:
                process.terminate()
        deadline = time.monotonic() + timeout
        for worker in workers:
            process = worker.process
            if process is None:
                continue
            remaining = max(0.1, deadline - time.monotonic())
            try:
                process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=5.0)
            with self._lock:
                worker.exit_codes.append(process.returncode)
                worker.state = STOPPED

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- routing-facing views ----------------------------------------------------
    def endpoints(self) -> list[WorkerEndpoint]:
        with self._lock:
            return [
                WorkerEndpoint(
                    worker_id=worker.spec.worker_id,
                    url=worker.spec.url,
                    healthy=worker.state == HEALTHY,
                )
                for worker in self._workers
            ]

    def healthy_count(self) -> int:
        with self._lock:
            return sum(1 for worker in self._workers if worker.state == HEALTHY)

    def stats(self) -> dict:
        with self._lock:
            return {
                "workers": {
                    worker.spec.worker_id: {
                        "url": worker.spec.url,
                        "state": worker.state,
                        "restarts": worker.restarts,
                        "pid": worker.process.pid if worker.process else None,
                        "exit_codes": list(worker.exit_codes),
                    }
                    for worker in self._workers
                },
                "restarts_total": self._restarts_total,
            }

    # -- internals ---------------------------------------------------------------
    def _spawn(self, worker: _Managed) -> None:
        worker.process = subprocess.Popen(
            list(worker.spec.command), stdout=subprocess.DEVNULL
        )
        with self._lock:
            worker.state = STARTING
            worker.consecutive_failures = 0
            worker.spawned_at = time.monotonic()

    def _monitor_loop(self) -> None:
        while not self._stop_event.wait(self.health_interval):
            for worker in self._workers:
                if self._stop_event.is_set():
                    return
                try:
                    self._check(worker)
                except Exception:  # noqa: BLE001 - monitoring must never die
                    continue

    def _check(self, worker: _Managed) -> None:
        now = time.monotonic()
        process = worker.process
        if worker.state == DOWN:
            if now >= worker.next_restart_at:
                self._restart(worker)
            return
        exited = process is None or process.poll() is not None
        if exited:
            if process is not None:
                with self._lock:
                    worker.exit_codes.append(process.returncode)
            self._mark_down(worker, now)
            return
        if probe_health(worker.spec.url, timeout=self.health_timeout):
            with self._lock:
                worker.state = HEALTHY
                worker.consecutive_failures = 0
            return
        if worker.state == STARTING and now - worker.spawned_at < self._startup_timeout:
            # Still importing and loading: a slow start is not a hang until
            # it outlasts the start-up timeout, after which probes count.
            return
        with self._lock:
            worker.consecutive_failures += 1
            failing = worker.consecutive_failures >= self.unhealthy_threshold
        if failing:
            # Alive but unresponsive: recycle the process like a crash.
            if process.poll() is None:
                process.terminate()
                try:
                    process.wait(timeout=self.health_timeout)
                except subprocess.TimeoutExpired:
                    process.kill()
            self._mark_down(worker, time.monotonic())

    def _mark_down(self, worker: _Managed, now: float) -> None:
        with self._lock:
            worker.state = DOWN
            worker.restarts += 1
            self._restarts_total += 1
            backoff = min(
                self.restart_backoff_max,
                self.restart_backoff * (2 ** (worker.restarts - 1)),
            )
            # Stagger per worker index so simultaneous crashes (e.g. a shared
            # dependency hiccup) do not respawn the whole fleet in lockstep.
            worker.next_restart_at = now + backoff + worker.index * self.restart_stagger

    def _restart(self, worker: _Managed) -> None:
        self._spawn(worker)
