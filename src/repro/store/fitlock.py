"""Cross-process fit leader election via atomic lock files.

When N serving workers share one artifact store and none of them holds the
artifact for a key yet, each would pay the cold fit independently — the most
expensive operation in the system, multiplied by the fleet size.
:class:`FitLock` makes the fit single-payer:

* the lock is one file under ``<store root>/.fitlocks/``, created with
  ``O_CREAT | O_EXCL`` so exactly one process (the **leader**) wins the
  race, atomically, on any POSIX filesystem — including a directory shared
  between worker processes on one host;
* the leader records its pid/host and keeps the file's mtime fresh from a
  heartbeat thread while the fit runs; everyone else **waits** for the file
  to disappear and then restores the leader's published artifact from the
  store instead of fitting;
* a leader that dies mid-fit stops heartbeating, so its lock goes **stale**
  (mtime older than ``stale_after``) and the next waiter breaks it and takes
  over — a crash delays the fit, it never wedges the key forever.

:func:`single_payer` is the one election loop: the method registry
(``(method, fingerprint)`` keys) and the substrate provider
(``substrate-<kind>`` / content-hash keys) both run their cold fits through
it, and :class:`FitLockCounters` gives both the same four counters and
``fit_lock`` stats view.

The lock protects an optimisation, not correctness: every consumer treats
"could not acquire / wait timed out" as permission to fit locally, so a
misbehaving filesystem degrades to the pre-lock behaviour (duplicate fits),
never to an outage.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, TypeVar

from repro.exceptions import StoreError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import MetricsRegistry

T = TypeVar("T")

#: subdirectory of the store root holding the lock files.
LOCK_DIR_NAME = ".fitlocks"

#: a lock whose mtime is older than this is considered abandoned by a dead
#: leader and may be broken by a waiter.
DEFAULT_STALE_SECONDS = 600.0


class FitLock:
    """An advisory single-payer lock for one ``(name, fingerprint)`` fit."""

    def __init__(
        self,
        root: str | Path,
        method: str,
        fingerprint: str,
        stale_after: float = DEFAULT_STALE_SECONDS,
        heartbeat_interval: float | None = None,
    ):
        method = method.strip().lower()
        if not method or any(sep in method for sep in ("/", "\\", "..")):
            raise StoreError(f"invalid method name {method!r}")
        if not fingerprint or any(sep in fingerprint for sep in ("/", "\\", "..")):
            raise StoreError(f"invalid fingerprint {fingerprint!r}")
        if stale_after <= 0:
            raise StoreError("stale_after must be positive")
        self.path = Path(root) / LOCK_DIR_NAME / f"{method}--{fingerprint}.lock"
        self.stale_after = stale_after
        #: heartbeats must land well inside the staleness window.
        self.heartbeat_interval = (
            heartbeat_interval
            if heartbeat_interval is not None
            else max(0.05, min(stale_after / 4.0, 15.0))
        )
        self._held = False
        self._stop_heartbeat = threading.Event()
        self._heartbeat_thread: threading.Thread | None = None

    # -- acquisition -------------------------------------------------------------
    def try_acquire(self) -> bool:
        """One non-blocking attempt to become the fit leader."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._break_if_stale()
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except OSError as exc:
            raise StoreError(f"cannot create fit lock {self.path}: {exc}") from exc
        try:
            os.write(
                fd,
                json.dumps(
                    {
                        "pid": os.getpid(),
                        "host": socket.gethostname(),
                        "acquired_at": time.time(),
                    }
                ).encode("utf-8"),
            )
        finally:
            os.close(fd)
        self._held = True
        self._start_heartbeat()
        return True

    def release(self) -> None:
        """Drop leadership (idempotent; safe if the lock was stolen)."""
        self._stop_heartbeat.set()
        thread = self._heartbeat_thread
        if thread is not None:
            thread.join(timeout=2.0)
            self._heartbeat_thread = None
        if self._held:
            self._held = False
            try:
                self.path.unlink()
            except OSError:
                pass

    # -- waiting -----------------------------------------------------------------
    def wait(self, timeout: float, poll_interval: float = 0.05) -> bool:
        """Block until the lock is free (absent or gone stale).

        Returns True when the lock was observed free, False on timeout —
        callers treat False as "the leader is stuck; fit locally anyway".
        """
        deadline = time.monotonic() + max(0.0, timeout)
        while True:
            self._break_if_stale()
            if not self.path.exists():
                return True
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            time.sleep(min(poll_interval, remaining))

    def holder(self) -> dict | None:
        """Best-effort contents of the lock file (pid/host/acquired_at)."""
        try:
            return json.loads(self.path.read_text("utf-8"))
        except (OSError, ValueError):
            return None

    # -- internals ---------------------------------------------------------------
    def _break_if_stale(self) -> None:
        """Remove an abandoned lock.  Several waiters may race here: unlink
        is idempotent and the follow-up ``O_EXCL`` create elects exactly one
        new leader, so the race is harmless."""
        try:
            age = time.time() - self.path.stat().st_mtime
        except OSError:
            return
        if age > self.stale_after:
            try:
                self.path.unlink()
            except OSError:
                pass

    def _start_heartbeat(self) -> None:
        self._stop_heartbeat.clear()
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop, name="repro-fitlock-heartbeat", daemon=True
        )
        self._heartbeat_thread.start()

    def _heartbeat_loop(self) -> None:
        while not self._stop_heartbeat.wait(self.heartbeat_interval):
            try:
                os.utime(self.path)
            except OSError:
                # The lock was stolen (stale break) or the filesystem went
                # away; the fit continues — the lock is only an optimisation.
                return


class FitLockCounters:
    """The four fit-lock counters one caller binds, and its stats view.

    ``prefix`` names the metric family (``registry`` or ``substrate``) and
    ``subject`` what a leader publishes (``artifact`` or ``substrate``).
    """

    def __init__(self, metrics: "MetricsRegistry", prefix: str, subject: str):
        self.acquires = metrics.counter(
            f"repro_{prefix}_fitlock_acquires_total", "Cross-process fit-lock wins."
        )
        self.waits = metrics.counter(
            f"repro_{prefix}_fitlock_waits_total", "Waits behind another fit leader."
        )
        self.restores = metrics.counter(
            f"repro_{prefix}_fitlock_restores_total",
            f"Restores of a leader-published {subject} after a wait.",
        )
        self.timeouts = metrics.counter(
            f"repro_{prefix}_fitlock_timeouts_total",
            "Local fallback fits after a stuck leader exceeded the wait budget.",
        )

    def instruments(self) -> tuple:
        return (self.acquires, self.waits, self.restores, self.timeouts)

    def stats(self, enabled: bool) -> dict:
        return {
            "enabled": enabled,
            "acquires": int(self.acquires.total()),
            "waits": int(self.waits.total()),
            "restores_after_wait": int(self.restores.total()),
            "timeouts": int(self.timeouts.total()),
        }


def single_payer(
    lock: FitLock | None,
    restore: Callable[[], T | None],
    fit: Callable[[], T],
    counters: FitLockCounters,
    wait_seconds: float,
) -> T:
    """Fit once per fleet: the caller has already missed its own restore.

    ``restore`` returns the published instance or None (it must be cheap
    when nothing is published); ``fit`` trains and publishes.  Without a
    lock (no store attached) this is just ``fit()``.  The leader re-checks
    the store even when its acquire was uncontended, since a sibling may
    have published and released between the caller's miss and the acquire.
    A waiter restores what the leader published, stands for election again
    when the lock was freed with nothing published, and fits locally once
    the wait budget is spent.
    """
    if lock is None:
        return fit()
    deadline = time.monotonic() + wait_seconds
    while True:
        if lock.try_acquire():
            try:
                counters.acquires.inc()
                instance = restore()
                if instance is not None:
                    counters.restores.inc()
                    return instance
                return fit()
            finally:
                lock.release()
        counters.waits.inc()
        freed = lock.wait(timeout=max(0.0, deadline - time.monotonic()))
        instance = restore()
        if instance is not None:
            counters.restores.inc()
            return instance
        if not freed or time.monotonic() >= deadline:
            # The leader is stuck past the wait budget (or failed without
            # publishing): fit locally — liveness beats single-payer.
            counters.timeouts.inc()
            return fit()
