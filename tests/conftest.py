"""Shared fixtures.

The tiny dataset and the shared model resources are expensive enough (a few
seconds) that they are built once per test session; tests must therefore
treat them as read-only.

Modules that start servers mark themselves with
``pytest.mark.usefixtures("no_leaks")``: the module fails if a thread or an
open descriptor it created outlives its teardown.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.config import DatasetConfig, EncoderConfig
from repro.core.resources import SharedResources
from repro.dataset.builder import build_dataset


@pytest.fixture(scope="session")
def tiny_config() -> DatasetConfig:
    return DatasetConfig.tiny(seed=13)


@pytest.fixture(scope="session")
def tiny_dataset(tiny_config):
    """A small but fully-featured dataset shared by the whole test session."""
    return build_dataset(tiny_config)


@pytest.fixture(scope="session")
def resources(tiny_dataset):
    """Shared model resources fitted on the tiny dataset (default configs)."""
    return SharedResources(tiny_dataset, encoder_config=EncoderConfig())


@pytest.fixture(scope="session")
def sample_query(tiny_dataset):
    """A deterministic representative query."""
    return tiny_dataset.queries[0]


def _open_fds() -> set[str]:
    """What each open descriptor points at (a socket's target names its
    inode, so a leaked socket shows up even when its number is reused)."""
    targets = set()
    for name in os.listdir("/proc/self/fd"):
        try:
            targets.add(os.readlink(f"/proc/self/fd/{name}"))
        except OSError:
            pass  # closed meanwhile (the listing's own descriptor, say)
    return targets


def _settles(condition, timeout: float = 10.0) -> bool:
    """Whether ``condition()`` holds within ``timeout`` (a liveness bound:
    threads and sockets are released asynchronously after shutdown)."""
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


class ProcessSnapshot:
    """The threads and open descriptors of this process at one moment
    (descriptors are read from ``/proc/self/fd``)."""

    def __init__(self):
        self.threads = set(threading.enumerate())
        self.fds = _open_fds()

    def leftover_threads(self) -> list[str]:
        """Threads started since the snapshot still alive after a settle."""

        def leftover():
            return [t.name for t in threading.enumerate() if t not in self.threads]

        _settles(lambda: not leftover())
        return leftover()

    def leftover_fds(self) -> set[str]:
        """Descriptors opened since the snapshot still open after a settle."""
        _settles(lambda: _open_fds() <= self.fds)
        return _open_fds() - self.fds


@pytest.fixture
def process_snapshot() -> ProcessSnapshot:
    """What this process held when the test started."""
    return ProcessSnapshot()


@pytest.fixture(scope="module")
def no_leaks():
    """Fail a module whose threads or descriptors outlive its teardown.

    Without ``/proc`` the check is skipped and the module runs unchecked."""
    if not os.path.isdir("/proc/self/fd"):
        yield
        return
    before = ProcessSnapshot()
    yield
    threads = before.leftover_threads()
    assert not threads, f"threads outlived the module: {threads}"
    fds = before.leftover_fds()
    assert not fds, f"descriptors outlived the module: {sorted(fds)}"
