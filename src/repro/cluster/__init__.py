"""Multi-worker sharded serving: a worker pool, a routing gateway, locks.

``repro.cluster`` scales the single-process serving stack horizontally:

* :class:`WorkerPool` spawns and babysits N ``repro serve`` subprocesses —
  health-checked on ``/v1/healthz``, restarted with staggered exponential
  backoff when they crash or stop answering;
* :class:`ClusterGateway` fronts the fleet with the same v1 wire protocol a
  single server speaks: method-affine traffic is consistent-hashed to one
  worker (hot registries/caches per shard), ``/v1/stats`` and
  ``/v1/healthz`` aggregate the fleet, and a down worker fails over to the
  next ring node;
* :class:`HashRing` is the deterministic routing fabric both use;
* the cross-process fit lock lives with the store
  (:class:`repro.store.FitLock`) so N workers sharing one artifact store pay
  each cold fit exactly once.

Quickstart (programmatic; ``repro cluster serve`` is the CLI spelling)::

    from repro.cluster import ClusterGateway, WorkerPool, WorkerSpec

    specs = [WorkerSpec(f"worker-{i}", url, command) for i, (url, command) in ...]
    with WorkerPool(specs).start() as pool:
        gateway = ClusterGateway(
            [(e.worker_id, e.url) for e in pool.endpoints()],
            fingerprint=dataset.fingerprint(),
        ).start()
        # ExpansionClient.connect(gateway.url) works unchanged.
"""

from repro.cluster.gateway import WORKER_HEADER, ClusterGateway
from repro.cluster.hashring import HashRing, shard_key
from repro.cluster.workers import (
    WorkerEndpoint,
    WorkerPool,
    WorkerSpec,
    probe_health,
)
from repro.config import ClusterConfig

__all__ = [
    "ClusterConfig",
    "ClusterGateway",
    "HashRing",
    "WorkerEndpoint",
    "WorkerPool",
    "WorkerSpec",
    "WORKER_HEADER",
    "probe_health",
    "shard_key",
]
