"""Cluster subsystem tests: ring, fit lock, gateway, worker pool.

The gateway tests run against *thread-backed* workers (real
:class:`ExpansionHTTPServer` instances on ephemeral ports) so routing,
failover, and fleet reads are exercised over real sockets without
subprocess startup cost; the subprocess path is covered by
``tests/test_cluster_smoke.py``.  The fit-lock tests simulate two worker
processes with two independent registries (or substrate providers) sharing
one store directory — the lock file is the only coordination channel either
has, exactly as in a real fleet.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.client import ExpansionClient
from repro.cluster import (
    WORKER_HEADER,
    ClusterConfig,
    ClusterGateway,
    HashRing,
    WorkerPool,
    WorkerSpec,
    shard_key,
)
from repro.config import EncoderConfig, ServiceConfig
from repro.core.base import Expander
from repro.exceptions import ServiceError
from repro.lm.embeddings import CooccurrenceEmbeddings
from repro.serve import ExpansionHTTPServer, ExpansionService
from repro.serve.registry import ExpanderRegistry
from repro.store import ArtifactStore, FitLock
from repro.store.serialization import read_json_state, write_json_state
from repro.substrate import (
    COOCCURRENCE_EMBEDDINGS,
    SubstrateProvider,
    cooccurrence_params_from_encoder,
)
from repro.types import ExpansionResult

#: every server a test here starts must be gone, threads and sockets, by
#: the time the module is torn down (see ``no_leaks`` in conftest.py).
pytestmark = pytest.mark.usefixtures("no_leaks")

# ---------------------------------------------------------------------------
# shared stubs
# ---------------------------------------------------------------------------

#: enough method names that a 2-worker ring deterministically owns some on
#: each shard (the assignment is a pure function of ids + fingerprint).
STUB_METHODS = tuple(f"stub{letter}" for letter in "abcdef")
#: a method whose fit takes 0.4 s, for the synchronous ``POST /v1/fits``.
SLOW_METHOD = "slowa"


class ShardStubExpander(Expander):
    """Deterministic ranking: same dataset + query => same scores anywhere."""

    def __init__(self, salt: str):
        super().__init__()
        self.name = salt
        self.salt = sum(ord(ch) for ch in salt)

    def _expand(self, query, top_k):
        scored = [
            (eid, 1.0 / (1.0 + ((eid * 2654435761 + self.salt) % 4093)))
            for eid in self.candidate_ids(query)
        ]
        return ExpansionResult.from_scores(query.query_id, scored)


class SlowFitStub(ShardStubExpander):
    def _fit(self, dataset):
        time.sleep(0.4)


def stub_factories():
    factories = {
        method: (lambda _res, m=method: ShardStubExpander(m))
        for method in STUB_METHODS
    }
    factories[SLOW_METHOD] = lambda _res: SlowFitStub(SLOW_METHOD)
    return factories


def make_worker(dataset, **config_kwargs) -> ExpansionHTTPServer:
    service = ExpansionService(
        dataset,
        config=ServiceConfig(port=0, **config_kwargs),
        factories=stub_factories(),
    )
    return ExpansionHTTPServer(service, port=0).start()


def make_gateway(dataset, servers, **config_kwargs) -> ClusterGateway:
    config = ClusterConfig(
        failover_cooldown_seconds=config_kwargs.pop("failover_cooldown_seconds", 0.2),
        proxy_timeout_seconds=30.0,
        **config_kwargs,
    )
    return ClusterGateway(
        [(f"worker-{i}", server.url) for i, server in enumerate(servers)],
        config=config,
        fingerprint=dataset.fingerprint(),
        port=0,
    ).start()


def gateway_post(gateway, path, payload):
    request = urllib.request.Request(
        gateway.url + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


# ---------------------------------------------------------------------------
# hash ring
# ---------------------------------------------------------------------------


class TestHashRing:
    def test_routing_is_deterministic_across_instances(self):
        keys = [shard_key(m, "fp") for m in STUB_METHODS]
        ring_a = HashRing(["w0", "w1", "w2"])
        ring_b = HashRing(["w2", "w0", "w1"])  # construction order is irrelevant
        assert [ring_a.route(k) for k in keys] == [ring_b.route(k) for k in keys]

    def test_every_node_owns_some_keys(self):
        ring = HashRing(["w0", "w1", "w2"])
        owners = {ring.route(f"method-{i}|fp") for i in range(200)}
        assert owners == {"w0", "w1", "w2"}

    def test_preference_is_a_permutation_starting_at_the_owner(self):
        ring = HashRing(["w0", "w1", "w2"])
        for i in range(20):
            preference = ring.preference(f"key-{i}")
            assert preference[0] == ring.route(f"key-{i}")
            assert sorted(preference) == ["w0", "w1", "w2"]

    def test_removing_a_node_only_moves_its_own_keys(self):
        ring = HashRing(["w0", "w1", "w2"])
        keys = [f"method-{i}|fp" for i in range(300)]
        before = {key: ring.route(key) for key in keys}
        smaller = ring.without("w1")
        for key in keys:
            if before[key] != "w1":
                assert smaller.route(key) == before[key]

    def test_empty_ring_is_rejected(self):
        with pytest.raises(ServiceError):
            HashRing([])


# ---------------------------------------------------------------------------
# fit lock
# ---------------------------------------------------------------------------


class TestFitLock:
    def test_exclusive_acquire_and_release(self, tmp_path):
        first = FitLock(tmp_path, "m", "fp")
        second = FitLock(tmp_path, "m", "fp")
        assert first.try_acquire() is True
        assert second.try_acquire() is False
        holder = second.holder()
        assert holder is not None and holder["pid"] == os.getpid()
        first.release()
        assert second.try_acquire() is True
        second.release()

    def test_different_keys_do_not_contend(self, tmp_path):
        first = FitLock(tmp_path, "m1", "fp")
        second = FitLock(tmp_path, "m2", "fp")
        assert first.try_acquire() and second.try_acquire()
        first.release()
        second.release()

    def test_stale_lock_is_broken(self, tmp_path):
        abandoned = FitLock(tmp_path, "m", "fp", stale_after=5.0)
        assert abandoned.try_acquire()
        abandoned._stop_heartbeat.set()  # simulate a dead leader: no heartbeat
        abandoned._heartbeat_thread.join(timeout=2.0)
        old = time.time() - 60.0
        os.utime(abandoned.path, (old, old))
        taker = FitLock(tmp_path, "m", "fp", stale_after=5.0)
        assert taker.try_acquire() is True
        taker.release()

    def test_wait_returns_when_released(self, tmp_path):
        lock = FitLock(tmp_path, "m", "fp")
        assert lock.try_acquire()
        waiter = FitLock(tmp_path, "m", "fp")
        released = threading.Event()

        def hold_briefly():
            time.sleep(0.2)
            # set first: the waiter may return the moment the file is gone.
            released.set()
            lock.release()

        threading.Thread(target=hold_briefly).start()
        assert waiter.wait(timeout=5.0) is True
        assert released.is_set()

    def test_wait_times_out_under_a_live_leader(self, tmp_path):
        lock = FitLock(tmp_path, "m", "fp", heartbeat_interval=0.05)
        assert lock.try_acquire()
        try:
            assert FitLock(tmp_path, "m", "fp").wait(timeout=0.3) is False
        finally:
            lock.release()


class CountingPersistentExpander(Expander):
    """A persistable expander whose fits are counted across 'processes'."""

    name = "counting"
    supports_persistence = True
    state_version = 1

    def __init__(self, fit_log: list):
        super().__init__()
        self.fit_log = fit_log
        self.payload: int | None = None

    def _fit(self, dataset):
        time.sleep(0.3)  # wide window so concurrent fitters genuinely race
        self.fit_log.append(id(self))
        self.payload = 42

    def _expand(self, query, top_k):
        scored = [(eid, 1.0 / (1.0 + eid)) for eid in self.candidate_ids(query)]
        return ExpansionResult.from_scores(query.query_id, scored)

    def _save_state(self, directory: Path) -> None:
        write_json_state(directory / "state.json", {"payload": self.payload})

    def _load_state(self, directory: Path, dataset) -> None:
        self.payload = read_json_state(directory / "state.json")["payload"]


class MethodFit:
    """A cold method fit: ``CountingPersistentExpander`` behind a registry."""

    def __init__(self, dataset, monkeypatch):
        self.dataset = dataset
        self.fit_log: list = []

    def worker(self, store, wait_seconds=600.0):
        return ExpanderRegistry(
            self.dataset,
            factories={
                "counting": lambda _res: CountingPersistentExpander(self.fit_log)
            },
            store=store,
            fit_lock_wait_seconds=wait_seconds,
        )

    def get(self, worker):
        assert worker.get("counting").payload == 42

    def counts(self, worker) -> dict:
        stats = worker.stats()
        return {
            "fits": stats["fits"],
            "restores": stats["store"]["restore_hits"],
            **stats["fit_lock"],
        }

    def lock(self, root) -> FitLock:
        return FitLock(root, "counting", self.dataset.fingerprint())


class SubstrateFit:
    """A cold substrate fit: the co-occurrence embeddings, fit counted."""

    def __init__(self, dataset, monkeypatch):
        self.dataset = dataset
        self.fit_log: list = []
        self.params = cooccurrence_params_from_encoder(EncoderConfig())
        original = CooccurrenceEmbeddings.fit

        def counting_fit(embeddings, *args, **kwargs):
            time.sleep(0.3)  # wide window so concurrent fitters genuinely race
            self.fit_log.append(id(embeddings))
            return original(embeddings, *args, **kwargs)

        monkeypatch.setattr(CooccurrenceEmbeddings, "fit", counting_fit)

    def worker(self, store, wait_seconds=600.0):
        return SubstrateProvider(
            self.dataset, store=store, fit_lock_wait_seconds=wait_seconds
        )

    def get(self, worker):
        assert worker.get(COOCCURRENCE_EMBEDDINGS, self.params).entity_vectors()

    def counts(self, worker) -> dict:
        stats = worker.stats()
        return {"fits": stats["fits"], "restores": stats["restores"], **stats["fit_lock"]}

    def lock(self, root) -> FitLock:
        key = SubstrateProvider(self.dataset).key(COOCCURRENCE_EMBEDDINGS, self.params)
        return FitLock(root, f"substrate-{COOCCURRENCE_EMBEDDINGS}", key.content_hash)


class TestFitLockSinglePayer:
    """The registry and the provider share one single-payer routine; each
    case runs against a method fit and a substrate fit."""

    @pytest.fixture(params=[MethodFit, SubstrateFit], ids=["method", "substrate"])
    def subject(self, request, tiny_dataset, monkeypatch):
        return request.param(tiny_dataset, monkeypatch)

    def test_concurrent_cold_fits_are_paid_exactly_once(self, subject, tmp_path):
        """Two workers sharing a store (= two worker processes) race one
        cold fit: exactly one trains, the other restores the artifact."""
        workers = [subject.worker(ArtifactStore(tmp_path)) for _ in range(2)]
        barrier = threading.Barrier(2)

        def race(worker):
            barrier.wait()
            subject.get(worker)

        threads = [threading.Thread(target=race, args=(w,)) for w in workers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)

        assert len(subject.fit_log) == 1, "both workers paid the cold fit"
        counts = [subject.counts(worker) for worker in workers]
        for name in ("fits", "acquires", "restores_after_wait", "restores"):
            assert sum(count[name] for count in counts) == 1, (name, counts)

    def test_sibling_publishing_before_an_uncontended_acquire_is_restored(
        self, subject, tmp_path, monkeypatch
    ):
        """A sibling fits, publishes and releases between this worker's
        restore miss and its acquire: the acquire is uncontended, and the
        leader must still find the artifact instead of fitting again."""
        worker = subject.worker(ArtifactStore(tmp_path))
        sibling = subject.worker(ArtifactStore(tmp_path))
        try_acquire = FitLock.try_acquire
        sibling_ran: list = []

        def sibling_first(lock):
            if not sibling_ran:
                sibling_ran.append(True)
                subject.get(sibling)
            return try_acquire(lock)

        monkeypatch.setattr(FitLock, "try_acquire", sibling_first)
        subject.get(worker)

        assert len(subject.fit_log) == 1, "the worker refitted a published fit"
        assert subject.counts(sibling)["fits"] == 1
        counts = subject.counts(worker)
        assert counts["fits"] == 0 and counts["restores"] == 1
        assert counts["acquires"] == 1 and counts["waits"] == 0
        assert counts["restores_after_wait"] == 1

    def test_waiter_fits_locally_when_leader_never_publishes(self, subject, tmp_path):
        """A leader that dies without publishing must not wedge the waiter:
        past the wait budget (or a stale lock) the waiter fits itself."""
        worker = subject.worker(ArtifactStore(tmp_path), wait_seconds=0.5)
        # a foreign (dead) leader holds the lock and never heartbeats again
        foreign = subject.lock(tmp_path)
        assert foreign.try_acquire()
        foreign._stop_heartbeat.set()
        foreign._heartbeat_thread.join(timeout=2.0)

        subject.get(worker)
        assert len(subject.fit_log) == 1
        counts = subject.counts(worker)
        assert counts["timeouts"] == 1 and counts["fits"] == 1

    def test_registry_wait_budget_reaches_substrate_fits(
        self, tiny_dataset, tmp_path, monkeypatch
    ):
        """A method fit behind a stuck substrate leader waits the registry's
        budget, not the provider's 600 s default, then fits locally."""
        substrate = SubstrateFit(tiny_dataset, monkeypatch)
        registry = ExpanderRegistry(
            tiny_dataset, store=ArtifactStore(tmp_path), fit_lock_wait_seconds=0.5
        )
        # a foreign leader holds the substrate lock and keeps heartbeating
        foreign = substrate.lock(tmp_path)
        assert foreign.try_acquire()
        try:
            assert returns_within(lambda: registry.get("cgexpan"), timeout=10.0), (
                "the substrate fit waited past the registry's 0.5 s budget"
            )
            provider = registry.resources.provider.stats()
            assert len(substrate.fit_log) == 1
            assert provider["fits"] == 1 and provider["fit_lock"]["timeouts"] == 1
        finally:
            foreign.release()


# ---------------------------------------------------------------------------
# gateway over thread-backed workers
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cluster(tiny_dataset):
    servers = [make_worker(tiny_dataset) for _ in range(2)]
    gateway = make_gateway(tiny_dataset, servers)
    yield gateway, servers
    gateway.shutdown()
    for server in servers:
        server.shutdown()


def _strip_volatile(envelope: dict) -> dict:
    """Drop the per-request fields the acceptance criteria exempt."""
    cleaned = dict(envelope)
    cleaned.pop("request_id", None)
    data = dict(cleaned.get("data") or {})
    data.pop("latency_ms", None)
    data.pop("cached", None)
    cleaned["data"] = data
    return cleaned


class TestGatewayRouting:
    def test_method_routing_is_deterministic(self, cluster, tiny_dataset):
        gateway, _servers = cluster
        query_id = tiny_dataset.queries[0].query_id
        for method in STUB_METHODS[:3]:
            owners = set()
            for _ in range(3):
                status, _payload, headers = gateway_post(
                    gateway,
                    "/v1/expand",
                    {"method": method, "query_id": query_id, "options": {"top_k": 5}},
                )
                assert status == 200
                owners.add(headers.get(WORKER_HEADER))
            assert owners == {gateway.owner(method)}

    def test_repeat_expand_is_proxied_every_time(self, cluster, tiny_dataset):
        """The gateway keeps no results: a repeat goes to the owner again
        and is answered from that worker's result cache."""
        gateway, servers = cluster
        method = STUB_METHODS[0]
        owner = gateway.owner(method)
        cache = servers[int(owner.split("-")[1])].service.cache
        body = {
            "method": method,
            "query_id": tiny_dataset.queries[1].query_id,
            "options": {"top_k": 13},
        }
        proxied, hits = gateway.stats()["proxied"], cache.stats()["hits"]
        replies = [gateway_post(gateway, "/v1/expand", body) for _ in range(2)]
        assert [headers[WORKER_HEADER] for _s, _p, headers in replies] == [owner] * 2
        assert [payload["data"]["cached"] for _s, payload, _h in replies] == [False, True]
        assert gateway.stats()["proxied"] == proxied + 2
        assert cache.stats()["hits"] == hits + 1

    def test_both_shards_receive_traffic(self, cluster):
        gateway, _servers = cluster
        assert {gateway.owner(method) for method in STUB_METHODS} == {
            "worker-0",
            "worker-1",
        }

    def test_expand_parity_with_single_process(self, cluster, tiny_dataset):
        """A gateway answer is the owning worker's answer verbatim — equal,
        modulo request_id/latency, to a single-process server's envelope."""
        gateway, servers = cluster
        single = make_worker(tiny_dataset)  # fresh single-process reference
        try:
            for method in STUB_METHODS[:3]:
                body = {
                    "method": method,
                    "query_id": tiny_dataset.queries[1].query_id,
                    "options": {"top_k": 20, "use_cache": False},
                }
                status_g, via_gateway, _ = gateway_post(gateway, "/v1/expand", body)
                request = urllib.request.Request(
                    single.url + "/v1/expand",
                    data=json.dumps(body).encode("utf-8"),
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request, timeout=30) as response:
                    via_single = json.loads(response.read())
                assert status_g == 200
                assert _strip_volatile(via_gateway) == _strip_volatile(via_single)
        finally:
            single.shutdown()

    def test_client_sdk_works_against_the_gateway_unchanged(
        self, cluster, tiny_dataset
    ):
        gateway, _servers = cluster
        with ExpansionClient.connect(gateway.url) as client:
            assert client.healthz()["status"] in ("ok", "degraded")
            response = client.expand(
                STUB_METHODS[0], query_id=tiny_dataset.queries[0].query_id, top_k=7
            )
            assert len(response.ranking) == 7
            methods = {info.method for info in client.methods()}
            assert set(STUB_METHODS) <= methods

    def test_aggregated_healthz_and_stats(self, cluster):
        gateway, _servers = cluster
        with urllib.request.urlopen(gateway.url + "/v1/healthz", timeout=10) as response:
            health = json.loads(response.read())
        assert health["data"]["status"] == "ok"
        assert health["data"]["healthy_workers"] == 2
        assert {w["worker_id"] for w in health["data"]["workers"]} == {
            "worker-0",
            "worker-1",
        }
        with urllib.request.urlopen(gateway.url + "/v1/stats", timeout=10) as response:
            stats = json.loads(response.read())["data"]
        assert set(stats) == {"gateway", "cluster", "workers", "usage"}
        assert stats["cluster"]["requests"] >= 1
        assert set(stats["workers"]) == {"worker-0", "worker-1"}
        assert stats["gateway"]["proxied"] >= 1

    def test_fit_routes_to_the_owning_worker(self, cluster, tiny_dataset):
        """``POST /v1/fits`` blocks until the owner holds the method; the
        expand that follows lands on the same worker and pays no fit."""
        gateway, servers = cluster
        method = SLOW_METHOD
        owner = gateway.owner(method)
        registry = servers[int(owner.split("-")[1])].service.registry
        status, payload, headers = gateway_post(gateway, "/v1/fits", {"method": method})
        assert status == 200
        assert headers[WORKER_HEADER] == owner
        assert payload["data"]["method"] == method
        assert payload["data"]["outcome"] == "fitted"
        assert payload["data"]["seconds"] >= 0.4
        assert registry.is_fitted(method)
        fits = registry.stats()["fits"]
        status, _payload, headers = gateway_post(
            gateway,
            "/v1/expand",
            {"method": method, "query_id": tiny_dataset.queries[0].query_id},
        )
        assert status == 200 and headers[WORKER_HEADER] == owner
        assert registry.stats()["fits"] == fits
        status, payload, _ = gateway_post(gateway, "/v1/fits", {"method": method})
        assert status == 200 and payload["data"]["outcome"] == "already_fitted"

    def test_fit_job_routes_are_404_on_gateway_and_workers(self, cluster):
        """The fit-job routes are gone: the gateway and every worker answer
        an enveloped 404 for them."""
        gateway, servers = cluster
        for base_url in (gateway.url, *(server.url for server in servers)):
            for verb, path in (
                ("GET", "/v1/fits"),
                ("GET", "/v1/fits/fit-1-abc123"),
                ("DELETE", "/v1/fits/fit-1-abc123"),
            ):
                request = urllib.request.Request(base_url + path, method=verb)
                with pytest.raises(urllib.error.HTTPError) as error:
                    urllib.request.urlopen(request, timeout=10)
                assert error.value.code == 404, (base_url, verb, path)
                body = json.loads(error.value.read())
                assert body["api_version"] == "v1"
                assert body["error"]["code"] == "not_found"
                assert body["error"]["details"] == {"path": path}


class TestGatewayFailover:
    def test_worker_kill_mid_traffic_yields_no_nonretryable_failures(
        self, tiny_dataset
    ):
        """Hammer one method through the gateway while its owning worker is
        killed: every request must succeed (clients may retry retryables)."""
        servers = [make_worker(tiny_dataset) for _ in range(2)]
        gateway = make_gateway(tiny_dataset, servers, failover_cooldown_seconds=0.1)
        try:
            method = STUB_METHODS[0]
            owner = gateway.owner(method)
            victim = servers[int(owner.split("-")[1])]
            query_ids = [q.query_id for q in tiny_dataset.queries[:6]]
            stop = threading.Event()
            failures: list[Exception] = []
            successes = [0]

            def hammer(worker_index: int):
                with ExpansionClient.connect(
                    gateway.url, timeout=15.0, max_retries=4, backoff_seconds=0.05
                ) as client:
                    i = 0
                    while not stop.is_set():
                        try:
                            response = client.expand(
                                method,
                                query_id=query_ids[(i + worker_index) % len(query_ids)],
                                top_k=5,
                            )
                            assert response.ranking
                            successes[0] += 1
                        except Exception as exc:  # noqa: BLE001 - collected
                            failures.append(exc)
                        i += 1

            threads = [
                threading.Thread(target=hammer, args=(index,)) for index in range(4)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.4)  # traffic flowing against the owner
            victim.shutdown()  # kill the owning worker mid-traffic
            time.sleep(1.0)  # traffic must fail over to the survivor
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)

            assert not failures, f"client-visible failures after failover: {failures[:3]}"
            assert successes[0] > 0
            stats = gateway.stats()
            assert stats["failovers"] >= 1
            # post-failover, the survivor serves the victim's shard
            _status, _payload, headers = gateway_post(
                gateway,
                "/v1/expand",
                {
                    "method": method,
                    "query_id": query_ids[0],
                    "options": {"top_k": 5},
                },
            )
            survivor = {"worker-0", "worker-1"} - {owner}
            assert headers.get(WORKER_HEADER) in survivor
        finally:
            gateway.shutdown()
            for server in servers:
                try:
                    server.shutdown()
                except Exception:  # noqa: BLE001 - victim is already down
                    pass

    def test_all_workers_down_is_a_retryable_503(self, tiny_dataset):
        servers = [make_worker(tiny_dataset)]
        gateway = make_gateway(tiny_dataset, servers, failover_cooldown_seconds=0.1)
        try:
            servers[0].shutdown()
            status, payload, _ = gateway_post(
                gateway,
                "/v1/expand",
                {"method": STUB_METHODS[0], "query_id": "whatever"},
            )
            assert status == 503
            assert payload["error"]["code"] == "unavailable"
            assert payload["error"]["retryable"] is True
        finally:
            gateway.shutdown()

    def test_fleet_reads_do_not_count_as_backend_errors(self, tiny_dataset):
        """``backend_errors`` counts failed client traffic only: a
        ``/v1/stats`` read still reports the dead worker unreachable and
        sidelines it, but leaves the counter where the proxied request put
        it (a ``cluster top`` left open must not grow what it shows)."""
        with socket.socket() as probe:  # a port nothing listens on
            probe.bind(("127.0.0.1", 0))
            dead_url = f"http://127.0.0.1:{probe.getsockname()[1]}"
        live = make_worker(tiny_dataset)
        gateway = ClusterGateway(
            [("live", live.url), ("dead", dead_url)],
            config=ClusterConfig(failover_cooldown_seconds=0.2, proxy_timeout_seconds=30.0),
            fingerprint=tiny_dataset.fingerprint(),
            port=0,
        ).start()
        try:
            method = next(m for m in STUB_METHODS if gateway.owner(m) == "dead")
            status, _, headers = gateway_post(
                gateway,
                "/v1/expand",
                {"method": method, "query_id": tiny_dataset.queries[0].query_id},
            )
            assert status == 200 and headers[WORKER_HEADER] == "live"
            assert gateway.stats()["backend_errors"] == 1
            for _ in range(3):
                with urllib.request.urlopen(gateway.url + "/v1/stats", timeout=10) as response:
                    data = json.loads(response.read())["data"]
                assert data["workers"]["dead"] == {"unreachable": True}
                assert data["gateway"]["sidelined"] == ["dead"]
            assert gateway.stats()["backend_errors"] == 1
        finally:
            gateway.shutdown()
            live.shutdown()


def returns_within(call, timeout: float = 30.0) -> bool:
    """Whether ``call`` returns within ``timeout`` on a daemon thread (a
    liveness check: a hang fails the test instead of blocking the suite)."""
    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    thread.join(timeout)
    return not thread.is_alive()


class TestShutdownWithoutServing:
    def test_unstarted_server_shuts_down(self, tiny_dataset):
        service = ExpansionService(
            tiny_dataset, config=ServiceConfig(port=0), factories=stub_factories()
        )
        assert returns_within(ExpansionHTTPServer(service, port=0).shutdown)

    def test_unstarted_gateway_shuts_down(self, tiny_dataset):
        gateway = ClusterGateway(
            [("worker-0", "http://127.0.0.1:9")],
            fingerprint=tiny_dataset.fingerprint(),
            port=0,
        )
        assert returns_within(gateway.shutdown)


# ---------------------------------------------------------------------------
# worker pool (cheap subprocess workers)
# ---------------------------------------------------------------------------

#: a minimal /v1/healthz server, cheap enough to spawn repeatedly in tests.
TOY_WORKER_SCRIPT = """
import json, sys
from http.server import BaseHTTPRequestHandler, HTTPServer

class Handler(BaseHTTPRequestHandler):
    def do_GET(self):
        body = json.dumps({"api_version": "v1", "data": {"status": "ok"}}).encode()
        self.send_response(200 if self.path.startswith("/v1/healthz") else 404)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass

HTTPServer(("127.0.0.1", int(sys.argv[1])), Handler).serve_forever()
"""


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def toy_specs(count: int) -> list[WorkerSpec]:
    specs = []
    for index in range(count):
        port = free_port()
        specs.append(
            WorkerSpec(
                worker_id=f"toy-{index}",
                url=f"http://127.0.0.1:{port}",
                command=(sys.executable, "-c", TOY_WORKER_SCRIPT, str(port)),
            )
        )
    return specs


class TestWorkerPool:
    def test_start_health_and_clean_stop(self):
        pool = WorkerPool(toy_specs(2), health_interval=0.1, restart_backoff=0.1)
        with pool:
            pool.start(wait_healthy=True, timeout=20.0)
            assert pool.healthy_count() == 2
            endpoints = pool.endpoints()
            assert all(endpoint.healthy for endpoint in endpoints)
            assert {endpoint.worker_id for endpoint in endpoints} == {"toy-0", "toy-1"}
        stats = pool.stats()
        assert all(w["state"] == "stopped" for w in stats["workers"].values())

    def test_crashed_worker_is_restarted_with_backoff(self):
        pool = WorkerPool(
            toy_specs(2),
            health_interval=0.1,
            restart_backoff=0.1,
            restart_stagger=0.05,
        )
        with pool:
            pool.start(wait_healthy=True, timeout=20.0)
            victim_pid = pool.stats()["workers"]["toy-0"]["pid"]
            os.kill(victim_pid, signal.SIGKILL)
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                stats = pool.stats()["workers"]["toy-0"]
                if (
                    stats["restarts"] >= 1
                    and stats["state"] == "healthy"
                    and stats["pid"] != victim_pid
                ):
                    break
                time.sleep(0.1)
            stats = pool.stats()
            assert stats["restarts_total"] >= 1
            assert stats["workers"]["toy-0"]["state"] == "healthy"
            assert stats["workers"]["toy-0"]["pid"] != victim_pid
            # the other worker was never touched
            assert stats["workers"]["toy-1"]["restarts"] == 0

    def test_slow_starting_worker_is_not_recycled(self):
        """A start slower than ``unhealthy_threshold`` failed probes is left
        to finish instead of being killed and respawned in a loop."""
        port = free_port()
        spec = WorkerSpec(
            worker_id="slow",
            url=f"http://127.0.0.1:{port}",
            command=(
                sys.executable,
                "-c",
                "import time; time.sleep(1.0)\n" + TOY_WORKER_SCRIPT,
                str(port),
            ),
        )
        pool = WorkerPool([spec], health_interval=0.05, unhealthy_threshold=2)
        with pool:
            pool.start(wait_healthy=True, timeout=10.0)
            assert pool.stats()["workers"]["slow"]["restarts"] == 0

    def test_starting_worker_that_never_answers_is_recycled(self):
        """The start-up timeout bounds STARTING: a worker that never answers
        its first probe is recycled once it has outlasted it."""
        spec = WorkerSpec(
            worker_id="hung",
            url=f"http://127.0.0.1:{free_port()}",
            command=(sys.executable, "-c", "import time; time.sleep(60)"),
        )
        pool = WorkerPool(
            [spec], health_interval=0.05, unhealthy_threshold=2, restart_backoff=0.05
        )
        with pool:
            started = time.monotonic()
            pool.start(wait_healthy=False, timeout=0.5)
            deadline = started + 20.0
            while pool.stats()["workers"]["hung"]["restarts"] == 0:
                assert time.monotonic() < deadline, "a hung start was never recycled"
                time.sleep(0.05)
            assert time.monotonic() - started >= 0.5

    def test_worker_stderr_reaches_the_pool_owner(self, capfd):
        """Worker log lines and tracebacks go to stderr, which a worker
        inherits; its stdout (start-up chatter) is discarded."""
        port = free_port()
        spec = WorkerSpec(
            worker_id="chatty",
            url=f"http://127.0.0.1:{port}",
            command=(
                sys.executable,
                "-c",
                "import sys\n"
                "print('worker stdout line', flush=True)\n"
                "print('worker stderr line', file=sys.stderr, flush=True)\n"
                + TOY_WORKER_SCRIPT,
                str(port),
            ),
        )
        with WorkerPool([spec], health_interval=0.1) as pool:
            pool.start(wait_healthy=True, timeout=20.0)
        captured = capfd.readouterr()
        assert "worker stderr line" in captured.err
        assert "worker stdout line" not in captured.out

    def test_duplicate_worker_ids_are_rejected(self):
        spec = toy_specs(1)[0]
        with pytest.raises(ServiceError):
            WorkerPool([spec, spec])


# ---------------------------------------------------------------------------
# concurrent load parity (acceptance criterion)
# ---------------------------------------------------------------------------


def test_concurrent_gateway_load_matches_single_process(tiny_dataset):
    """Under concurrent load on 2 workers, every routed answer equals the
    single-process answer for the same request (modulo request_id/latency)."""
    servers = [make_worker(tiny_dataset) for _ in range(2)]
    gateway = make_gateway(tiny_dataset, servers)
    single = ExpansionService(
        tiny_dataset,
        config=ServiceConfig(port=0),
        factories=stub_factories(),
    )
    try:
        reference_client = ExpansionClient.in_process(single)
        jobs = [
            (method, query.query_id)
            for method in STUB_METHODS[:4]
            for query in tiny_dataset.queries[:5]
        ]
        references = {
            (method, query_id): reference_client.expand(
                method, query_id=query_id, top_k=10, use_cache=False
            ).entity_ids()
            for method, query_id in jobs
        }

        def via_gateway(job):
            method, query_id = job
            with ExpansionClient.connect(gateway.url, max_retries=3) as client:
                response = client.expand(
                    method, query_id=query_id, top_k=10, use_cache=False
                )
                return job, response.entity_ids()

        with ThreadPoolExecutor(max_workers=8) as pool:
            for job, ranking in pool.map(via_gateway, jobs):
                assert ranking == references[job], f"divergent ranking for {job}"
    finally:
        single.close()
        gateway.shutdown()
        for server in servers:
            server.shutdown()
