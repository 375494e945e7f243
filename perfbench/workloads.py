"""The two benchmark workloads: cold start, request schedules, load generation.

Both workloads run the real serving stack inside the benchmark process:
one ``ExpansionService`` + ``ExpansionHTTPServer`` per worker, a
``ClusterGateway`` in front, and ``ExpansionClient`` over loopback HTTP.
Both drive it from one closed-loop client.  The dataset seed is fixed; the
workload seed picks the query order, the Zipf draws and the ad-hoc seed sets.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

from repro.api.options import ExpandOptions
from repro.client import ExpansionClient
from repro.cluster import ClusterGateway
from repro.config import ClusterConfig, DatasetConfig, ServiceConfig
from repro.dataset.builder import build_dataset
from repro.serve import ExpanderRegistry, ExpansionHTTPServer, ExpansionService
from repro.store import ArtifactStore

DATASET_SEED = 13
TOP_K = 50
ALL_METHODS = ("case", "cgexpan", "genexpan", "gpt4", "probexpan", "retexpan", "setexpan")
DENSE_METHODS = ("cgexpan", "probexpan", "retexpan")

#: serve-zipf traffic shape.
ZIPF_SHARE = 0.75
ZIPF_EXPONENT = 1.1
#: quota far above what one client sends: the buckets run on every request
#: but never refuse, so a 429 would be a gate bug, not load.
TENANTS = (("alpha", "alpha-key"), ("beta", "beta-key"))
TENANT_QUOTA = "100000:100000"


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str
    methods: tuple[str, ...]
    workers: int
    use_cache: bool
    #: keyfile front door on the gateway and admission control on the workers.
    gated: bool
    #: a Zipf/ad-hoc mix instead of a round robin over the methods.
    zipf: bool
    #: cold starts per run; ``setup_s`` is their median.
    setup_repeats: int
    #: requests the traced run's counting pass replays.
    count_items: int

    def query_pool(self, dataset) -> list[str]:
        """The query ids a workload seed can draw (the reference covers all)."""
        queries = [query.query_id for query in dataset.queries]
        if self.profile != "small":
            return queries
        # 5 queries spread evenly over the 762 (every fifth of the 21 in
        # reference.json, which took every 38th): a round-robin cycle is 35
        # requests, so even a slow 25 s run completes three whole cycles,
        # enough for 10 samples beyond p90.
        return queries[::190]

    def cycle(self, dataset) -> int | None:
        """Requests after which the round robin has sent every pool query to
        every method once; ``None`` for the Zipf mix, which has no cycle."""
        return None if self.zipf else len(self.methods) * len(self.query_pool(dataset))

    def warm_items(self, dataset) -> list["Item"]:
        """Requests that fill the worker caches before timing: every
        (method, query id) pair the Zipf draws can ask for, so the timed
        misses are the ad-hoc requests alone rather than a share of first
        reads that shrinks as the machine speeds up.  None without a cache."""
        if not self.use_cache:
            return []
        return [Item(method=m, query_id=q) for m in self.methods for q in self.query_pool(dataset)]

    def items(self, dataset, seed: int):
        """The run's endless request stream; the same seed, the same stream."""
        if self.zipf:
            return zipf_items(self, dataset, seed)
        return round_robin_items(self, dataset, seed)


WORKLOADS = {
    # Uncached per-method expand on `small`: the expanders and the cold start
    # do nearly all the work; the serving fabric is ~1-2 ms of ~90 ms.
    "expand-uncached": Workload(
        name="expand-uncached",
        profile="small",
        methods=ALL_METHODS,
        workers=1,
        use_cache=False,
        gated=False,
        zipf=False,
        setup_repeats=1,  # one cold start is ~35-45 s; a second would not fit
        count_items=2 * len(ALL_METHODS),
    ),
    # Zipf serving mix on `tiny`: client, gateway, gate and the cache/batcher
    # do most of the work; the dense rankers take 1-5 ms.  A closed loop: an
    # open loop's latency on a 2-core box swung 2-20x between runs with the
    # host's scheduling, because every hit queued behind misses for the GIL.
    "serve-zipf": Workload(
        name="serve-zipf",
        profile="tiny",
        methods=DENSE_METHODS,
        workers=2,
        use_cache=True,
        gated=True,
        zipf=True,
        setup_repeats=5,
        count_items=1000,
    ),
}


@dataclass(frozen=True)
class Item:
    """One scheduled request."""

    method: str
    query_id: str | None = None
    class_id: str | None = None
    positive: tuple[int, ...] = ()
    negative: tuple[int, ...] = ()

    @property
    def adhoc(self) -> bool:
        return self.query_id is None


# -- schedules -----------------------------------------------------------------------


def round_robin_items(workload: Workload, dataset, seed: int):
    """Endless round robin over the workload's methods.  Each method walks
    its own seed-shuffled order of the query pool, so a run sees distinct
    queries and the per-query cost spread averages out faster."""
    rng = random.Random(seed)
    pool = workload.query_pool(dataset)
    orders = {method: rng.sample(pool, len(pool)) for method in workload.methods}
    for round_index in itertools.count():
        for method in workload.methods:
            order = orders[method]
            yield Item(method=method, query_id=order[round_index % len(order)])


def zipf_items(workload: Workload, dataset, seed: int):
    """Endless mix: Zipf-skewed (method, query id) pairs, which repeat and
    so are mostly cache reads, and fresh ad-hoc seed sets, which miss."""
    rng = random.Random(seed)
    keys = [(item.method, item.query_id) for item in workload.warm_items(dataset)]
    # which keys are hot is fixed, so every seed offers the same hit/miss mix
    random.Random(DATASET_SEED).shuffle(keys)
    weights = [1.0 / (rank ** ZIPF_EXPONENT) for rank in range(1, len(keys) + 1)]
    classes = _adhoc_classes(dataset)
    while True:
        if rng.random() < ZIPF_SHARE:
            method, query_id = rng.choices(keys, weights)[0]
            yield Item(method=method, query_id=query_id)
        else:
            yield _adhoc_item(rng, workload, classes)


def _adhoc_classes(dataset) -> list[tuple[str, list[int], list[int]]]:
    """Classes with enough positive and negative targets to draw seeds from."""
    eligible = []
    for class_id in sorted(dataset.ultra_classes):
        ultra = dataset.ultra_classes[class_id]
        negatives = sorted(set(ultra.negative_entity_ids))
        positives = sorted(set(ultra.positive_entity_ids) - set(negatives))
        if len(positives) >= 3 and len(negatives) >= 2:
            eligible.append((class_id, positives, negatives))
    return eligible


def _adhoc_item(rng: random.Random, workload: Workload, classes) -> Item:
    """A fresh seed set from one class's targets: 3 positives and 2-3
    negatives, disjoint by construction (an overlap is a 404, which would
    measure the generator rather than the system)."""
    class_id, positives, negatives = rng.choice(classes)
    positive = tuple(sorted(rng.sample(positives, 3)))
    negative = tuple(sorted(rng.sample(negatives, min(len(negatives), rng.choice((2, 3))))))
    return Item(
        method=rng.choice(workload.methods),
        class_id=class_id,
        positive=positive,
        negative=negative,
    )


# -- the serving stack -----------------------------------------------------------------


class Cluster:
    """One cold-started stack: dataset build, prefit into a fresh store, fresh
    workers that restore from it, and a gateway in front."""

    def __init__(self, workload: Workload, workdir: Path, nproc: int):
        self.workload = workload
        self.workdir = workdir
        self.nproc = nproc
        self.timings: dict[str, float] = {}
        self.prefit_stats: dict = {}
        self.servers: list[ExpansionHTTPServer] = []
        self.gateway: ClusterGateway | None = None
        self.dataset = None

    def start(self) -> "Cluster":
        try:
            return self._start()
        except BaseException:
            self.close()
            raise

    def _start(self) -> "Cluster":
        workload = self.workload
        store_dir = self.workdir / "store"
        self.workdir.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        self.dataset = build_dataset(
            getattr(DatasetConfig, workload.profile)(seed=DATASET_SEED)
        )
        self.timings["build_s"] = _lap(started)

        started = time.perf_counter()
        prefit = ExpanderRegistry(self.dataset, store=ArtifactStore(store_dir))
        for method in workload.methods:
            prefit.get(method)
        self.prefit_stats = prefit.stats()
        del prefit
        self.timings["prefit_s"] = _lap(started)

        started = time.perf_counter()
        config = ServiceConfig(
            port=0,
            store_dir=str(store_dir),
            admission_max_concurrent=self.nproc if workload.gated else None,
        )
        for _ in range(workload.workers):
            service = ExpansionService(self.dataset, config=config)
            service.warm_up(workload.methods)
            self.servers.append(ExpansionHTTPServer(service, port=0).start())
        self.timings["restore_s"] = _lap(started)

        cluster_config = ClusterConfig()
        if workload.gated:
            keyfile = self.workdir / "keys.json"
            keyfile.write_text(
                json.dumps(
                    {
                        "anonymous": None,
                        "tenants": [
                            {"tenant": tenant, "key": key, "quota": TENANT_QUOTA}
                            for tenant, key in TENANTS
                        ],
                    }
                ),
                encoding="utf-8",
            )
            cluster_config = ClusterConfig(keyfile=str(keyfile))
        self.gateway = ClusterGateway(
            [(f"worker-{i}", server.url) for i, server in enumerate(self.servers)],
            config=cluster_config,
            fingerprint=self.dataset.fingerprint(),
            port=0,
        ).start()

        # first touch of every method (lazy state inside the expanders) is
        # paid once per worker lifetime, so it belongs to set-up, and it
        # must not land in the result cache.
        started = time.perf_counter()
        with self.client(0) as client:
            first = workload.query_pool(self.dataset)[0]
            for method in workload.methods:
                client.expand(method, query_id=first, top_k=TOP_K, use_cache=False)
        self.timings["warmup_s"] = _lap(started)
        return self

    def api_key(self, index: int) -> str | None:
        """Sender ``index``'s key: senders alternate between the tenants."""
        return TENANTS[index % len(TENANTS)][1] if self.workload.gated else None

    def client(self, index: int) -> ExpansionClient:
        return _connect(self.gateway.url, self.api_key(index))

    def stats(self) -> dict:
        """The gateway's fleet ``/v1/stats``: gateway, gate, and every worker."""
        with self.client(0) as client:
            return client.stats()

    def clear_caches(self) -> None:
        for server in self.servers:
            server.service.cache.clear()

    def close(self) -> None:
        if self.gateway is not None:
            self.gateway.shutdown()
        for server in self.servers:
            server.shutdown()


def _lap(started: float) -> float:
    return time.perf_counter() - started


def _connect(url: str, api_key: str | None) -> ExpansionClient:
    # no client retries: a failure must be counted, not hidden
    return ExpansionClient.connect(url, timeout=60.0, max_retries=0, api_key=api_key)


# -- load generation ---------------------------------------------------------------------


@dataclass
class Record:
    """One request as the client saw it.  The ranking is checked when the
    reply arrives and then dropped, so held records stay small."""

    item: Item
    sent: float
    done: float
    #: the envelope's server-side ``latency_ms``; ``None`` when no reply came.
    latency_ms: float | None
    timings: tuple | None
    #: why the request failed (error or failed check), ``None`` when it passed.
    failure: str | None


def _send(client: ExpansionClient, item: Item, load: "Load") -> Record:
    options = ExpandOptions(top_k=TOP_K, use_cache=load.use_cache, include_timings=load.traced)
    sent = time.perf_counter()
    try:
        response = client.expand(
            item.method,
            query_id=item.query_id,
            class_id=item.class_id,
            positive_seed_ids=item.positive,
            negative_seed_ids=item.negative,
            options=options,
        )
    except Exception as exc:  # noqa: BLE001 - every failure is counted, not raised
        done = time.perf_counter()
        return Record(item, sent, done, None, None, f"{type(exc).__name__}: {exc}")
    done = time.perf_counter()
    failure = load.checker.failure(item, response)
    return Record(item, sent, done, response.latency_ms, response.timings, failure)


@dataclass(frozen=True)
class Load:
    """How to send a phase's requests and judge the replies."""

    checker: object
    use_cache: bool
    traced: bool


def run_closed_loop(cluster: Cluster, items, seconds: float, load: Load):
    """One caller, next request after the previous reply, for ``seconds``
    (``inf``: until ``items`` run out).  Behind a gate, requests alternate
    between the tenants' keys, one keep-alive connection each."""
    tenants = len(TENANTS) if cluster.workload.gated else 1
    clients = [cluster.client(index) for index in range(tenants)]
    records = []
    try:
        start = time.perf_counter()
        deadline = start + seconds
        for index, item in enumerate(items):
            if time.perf_counter() >= deadline:
                break
            records.append(_send(clients[index % tenants], item, load))
    finally:
        for client in clients:
            client.close()
    return records, records[-1].done - start if records else seconds
