"""Gateway overhead over a 2-worker cluster.

Measures what the routing layer costs: the same deterministic expansion is
driven (a) straight at one worker over HTTP and (b) through the gateway in
front of two workers — the delta is pure gateway overhead (one extra proxy
hop, ring lookup, header copy).

The timings are printed, not asserted: a wall-clock bound on a shared
machine decides nothing.  What is asserted is the gateway's work, counted
by test-local wrappers on its connection factory and its proxy call: one
keep-alive connection per worker for all sequential traffic, and one
forward per request.

The workers serve a cheap deterministic stub expander over the tiny dataset
so the numbers isolate the *serving fabric* — registry fits and model
scoring are benchmarked elsewhere (``test_serving_throughput``,
``test_store_warm_restore``).
"""

from __future__ import annotations

import time

from repro.client import ExpansionClient
from repro.cluster import ClusterConfig, ClusterGateway
from repro.config import DatasetConfig, ServiceConfig
from repro.core.base import Expander
from repro.dataset.builder import build_dataset
from repro.serve import ExpansionHTTPServer, ExpansionService
from repro.types import ExpansionResult

#: requests per measured pass.
GATEWAY_QUERY_BUDGET = 40

#: methods spread across the 2 shards by the consistent hash (six names are
#: enough that both shards own some for the tiny dataset's fingerprint).
METHODS = tuple(f"stub{letter}" for letter in "abcdef")


class _Stub(Expander):
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


def _worker(dataset) -> ExpansionHTTPServer:
    service = ExpansionService(
        dataset,
        config=ServiceConfig(port=0, cache_capacity=0),
        factories={m: (lambda _res, m=m: _Stub(m)) for m in METHODS},
    )
    return ExpansionHTTPServer(service, port=0).start()


def run_gateway_benchmark(num_queries: int = GATEWAY_QUERY_BUDGET) -> dict:
    dataset = build_dataset(DatasetConfig.tiny(seed=13))
    servers = [_worker(dataset) for _ in range(2)]
    gateway = ClusterGateway(
        [(f"worker-{i}", server.url) for i, server in enumerate(servers)],
        config=ClusterConfig(proxy_timeout_seconds=30.0),
        fingerprint=dataset.fingerprint(),
        port=0,
    ).start()
    # the worker of each gateway->worker connection opened, and the path
    # of each proxy call.
    opened: list[str] = []
    forwarded: list[str] = []
    fresh_connection, forward = gateway._fresh_worker_connection, gateway._forward

    def counting_fresh_connection(worker_id):
        opened.append(worker_id)
        return fresh_connection(worker_id)

    def counting_forward(worker_id, verb, path, body):
        forwarded.append(path)
        return forward(worker_id, verb, path, body)

    gateway._fresh_worker_connection = counting_fresh_connection
    gateway._forward = counting_forward
    queries = [q.query_id for q in dataset.queries[:10]]
    jobs = [
        (METHODS[i % len(METHODS)], queries[i % len(queries)])
        for i in range(num_queries)
    ]
    try:
        with ExpansionClient.connect(servers[0].url) as direct_client:
            # warm both paths once (fit + socket setup excluded from timing)
            direct_client.expand(METHODS[0], query_id=queries[0], top_k=20)
            started = time.perf_counter()
            for method, query_id in jobs:
                direct_client.expand(method, query_id=query_id, top_k=20, use_cache=False)
            direct_s = time.perf_counter() - started

        with ExpansionClient.connect(gateway.url) as gateway_client:
            gateway_client.expand(METHODS[0], query_id=queries[0], top_k=20)
            started = time.perf_counter()
            for method, query_id in jobs:
                gateway_client.expand(method, query_id=query_id, top_k=20, use_cache=False)
            routed_s = time.perf_counter() - started
        gateway_stats = gateway.stats()
    finally:
        gateway.shutdown()
        for server in servers:
            server.shutdown()
    return {
        "num_queries": num_queries,
        "direct_s": direct_s,
        "routed_s": routed_s,
        "direct_qps": num_queries / direct_s,
        "routed_qps": num_queries / routed_s,
        "overhead_ms": (routed_s - direct_s) / num_queries * 1000.0,
        "gateway_stats": gateway_stats,
        "opened": opened,
        "forwarded": forwarded,
    }


def test_gateway_routing_overhead(benchmark):
    result = benchmark.pedantic(run_gateway_benchmark, rounds=1, iterations=1)
    print(
        f"\ngateway fabric over {result['num_queries']} requests: "
        f"direct {result['direct_qps']:.1f} q/s, "
        f"routed {result['routed_qps']:.1f} q/s "
        f"({result['overhead_ms']:+.2f} ms/request); "
        f"{len(result['opened'])} gateway->worker connections opened"
    )
    stats = result["gateway_stats"]
    num_queries = result["num_queries"]
    # every shard served traffic and nothing failed over or went unrouted
    assert all(count > 0 for count in stats["routed"].values())
    assert stats["failovers"] == 0
    assert stats["no_backend_available"] == 0
    # the warm-up and every sequential expand rode one keep-alive
    # connection per worker, one forward each.
    assert sorted(result["opened"]) == sorted(stats["workers"])
    assert result["forwarded"] == ["/v1/expand"] * (num_queries + 1)
    assert stats["proxied"] == stats["requests"] == num_queries + 1
    # a loose same-run sanity bound only (measured ratio: 1.1-1.6x).
    assert result["routed_s"] < 10 * result["direct_s"]
