"""Serving throughput — cached vs uncached queries/sec through the service.

Complements the paper-artefact benchmarks with a systems metric: how fast
the online serving layer (:mod:`repro.serve`) answers expansion requests
once the registry is warm, and how much the result cache buys on repeated
traffic.  Tracked from this PR onward so serving-speed regressions show up
alongside quality regressions.
"""

from __future__ import annotations

import gc
import sys
import time
from pathlib import Path

import repro
from repro.client import ExpansionClient
from repro.config import ServiceConfig
from repro.core.base import Expander
from repro.gate import TenantDirectory
from repro.serve import ExpandOptions, ExpandRequest, ExpansionHTTPServer, ExpansionService
from repro.types import ExpansionResult

#: queries per measured pass; small enough to keep the suite fast.
SERVING_QUERY_BUDGET = 20


def run_serving_benchmark(context, num_queries: int = SERVING_QUERY_BUDGET) -> dict:
    service = ExpansionService(
        context.dataset,
        config=ServiceConfig(),
        resources=context.resources,
    )
    with service:
        service.warm_up(["retexpan"])  # fit cost excluded from the measurement
        queries = context.dataset.queries[:num_queries]
        requests = [
            ExpandRequest(
                method="retexpan",
                query_id=query.query_id,
                options=ExpandOptions(top_k=50),
            )
            for query in queries
        ]
        uncached_requests = [
            ExpandRequest(
                method="retexpan",
                query_id=query.query_id,
                options=ExpandOptions(top_k=50, use_cache=False),
            )
            for query in queries
        ]

        started = time.perf_counter()
        for request in uncached_requests:
            service.submit(request)
        uncached_s = time.perf_counter() - started

        for request in requests:  # prime the cache
            service.submit(request)

        started = time.perf_counter()
        for request in requests:
            assert service.submit(request).cached
        cached_s = time.perf_counter() - started

        stats = service.stats()
    return {
        "num_queries": len(requests),
        "uncached_qps": len(requests) / uncached_s,
        "cached_qps": len(requests) / cached_s,
        "uncached_s": uncached_s,
        "cached_s": cached_s,
        "stats": stats,
    }


def test_serving_throughput(benchmark, context):
    result = benchmark.pedantic(
        run_serving_benchmark, args=(context,), rounds=1, iterations=1
    )
    print(
        f"\nserving throughput over {result['num_queries']} queries (warm registry): "
        f"uncached {result['uncached_qps']:.1f} q/s, "
        f"cached {result['cached_qps']:.1f} q/s "
        f"({result['cached_qps'] / result['uncached_qps']:.0f}x)"
    )

    stats = result["stats"]
    latency = stats["service"]["latency_ms"]
    print(
        f"service latency over {latency['count']} requests: "
        f"p50 {latency['p50']:.2f} ms, p90 {latency['p90']:.2f} ms, "
        f"p99 {latency['p99']:.2f} ms"
    )
    # uncached + cache-priming + cached pass, all observed by the histogram.
    assert latency["count"] == 3 * result["num_queries"]
    assert latency["p50"] <= latency["p90"] <= latency["p99"]
    # The registry fitted retexpan exactly once (at warm-up) for the whole run.
    assert stats["registry"]["fits"] == 1
    # Every request of the cached pass was a hit, verified via the counters.
    assert stats["cache"]["hits"] == result["num_queries"]
    assert stats["cache"]["misses"] == result["num_queries"]
    # The cache must not be slower than recomputing the expansion.
    assert result["cached_s"] < result["uncached_s"]


class _BenchStubExpander(Expander):
    """A near-free expander, so the overhead guard times the serving layer
    (cache lookup, counters, histogram observe) and not the model."""

    name = "bench-stub"

    def _expand(self, query, top_k):
        scored = [(eid, 1.0 / (1.0 + eid)) for eid in self.candidate_ids(query)]
        return ExpansionResult.from_scores(query.query_id, scored)


def _cached_pass_seconds(service, request, repeats: int) -> float:
    started = time.perf_counter()
    for _ in range(repeats):
        service.submit(request)
    return time.perf_counter() - started


def _measure_overhead(baseline, instrumented, request, repeats, rounds):
    """Best-of-rounds pass time per mode, interleaved so drift hits both.

    The windows are deliberately short (~3 ms at 100 repeats): a window
    longer than a scheduler quantum is guaranteed a preemption on a busy
    box, and then even the best round carries milliseconds of noise.  The
    GC is parked while timing — every submit allocates a response, so
    collector runs otherwise land inside measured windows at different
    points for the two modes.
    """
    baseline_times, instrumented_times = [], []
    gc.collect()
    gc.disable()
    try:
        for round_index in range(rounds):
            # swap who goes first each round so drift (thermal, background
            # load) charges both modes equally.
            pair = (baseline, instrumented) if round_index % 2 == 0 else (
                instrumented, baseline
            )
            first_s = _cached_pass_seconds(pair[0], request, repeats)
            second_s = _cached_pass_seconds(pair[1], request, repeats)
            if pair[0] is baseline:
                baseline_times.append(first_s)
                instrumented_times.append(second_s)
            else:
                baseline_times.append(second_s)
                instrumented_times.append(first_s)
    finally:
        gc.enable()
    # A GC pause or preemption only ever makes a round slower, so the
    # minimum is the least-noise estimate of each mode's true cost.
    return min(baseline_times), min(instrumented_times)


def _repro_calls(function, *args):
    """``function(*args)`` on this thread, as (Python ``call`` events into
    repro code meanwhile, its result).  Only repro frames count: the socket
    read under a request body is sometimes buffered and sometimes not, and
    the stdlib differs across Python versions, while the repro call path of
    a cached request is fixed."""
    package = str(Path(repro.__file__).parent)
    calls = [0]

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls[0] += 1

    sys.setprofile(profile)
    try:
        result = function(*args)
    finally:
        sys.setprofile(None)
    return calls[0], result


#: Python calls into repro code that one cached in-process ``submit`` makes
#: with metrics on beyond one with metrics off.  Measured 1 (off 47, on 48):
#: the request-id read of the latency histogram's exemplar.  The disabled
#: registry's null instruments take the same calls as live ones, so what is
#: counted is the work live metrics add: one more ``observe`` on the
#: latency histogram per request reads 2.
METRICS_CALL_CEILING = 1


def test_metrics_overhead_guard(context):
    """The repro.obs instrumentation tax on the cached hot path, pinned as
    work: a cached ``submit`` with metrics on may make at most
    ``METRICS_CALL_CEILING`` Python calls into repro code beyond one with
    metrics off.

    The instrumented service runs its production configuration, exemplar
    capture on the request-latency histogram included, so the count covers
    the per-request contextvar read the exemplars add.  Neither service
    builds a trace: a cached request that asks for no timings, on a service
    with no slow-query threshold, runs untraced.

    Both services run the same stub method.  A few microseconds of
    instrumentation on a ~30 us request is within the noise of a wall-clock
    ratio, so the count decides; a same-run timing is still printed and
    must stay below 2x.
    """
    def make_service(metrics_enabled: bool) -> ExpansionService:
        service = ExpansionService(
            context.dataset,
            config=ServiceConfig(metrics_enabled=metrics_enabled),
            factories={"bench-stub": lambda _res: _BenchStubExpander()},
        )
        service.warm_up(["bench-stub"])
        return service

    request = ExpandRequest(
        method="bench-stub",
        query_id=context.dataset.queries[0].query_id,
        options=ExpandOptions(top_k=20),
    )
    repeats, rounds, counted = 100, 30, 20
    baseline = make_service(metrics_enabled=False)
    instrumented = make_service(metrics_enabled=True)
    with baseline, instrumented:
        for service in (baseline, instrumented):  # prime cache + warm the path
            _cached_pass_seconds(service, request, 50)
        off_calls = [_repro_calls(baseline.submit, request)[0] for _ in range(counted)]
        on_calls = [_repro_calls(instrumented.submit, request)[0] for _ in range(counted)]
        # a cached request's repro call path is fixed: one count per mode.
        assert len(set(off_calls)) == 1 and len(set(on_calls)) == 1, (off_calls, on_calls)
        metrics_calls = on_calls[0] - off_calls[0]
        baseline_best, instrumented_best = _measure_overhead(
            baseline, instrumented, request, repeats, rounds
        )
        print(
            f"\nmetrics work on the cached hot path: {metrics_calls} Python calls "
            f"per request (ceiling {METRICS_CALL_CEILING}; off {off_calls[0]}, "
            f"on {on_calls[0]}); "
            f"{(instrumented_best / baseline_best - 1.0) * 100.0:+.2f}% time "
            f"(no-op {baseline_best / repeats * 1e6:.1f} us/req, "
            f"instrumented {instrumented_best / repeats * 1e6:.1f} us/req)"
        )
        assert metrics_calls <= METRICS_CALL_CEILING
        # loose same-run sanity: instrumentation never doubles a cached hit.
        assert instrumented_best < 2.0 * baseline_best
        # only the instrumented service counted anything
        assert instrumented.stats()["cache"]["hits"] >= repeats * rounds
        assert baseline.stats()["cache"]["hits"] == 0
        # the measured path is the one production ships: request-latency
        # exemplar capture was on for every instrumented observation.
        latency = instrumented.metrics.histogram("repro_request_latency_ms")
        assert latency.exemplars is True


class _HttpCaller:
    """Adapter giving an HTTP client the ``submit(request)`` shape the
    interleaved overhead harness expects (the pre-rendered payload is
    fixed; the ignored argument keeps the call signature uniform)."""

    def __init__(self, transport, payload):
        self.transport = transport
        self.payload = payload

    def submit(self, _request):
        status, _body = self.transport.request("POST", "/v1/expand", self.payload)
        assert status == 200


#: Python calls into repro code that one gated cached ``/v1/expand`` makes
#: beyond an open one: the front door's per-request work, as a count.
#: Measured 11 (open 79, gated 90): operation_for, Gate.check/_resolve/
#: _count, the directory's resolve/_maybe_reload/hash_key, the limiter's
#: check/_bucket/try_acquire/_refill_locked and the per-tenant counter's
#: inc, minus the open worker's tenant-hint check.  Any added per-request
#: gate call (a second hash_key, a reload check that stats the keyfile)
#: trips it.
GATE_CALL_CEILING = 11


def _count_respond_calls(server, send, requests: int) -> list[int]:
    """Per-request :func:`_repro_calls` on the thread that runs
    ``respond()``."""
    counts: list[int] = []
    respond = server.respond

    def counted(request):
        calls, reply = _repro_calls(respond, request)
        counts.append(calls)
        return reply

    server.respond = counted
    try:
        for _ in range(requests):
            send()
    finally:
        del server.respond
    return counts


def test_gate_overhead_guard(context, tmp_path):
    """The multi-tenant front door's tax on the cached expand hot path over
    HTTP, pinned as work: a gated request may make at most
    ``GATE_CALL_CEILING`` Python calls into repro code beyond an open one.

    The gate lives in the HTTP handler (key hash + tenant lookup,
    token-bucket charge, tenant contextvar, per-tenant counter labels) and
    costs a few microseconds on a ~1 ms round trip, so a wall-clock ratio
    measures noise; the call count is exact.  The directory's clock is
    frozen so its once-a-second keyfile re-stat stays out of the count.  A
    same-run HTTP timing is still printed and must stay below 2x."""
    import json

    from repro.client.transport import HttpTransport

    keyfile = tmp_path / "keys.json"
    keyfile.write_text(
        json.dumps(
            {
                "tenants": [
                    # quota far above the benchmark rate: the buckets are
                    # exercised on every request but never refuse.
                    {"tenant": "bench", "key": "bench-key", "quota": "10000000:10000000"}
                ]
            }
        ),
        encoding="utf-8",
    )

    def make_server(gated: bool) -> ExpansionHTTPServer:
        service = ExpansionService(
            context.dataset,
            config=ServiceConfig(
                port=0,
                keyfile=str(keyfile) if gated else None,
            ),
            factories={"bench-stub": lambda _res: _BenchStubExpander()},
        )
        if gated:
            service.gate.directory = TenantDirectory(str(keyfile), clock=lambda: 0.0)
        service.warm_up(["bench-stub"])
        return ExpansionHTTPServer(service, port=0).start()

    payload = ExpandRequest(
        method="bench-stub",
        query_id=context.dataset.queries[0].query_id,
        options=ExpandOptions(top_k=20),
    ).to_v1_dict()
    repeats, rounds, counted = 50, 20, 20
    open_server = make_server(gated=False)
    gated_server = make_server(gated=True)
    open_transport = HttpTransport(open_server.url)
    gated_transport = HttpTransport(gated_server.url, api_key="bench-key")
    baseline = _HttpCaller(open_transport, payload)
    gated = _HttpCaller(gated_transport, payload)
    try:
        for caller in (baseline, gated):  # prime cache + warm the sockets
            _cached_pass_seconds(caller, None, 50)
        open_calls = _count_respond_calls(
            open_server, lambda: baseline.submit(None), counted
        )
        gated_calls = _count_respond_calls(
            gated_server, lambda: gated.submit(None), counted
        )
        # a cached request's repro call path is fixed: one count per mode.
        assert len(set(open_calls)) == 1 and len(set(gated_calls)) == 1, (
            open_calls, gated_calls,
        )
        gate_calls = gated_calls[0] - open_calls[0]
        baseline_best, gated_best = _measure_overhead(
            baseline, gated, None, repeats, rounds
        )
        print(
            f"\nfront-door work on the cached HTTP hot path: {gate_calls} "
            f"Python calls per request (ceiling {GATE_CALL_CEILING}; open "
            f"{open_calls[0]}, gated {gated_calls[0]}); "
            f"{(gated_best / baseline_best - 1.0) * 100.0:+.2f}% time "
            f"(open {baseline_best / repeats * 1e6:.1f} us/req, "
            f"gated {gated_best / repeats * 1e6:.1f} us/req)"
        )
        assert gate_calls <= GATE_CALL_CEILING
        # loose same-run sanity: the gate never doubles the round trip.
        assert gated_best < 2.0 * baseline_best
        # the gate really ran on every gated request and never throttled
        # (a refusal would skew the timing with cheap 429s).
        gate_stats = gated_server.service.gate.stats()
        assert gate_stats["requests"]["bench"] >= repeats * rounds
        assert gate_stats["throttled"] == {}
    finally:
        open_transport.close()
        gated_transport.close()
        open_server.shutdown()
        gated_server.shutdown()


def test_v1_http_expand_smoke(context):
    """One ``/v1/expand`` end-to-end through the SDK's HTTP transport.

    The CI benchmark smoke runs this file, so every merge exercises the full
    production path: client -> urllib -> HTTP server -> v1 dispatcher ->
    service -> registry -> expander, with the versioned envelope on the wire.
    """
    service = ExpansionService(
        context.dataset,
        config=ServiceConfig(port=0),
        resources=context.resources,
    )
    query = context.dataset.queries[0]
    with ExpansionHTTPServer(service, port=0).start() as server:
        with ExpansionClient.connect(server.url) as client:
            started = time.perf_counter()
            response = client.expand("retexpan", query_id=query.query_id, top_k=20)
            elapsed_ms = (time.perf_counter() - started) * 1000.0
    print(f"\nv1 HTTP expand round trip: {elapsed_ms:.1f} ms (cold registry)")
    assert response.method == "retexpan"
    assert response.query_id == query.query_id
    assert 1 <= len(response.ranking) <= 20
    assert client.last_request_id is not None
    assert not set(response.entity_ids()) & set(query.seed_ids())
