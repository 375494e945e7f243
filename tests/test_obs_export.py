"""Tests for the telemetry export pipeline and fit-progress reporting.

Covers the push-exporter delta semantics, the failure modes the tentpole
promises (sink down at startup, sink dying mid-run, clean drain on
shutdown — always retry/backoff then drop-and-count, never block), the
statsd line protocol end-to-end over a real UDP socket, the OTLP-flavored
JSON document shape, the golden OpenMetrics exemplar rendering, slow-query
log rotation, :class:`ProgressReporter` composition, the causal-LM fit's
monotonic progress, and the ``FitJob`` wire document shape.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from repro.api.jobs import JobManager
from repro.config import CausalLMConfig, ServiceConfig
from repro.lm.causal_lm import CausalEntityLM
from repro.obs import MetricsRegistry, build_exporter, request_scope
from repro.obs.export import (
    JsonHttpExporter,
    PushExporter,
    StatsdExporter,
    MAX_DATAGRAM_BYTES,
)
from repro.obs.progress import (
    NULL_PROGRESS,
    PHASE_WINDOWS,
    ProgressReporter,
    phase_window,
)
from repro.obs.slowlog import SlowQueryLog
from repro.serve import ExpandRequest, ExpansionService
from repro.serve.server import stop_serve_loop

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


class RecordingExporter(PushExporter):
    """Captures shipped batches; optionally fails the next N ship attempts."""

    kind = "recording"

    def __init__(self, registry, **kwargs):
        kwargs.setdefault("backoff_seconds", 0.0)
        super().__init__(registry, **kwargs)
        self.batches: list[list[dict]] = []
        self.fail_attempts = 0
        self.ship_attempts = 0

    def _ship(self, batch):
        self.ship_attempts += 1
        if self.fail_attempts > 0:
            self.fail_attempts -= 1
            raise ConnectionError("sink is down")
        self.batches.append([dict(entry) for entry in batch])


def udp_sink():
    """A bound UDP socket standing in for a statsd server."""
    sink = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sink.bind(("127.0.0.1", 0))
    sink.settimeout(5.0)
    return sink, sink.getsockname()[1]


def recv_lines(sink, datagrams: int = 1) -> list[str]:
    lines: list[str] = []
    for _ in range(datagrams):
        payload, _addr = sink.recvfrom(65535)
        lines.extend(payload.decode("utf-8").split("\n"))
    return lines


# ---------------------------------------------------------------------------
# delta semantics
# ---------------------------------------------------------------------------


class TestPushExporterDeltas:
    def test_counters_ship_positive_deltas_only(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_t_requests_total")
        exporter = RecordingExporter(registry)

        counter.inc(3, method="a")
        exporter.run_once()
        first = {e["name"]: e for e in exporter.batches[-1]}
        assert first["repro_t_requests_total"]["delta"] == 3

        counter.inc(2, method="a")
        exporter.run_once()
        second = {e["name"]: e for e in exporter.batches[-1]}
        assert second["repro_t_requests_total"]["delta"] == 2

    def test_unchanged_counters_do_not_reship(self):
        registry = MetricsRegistry()
        registry.counter("repro_t_hits_total").inc()
        exporter = RecordingExporter(registry)
        assert exporter.run_once() > 0
        exporter.run_once()
        # The counter didn't move, so it must not appear in later batches
        # (the exporter's own flush counters may).
        names = {e["name"] for batch in exporter.batches[1:] for e in batch}
        assert "repro_t_hits_total" not in names

    def test_gauges_ship_current_value_every_flush(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_t_resident")
        exporter = RecordingExporter(registry)
        gauge.set(4)
        exporter.run_once()
        exporter.run_once()
        for batch in exporter.batches:
            entry = next(e for e in batch if e["name"] == "repro_t_resident")
            assert entry["value"] == 4

    def test_histograms_ship_window_deltas(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_t_ms", buckets=(1.0, 10.0))
        exporter = RecordingExporter(registry)
        hist.observe(0.5)
        hist.observe(5.0)
        exporter.run_once()
        entry = next(
            e for e in exporter.batches[-1] if e["name"] == "repro_t_ms"
        )
        assert entry["delta_count"] == 2
        assert entry["delta_sum"] == pytest.approx(5.5)
        assert entry["buckets"] == [["1", 1], ["10", 2], ["+Inf", 2]]

        hist.observe(0.5)
        exporter.run_once()
        entry = next(
            e for e in exporter.batches[-1] if e["name"] == "repro_t_ms"
        )
        assert entry["delta_count"] == 1
        assert entry["delta_sum"] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# failure modes: retry, backoff, drop-and-count, drain
# ---------------------------------------------------------------------------


class TestExporterFailureModes:
    def test_sink_down_at_startup_drops_and_counts(self):
        registry = MetricsRegistry()
        registry.counter("repro_t_total").inc(7)
        exporter = RecordingExporter(registry, max_retries=2)
        exporter.fail_attempts = 10  # every attempt fails

        assert exporter.run_once() == 0
        # initial attempt + 2 retries, then the batch dropped.
        assert exporter.ship_attempts == 3
        assert registry.counter("obs_exporter_retries_total").total() == 2
        assert registry.counter("obs_exporter_dropped_series_total").total() == 1
        assert registry.counter("obs_exporter_flushes_total").total() == 0
        assert "ConnectionError" in exporter.last_error

    def test_dropped_window_is_lost_not_buffered(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_t_total")
        exporter = RecordingExporter(registry, max_retries=0)

        counter.inc(5)
        exporter.fail_attempts = 1
        exporter.run_once()  # the 5 is dropped, baseline still advances

        counter.inc(2)
        assert exporter.run_once() > 0
        entry = next(
            e for e in exporter.batches[-1] if e["name"] == "repro_t_total"
        )
        assert entry["delta"] == 2  # only the post-drop window ships

    def test_sink_dying_mid_run_recovers_on_next_flush(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_t_total")
        exporter = RecordingExporter(registry, max_retries=1)

        counter.inc()
        assert exporter.run_once() > 0  # healthy flush
        assert exporter.last_error is None

        counter.inc()
        exporter.fail_attempts = 10
        assert exporter.run_once() == 0  # sink died: retried, then dropped
        assert exporter.last_error is not None
        drops = registry.counter("obs_exporter_dropped_series_total").total()
        assert drops >= 1

        counter.inc()
        exporter.fail_attempts = 0
        assert exporter.run_once() > 0  # sink back: shipping resumes
        assert exporter.last_error is None

    def test_shutdown_drains_one_final_batch(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_t_total")
        exporter = RecordingExporter(registry, interval_seconds=3600.0)
        exporter.start()
        counter.inc(9)
        exporter.shutdown()
        assert exporter._thread is None
        entry = next(
            e
            for batch in exporter.batches
            for e in batch
            if e["name"] == "repro_t_total"
        )
        assert entry["delta"] == 9

    def test_retry_backoff_collapses_during_shutdown(self):
        registry = MetricsRegistry()
        registry.counter("repro_t_total").inc()
        exporter = RecordingExporter(
            registry, max_retries=3, backoff_seconds=30.0
        )
        exporter.fail_attempts = 10
        exporter._stop.set()  # as shutdown() would
        started = time.perf_counter()
        assert exporter.run_once() == 0
        assert time.perf_counter() - started < 5.0


# ---------------------------------------------------------------------------
# statsd
# ---------------------------------------------------------------------------


class TestStatsdExporter:
    def test_line_protocol_over_a_real_udp_socket(self):
        sink, port = udp_sink()
        try:
            registry = MetricsRegistry()
            registry.counter("repro_t_total").inc(3, method="a")
            registry.gauge("repro_t_resident").set(2.5)
            hist = registry.histogram("repro_t_ms", buckets=(10.0,))
            hist.observe(4.0)
            hist.observe(8.0)
            exporter = StatsdExporter(registry, "127.0.0.1", port)
            try:
                assert exporter.run_once() == 3  # counter + gauge + histogram
                lines = recv_lines(sink)
            finally:
                exporter.shutdown()
        finally:
            sink.close()
        assert "repro_t_total:3|c|#method:a" in lines
        assert "repro_t_resident:2.5|g" in lines
        assert "repro_t_ms:6|ms" in lines  # window mean of 4 and 8
        assert "repro_t_ms.count:2|c" in lines

    def test_datagrams_stay_under_the_mtu_budget(self):
        long_lines = [f"repro_t_{i}:{i}|c" + "x" * 100 for i in range(40)]
        datagrams = StatsdExporter._pack(long_lines)
        assert len(datagrams) > 1
        for datagram in datagrams:
            assert len(datagram) <= MAX_DATAGRAM_BYTES
        reassembled = b"\n".join(datagrams).decode("utf-8").split("\n")
        assert reassembled == long_lines

    def test_tags_render_sorted_dogstatsd_style(self):
        assert StatsdExporter._tags({}) == ""
        assert StatsdExporter._tags({"b": "2", "a": "1"}) == "|#a:1,b:2"


# ---------------------------------------------------------------------------
# json / OTLP
# ---------------------------------------------------------------------------


class _SinkHandler(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 - http.server API
        length = int(self.headers.get("Content-Length", 0))
        self.server.received.append(json.loads(self.rfile.read(length)))
        self.send_response(200)
        self.end_headers()

    def log_message(self, *args):
        pass


class TestJsonHttpExporter:
    def test_document_shape(self):
        batch = [
            {"name": "c", "kind": "counter", "labels": {"m": "a"}, "delta": 2.0},
            {"name": "g", "kind": "gauge", "labels": {}, "value": 1.5},
            {
                "name": "h",
                "kind": "histogram",
                "labels": {},
                "delta_count": 2,
                "delta_sum": 3.0,
                "buckets": [["1", 1], ["+Inf", 2]],
            },
        ]
        document = JsonHttpExporter._document(batch)
        metrics = document["resourceMetrics"][0]["scopeMetrics"][0]["metrics"]
        by_name = {metric["name"]: metric for metric in metrics}

        counter = by_name["c"]["sum"]
        assert counter["aggregationTemporality"] == 1
        assert counter["isMonotonic"] is True
        assert counter["dataPoints"][0]["asDouble"] == 2.0
        assert counter["dataPoints"][0]["attributes"] == [
            {"key": "m", "value": {"stringValue": "a"}}
        ]

        assert by_name["g"]["gauge"]["dataPoints"][0]["asDouble"] == 1.5

        hist = by_name["h"]["histogram"]["dataPoints"][0]
        assert hist["count"] == 2
        assert hist["sum"] == 3.0
        assert hist["bucketCounts"] == [1, 2]
        assert hist["explicitBounds"] == [1.0]

    def test_posts_one_document_per_flush(self):
        server = HTTPServer(("127.0.0.1", 0), _SinkHandler)
        server.received = []
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            registry = MetricsRegistry()
            registry.counter("repro_t_total").inc(4)
            exporter = JsonHttpExporter(
                registry, f"http://127.0.0.1:{server.server_address[1]}/v1/metrics"
            )
            try:
                assert exporter.run_once() == 1
            finally:
                exporter.shutdown()
        finally:
            stop_serve_loop(server)
            server.server_close()
            thread.join(timeout=5.0)
        assert len(server.received) >= 1
        metrics = server.received[0]["resourceMetrics"][0]["scopeMetrics"][0]["metrics"]
        assert metrics[0]["name"] == "repro_t_total"

    def test_unreachable_sink_never_blocks_serving(self):
        # grab a port with nothing listening on it.
        placeholder = socket.socket()
        placeholder.bind(("127.0.0.1", 0))
        port = placeholder.getsockname()[1]
        placeholder.close()

        registry = MetricsRegistry()
        registry.counter("repro_t_total").inc()
        exporter = JsonHttpExporter(
            registry,
            f"http://127.0.0.1:{port}/",
            timeout=0.5,
            max_retries=1,
            backoff_seconds=0.0,
        )
        assert exporter.run_once() == 0
        assert registry.counter("obs_exporter_dropped_series_total").total() == 1
        assert exporter.last_error is not None


class TestBuildExporter:
    def test_off_when_kind_is_falsy(self):
        registry = MetricsRegistry()
        assert build_exporter(registry, None, None) is None
        assert build_exporter(registry, "", "127.0.0.1:8125") is None

    def test_builds_each_kind(self):
        registry = MetricsRegistry()
        statsd = build_exporter(
            registry, "statsd", "127.0.0.1:8125", interval_seconds=1.0
        )
        assert isinstance(statsd, StatsdExporter)
        assert statsd.address == ("127.0.0.1", 8125)
        assert statsd.interval_seconds == 1.0
        statsd._close()
        json_exporter = build_exporter(
            registry, "json", "http://collector:4318/v1/metrics", max_retries=5
        )
        assert isinstance(json_exporter, JsonHttpExporter)
        assert json_exporter.max_retries == 5

    def test_rejects_bad_configuration(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="unknown exporter kind"):
            build_exporter(registry, "kafka", "somewhere")
        with pytest.raises(ValueError, match="needs a target"):
            build_exporter(registry, "statsd", None)
        with pytest.raises(ValueError, match="host:port"):
            build_exporter(registry, "statsd", "no-port")
        with pytest.raises(ValueError, match="http\\(s\\) URL"):
            build_exporter(registry, "json", "collector:4318")


# ---------------------------------------------------------------------------
# OpenMetrics exemplars
# ---------------------------------------------------------------------------


class TestExemplarRendering:
    def test_golden_exemplar_block(self):
        registry = MetricsRegistry(const_labels={"dataset": "fp"})
        hist = registry.histogram(
            "repro_t_ms", "Test latency.", buckets=(1.0, 2.0), exemplars=True
        )
        hist.observe(0.5)  # no request scope: no exemplar on this bucket
        with request_scope("req-abc"):
            hist.observe(1.5)
        assert registry.render_prometheus() == (
            "# HELP repro_t_ms Test latency.\n"
            "# TYPE repro_t_ms histogram\n"
            'repro_t_ms_bucket{dataset="fp",le="1"} 1\n'
            'repro_t_ms_bucket{dataset="fp",le="2"} 2 # {request_id="req-abc"} 1.5\n'
            'repro_t_ms_bucket{dataset="fp",le="+Inf"} 2\n'
            'repro_t_ms_sum{dataset="fp"} 2\n'
            'repro_t_ms_count{dataset="fp"} 2\n'
        )

    def test_latest_request_wins_per_bucket(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_t_ms", buckets=(10.0,), exemplars=True)
        with request_scope("req-old"):
            hist.observe(3.0)
        with request_scope("req-new"):
            hist.observe(4.0)
        rendered = registry.render_prometheus()
        assert 'request_id="req-new"' in rendered
        assert "req-old" not in rendered

    def test_exemplars_are_opt_in(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_t_ms", buckets=(10.0,))
        with request_scope("req-abc"):
            hist.observe(3.0)
        assert "#" not in registry.render_prometheus().split("# TYPE")[-1]


# ---------------------------------------------------------------------------
# slow-query log rotation
# ---------------------------------------------------------------------------


class TestSlowQueryLogRotation:
    def test_rotates_once_past_max_bytes(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        log = SlowQueryLog(str(path), max_bytes=100)
        first = json.dumps({"event": "slow_query", "request_id": "req-1", "pad": "x" * 60})
        second = json.dumps({"event": "slow_query", "request_id": "req-2", "pad": "y" * 60})
        log.write(first)
        log.write(second)
        assert log.rotations == 1
        backup = tmp_path / "slow.jsonl.1"
        assert backup.read_text().strip() == first
        assert path.read_text().strip() == second

    def test_only_one_backup_ever_exists(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        log = SlowQueryLog(str(path), max_bytes=40)
        for index in range(6):
            log.write(json.dumps({"request_id": f"req-{index}", "pad": "z" * 30}))
        assert log.rotations == 5
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "slow.jsonl",
            "slow.jsonl.1",
        ]

    def test_stats_and_validation(self, tmp_path):
        log = SlowQueryLog(str(tmp_path / "slow.jsonl"), max_bytes=1024)
        assert log.stats() == {
            "path": str(tmp_path / "slow.jsonl"),
            "max_bytes": 1024,
            "rotations": 0,
        }
        with pytest.raises(ValueError):
            SlowQueryLog(str(tmp_path / "bad.jsonl"), max_bytes=0)


# ---------------------------------------------------------------------------
# progress reporting
# ---------------------------------------------------------------------------


class TestProgressReporter:
    def test_step_clamps_and_forwards_epochs(self):
        steps = []
        reporter = ProgressReporter(
            on_step=lambda fraction, epoch, total: steps.append(
                (fraction, epoch, total)
            )
        )
        reporter.step(-0.5)
        reporter.step(1.5)
        reporter.step(0.25, epoch=2, total_epochs=4)
        assert steps == [(0.0, None, None), (1.0, None, None), (0.25, 2, 4)]

    def test_subrange_maps_child_fractions_onto_parent_slice(self):
        steps = []
        parent = ProgressReporter(on_step=lambda f, e, t: steps.append(f))
        child = parent.subrange(0.2, 0.6)
        child.step(0.0)
        child.step(0.5)
        child.step(1.0)
        assert steps == pytest.approx([0.2, 0.4, 0.6])

    def test_nested_subranges_compose(self):
        steps = []
        parent = ProgressReporter(on_step=lambda f, e, t: steps.append(f))
        grandchild = parent.subrange(0.0, 0.5).subrange(0.5, 1.0)
        grandchild.step(1.0)
        assert steps == pytest.approx([0.5])

    def test_subrange_shares_the_phase_sink(self):
        phases = []
        parent = ProgressReporter(on_phase=phases.append)
        parent.subrange(0.0, 0.5).phase("training")
        assert phases == ["training"]

    def test_adapt_accepts_all_legacy_shapes(self):
        assert ProgressReporter.adapt(None) is NULL_PROGRESS
        reporter = ProgressReporter()
        assert ProgressReporter.adapt(reporter) is reporter
        phases = []
        adapted = ProgressReporter.adapt(phases.append)
        adapted.phase("restoring")
        adapted.step(0.5)  # a phase-only callback never sees steps
        assert phases == ["restoring"]

    def test_null_progress_is_inert(self):
        NULL_PROGRESS.phase("anything")
        NULL_PROGRESS.step(0.5, epoch=1, total_epochs=2)

    def test_phase_windows_tile_the_unit_interval(self):
        ordered = ["restoring", "fitting_substrates", "training", "publishing"]
        assert list(PHASE_WINDOWS) == ordered
        previous_end = 0.0
        for phase in ordered:
            start, end = phase_window(phase)
            assert start == previous_end
            assert end > start
            previous_end = end
        assert previous_end == 1.0
        assert phase_window(None) == (0.0, 1.0)
        assert phase_window("mystery") == (0.0, 1.0)


class TestCausalLMProgress:
    def test_fit_reports_monotonic_progress_ending_at_one(self, tiny_dataset):
        fractions = []
        reporter = ProgressReporter(on_step=lambda f, e, t: fractions.append(f))
        config = CausalLMConfig(seed=3, embedding_dim=32)
        CausalEntityLM(config).fit(
            tiny_dataset.corpus, tiny_dataset.entities(), progress=reporter
        )
        assert len(fractions) > 2
        assert all(0.0 < fraction <= 1.0 for fraction in fractions)
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0


# ---------------------------------------------------------------------------
# fit jobs: progress folding and the wire document
# ---------------------------------------------------------------------------

#: every key a v1 fit-job document carries — the client SDK and the gateway
#: dashboard read these; adding is fine, renaming or dropping is a break.
FIT_JOB_DOCUMENT_KEYS = [
    "job_id",
    "method",
    "pin",
    "status",
    "created_at",
    "started_at",
    "finished_at",
    "duration_ms",
    "outcome",
    "phase",
    "phase_seconds",
    "progress",
    "error",
]


class _ScriptedRegistry:
    """An ExpanderRegistry stand-in that drives a scripted progress tape."""

    def __init__(self, manager_box, observed):
        self._manager_box = manager_box
        self._observed = observed
        self._fit_seconds = {}

    def ensure_known(self, method):
        pass

    def is_fitted(self, method):
        return False

    def stats(self):
        return {
            "fit_seconds": dict(self._fit_seconds),
            "restore_seconds": {},
        }

    def _record(self):
        manager = self._manager_box[0]
        job = manager.list()[0]
        self._observed.append(
            (job.progress, job.epoch, job.total_epochs)
        )

    def get(self, method, progress=None):
        progress = ProgressReporter.adapt(progress)
        progress.phase("restoring")
        self._record()
        progress.step(1.0)
        self._record()
        progress.phase("fitting_substrates")
        progress.step(0.5)
        self._record()
        progress.step(0.25)  # a later substrate restarting its local count
        self._record()
        progress.phase("training")
        self._record()
        progress.step(0.5, epoch=2, total_epochs=4)
        self._record()
        progress.phase("publishing")
        self._record()
        self._fit_seconds[method] = 1.0

    def pin(self, method, progress=None):
        self.get(method, progress=progress)


class TestFitJobProgress:
    def run_scripted_job(self):
        manager_box = []
        observed = []
        registry = _ScriptedRegistry(manager_box, observed)
        manager = JobManager(registry)
        manager_box.append(manager)
        try:
            job = manager.submit("stub")
            manager.wait(job.job_id, timeout=30.0)
        finally:
            manager.shutdown()
        return job, observed

    def test_phase_windows_fold_into_one_monotonic_fraction(self):
        job, observed = self.run_scripted_job()
        fractions = [fraction for fraction, _e, _t in observed]
        assert fractions == pytest.approx(
            [
                0.0,   # entering "restoring"
                0.05,  # restore done -> start of fitting_substrates window
                0.35,  # 0.05 + 0.6 * 0.5
                0.35,  # local fraction went backwards; overall bar held
                0.65,  # entering "training"
                0.8,   # 0.65 + 0.3 * 0.5
                0.95,  # entering "publishing"
            ]
        )
        assert job.progress == 1.0  # pinned on success
        assert job.status == "succeeded"

    def test_epochs_are_carried_through(self):
        _job, observed = self.run_scripted_job()
        assert (0.8, 2, 4) in [
            (round(fraction, 6), epoch, total)
            for fraction, epoch, total in observed
        ]

    def test_job_document_shape_is_pinned(self):
        job, _observed = self.run_scripted_job()
        document = job.to_dict()
        assert list(document) == FIT_JOB_DOCUMENT_KEYS
        assert document["progress"] == {
            "fraction": 1.0,
            "epoch": 2,
            "total_epochs": 4,
        }
        assert document["error"] is None
        assert document["duration_ms"] is not None

    def test_queued_job_reports_null_progress(self):
        from repro.api.jobs import FitJob

        queued = FitJob(job_id="fit-x", method="stub")
        document = queued.to_dict()
        assert list(document) == FIT_JOB_DOCUMENT_KEYS
        assert document["progress"] is None


# ---------------------------------------------------------------------------
# service wiring: config -> exporter lifecycle
# ---------------------------------------------------------------------------


class TestServiceExportWiring:
    def make_service(self, dataset, **config_kwargs):
        from repro.core.base import Expander
        from repro.types import ExpansionResult

        class StubExpander(Expander):
            name = "stub"

            def _fit(self, dataset) -> None:
                pass

            def _expand(self, query, top_k) -> ExpansionResult:
                scored = [
                    (eid, 1.0 / (1.0 + eid)) for eid in self.dataset.entity_ids()
                ]
                return ExpansionResult.from_scores(query.query_id, scored)

        config = ServiceConfig(**config_kwargs)
        return ExpansionService(
            dataset, config=config, factories={"stub": lambda _res: StubExpander()}
        )

    def test_statsd_export_end_to_end_with_drain_on_close(
        self, tiny_dataset, sample_query
    ):
        sink, port = udp_sink()
        try:
            service = self.make_service(
                tiny_dataset,
                exporter="statsd",
                exporter_target=f"127.0.0.1:{port}",
                exporter_interval_seconds=3600.0,  # only the drain flushes
            )
            assert service.exporter is not None
            assert "exporter" in service.stats()
            service.submit(ExpandRequest(method="stub", query_id=sample_query.query_id))
            service.close()  # drains one final batch
            lines = recv_lines(sink)
        finally:
            sink.close()
        assert any(
            line.startswith("repro_service_requests_total:") and "|c" in line
            for line in lines
        ), lines
        flushes = service.metrics.counter("obs_exporter_flushes_total").total()
        assert flushes >= 1

    def test_export_disabled_by_default(self, tiny_dataset):
        service = self.make_service(tiny_dataset)
        try:
            assert service.exporter is None
            assert "exporter" not in service.stats()
        finally:
            service.close()
