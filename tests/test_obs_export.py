"""Tests for the telemetry a process serves on request, and fit progress.

Covers the golden OpenMetrics exemplar rendering behind ``GET
/v1/metrics``, :class:`ProgressReporter` composition, the causal-LM fit's monotonic progress, and the ``FitJob``
wire document shape.
"""

from __future__ import annotations


import pytest

from repro.api.jobs import JobManager
from repro.config import CausalLMConfig
from repro.lm.causal_lm import CausalEntityLM
from repro.obs import MetricsRegistry, request_scope
from repro.obs.progress import (
    NULL_PROGRESS,
    PHASE_WINDOWS,
    ProgressReporter,
    phase_window,
)

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
