"""Tests for the telemetry a process serves on request.

Covers the golden OpenMetrics exemplar rendering behind ``GET
/v1/metrics``.
"""

from __future__ import annotations

from repro.obs import MetricsRegistry, request_scope

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
