"""Prometheus text exposition: renderer output and the /metrics endpoint."""

from __future__ import annotations

import urllib.request

import pytest

from repro.obs.exposition import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.obs.registry import MetricsRegistry
from repro.service.manager import SessionManager
from repro.service.server import make_server
from repro.service.store import InMemorySessionStore


class TestRenderPrometheus:
    def test_counter_with_help_type_and_default_zero(self):
        registry = MetricsRegistry()
        registry.counter("qfe_x_total", "Things counted.")
        text = render_prometheus(registry)
        assert "# HELP qfe_x_total Things counted.\n" in text
        assert "# TYPE qfe_x_total counter\n" in text
        assert "\nqfe_x_total 0\n" in text

    def test_labeled_counter_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("qfe_hits_total", labels=("kind",))
        counter.inc(2, kind="a")
        counter.inc(kind='we"ird\\')
        text = render_prometheus(registry)
        assert 'qfe_hits_total{kind="a"} 2' in text
        assert 'qfe_hits_total{kind="we\\"ird\\\\"} 1' in text

    def test_gauge_kind(self):
        registry = MetricsRegistry()
        registry.gauge("qfe_live", "Live things.").inc(3)
        text = render_prometheus(registry)
        assert "# TYPE qfe_live gauge\n" in text
        assert "\nqfe_live 3\n" in text

    def test_histogram_buckets_sum_count(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("qfe_lat_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        text = render_prometheus(registry)
        assert 'qfe_lat_seconds_bucket{le="0.1"} 1' in text
        assert 'qfe_lat_seconds_bucket{le="1"} 2' in text
        assert 'qfe_lat_seconds_bucket{le="+Inf"} 3' in text
        assert "qfe_lat_seconds_sum 5.55" in text
        assert "qfe_lat_seconds_count 3" in text

    def test_first_registry_wins_on_duplicates(self):
        private, shared = MetricsRegistry(), MetricsRegistry()
        private.counter("qfe_dup_total").inc(1)
        shared.counter("qfe_dup_total").inc(9)
        text = render_prometheus(private, shared)
        samples = [line for line in text.splitlines() if line.startswith("qfe_dup_total ")]
        assert samples == ["qfe_dup_total 1"]

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_output_parses_line_by_line(self):
        registry = MetricsRegistry()
        registry.counter("qfe_a_total").inc(1)
        registry.histogram("qfe_b_seconds").observe(0.2)
        for line in render_prometheus(registry).splitlines():
            assert line.startswith("#") or " " in line
            if not line.startswith("#"):
                name_part, value = line.rsplit(" ", 1)
                float(value)  # every sample value must parse as a number


@pytest.fixture(scope="module")
def service_url():
    manager = SessionManager(store=InMemorySessionStore())
    server = make_server(manager)
    server.serve_background()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", manager
    server.close()


def _get(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    with urllib.request.urlopen(request) as response:
        return response.status, response.headers.get("Content-Type"), response.read().decode("utf-8")


class TestMetricsEndpoint:
    def test_json_remains_the_default(self, service_url):
        url, _ = service_url
        status, content_type, body = _get(f"{url}/metrics")
        assert status == 200
        assert content_type.startswith("application/json")
        import json

        payload = json.loads(body)
        assert "rounds_served" in payload
        assert set(payload["round_latency_seconds"]) == {"count", "p50", "p95"}
        assert set(payload["compute_lock_wait_seconds"]) == {"count", "p50", "p95"}

    def test_query_parameter_selects_prometheus(self, service_url):
        url, manager = service_url
        manager._metrics.bump("rounds_served")
        manager._metrics.observe_round_latency(0.02)
        status, content_type, body = _get(f"{url}/metrics?format=prometheus")
        assert status == 200
        assert content_type == PROMETHEUS_CONTENT_TYPE
        assert "# TYPE qfe_service_rounds_served counter" in body
        assert "# TYPE qfe_service_round_latency_seconds histogram" in body
        assert 'qfe_service_round_latency_seconds_bucket{le="+Inf"} 1' in body
        assert "qfe_service_round_latency_seconds_count 1" in body
        # Live gauges ride along with the counter snapshot.
        assert "qfe_service_active_sessions 0" in body
        # Process-wide registry metrics (join/columnar/plan memo) are exposed too.
        assert "qfe_join_full_joins" in body
        assert "# TYPE qfe_service_compute_lock_wait_seconds histogram" in body
        assert "# TYPE qfe_plan_memo_hits counter" in body
        assert "# TYPE qfe_plan_memo_misses counter" in body
        # Rounds run in process: no pool shipping counters, no worker gauge.
        assert "qfe_backend_" not in body
        assert "qfe_service_workers" not in body

    def test_accept_header_selects_prometheus(self, service_url):
        url, _ = service_url
        status, content_type, body = _get(
            f"{url}/metrics", headers={"Accept": "text/plain; version=0.0.4"}
        )
        # An Accept header without "prometheus" keeps the JSON default...
        assert content_type.startswith("application/json")
        status, content_type, body = _get(
            f"{url}/metrics",
            headers={"Accept": "application/openmetrics-text, text/plain;prometheus"},
        )
        assert status == 200
        assert content_type == PROMETHEUS_CONTENT_TYPE
        assert body.startswith("# ")
