"""Unit tests for the metrics registry (repro.obs.metrics)."""

from __future__ import annotations

import threading

import pytest

from repro.obs import metrics


@pytest.fixture()
def registry():
    return metrics.MetricsRegistry()


@pytest.fixture()
def enabled():
    """Force metrics on for the test, restore the environment default."""
    metrics.enable_metrics(True)
    metrics.registry().reset()
    yield
    metrics.registry().reset()
    metrics.enable_metrics(None)


class TestCounterGaugeHistogram:
    def test_counter_accumulates(self, registry):
        registry.inc("requests")
        registry.inc("requests", 2.5)
        assert registry.snapshot()["requests"]["series"][""] == 3.5

    def test_gauge_sets_and_incs(self, registry):
        registry.set_gauge("depth", 7)
        registry.set_gauge("depth", 3)
        assert registry.snapshot()["depth"]["series"][""] == 3
        registry.inc_gauge("depth", 2)
        assert registry.snapshot()["depth"]["series"][""] == 5

    def test_histogram_snapshot_fields(self, registry):
        for value in (0.1, 0.2, 0.3, 0.4):
            registry.observe("latency", value)
        snap = registry.snapshot()["latency"]["series"][""]
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(1.0)
        assert snap["min"] == pytest.approx(0.1)
        assert snap["max"] == pytest.approx(0.4)
        assert snap["mean"] == pytest.approx(0.25)
        assert snap["min"] <= snap["p50"] <= snap["p99"] <= snap["max"]

    def test_empty_histogram_snapshot(self):
        assert metrics.Histogram().snapshot() == {"count": 0, "sum": 0.0}

    def test_histogram_reservoir_is_bounded(self):
        histogram = metrics.Histogram(reservoir_size=8)
        for value in range(1000):
            histogram.observe(float(value))
        # exact aggregates survive the bounded reservoir
        assert histogram.count == 1000
        assert histogram.vmin == 0.0
        assert histogram.vmax == 999.0
        assert len(histogram.reservoir) == 8
        # quantiles come from the newest window
        assert histogram.quantile(0.5) >= 992.0

    def test_labels_create_separate_series(self, registry):
        registry.inc("fired", 1, rule="a")
        registry.inc("fired", 2, rule="b")
        series = registry.snapshot()["fired"]["series"]
        assert series == {"rule=a": 1, "rule=b": 2}

    def test_kind_conflict_raises(self, registry):
        registry.inc("thing")
        with pytest.raises(ValueError, match="already registered"):
            registry.observe("thing", 1.0)

    def test_snapshot_prefix_filter(self, registry):
        registry.inc("bench_a")
        registry.inc("other")
        assert set(registry.snapshot(prefix="bench_")) == {"bench_a"}

    def test_snapshot_shares_no_state(self, registry):
        registry.observe("h", 1.0)
        snap = registry.snapshot()
        snap["h"]["series"][""]["count"] = 999
        assert registry.snapshot()["h"]["series"][""]["count"] == 1

    def test_concurrent_increments_are_registered(self, registry):
        def worker():
            for _ in range(200):
                registry.inc("hits", 1, worker="x")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # the series exists and is sane; exact totals are not guaranteed
        # for unlocked float adds, only that recording never corrupts
        assert registry.snapshot()["hits"]["series"]["worker=x"] > 0


class TestEnabledGating:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        metrics.enable_metrics(None)
        assert not metrics.metrics_enabled()

    def test_env_switch(self, monkeypatch):
        metrics.enable_metrics(None)
        monkeypatch.setenv("REPRO_OBS", "1")
        assert metrics.metrics_enabled()
        monkeypatch.setenv("REPRO_OBS", "0")
        assert not metrics.metrics_enabled()

    def test_enable_metrics_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        metrics.enable_metrics(False)
        try:
            assert not metrics.metrics_enabled()
        finally:
            metrics.enable_metrics(None)

    def test_guarded_helpers_are_noops_when_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        metrics.enable_metrics(None)
        metrics.registry().reset()
        metrics.inc("nope")
        metrics.set_gauge("nope_g", 1)
        metrics.observe("nope_h", 1.0)
        assert metrics.registry().snapshot() == {}

    def test_guarded_helpers_record_when_enabled(self, enabled):
        metrics.inc("yes")
        metrics.set_gauge("yes_g", 2)
        metrics.observe("yes_h", 0.5)
        names = set(metrics.registry().snapshot())
        assert {"yes", "yes_g", "yes_h"} <= names

    def test_module_snapshot_shape(self, enabled):
        metrics.inc("c")
        document = metrics.snapshot()
        assert set(document) == {"enabled", "registry"}
        assert document["enabled"] is True
        assert "c" in document["registry"]


class TestPrometheusRendering:
    def test_counter_gets_total_suffix(self, registry):
        registry.inc("commits", 3, node="a")
        text = registry.render_prometheus()
        assert '# TYPE repro_commits_total counter' in text
        assert 'repro_commits_total{node="a"} 3.0' in text

    def test_histogram_renders_count_sum_quantiles(self, registry):
        registry.observe("lat", 0.25, cmd="query")
        text = registry.render_prometheus()
        assert '# TYPE repro_lat histogram' in text
        assert 'repro_lat_count{cmd="query"} 1' in text
        assert 'repro_lat_sum{cmd="query"} 0.25' in text
        assert 'repro_lat{cmd="query",quantile="0.50"} 0.25' in text

    def test_unlabelled_gauge(self, registry):
        registry.set_gauge("depth", 4)
        assert "repro_depth 4.0" in registry.render_prometheus()

    def test_empty_registry_renders_empty(self, registry):
        assert registry.render_prometheus() == ""
