"""Metrics registry semantics: caps, buckets, escaping, exposition."""

import threading

import pytest

from repro.obs import MetricsRegistry, OVERFLOW_LABEL
from repro.obs.metrics import (
    DEFAULT_BYTE_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    escape_help,
    escape_label_value,
    format_value,
)


class TestCounters:
    def test_inc_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_things_total", "Things.")
        counter.inc()
        counter.inc(4)
        assert "repro_things_total 5" in registry.expose()

    def test_counters_only_go_up(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_things_total", "Things.")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_labelled_series_are_independent(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_frames_total", "Frames.", ("type",))
        counter.labels("append").inc(3)
        counter.labels("verdict").inc()
        text = registry.expose()
        assert 'repro_frames_total{type="append"} 3' in text
        assert 'repro_frames_total{type="verdict"} 1' in text

    def test_wrong_label_arity_rejected(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_frames_total", "Frames.", ("type",))
        with pytest.raises(ValueError, match="expects labels"):
            counter.labels("a", "b")

    def test_solo_access_on_labelled_family_rejected(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_frames_total", "Frames.", ("type",))
        with pytest.raises(ValueError, match="use .labels"):
            counter.inc()


class TestGauges:
    def test_callback_gauge_reads_source_of_truth(self):
        registry = MetricsRegistry()
        state = {"value": 3}
        registry.gauge("repro_live", "Live.", fn=lambda: state["value"])
        assert "repro_live 3" in registry.expose()
        state["value"] = 9
        assert "repro_live 9" in registry.expose()
        assert registry.snapshot()["repro_live"]["value"] == 9


class TestHistogramBuckets:
    def test_exact_boundary_lands_in_its_bucket(self):
        # Prometheus le semantics: a bucket counts observations <= bound.
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "repro_h", "H.", buckets=(0.1, 1.0, 10.0)
        )
        histogram.observe(0.1)
        text = registry.expose()
        assert 'repro_h_bucket{le="0.1"} 1' in text
        assert 'repro_h_bucket{le="1"} 1' in text

    def test_cumulative_counts_and_inf(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "repro_h", "H.", buckets=(0.1, 1.0, 10.0)
        )
        for value in (0.05, 0.5, 5.0, 50.0):
            histogram.observe(value)
        text = registry.expose()
        assert 'repro_h_bucket{le="0.1"} 1' in text
        assert 'repro_h_bucket{le="1"} 2' in text
        assert 'repro_h_bucket{le="10"} 3' in text
        assert 'repro_h_bucket{le="+Inf"} 4' in text
        assert "repro_h_count 4" in text
        assert "repro_h_sum 55.55" in text

    def test_snapshot_buckets_include_inf(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_h", "H.", buckets=(1.0,))
        histogram.observe(2.0)
        sample = registry.snapshot()["repro_h"]["samples"][0]
        assert sample["buckets"] == {"1": 0, "+Inf": 1}
        assert sample["count"] == 1

    def test_empty_bucket_list_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="at least one bucket"):
            registry.histogram("repro_h", "H.", buckets=())

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_TIME_BUCKETS) == sorted(DEFAULT_TIME_BUCKETS)
        assert list(DEFAULT_BYTE_BUCKETS) == sorted(DEFAULT_BYTE_BUCKETS)


class TestCardinalityCap:
    def test_over_cap_collapses_into_overflow_series(self):
        registry = MetricsRegistry(max_series=2)
        counter = registry.counter("repro_c", "C.", ("session",))
        counter.labels("a").inc(1)
        counter.labels("b").inc(2)
        overflow_c = counter.labels("c")  # trips the cap
        overflow_c.inc(4)
        overflow_d = counter.labels("d")  # shares the overflow child
        overflow_d.inc(8)
        assert registry.series_dropped == 2
        assert overflow_c is overflow_d
        assert overflow_c.value == 12
        text = registry.expose()
        assert f'repro_c{{session="{OVERFLOW_LABEL}"}} 12' in text
        assert "repro_metrics_series_dropped_total 2" in text

    def test_existing_series_still_reachable_past_cap(self):
        registry = MetricsRegistry(max_series=2)
        counter = registry.counter("repro_c", "C.", ("session",))
        counter.labels("a").inc()
        counter.labels("b").inc()
        counter.labels("c").inc()
        counter.labels("a").inc()  # pre-cap series keeps its own child
        assert counter.labels("a").value == 2

    def test_bad_max_series_rejected(self):
        with pytest.raises(ValueError, match="max_series"):
            MetricsRegistry(max_series=0)


class TestEscaping:
    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_c", "C.", ("session",))
        counter.labels('we"ird\\name\nhere').inc()
        assert (
            'repro_c{session="we\\"ird\\\\name\\nhere"} 1'
            in registry.expose()
        )

    def test_help_text_escaped(self):
        registry = MetricsRegistry()
        registry.counter("repro_c", "line one\nline \\ two")
        assert "# HELP repro_c line one\\nline \\\\ two" in registry.expose()

    def test_escape_helpers(self):
        assert escape_help("a\nb\\c") == "a\\nb\\\\c"
        assert escape_label_value('a"b') == 'a\\"b'
        assert format_value(3.0) == "3"
        assert format_value(0.25) == "0.25"
        assert format_value(float("inf")) == "+Inf"

    def test_bad_metric_and_label_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="bad metric name"):
            registry.counter("bad-name")
        with pytest.raises(ValueError, match="bad label name"):
            registry.counter("repro_ok", "x", ("bad-label",))


class TestRegistration:
    def test_reregistration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_c", "C.", ("a",))
        second = registry.counter("repro_c", "C.", ("a",))
        assert first is second

    def test_signature_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_c", "C.")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_c", "C.", fn=lambda: 0)
        registry.histogram("repro_h", "H.", buckets=(1.0,))
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("repro_h", "H.", buckets=(2.0,))


class TestConcurrentScrape:
    def test_scrape_interleaves_with_observations(self):
        """Writers hammer every metric kind while readers scrape; totals
        come out exact and no exposition ever tears."""
        registry = MetricsRegistry()
        counter = registry.counter("repro_c", "C.", ("worker",))
        histogram = registry.histogram("repro_h", "H.", buckets=(0.5, 1.0))
        stop = threading.Event()
        errors = []

        def write(worker):
            for _ in range(2000):
                counter.labels(worker).inc()
                histogram.observe(0.25)

        def scrape():
            while not stop.is_set():
                try:
                    text = registry.expose()
                    assert text.endswith("\n")
                    registry.snapshot()
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                    return

        writers = [
            threading.Thread(target=write, args=(f"w{i}",)) for i in range(4)
        ]
        readers = [threading.Thread(target=scrape) for _ in range(2)]
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join()
        stop.set()
        for thread in readers:
            thread.join()
        assert not errors
        assert sum(
            counter.labels(f"w{i}").value for i in range(4)
        ) == 8000
        text = registry.expose()
        assert 'repro_h_bucket{le="0.5"} 8000' in text
        assert "repro_h_count 8000" in text
