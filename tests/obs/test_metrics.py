"""Metrics registry: concurrency, labels, render, snapshot/merge/reset."""

from __future__ import annotations

import json
import math
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    get_registry,
    histogram_quantile,
)


@pytest.fixture
def registry() -> MetricsRegistry:
    return MetricsRegistry()


class TestDeclaration:
    def test_declare_is_idempotent(self, registry):
        first = registry.counter("repro_x_total", "X.", labelnames=("a",))
        second = registry.counter("repro_x_total", "other help", labelnames=("a",))
        assert first is second

    def test_redeclare_with_other_kind_raises(self, registry):
        registry.counter("repro_x_total", "X.")
        with pytest.raises(ValueError, match="already declared"):
            registry.gauge("repro_x_total", "X.")

    def test_redeclare_with_other_labels_raises(self, registry):
        registry.counter("repro_x_total", "X.", labelnames=("a",))
        with pytest.raises(ValueError, match="already declared"):
            registry.counter("repro_x_total", "X.", labelnames=("a", "b"))

    def test_invalid_metric_name_raises(self, registry):
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("repro-bad-name", "X.")

    def test_invalid_label_name_raises(self, registry):
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("repro_x_total", "X.", labelnames=("le gume",))

    def test_histogram_needs_buckets(self, registry):
        with pytest.raises(ValueError, match="at least one bucket"):
            registry.histogram("repro_h_seconds", "H.", buckets=())

    def test_default_buckets_end_open(self, registry):
        family = registry.histogram("repro_h_seconds", "H.")
        assert family.buckets[:-1] == DEFAULT_BUCKETS
        assert family.buckets[-1] == float("inf")


class TestSeries:
    def test_counter_counts(self, registry):
        counter = registry.counter("repro_x_total", "X.")
        counter.inc()
        counter.inc(2.5)
        assert counter.labels().get() == 3.5

    def test_counter_rejects_negative_inc(self, registry):
        counter = registry.counter("repro_x_total", "X.")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_gauge_set_and_dec(self, registry):
        gauge = registry.gauge("repro_depth", "D.")
        gauge.set(7)
        gauge.dec()
        assert gauge.labels().get() == 6.0

    def test_counter_cannot_set(self, registry):
        counter = registry.counter("repro_x_total", "X.")
        with pytest.raises(ValueError, match="cannot set"):
            counter.set(4)

    def test_label_values_make_distinct_series(self, registry):
        counter = registry.counter("repro_x_total", "X.", labelnames=("k",))
        counter.labels(k="a").inc()
        counter.labels(k="a").inc()
        counter.labels(k="b").inc()
        assert counter.labels(k="a").get() == 2.0
        assert counter.labels(k="b").get() == 1.0

    def test_wrong_labelset_raises(self, registry):
        counter = registry.counter("repro_x_total", "X.", labelnames=("k",))
        with pytest.raises(ValueError, match="takes labels"):
            counter.labels(other="a")
        with pytest.raises(ValueError, match="takes labels"):
            counter.labels()

    def test_histogram_buckets_observe(self, registry):
        hist = registry.histogram("repro_h_seconds", "H.", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        state = hist.labels().get()
        assert state["counts"] == [1, 1, 1]  # non-cumulative, +Inf last
        assert state["count"] == 3
        assert state["sum"] == pytest.approx(5.55)

    def test_concurrent_increments_are_exact(self, registry):
        counter = registry.counter("repro_x_total", "X.", labelnames=("t",))
        hist = registry.histogram("repro_h_seconds", "H.", buckets=(1.0,))
        rounds = 200

        def worker(index: int) -> None:
            for _ in range(rounds):
                counter.labels(t=str(index % 2)).inc()
                hist.observe(0.5)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.labels(t="0").get() == 4 * rounds
        assert counter.labels(t="1").get() == 4 * rounds
        assert hist.labels().get()["count"] == 8 * rounds


class TestRender:
    def test_prometheus_text_golden(self, registry):
        counter = registry.counter("repro_x_total", "Requests.", labelnames=("outcome",))
        counter.labels(outcome="ok").inc()
        counter.labels(outcome="ok").inc()
        counter.labels(outcome="bad").inc()
        registry.gauge("repro_depth", "Depth.").set(3)
        hist = registry.histogram("repro_lat_seconds", "Latency.", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)

        assert registry.render() == (
            "# HELP repro_depth Depth.\n"
            "# TYPE repro_depth gauge\n"
            "repro_depth 3\n"
            "# HELP repro_lat_seconds Latency.\n"
            "# TYPE repro_lat_seconds histogram\n"
            'repro_lat_seconds_bucket{le="0.1"} 1\n'
            'repro_lat_seconds_bucket{le="1"} 2\n'
            'repro_lat_seconds_bucket{le="+Inf"} 3\n'
            "repro_lat_seconds_sum 5.55\n"
            "repro_lat_seconds_count 3\n"
            "# HELP repro_x_total Requests.\n"
            "# TYPE repro_x_total counter\n"
            'repro_x_total{outcome="bad"} 1\n'
            'repro_x_total{outcome="ok"} 2\n'
        )

    def test_label_values_are_escaped(self, registry):
        counter = registry.counter("repro_x_total", "X.", labelnames=("k",))
        counter.labels(k='a"b\\c\nd').inc()
        assert 'k="a\\"b\\\\c\\nd"' in registry.render()

    def test_empty_registry_renders_empty(self, registry):
        assert registry.render() == ""


class TestSnapshotMergeReset:
    def _populate(self, registry):
        counter = registry.counter("repro_x_total", "X.", labelnames=("k",))
        counter.labels(k="a").inc(3)
        registry.gauge("repro_depth", "D.").set(2)
        hist = registry.histogram("repro_h_seconds", "H.", buckets=(1.0,))
        hist.observe(0.5)
        hist.observe(2.0)

    def test_snapshot_is_json_safe(self, registry):
        self._populate(registry)
        payload = registry.snapshot()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["repro_h_seconds"]["buckets"] == [1.0, "+Inf"]

    def test_merge_is_additive_for_counters_and_histograms(self, registry):
        self._populate(registry)
        other = MetricsRegistry()
        other.merge(registry.snapshot())
        other.merge(registry.snapshot())
        counter = other.counter("repro_x_total", "X.", labelnames=("k",))
        assert counter.labels(k="a").get() == 6.0
        hist = other.histogram("repro_h_seconds", "H.", buckets=(1.0,))
        assert hist.labels().get()["count"] == 4
        # Gauges are state, not tallies: last writer wins.
        assert other.gauge("repro_depth", "D.").labels().get() == 2.0

    def test_merge_round_trips_render(self, registry):
        self._populate(registry)
        other = MetricsRegistry()
        other.merge(registry.snapshot())
        assert other.render() == registry.render()

    def test_reset_drops_series_keeps_families(self, registry):
        self._populate(registry)
        registry.reset()
        assert "repro_x_total" in registry.snapshot()
        assert registry.snapshot()["repro_x_total"]["series"] == []
        # Families stay usable after a reset.
        registry.counter("repro_x_total", "X.", labelnames=("k",)).labels(k="a").inc()
        assert registry.snapshot()["repro_x_total"]["series"][0]["value"] == 1.0


def test_process_default_registry_is_shared():
    assert get_registry() is get_registry()


def test_engine_phase_series_carry_the_attribution_ledger(fast_params):
    """One engine run adds one phase sample per ledger component."""
    from repro.core.policies import LBP1
    from repro.montecarlo.engine import EngineRequest, mc_point_spec, run_engine
    from repro.obs.history import ATTRIBUTION_KEYS

    def phases():
        family = get_registry().snapshot()["repro_engine_phase_seconds"]
        return {
            entry["labels"]["phase"]: (entry["count"], entry["sum"])
            for entry in family["series"]
        }

    before = phases()
    report = run_engine(
        EngineRequest(
            spec=mc_point_spec(fast_params, LBP1(0.5), (20, 5), 8, seed=3),
            executor="inline",
        )
    )
    observed = {}
    for phase, (count, total) in phases().items():
        prior_count, prior_total = before.get(phase, (0, 0.0))
        if count > prior_count:
            observed[phase] = (count - prior_count, total - prior_total)
    assert set(observed) == {key.removesuffix("_seconds") for key in ATTRIBUTION_KEYS}
    assert "execute" not in observed
    for key in ATTRIBUTION_KEYS:
        count, total = observed[key.removesuffix("_seconds")]
        assert count == 1
        assert total == pytest.approx(report.attribution[key], abs=1e-9)


class TestHistogramQuantile:
    def test_interpolates_within_a_bucket(self):
        # 10 observations spread evenly over [0, 1): the median sits at
        # the midpoint of the single covering bucket.
        value = histogram_quantile([1.0, "+Inf"], [10, 0], 0.5)
        assert value == pytest.approx(0.5)

    def test_multiple_buckets(self):
        # 5 obs in (0, 1], 5 in (1, 2]: p50 at the first boundary, p75
        # halfway through the second bucket.
        assert histogram_quantile([1.0, 2.0, "+Inf"], [5, 5, 0], 0.5) == 1.0
        assert histogram_quantile([1.0, 2.0, "+Inf"], [5, 5, 0], 0.75) == 1.5

    def test_inf_bucket_clamps_to_highest_finite_bound(self):
        value = histogram_quantile([1.0, "+Inf"], [1, 9], 0.99)
        assert value == 1.0

    def test_all_observations_in_inf_bucket_yield_none(self):
        assert histogram_quantile(["+Inf"], [5], 0.5) is None

    def test_empty_histogram_yields_none(self):
        assert histogram_quantile([1.0, "+Inf"], [0, 0], 0.5) is None

    def test_math_inf_bound_is_accepted(self):
        value = histogram_quantile([1.0, math.inf], [1, 9], 0.99)
        assert value == 1.0

    def test_quantile_out_of_range_raises(self):
        with pytest.raises(ValueError):
            histogram_quantile([1.0], [1], 1.5)
        with pytest.raises(ValueError):
            histogram_quantile([1.0], [1], -0.1)

    def test_family_quantile_reads_live_series(self, registry):
        hist = registry.histogram(
            "repro_q_seconds", "Q.", buckets=(0.1, 1.0, 10.0)
        )
        for value in (0.05, 0.05, 0.5, 5.0):
            hist.observe(value)
        p50 = hist.quantile(0.5)
        assert 0.1 <= p50 <= 1.0
        assert hist.quantile(0.95) > 1.0

    def test_family_quantile_respects_labels(self, registry):
        hist = registry.histogram(
            "repro_ql_seconds", "QL.", labelnames=("op",), buckets=(1.0, 10.0)
        )
        hist.labels(op="fast").observe(0.5)
        hist.labels(op="slow").observe(9.0)
        assert hist.quantile(0.5, op="fast") < 1.0
        assert hist.quantile(0.5, op="slow") > 1.0

    def test_quantile_on_non_histogram_raises(self, registry):
        gauge = registry.gauge("repro_q_depth", "D.")
        with pytest.raises(ValueError, match="no quantiles"):
            gauge.quantile(0.5)

    def test_quantile_on_empty_series_is_none(self, registry):
        hist = registry.histogram("repro_q_empty_seconds", "QE.")
        assert hist.quantile(0.5) is None
