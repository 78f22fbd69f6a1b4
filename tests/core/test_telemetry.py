"""MetricsRegistry, spans, and Prometheus exposition."""

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Journal, MetricsRegistry, parse_prometheus, snapshot_to_prometheus
from repro.core.records import Observation
from repro.core.telemetry import SIZE_BUCKETS
from repro.core.wire import COUNTER_SCHEMA


class TestCounters:
    def test_increments_accumulate(self):
        registry = MetricsRegistry()
        counter = registry.counter("test_total", "help")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("test_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_reregistration_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("test_total")
        first.inc()
        assert registry.counter("test_total") is first

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("test_metric")
        with pytest.raises(ValueError):
            registry.gauge("test_metric")

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("bad name!")

    def test_concurrent_increments_lose_nothing(self):
        counter = MetricsRegistry().counter("test_total")
        per_thread = 5000

        def worker():
            for _ in range(per_thread):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8 * per_thread


class TestGauges:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("test_gauge")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12

    def test_callback_gauge_reads_live(self):
        items = [1, 2, 3]
        gauge = MetricsRegistry().gauge("test_size", callback=lambda: len(items))
        assert gauge.value == 3
        items.append(4)
        assert gauge.value == 4


class TestHistograms:
    def test_observe_and_summary(self):
        histogram = MetricsRegistry().histogram("test_seconds")
        for value in (0.001, 0.002, 0.003, 0.004):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram._sole().sum == pytest.approx(0.01)
        assert histogram._sole().mean == pytest.approx(0.0025)

    def test_cumulative_is_monotone_and_ends_at_count(self):
        histogram = MetricsRegistry().histogram("test_seconds")
        for value in (0.0001, 0.05, 99.0):  # including beyond the last bound
            histogram.observe(value)
        cumulative = histogram._sole().cumulative()
        totals = [total for _bound, total in cumulative]
        assert totals == sorted(totals)
        assert totals[-1] == 3
        assert cumulative[-1][0] == float("inf")

    def test_percentiles_interpolate_within_bucket(self):
        histogram = MetricsRegistry().histogram(
            "test_sizes", buckets=(10, 20, float("inf"))
        )
        for _ in range(100):
            histogram.observe(15)  # all in the (10, 20] bucket
        p50 = histogram.percentile(50)
        assert 10 < p50 <= 20

    def test_empty_histogram_percentile_is_zero(self):
        histogram = MetricsRegistry().histogram("test_seconds")
        assert histogram.percentile(99) == 0.0

    def test_time_context_manager_observes(self):
        histogram = MetricsRegistry().histogram("test_seconds")
        with histogram.time():
            pass
        assert histogram.count == 1

    def test_disabled_registry_skips_histograms_not_counters(self):
        registry = MetricsRegistry(enabled=False)
        histogram = registry.histogram("test_seconds")
        counter = registry.counter("test_total")
        histogram.observe(1.0)
        counter.inc()
        assert histogram.count == 0
        assert counter.value == 1


class TestLabels:
    def test_children_created_on_demand(self):
        family = MetricsRegistry().counter("test_total", labels=("op",))
        family.labels(op="a").inc()
        family.labels(op="a").inc()
        family.labels(op="b").inc()
        assert family.labels(op="a").value == 2
        assert family.labels(op="b").value == 1

    def test_wrong_label_names_rejected(self):
        family = MetricsRegistry().counter("test_total", labels=("op",))
        with pytest.raises(ValueError):
            family.labels(mode="a")

    def test_unlabelled_proxy_on_labelled_family_rejected(self):
        family = MetricsRegistry().counter("test_total", labels=("op",))
        with pytest.raises(ValueError):
            family.inc()


class TestSpans:
    def test_nesting_links_parent_and_trace(self):
        registry = MetricsRegistry()
        with registry.trace("outer"):
            with registry.trace("inner", detail="x"):
                pass
        inner, outer = sorted(registry.spans(), key=lambda s: s.name)
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == outer.trace_id == outer.span_id
        assert inner.tags == {"detail": "x"}
        assert outer.duration >= inner.duration

    def test_exception_marks_error_and_propagates(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with registry.trace("boom"):
                raise RuntimeError("kaput")
        (span,) = registry.spans()
        assert span.status == "error"
        assert "kaput" in span.error

    def test_disabled_registry_yields_null_span(self):
        registry = MetricsRegistry(enabled=False)
        with registry.trace("quiet") as span:
            span.set_tag("ignored", 1)  # must not explode
        assert registry.spans() == []

    def test_ring_never_exceeds_bound_under_concurrent_tracing(self):
        capacity = 64
        registry = MetricsRegistry(span_capacity=capacity)
        per_thread = 200

        def worker():
            for index in range(per_thread):
                with registry.trace("work", index=index):
                    pass

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(registry.spans()) <= capacity
        assert registry.spans_recorded == 8 * per_thread
        assert registry.spans_dropped == 8 * per_thread - capacity

    def test_snapshot_is_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("test_total").inc()
        registry.histogram("test_seconds").observe(0.01)
        with registry.trace("op"):
            pass
        encoded = json.dumps(registry.snapshot())
        decoded = json.loads(encoded)
        assert decoded["spans"]["recorded"] == 1


_METRIC_NAMES = st.from_regex(r"[a-z][a-z0-9_]{0,20}", fullmatch=True)
_LABEL_VALUES = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\r"),
    max_size=12,
)


class TestPrometheusExposition:
    @settings(max_examples=50, deadline=None)
    @given(
        counters=st.dictionaries(_METRIC_NAMES, st.integers(0, 10**9), max_size=6),
        label_value=_LABEL_VALUES,
    )
    def test_render_parse_round_trip(self, counters, label_value):
        registry = MetricsRegistry()
        for name, value in counters.items():
            family = registry.counter(f"rt_{name}_total")
            if value:
                family.inc(value)
        labelled = registry.counter("rtl_by_op_total", labels=("op",))
        labelled.labels(op=label_value).inc(3)
        parsed = parse_prometheus(registry.render_prometheus())
        for name, value in counters.items():
            assert parsed[(f"rt_{name}_total", ())] == value
        assert parsed[("rtl_by_op_total", (("op", label_value),))] == 3

    @settings(max_examples=25, deadline=None)
    @given(increments=st.lists(st.integers(1, 1000), min_size=1, max_size=20))
    def test_counters_monotone_across_snapshots(self, increments):
        registry = MetricsRegistry()
        counter = registry.counter("mono_total")
        previous = 0.0
        for amount in increments:
            counter.inc(amount)
            parsed = parse_prometheus(registry.render_prometheus())
            current = parsed[("mono_total", ())]
            assert current >= previous
            previous = current
        assert previous == sum(increments)

    @settings(max_examples=25, deadline=None)
    @given(values=st.lists(st.floats(0, 2000), min_size=1, max_size=50))
    def test_histogram_exposition_invariants(self, values):
        registry = MetricsRegistry()
        histogram = registry.histogram("rt_sizes", buckets=SIZE_BUCKETS)
        for value in values:
            histogram.observe(value)
        parsed = parse_prometheus(registry.render_prometheus())
        assert parsed[("rt_sizes_count", ())] == len(values)
        assert parsed[("rt_sizes_sum", ())] == pytest.approx(sum(values))
        # the +Inf bucket is cumulative over everything ever observed
        assert parsed[("rt_sizes_bucket", (("le", "+Inf"),))] == len(values)

    def test_help_and_type_lead_each_family_of_the_one_renderer(self):
        registry = MetricsRegistry()
        registry.counter("doc_total", "Line one\nback\\slash").inc()
        registry.histogram("doc_seconds", "Latency")
        with registry.trace("op"):
            pass
        text = registry.render_prometheus()
        assert (
            "# HELP doc_total Line one\\nback\\\\slash\n"
            "# TYPE doc_total counter\n"
            "doc_total 1\n"
        ) in text
        assert "# HELP doc_seconds Latency\n# TYPE doc_seconds histogram\n" in text
        # The exposition renders the registry's snapshot, which carries
        # no spans when asked for none.
        assert registry.snapshot(spans=0)["spans"]["recent"] == []
        assert snapshot_to_prometheus(registry.snapshot()) == text


class TestJournalCountsEquivalence:
    """``Journal.counts()`` is a shim over the registry: every counter it
    reports must equal the registry's own value for that metric."""

    def _busy_journal(self) -> Journal:
        journal = Journal(clock=lambda: 100.0)
        for index in range(5):
            journal.observe_interface(
                Observation(
                    source="t", ip=f"10.0.0.{index}", mac=f"aa:00:00:00:00:0{index}"
                )
            )
        journal.negative_put("ip", "10.9.9.9", ttl=5.0)
        journal.ensure_subnet("10.0.0.0/24", source="t")
        journal.flush()
        return journal

    def test_counts_match_registry_snapshot(self):
        journal = self._busy_journal()
        counts = journal.counts()
        for key, metric_name in COUNTER_SCHEMA.items():
            if key not in counts:
                continue
            family = journal.telemetry.get(metric_name)
            assert family is not None, metric_name
            assert counts[key] == int(family.value), key

    def test_legacy_alias_keys_are_gone(self):
        # The one-release compat spellings were dropped with the alias
        # table itself; only canonical COUNTER_SCHEMA keys remain.
        from repro.core import wire

        counts = self._busy_journal().counts()
        for legacy in ("checkpoints_written", "recovered_records", "torn_tail_dropped"):
            assert legacy not in counts
        assert not hasattr(wire, "COUNTER_ALIASES")

    def test_prometheus_covers_every_counts_metric(self):
        journal = self._busy_journal()
        parsed = parse_prometheus(journal.telemetry.render_prometheus())
        exposed = {name for name, _labels in parsed}
        for key, metric_name in COUNTER_SCHEMA.items():
            gauge_like = not metric_name.endswith("_total")
            assert metric_name in exposed, f"{key} -> {metric_name} not exposed"
            assert gauge_like or metric_name.endswith("_total")
