"""Unit tests for :mod:`repro.telemetry`."""

import json

import numpy as np
import pytest

from repro.errors import TelemetryError
from repro.gpu.timeline import Timeline
from repro.gpu.trace_export import spans_to_trace_events, write_chrome_trace
from repro.telemetry import (
    MANIFEST_SCHEMA,
    MetricsRegistry,
    build_manifest,
    cache_section,
    deterministic_sections,
    get_registry,
    load_manifest,
    manifest_from_json,
    manifest_to_json,
    set_registry,
    use_registry,
    validate_manifest,
    write_manifest,
)


class TestCounters:
    def test_count_accumulates(self):
        reg = MetricsRegistry()
        reg.count("a.b", 3)
        reg.count("a.b", 2)
        assert reg.counter("a.b").value == 5

    def test_negative_increment_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(TelemetryError):
            reg.count("a.b", -1)

    def test_determinism_class_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.count("a.b", 1)
        with pytest.raises(TelemetryError):
            reg.count("a.b", 1, deterministic=False)


class TestHistograms:
    def test_fixed_edges_and_overflow_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", edges=(1, 10, 100))
        h.observe_many([0, 1, 5, 50, 500])
        assert h.counts == [2, 1, 1, 1]  # (..1], (1,10], (10,100], (100..)
        assert h.n == 5

    def test_edge_drift_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("h", edges=(1, 2))
        with pytest.raises(TelemetryError):
            reg.histogram("h", edges=(1, 3))

    def test_unsorted_edges_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(TelemetryError):
            reg.histogram("h", edges=(5, 1))

    def test_observe_many_matches_observe(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        values = np.arange(0, 50, 3)
        ha = a.histogram("h", edges=(5, 20, 40))
        hb = b.histogram("h", edges=(5, 20, 40))
        ha.observe_many(values)
        for v in values:
            hb.observe(v)
        assert ha.counts == hb.counts


class TestSpans:
    def test_nesting_records_parent(self):
        reg = MetricsRegistry()
        with reg.span("outer"):
            with reg.span("inner", step=1):
                pass
        assert [s.name for s in reg.spans] == ["outer", "inner"]
        assert reg.spans[0].parent is None
        assert reg.spans[1].parent == 0
        assert reg.spans[1].attrs == {"step": 1}

    def test_span_folds_into_timers(self):
        reg = MetricsRegistry()
        with reg.span("stage"):
            pass
        total, count = reg.timers["stage"]
        assert count == 1
        assert total >= 0.0

    def test_sibling_spans_share_parent(self):
        reg = MetricsRegistry()
        with reg.span("outer"):
            with reg.span("a"):
                pass
            with reg.span("b"):
                pass
        assert reg.spans[1].parent == 0
        assert reg.spans[2].parent == 0


class TestMerge:
    def make(self):
        reg = MetricsRegistry()
        reg.count("c", 10)
        reg.count("ops", 2, deterministic=False)
        reg.histogram("h", edges=(1, 5)).observe_many([0, 3, 9])
        reg.gauge("g").set_max(7.0)
        reg.add_time("t", 0.5)
        with reg.span("s"):
            pass
        return reg

    def test_merge_adds_counters_and_buckets(self):
        a, b = self.make(), self.make()
        a.merge(b, worker=1)
        assert a.counter("c").value == 20
        assert a.counters["ops"].value == 4
        assert a.histograms["h"].counts == [2, 2, 2]
        assert a.histograms["h"].n == 6

    def test_merge_gauges_by_max_and_timers_by_sum(self):
        a, b = self.make(), self.make()
        b.gauge("g").set_max(11.0)
        a.merge(b, worker=1)
        assert a.gauges["g"].value == 11.0
        assert a.timers["t"] == [1.0, 2]

    def test_merge_tags_and_reindexes_spans(self):
        a, b = self.make(), self.make()
        with b.span("outer"):
            with b.span("inner"):
                pass
        a.merge(b, worker=3)
        merged = a.spans[1:]  # a's own span is index 0
        assert all(s.worker == 3 for s in merged)
        inner = next(s for s in merged if s.name == "inner")
        assert a.spans[inner.parent].name == "outer"

    def test_merge_is_order_sensitive_only_for_spans(self):
        """Counters/histograms commute; the task-order rule is about
        reproducing one canonical order, not about non-commutativity."""
        x, y = self.make(), self.make()
        y.count("c", 5)
        ab, ba = MetricsRegistry(), MetricsRegistry()
        ab.merge(x), ab.merge(y)
        ba.merge(y), ba.merge(x)
        assert ab.counter("c").value == ba.counter("c").value == 25


class TestRegistryInjection:
    def test_use_registry_scopes_and_restores(self):
        before = get_registry()
        mine = MetricsRegistry()
        with use_registry(mine):
            assert get_registry() is mine
            get_registry().count("x", 1)
        assert get_registry() is before
        assert mine.counter("x").value == 1

    def test_set_registry_returns_previous(self):
        before = get_registry()
        mine = MetricsRegistry()
        prev = set_registry(mine)
        try:
            assert prev is before
            assert get_registry() is mine
        finally:
            set_registry(before)


class TestManifest:
    def make_doc(self):
        reg = MetricsRegistry()
        reg.count("c", 4)
        reg.count("o", 1, deterministic=False)
        reg.histogram("h", edges=(1,)).observe(0)
        with reg.span("s"):
            pass
        return build_manifest(reg, meta={"command": "test"})

    def test_round_trip(self):
        doc = self.make_doc()
        again = manifest_from_json(manifest_to_json(doc))
        assert again == doc
        assert again["schema"] == MANIFEST_SCHEMA

    def test_write_and_load(self, tmp_path):
        reg = MetricsRegistry()
        reg.count("c", 4)
        path = tmp_path / "run.json"
        written = write_manifest(path, reg, meta={"k": "v"})
        loaded = load_manifest(path)
        assert loaded == written
        assert loaded["meta"] == {"k": "v"}

    def test_missing_key_rejected(self):
        doc = self.make_doc()
        del doc["counters"]
        with pytest.raises(TelemetryError, match="missing keys"):
            validate_manifest(doc)

    def test_unknown_schema_rejected(self):
        doc = self.make_doc()
        doc["schema"] = "something/2"
        with pytest.raises(TelemetryError, match="schema"):
            validate_manifest(doc)

    def test_float_counter_rejected(self):
        doc = self.make_doc()
        doc["counters"]["c"] = 1.5
        with pytest.raises(TelemetryError, match="int"):
            validate_manifest(doc)

    def test_histogram_bucket_mismatch_rejected(self):
        doc = self.make_doc()
        doc["histograms"]["h"]["counts"] = [1]
        with pytest.raises(TelemetryError, match="buckets"):
            validate_manifest(doc)

    def test_bad_span_parent_rejected(self):
        doc = self.make_doc()
        doc["spans"][0]["parent"] = 5
        with pytest.raises(TelemetryError, match="parent"):
            validate_manifest(doc)

    def test_bad_json_rejected(self):
        with pytest.raises(TelemetryError, match="JSON"):
            manifest_from_json("{not json")

    def test_deterministic_sections_subset(self):
        doc = self.make_doc()
        det = deterministic_sections(doc)
        assert set(det) == {"counters", "histograms"}
        assert "o" not in det["counters"]

    def test_cache_section_layout(self, tmp_path):
        from repro.store import ArtifactStore

        assert cache_section(None, {"tracking": (True, "sha256:t")}) is None
        store = ArtifactStore(tmp_path / "st")
        section = cache_section(
            store, {"tracking": (True, "sha256:t"), "connectome": (False, None)}
        )
        assert section == {
            "tracking_hit": True,
            "connectome_hit": False,
            "stage_keys": {"tracking": "sha256:t"},
            "store": str(store.root),
            **store.stats.to_dict(),
        }


class TestTraceSpanExport:
    def test_spans_land_on_measured_rows(self, tmp_path):
        tl = Timeline()
        tl.add("kernel", "seg0", 0.5)
        reg = MetricsRegistry()
        with reg.span("outer"):
            with reg.span("inner"):
                pass
        reg.spans[1].worker = 2
        path = tmp_path / "trace.json"
        write_chrome_trace(path, tl, spans=reg.spans)
        doc = json.loads(path.read_text())
        rows = {
            e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"
        }
        assert {"measured:main", "measured:worker2"} <= rows
        measured = [e for e in doc["traceEvents"] if e.get("cat") == "measured"]
        assert {e["name"] for e in measured} == {"outer", "inner"}

    def test_dict_spans_accepted(self):
        reg = MetricsRegistry()
        with reg.span("s", foo="bar"):
            pass
        events = spans_to_trace_events(reg.snapshot()["spans"])
        assert events[0]["name"] == "s"
        assert events[0]["args"]["foo"] == "bar"
        assert events[0]["ts"] == 0.0  # rebased to the earliest span

    def test_no_spans_no_measured_rows(self, tmp_path):
        tl = Timeline()
        tl.add("kernel", "seg0", 0.5)
        path = tmp_path / "trace.json"
        write_chrome_trace(path, tl)
        doc = json.loads(path.read_text())
        assert not [e for e in doc["traceEvents"] if e.get("cat") == "measured"]

