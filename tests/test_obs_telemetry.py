"""The one telemetry handle, and the fail-closed telemetry readers."""

import json
import pickle

import pytest

from repro.obs import (
    EventKind,
    MetricsRegistry,
    MetricsSnapshot,
    Recorder,
    Telemetry,
    TelemetryExport,
    read_span_meta,
    read_spans,
    read_trace,
    read_trace_meta,
)
from repro.util.codec import FormatError


def _live() -> Telemetry:
    return Telemetry(Recorder(), MetricsRegistry())


class TestTelemetry:
    def test_off_is_every_handle_disabled(self):
        off = Telemetry.OFF
        assert not (off.recorder.enabled or off.metrics.enabled)
        assert Telemetry() == off

    def test_child_is_live_where_the_parent_is(self):
        child = Telemetry(metrics=MetricsRegistry()).child(0)
        assert child.metrics.enabled
        assert not child.recorder.enabled

    def test_child_handles_are_fresh(self):
        parent = _live()
        parent.recorder.event(EventKind.VISIT_STARTED, at=0)
        child = parent.child(1)
        assert child.recorder is not parent.recorder
        assert child.recorder.events() == []
        assert child.metrics is not parent.metrics

    def test_child_tags_spans_and_reports_them(self):
        child = _live().child(3)
        child.recorder.record("visit", 0.0, 1.0)
        (span,) = child.recorder.spans()
        assert span.fields == {"shard": 3}
        assert child.export().recorder.spans() == [span]

    def test_off_exports_nothing(self):
        assert Telemetry.OFF.export() == TelemetryExport()

    def test_child_export_pickles_round_trip(self):
        child = _live().child(2)
        child.recorder.event(EventKind.VISIT_STARTED, at=5, domain="a.com")
        child.metrics.counter("visits", outcome="ok")
        child.metrics.observe("visit_seconds", 2)
        child.recorder.enter("shard", at=0.0)
        child.recorder.record("visit", 0.0, 2.0, domain="a.com")
        child.recorder.exit(at=2.0)
        exported = child.export()
        rebuilt = pickle.loads(pickle.dumps(exported))
        assert rebuilt.metrics == exported.metrics
        assert rebuilt.recorder.held() == exported.recorder.held()
        recorder = rebuilt.recorder
        assert [event.fields for event in recorder.events()] == [{"domain": "a.com"}]
        assert rebuilt.metrics.counter_value("visits", outcome="ok") == 1
        assert {span.fields["shard"] for span in recorder.spans()} == {2}

    def test_listener_free_child_pickles(self):
        stand_in = _live().child()
        rebuilt = pickle.loads(pickle.dumps(stand_in))
        assert rebuilt.child(0).recorder.enabled


def _trace_file(tmp_path):
    recorder = Recorder()
    recorder.event(EventKind.VISIT_STARTED, at=1, domain="a.com")
    recorder.event(EventKind.VISIT_FINISHED, at=2, domain="a.com", ok=True)
    path = tmp_path / "trace.jsonl"
    recorder.write(trace=path)
    return path


def _span_file(tmp_path):
    recorder = Recorder()
    recorder.record("visit", 0.0, 1.0)
    path = tmp_path / "spans.jsonl"
    recorder.write(spans=path)
    return path


def _append(path, line):
    with path.open("a", encoding="utf-8") as handle:
        handle.write(line + "\n")


def _histogram(**fields) -> str:
    """A metrics file of one valid histogram, with ``fields`` replaced."""
    entry = {
        "name": "h", "labels": {}, "bounds": [1, 2], "bucket_counts": [1, 0, 0],
        "count": 1, "total": 0.5, "min": 0.5, "max": 0.5,
    }
    return json.dumps({"histograms": [{**entry, **fields}]})


class TestFailClosedReaders:
    @pytest.mark.parametrize(
        "line, reason",
        [
            ('{"seq": 9, "at"', "malformed JSON"),
            ("[1, 2]", "expected a JSON object"),
            ('{"seq": 9, "kind": "x"}', "missing field 'at'"),
            ('{"seq": "9", "at": 3, "kind": "x"}', "wrong type"),
        ],
        ids=["truncated", "array", "missing-field", "wrong-type"],
    )
    def test_trace_names_file_and_line(self, tmp_path, line, reason):
        path = _trace_file(tmp_path)
        _append(path, line)
        with pytest.raises(FormatError, match=reason) as caught:
            read_trace(path)
        assert (caught.value.path, caught.value.line) == (str(path), 4)
        assert str(caught.value).startswith(f"{path}:4: ")

    def test_trace_meta_must_hold_integers(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"meta": {"emitted": "many", "dropped": 0, "capacity": 1}}\n')
        with pytest.raises(FormatError, match="'emitted'") as caught:
            read_trace_meta(path)
        assert caught.value.line == 1

    def test_non_utf8_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(b'{"seq": 0, "at": 0, "kind": "\xff"}\n')
        with pytest.raises(FormatError, match="not UTF-8"):
            read_trace(path)

    @pytest.mark.parametrize(
        "line",
        [
            '{"span_id": 4, "parent_id"',
            '{"span_id": "4", "parent_id": null, "name": "v", "start": 0, "end": 1}',
            '{"span_id": 4, "parent_id": null, "name": "v", "start": 0}',
        ],
        ids=["truncated", "wrong-type", "missing-field"],
    )
    def test_spans_name_file_and_line(self, tmp_path, line):
        path = _span_file(tmp_path)
        _append(path, line)
        with pytest.raises(FormatError) as caught:
            read_spans(path)
        assert (caught.value.path, caught.value.line) == (str(path), 3)

    def test_span_meta_missing_field(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        path.write_text('{"meta": {"recorded": 1, "dropped": 0}}\n')
        with pytest.raises(FormatError, match="'capacity'"):
            read_span_meta(path)

    @pytest.mark.parametrize(
        "payload, reason",
        [
            ('{"counters": [', "malformed JSON"),
            ("[]", "expected a JSON object"),
            ('{"counters": [{"name": "x"}]}', "missing field 'labels'"),
            ('{"gauges": [{"name": "x", "labels": {}, "value": "high"}]}',
             "wrong type"),
            ('{"counters": [{"name": "x", "labels": {}, "value": "12"}]}',
             "field 'value' has the wrong type"),
            ('{"counters": [{"name": "x", "labels": {"a": 1}, "value": 1.0}]}',
             "label value is not a string"),
            ('{"counters": 5}', "field 'counters' has the wrong type"),
            ('{"totals": []}', "unexpected field 'totals'"),
            (_histogram(bounds="ab"), "field 'bounds' has the wrong type"),
            (_histogram(bounds=["1"]), "'bounds' holds a non-number"),
            (_histogram(count="z"), "field 'count' has the wrong type"),
            (_histogram(total=None), "field 'total' has the wrong type"),
            (_histogram(bucket_counts=[1]), "not one count per bucket"),
        ],
        ids=[
            "truncated", "array", "missing-field", "bad-value", "string-value",
            "int-label", "counters-number", "unknown-section", "string-bounds",
            "string-bound", "string-count", "null-total", "short-buckets",
        ],
    )
    def test_metrics_name_the_file(self, tmp_path, payload, reason):
        path = tmp_path / "metrics.json"
        path.write_text(payload)
        with pytest.raises(FormatError, match=reason) as caught:
            MetricsSnapshot.load(path)
        assert caught.value.path == str(path)

    def test_format_error_is_a_decode_error_and_pickles(self):
        assert issubclass(FormatError, json.JSONDecodeError)
        error = FormatError("trace.jsonl", 3, "bad")
        copy = pickle.loads(pickle.dumps(error))
        assert (copy.path, copy.line, copy.reason) == ("trace.jsonl", 3, "bad")
        assert str(copy) == "trace.jsonl:3: bad"

    def test_intact_files_still_load(self, tmp_path):
        assert len(read_trace(_trace_file(tmp_path))) == 2
        assert len(read_spans(_span_file(tmp_path))) == 1
        registry = MetricsRegistry()
        registry.counter("visits")
        registry.snapshot().save(tmp_path / "metrics.json")
        loaded = MetricsSnapshot.load(tmp_path / "metrics.json")
        assert loaded.counter_value("visits") == 1
        assert json.loads(loaded.to_json())["counters"][0]["name"] == "visits"
