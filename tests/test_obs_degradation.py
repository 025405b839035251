"""Graceful degradation of the obs/profile reports on absent artefacts.

An uninstrumented or interrupted campaign leaves no trace, metrics, or
span files behind.  The section renderers must say "not captured" for
every such combination — a missing artefact is a fact to report, not an
error to raise.  A present-but-corrupt file still raises: that is
corruption, and silently skipping it would hide real damage.
"""

import json

import pytest

from repro.analysis.obs_report import (
    load_snapshot,
    load_trace_meta,
    render_metrics_section,
    render_trace_section,
)
from repro.analysis.profile_report import (
    NOT_CAPTURED_PROFILE,
    load_spans,
    main as profile_main,
    render_profile_section,
)
from repro.obs import MetricsRegistry, Recorder


def _metrics_file(path):
    registry = MetricsRegistry()
    registry.counter("browser_visits_total", outcome="ok")
    registry.gauge("crawl_duration_seconds", 10.0)
    registry.snapshot().save(path)
    return path


def _span_file(path):
    recorder = Recorder()
    recorder.enter("campaign", at=0.0)
    recorder.enter("visit", at=1.0, domain="a.com")
    recorder.exit(at=3.0)
    recorder.exit(at=5.0)
    recorder.write(spans=path)
    return path


def _trace_file(path):
    recorder = Recorder()
    recorder.event("visit-started", at=1)
    recorder.write(trace=path)
    return path


class TestMetricsSection:
    @pytest.mark.parametrize("case", ["none", "missing", "empty"])
    def test_absent_snapshot_is_none(self, tmp_path, case):
        if case == "none":
            path = None
        elif case == "missing":
            path = tmp_path / "metrics.json"
        else:
            path = tmp_path / "metrics.json"
            path.write_text("")
        assert load_snapshot(path) is None

    def test_absent_renders_not_captured(self):
        section = render_metrics_section(None)
        assert "not captured" in section
        assert "--metrics-out" in section

    def test_corrupt_snapshot_still_raises(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text("{not json")
        with pytest.raises(json.JSONDecodeError):
            load_snapshot(path)

    def test_present_snapshot_renders_report(self, tmp_path):
        snapshot = load_snapshot(_metrics_file(tmp_path / "metrics.json"))
        section = render_metrics_section(snapshot)
        assert "Campaign metrics" in section
        assert "not captured" not in section


class TestTraceSection:
    @pytest.mark.parametrize("case", ["none", "missing", "empty"])
    def test_absent_trace(self, tmp_path, case):
        if case == "none":
            path = None
        elif case == "missing":
            path = tmp_path / "trace.jsonl"
        else:
            path = tmp_path / "trace.jsonl"
            path.write_text("")
        captured, meta = load_trace_meta(path)
        assert captured is False and meta is None
        assert "not captured" in render_trace_section(path)

    def test_present_trace_renders_health(self, tmp_path):
        path = _trace_file(tmp_path / "trace.jsonl")
        section = render_trace_section(path)
        assert "complete" in section
        assert "not captured" not in section


class TestProfileSection:
    @pytest.mark.parametrize("case", ["none", "missing", "empty"])
    def test_absent_spans(self, tmp_path, case):
        if case == "none":
            path = None
        elif case == "missing":
            path = tmp_path / "spans.jsonl"
        else:
            path = tmp_path / "spans.jsonl"
            path.write_text("")
        spans, meta = load_spans(path)
        assert spans is None and meta is None

    def test_absent_renders_not_captured(self):
        assert render_profile_section(None) == NOT_CAPTURED_PROFILE
        assert render_profile_section([]) == NOT_CAPTURED_PROFILE

    def test_present_spans_render_profile(self, tmp_path):
        spans, meta = load_spans(_span_file(tmp_path / "spans.jsonl"))
        assert spans and meta is not None
        section = render_profile_section(spans)
        assert "Campaign profile" in section
        assert "not captured" not in section

    def test_cli_tolerates_missing_file(self, capsys, tmp_path):
        assert profile_main([str(tmp_path / "nope.jsonl")]) == 0
        assert "not captured" in capsys.readouterr().out

    def test_cli_renders_present_file(self, capsys, tmp_path):
        path = _span_file(tmp_path / "spans.jsonl")
        assert profile_main([str(path)]) == 0
        assert "Campaign profile" in capsys.readouterr().out


class TestEveryAbsentCombination:
    """All eight (trace, metrics, spans) presence combinations render."""

    @pytest.mark.parametrize("with_trace", [False, True])
    @pytest.mark.parametrize("with_metrics", [False, True])
    @pytest.mark.parametrize("with_spans", [False, True])
    def test_sections_never_raise(
        self, tmp_path, with_trace, with_metrics, with_spans
    ):
        trace = _trace_file(tmp_path / "t.jsonl") if with_trace else None
        metrics = _metrics_file(tmp_path / "m.json") if with_metrics else None
        spans = _span_file(tmp_path / "s.jsonl") if with_spans else None

        trace_section = render_trace_section(trace)
        metrics_section = render_metrics_section(load_snapshot(metrics))
        span_list, _ = load_spans(spans)
        profile_section = render_profile_section(span_list)

        assert ("not captured" in trace_section) is not with_trace
        assert ("not captured" in metrics_section) is not with_metrics
        assert ("not captured" in profile_section) is not with_spans
