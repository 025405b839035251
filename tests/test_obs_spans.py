"""Unit tests for the span layer: recorder, profiler, progress tracker."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.profile_report import profile_spans, render_profile
from repro.obs import (
    NULL_RECORDER,
    NullRecorder,
    ProgressTracker,
    Recorder,
    build_profile,
    critical_path,
    read_span_meta,
    read_spans,
    stage_breakdown,
    straggler_report,
)
from repro.obs.profile import (
    REASON_BALANCED,
    REASON_RETRIES,
    REASON_SLICE,
    observe_stage_histograms,
    slow_visits,
)
from repro.obs.spans import (
    SPAN_NAVIGATE,
    SPAN_SHARD,
    SPAN_VISIT,
    iter_span_tree,
)
from repro.obs.metrics import MetricsRegistry
from repro.crawler.campaign import CrawlReport


class TestSpanRecorder:
    """The span side of the recorder: nesting, its ring and its files."""

    def test_enter_exit_builds_parent_child_links(self):
        rec = Recorder()
        root = rec.enter("campaign", at=0.0)
        child = rec.enter("visit", at=1.0, domain="a.com")
        rec.exit(at=3.0, ok=True)
        rec.exit(at=5.0)
        spans = {s.name: s for s in rec.spans()}
        assert spans["visit"].parent_id == root
        assert spans["visit"].span_id == child
        assert spans["campaign"].parent_id is None
        assert spans["visit"].fields == {"domain": "a.com", "ok": True}
        assert spans["visit"].duration == 2.0

    def test_record_leaf_nests_under_open_span(self):
        rec = Recorder()
        visit = rec.enter("visit", at=0.0)
        leaf_id = rec.record(SPAN_NAVIGATE, 0.0, 1.5, domain="a.com")
        rec.exit(at=2.0)
        (leaf,) = rec.spans(SPAN_NAVIGATE)
        assert leaf.span_id == leaf_id
        assert leaf.parent_id == visit
        assert leaf.duration == 1.5

    def test_exit_without_enter_raises(self):
        with pytest.raises(RuntimeError):
            Recorder().exit(at=1.0)

    def test_common_fields_tag_every_span(self):
        rec = Recorder(shard=2)
        rec.enter("shard", at=0.0)
        rec.record("visit", 0.0, 1.0, domain="a.com")
        rec.exit(at=1.0)
        assert all(s.fields["shard"] == 2 for s in rec.spans())

    def test_ring_buffer_drops_oldest_and_counts(self):
        rec = Recorder(span_capacity=3)
        for index in range(7):
            rec.record("visit", index, index + 1)
        assert len(rec.spans()) == 3
        meta = rec.span_meta()
        assert (meta.recorded, meta.dropped, meta.capacity) == (7, 4, 3)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Recorder(span_capacity=0)

    def test_adopt_remaps_ids(self):
        shard = Recorder(shard=0)
        shard.enter("shard", at=0.0)
        shard.record("visit", 0.0, 1.0, domain="a.com")
        shard.exit(at=1.0)

        parent = Recorder()
        campaign = parent.enter("campaign", at=0.0)
        parent.fold([(0, shard, CrawlReport(finished_at=1))])
        parent.exit(at=1.0)
        adopted = {s.name: s for s in parent.spans()}
        assert adopted["shard"].parent_id == campaign
        assert adopted["visit"].parent_id == adopted["shard"].span_id
        assert adopted["visit"].fields == {"shard": 0, "domain": "a.com"}

    def test_jsonl_round_trip_with_meta(self, tmp_path):
        rec = Recorder()
        rec.enter("campaign", at=0.0, targets=2)
        rec.record("visit", 0.0, 1.0, domain="a.com")
        rec.exit(at=1.0)
        path = tmp_path / "spans.jsonl"
        rec.write(spans=path)
        spans = read_spans(path)
        assert spans == sorted(rec.spans(), key=lambda s: (s.start, s.span_id))
        meta = read_span_meta(path)
        assert (meta.recorded, meta.dropped) == (2, 0)

    def test_chrome_trace_is_valid_and_balanced(self, tmp_path):
        rec = Recorder()
        rec.enter("campaign", at=0.0)
        rec.enter("visit", at=0.0, shard=1)
        rec.record("navigate", 0.0, 1.0, shard=1)
        rec.exit(at=1.0)
        rec.exit(at=1.0)
        path = tmp_path / "trace.json"
        rec.write(chrome=path)
        data = json.loads(path.read_text())
        events = data["traceEvents"]
        assert events
        stacks = {}
        for event in events:
            assert event["ph"] in ("B", "E")
            assert "ts" in event and "name" in event
            stack = stacks.setdefault((event["pid"], event["tid"]), [])
            if event["ph"] == "B":
                stack.append(event["name"])
            else:
                assert stack and stack[-1] == event["name"]
                stack.pop()
        assert all(not stack for stack in stacks.values())
        # shard-tagged spans land on their own thread.
        assert {tid for _, tid in stacks} == {0, 2}

    def test_null_recorder_is_inert(self):
        assert NULL_RECORDER.enabled is False
        assert NULL_RECORDER.enter("visit", at=0.0) == -1
        assert NULL_RECORDER.exit(at=1.0) is None
        NULL_RECORDER.record("visit", 0.0, 1.0)
        assert NULL_RECORDER.spans() == []
        assert isinstance(NULL_RECORDER, NullRecorder)


def _shard_tree(
    rec: Recorder,
    shard: int,
    start: float,
    visit_durations: list[float],
    retries: int = 0,
) -> None:
    rec.enter(SPAN_SHARD, at=start, shard=shard)
    cursor = start
    for duration in visit_durations:
        rec.enter(SPAN_VISIT, at=cursor, shard=shard, domain=f"s{shard}.com")
        rec.record(SPAN_NAVIGATE, cursor, cursor + duration, shard=shard)
        cursor += duration
        rec.exit(at=cursor)
    for attempt in range(retries):
        rec.record("retry", cursor, cursor, shard=shard, attempt=attempt + 1)
    rec.exit(at=cursor)


class TestProfiler:
    def test_stage_breakdown_orders_by_total(self):
        rec = Recorder()
        _shard_tree(rec, 0, 0.0, [2.0, 1.0])
        stats = {s.name: s for s in stage_breakdown(rec.spans())}
        assert stats["visit"].count == 2
        assert stats["visit"].total == 3.0
        assert stats["visit"].p50 == pytest.approx(1.5)
        assert stats["visit"].max == 2.0
        totals = [s.total for s in stage_breakdown(rec.spans())]
        assert totals == sorted(totals, reverse=True)

    def test_critical_path_descends_into_latest_child(self):
        rec = Recorder()
        _shard_tree(rec, 0, 0.0, [1.0, 2.0])
        path = critical_path(rec.spans())
        assert [s.name for s in path] == ["shard", "visit", "navigate"]
        assert path[-1].end == 3.0

    def test_straggler_named_by_finish_time(self):
        rec = Recorder()
        _shard_tree(rec, 0, 0.0, [1.0, 1.0])
        _shard_tree(rec, 1, 0.0, [1.0, 1.0, 1.0, 1.0])
        report = straggler_report(rec.spans())
        assert report.straggler.shard == 1
        assert report.straggler.finished_at == 4.0
        assert report.reason == REASON_SLICE

    def test_straggler_blamed_on_retries(self):
        rec = Recorder()
        _shard_tree(rec, 0, 0.0, [1.0, 1.0])
        _shard_tree(rec, 1, 0.0, [1.0, 1.0, 0.5], retries=3)
        report = straggler_report(rec.spans())
        assert report.straggler.shard == 1
        assert report.reason == REASON_RETRIES

    def test_balanced_shards(self):
        rec = Recorder()
        _shard_tree(rec, 0, 0.0, [1.0, 1.0])
        _shard_tree(rec, 1, 0.0, [1.0, 1.0])
        report = straggler_report(rec.spans())
        assert report.reason == REASON_BALANCED

    def test_unsharded_campaign_has_no_straggler(self):
        rec = Recorder()
        rec.enter("campaign", at=0.0)
        rec.record(SPAN_VISIT, 0.0, 1.0, domain="a.com")
        rec.exit(at=1.0)
        assert straggler_report(rec.spans()) is None

    def test_slow_visits_rank_and_dominant_stage(self):
        rec = Recorder()
        _shard_tree(rec, 0, 0.0, [1.0, 3.0, 2.0])
        report = slow_visits(rec.spans(), top_n=2)
        assert report.considered == 3
        assert [v.duration for v in report.visits] == [3.0, 2.0]
        assert report.visits[0].dominant_stage == SPAN_NAVIGATE

    def test_stage_histograms_feed_metrics(self):
        rec = Recorder()
        _shard_tree(rec, 0, 0.0, [1.0])
        metrics = MetricsRegistry()
        observe_stage_histograms(rec.spans(), metrics)
        snapshot = metrics.snapshot()
        assert snapshot.histogram("stage_seconds", stage="visit").count == 1
        assert snapshot.histogram("stage_seconds", stage="navigate").count == 1

    def test_build_profile_and_render(self):
        rec = Recorder()
        _shard_tree(rec, 0, 0.0, [1.0, 2.0])
        _shard_tree(rec, 1, 0.0, [1.0, 1.0, 1.0, 1.0])
        profile = build_profile(rec.spans())
        assert profile.span_count == len(rec.spans())
        assert profile.wall_seconds == 4.0
        rendered = render_profile(profile)
        assert "stage breakdown" in rendered
        assert "straggler" in rendered
        assert "shard 1" in rendered
        assert profile_spans(rec.spans()) == rendered


class TestProgressTracker:
    def test_counts_before_accept_visits(self):
        ticks = iter(range(100))
        tracker = ProgressTracker(
            10, stream=_Sink(), min_interval=0.0, time_fn=lambda: next(ticks)
        )
        tracker(0, 1, 2)  # one target done, its After-Accept visit too
        assert "1/10 sites" in tracker.render_line()

    def test_counts_are_absolute_per_shard(self):
        tracker = ProgressTracker(10, stream=_Sink(), time_fn=lambda: 0.0)
        tracker(0, 3, 4)
        tracker(1, 2, 2)
        tracker(0, 4, 6)  # replaces shard 0's count, does not add to it
        assert "6/10 sites" in tracker.render_line()

    def test_shard_columns_and_eta(self):
        clock = [0.0]
        tracker = ProgressTracker(
            4,
            shard_sizes={0: 2, 1: 2},
            stream=_Sink(),
            min_interval=0.0,
            time_fn=lambda: clock[0],
        )
        clock[0] = 1.0
        tracker(0, 1, 1)
        tracker(0, 2, 3)
        line = tracker.render_line()
        assert "2/4 sites" in line
        assert "3.0 visits/s" in line
        assert "shards 0:100% 1:0%" in line
        assert "ETA" in line

    def test_resumed_counts_stay_out_of_the_rate_and_eta(self):
        clock = [0.0]
        tracker = ProgressTracker(
            2_000, stream=_Sink(), min_interval=0.0, time_fn=lambda: clock[0]
        )
        tracker.resumed(0, 1_800, 2_400)
        clock[0] = 10.0
        tracker(0, 1_900, 2_530)  # 100 targets, 130 visits in this run
        line = tracker.render_line()
        assert "1,900/2,000 sites (95.0%)" in line
        assert "13.0 visits/s" in line
        assert "ETA 10s" in line

    def test_render_is_rate_limited_but_finish_always_writes(self):
        sink = _Sink()
        tracker = ProgressTracker(
            10, stream=sink, min_interval=1e9, time_fn=lambda: 0.0
        )
        for done in range(1, 6):
            tracker(0, done, done)
        written_before = tracker.lines_written
        tracker.finish()
        assert tracker.lines_written == written_before + 1
        assert sink.data.endswith("\n")


class _Sink:
    """Minimal text stream capturing writes."""

    def __init__(self) -> None:
        self.data = ""

    def write(self, text: str) -> None:
        self.data += text

    def flush(self) -> None:
        pass


# -- property test: recorded trees are always well-nested ------------------------

_actions = st.lists(
    st.tuples(st.sampled_from(["enter", "exit", "record"]), st.floats(0, 100)),
    max_size=60,
)


class TestWellNestedProperty:
    @settings(max_examples=60, deadline=None)
    @given(_actions)
    def test_span_trees_are_well_nested(self, actions):
        """Any enter/exit/record sequence yields a well-nested forest:
        every child's interval lies within its parent's, and the tree
        walk visits every span exactly once."""
        rec = Recorder()
        time = 0.0
        for action, delta in actions:
            time += delta
            if action == "enter":
                rec.enter("span", at=time)
            elif action == "record":
                rec.record("leaf", time, time + 1.0)
            elif rec.open_depth:
                rec.exit(at=time)
        while rec.open_depth:
            time += 1.0
            rec.exit(at=time)

        spans = rec.spans()
        by_id = {span.span_id: span for span in spans}
        for span in spans:
            if span.parent_id is not None:
                parent = by_id[span.parent_id]
                assert parent.start <= span.start
                assert span.start <= span.end
                # enter/exit children close before their parent; record
                # leaves are stamped by the caller and may overhang, but
                # never start before the parent opened.
                if span.name == "span":
                    assert span.end <= parent.end
        assert sorted(s.span_id for s in iter_span_tree(spans)) == sorted(
            s.span_id for s in spans
        )
