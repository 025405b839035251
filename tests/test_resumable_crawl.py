"""End-to-end crash/resume tests for :class:`ResumableCrawl`.

The acceptance bar for the checkpoint layer: a campaign whose shards are
killed at injected visit offsets — including across separate campaign
*processes* — must produce datasets **byte-identical** to an
uninterrupted run, with the checkpoint and retry activity visible in
spans, metrics and the event trace.
"""

from __future__ import annotations

import pytest

from repro.crawler.checkpoint import CheckpointStore, RetryPolicy
from repro.crawler.parallel import ShardedCrawl
from repro.crawler.crawl import Crawl
from repro.crawler.executor import ShardFailedError
from repro.crawler.resumable import ResumableCrawl
from repro.obs import EventKind, MetricsRegistry, SpanRecorder, Tracer
from repro.obs.spans import (
    SPAN_CHECKPOINT_RESTORE,
    SPAN_CHECKPOINT_WRITE,
    SPAN_SHARD_RETRY,
)
from repro.web.config import WorldConfig
from repro.web.generator import WebGenerator

RESUME_SITES = 600
SHARDS = 3
EVERY = 50


@pytest.fixture(scope="module")
def resume_world():
    return WebGenerator(WorldConfig.small(RESUME_SITES, seed=3)).generate()


@pytest.fixture(scope="module")
def baseline(resume_world):
    """The uninterrupted campaign every recovery scenario must match."""
    return ShardedCrawl(resume_world, shard_count=SHARDS).run()


def _jsonl(dataset) -> str:
    return "\n".join(record.to_json() for record in dataset.records)


def _crash_shard_at(shard_index: int, points: dict[int, int]):
    """Injector killing ``shard_index`` at ``points[attempt]`` (if set)."""

    def injector(shard: int, attempt: int):
        if shard != shard_index:
            return None
        point = points.get(attempt)
        if point is None:
            return None

        def hook(position: int, domain: str) -> None:
            if position == point:
                raise RuntimeError(f"injected crash at visit {position}")

        return hook

    return injector


class TestUninterrupted:
    def test_matches_sharded_crawl(self, resume_world, baseline, tmp_path):
        outcome = ResumableCrawl(
            resume_world, tmp_path, shard_count=SHARDS, checkpoint_every=EVERY
        ).run()
        assert _jsonl(outcome.result.d_ba) == _jsonl(baseline.d_ba)
        assert _jsonl(outcome.result.d_aa) == _jsonl(baseline.d_aa)
        assert outcome.result.report.ok == baseline.report.ok
        assert outcome.retries == () and outcome.partial is None

    def test_checkpoints_written_periodically(self, resume_world, tmp_path):
        ResumableCrawl(
            resume_world, tmp_path, shard_count=SHARDS, checkpoint_every=EVERY
        ).run()
        store = CheckpointStore(tmp_path)
        assert store.shards() == list(range(SHARDS))
        for shard in range(SHARDS):
            latest = store.latest(shard)
            assert latest.complete
            assert latest.visits_done == RESUME_SITES // SHARDS


class TestCrashResume:
    """Shards killed mid-run at ≥2 distinct visit offsets."""

    @pytest.fixture(scope="class")
    def crashed(self, resume_world, tmp_path_factory):
        tracer, metrics, spans = Tracer(), MetricsRegistry(), SpanRecorder()
        outcome = ResumableCrawl(
            resume_world,
            tmp_path_factory.mktemp("crashed"),
            shard_count=SHARDS,
            checkpoint_every=EVERY,
            # Kill shard 1 twice: attempt 1 dies at visit 60 (after the
            # 50-visit checkpoint), attempt 2 at visit 130 (after 100).
            fault_injector=_crash_shard_at(1, {1: 60, 2: 130}),
            tracer=tracer,
            metrics=metrics,
            spans=spans,
        ).run()
        return outcome, tracer, metrics, spans

    def test_datasets_byte_identical(self, crashed, baseline):
        outcome, _, _, _ = crashed
        assert _jsonl(outcome.result.d_ba) == _jsonl(baseline.d_ba)
        assert _jsonl(outcome.result.d_aa) == _jsonl(baseline.d_aa)

    def test_report_identical(self, crashed, baseline):
        outcome, _, _, _ = crashed
        assert outcome.result.report.ok == baseline.report.ok
        assert outcome.result.report.failed == baseline.report.failed
        assert outcome.result.report.accepted == baseline.report.accepted
        assert dict(outcome.result.report.failure_kinds) == dict(
            baseline.report.failure_kinds
        )

    def test_retries_resumed_from_checkpoints(self, crashed):
        outcome, _, _, _ = crashed
        assert [r.resumed_from for r in outcome.retries] == [50, 100]
        assert [r.backoff_seconds for r in outcome.retries] == [30, 60]
        assert outcome.partial is None

    def test_metrics_record_recovery(self, crashed):
        _, _, metrics, _ = crashed
        snapshot = metrics.snapshot()
        assert snapshot.counter_total("shard_retries_total") == 2
        assert snapshot.counter_total("checkpoint_restores_total") == 2
        assert snapshot.counter_total("checkpoint_writes_total") > 0
        assert snapshot.counter_total("shard_backoff_seconds_total") == 90

    def test_trace_records_recovery(self, crashed):
        # Retry records are folded from the surviving attempt, so both
        # retries appear; an attempt's own restore event dies with it if
        # the attempt later crashes (only metrics ride in checkpoints),
        # so exactly the final attempt's restore is visible.
        _, tracer, _, _ = crashed
        kinds = tracer.counts_by_kind()
        assert kinds[EventKind.SHARD_RETRIED.value] == 2
        assert kinds[EventKind.CHECKPOINT_RESTORED.value] >= 1
        assert kinds[EventKind.CHECKPOINT_WRITTEN.value] > 0

    def test_spans_record_recovery(self, crashed):
        _, _, _, spans = crashed
        assert len(spans.spans(SPAN_SHARD_RETRY)) == 2
        assert len(spans.spans(SPAN_CHECKPOINT_RESTORE)) >= 1
        assert len(spans.spans(SPAN_CHECKPOINT_WRITE)) > 0
        retry = spans.spans(SPAN_SHARD_RETRY)[0]
        assert retry.fields["shard"] == 1


class TestProcessKillResume:
    """The whole campaign dies and is re-launched with resume=True."""

    def test_fresh_process_resumes_byte_identical(
        self, resume_world, baseline, tmp_path
    ):
        with pytest.raises(ShardFailedError) as excinfo:
            ResumableCrawl(
                resume_world,
                tmp_path,
                shard_count=SHARDS,
                checkpoint_every=EVERY,
                retry_policy=RetryPolicy(max_retries=0),
                fault_injector=_crash_shard_at(2, {1: 120}),
            ).run()
        assert excinfo.value.shard_index == 2

        # A brand-new campaign object over the same directory: shards 0/1
        # reload their complete checkpoints, shard 2 resumes from 100.
        metrics = MetricsRegistry()
        outcome = ResumableCrawl(
            resume_world,
            tmp_path,
            shard_count=SHARDS,
            checkpoint_every=EVERY,
            resume=True,
            metrics=metrics,
        ).run()
        assert sorted(outcome.resumed_shards) == [0, 1, 2]
        assert _jsonl(outcome.result.d_ba) == _jsonl(baseline.d_ba)
        assert _jsonl(outcome.result.d_aa) == _jsonl(baseline.d_aa)
        assert metrics.snapshot().counter_total("checkpoint_restores_total") == 3

    def test_crash_before_first_checkpoint_restarts_clean(
        self, resume_world, baseline, tmp_path
    ):
        outcome = ResumableCrawl(
            resume_world,
            tmp_path,
            shard_count=SHARDS,
            checkpoint_every=EVERY,
            fault_injector=_crash_shard_at(0, {1: 10}),
        ).run()
        assert outcome.retries[0].resumed_from == 0
        assert _jsonl(outcome.result.d_ba) == _jsonl(baseline.d_ba)
        assert _jsonl(outcome.result.d_aa) == _jsonl(baseline.d_aa)


class TestAllowPartial:
    def test_persistent_failure_degrades_gracefully(
        self, resume_world, baseline, tmp_path
    ):
        metrics = MetricsRegistry()
        outcome = ResumableCrawl(
            resume_world,
            tmp_path,
            shard_count=SHARDS,
            checkpoint_every=EVERY,
            retry_policy=RetryPolicy(max_retries=1),
            allow_partial=True,
            # Shard 0 dies at visit 70 on every attempt.
            fault_injector=_crash_shard_at(0, {1: 70, 2: 70, 3: 70}),
            metrics=metrics,
        ).run()
        assert outcome.is_partial
        [missing] = outcome.partial.missing
        # Shard 0 checkpointed through visit 50; global ranks 51..200 gone.
        assert missing.shard_index == 0
        assert (missing.from_rank, missing.to_rank) == (51, 200)
        assert outcome.partial.missing_targets == 150

        # The delivered prefix is still byte-wise a prefix of the truth.
        expected_ba = [
            r for r in baseline.d_ba.records if not 51 <= r.rank <= 200
        ]
        assert _jsonl(outcome.result.d_ba) == "\n".join(
            r.to_json() for r in expected_ba
        )
        snapshot = metrics.snapshot()
        assert snapshot.gauge_value("crawl_missing_targets") == 150
        assert snapshot.gauge_value("crawl_degraded_shards") == 1

    def test_without_allow_partial_campaign_fails(self, resume_world, tmp_path):
        with pytest.raises(ShardFailedError):
            ResumableCrawl(
                resume_world,
                tmp_path,
                shard_count=SHARDS,
                checkpoint_every=EVERY,
                retry_policy=RetryPolicy(max_retries=1),
                fault_injector=_crash_shard_at(0, {1: 70, 2: 70}),
            ).run()


class TestFingerprintGuard:
    def test_resume_rejects_different_campaign(self, resume_world, tmp_path):
        ResumableCrawl(
            resume_world, tmp_path, shard_count=SHARDS, checkpoint_every=EVERY
        ).run()
        from repro.crawler.checkpoint import CheckpointError

        with pytest.raises(CheckpointError, match="different campaign"):
            ResumableCrawl(
                resume_world,
                tmp_path,
                shard_count=SHARDS + 1,  # different layout, same directory
                checkpoint_every=EVERY,
                resume=True,
            ).run()


class TestStorelessCrawl:
    @pytest.mark.parametrize("option", ["resume", "allow_partial"])
    def test_recovery_options_need_a_store(self, resume_world, option):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            Crawl(resume_world, shard_count=SHARDS, **{option: True})
