"""Sequential vs. sharded equivalence: the observability cross-check.

The paper's analyses must not depend on how the campaign was executed.
This module pins that end to end — identical attestation surveys, honest
merged timing, and metric snapshots that agree counter-for-counter — and
pins the two historical merge bugs at the unit level:

* the merged survey used to be built from ``D_BA`` only, silently
  dropping third parties first encountered After-Accept;
* the merged report used to store a *duration* in ``finished_at``.
"""

import pytest

from repro.analysis.obs_report import diff_snapshots
from repro.crawler.archive import save_crawl
from repro.crawler.campaign import (
    CrawlCampaign,
    CrawlReport,
    CrawlResult,
    attestation_targets,
)
from repro.crawler.dataset import Dataset, PHASE_AFTER, PHASE_BEFORE, VisitRecord
from repro.crawler.crawl import Crawl
from repro.crawler.executor import ShardOutcome, ShardPlan
from repro.crawler.parallel import ShardedCrawl
from repro.crawler.wellknown import AttestationSurvey
from repro.obs import (
    MetricsRegistry,
    NULL_METRICS,
    NULL_TRACER,
    SpanRecorder,
    Tracer,
)
from repro.obs.profile import straggler_report
from repro.obs.spans import SPAN_CAMPAIGN, SPAN_SHARD
from repro.web.config import WorldConfig
from repro.web.generator import WebGenerator

EQUIVALENCE_SITES = 1_500


@pytest.fixture(scope="module")
def eq_world():
    # A private world (different seed than the session fixtures) keeps
    # this module's pins independent of the shared campaign state.
    return WebGenerator(WorldConfig.small(EQUIVALENCE_SITES, seed=3)).generate()


@pytest.fixture(scope="module")
def sequential(eq_world):
    tracer, metrics, spans = Tracer(), MetricsRegistry(), SpanRecorder()
    result = CrawlCampaign(
        eq_world, corrupt_allowlist=True, tracer=tracer, metrics=metrics,
        spans=spans,
    ).run()
    return result, tracer, metrics, spans


@pytest.fixture(scope="module")
def sharded(eq_world):
    tracer, metrics, spans = Tracer(), MetricsRegistry(), SpanRecorder()
    result = ShardedCrawl(
        eq_world, shard_count=4, tracer=tracer, metrics=metrics, spans=spans
    ).run()
    return result, tracer, metrics, spans


@pytest.fixture(scope="module")
def plain_sequential(eq_world):
    """The same campaign with every recorder left at its no-op default."""
    return CrawlCampaign(eq_world, corrupt_allowlist=True).run()


class TestSurveyEquivalence:
    def test_identical_attestation_surveys(self, sequential, sharded):
        seq_result = sequential[0]
        sh_result = sharded[0]
        seq_domains = {d for d in map(lambda p: p.domain, seq_result.survey._by_domain.values())}
        sh_domains = {d for d in map(lambda p: p.domain, sh_result.survey._by_domain.values())}
        assert seq_domains == sh_domains
        for domain in seq_domains:
            assert seq_result.survey.probe(domain) == sh_result.survey.probe(domain)

    def test_identical_datasets(self, sequential, sharded):
        seq_result = sequential[0]
        sh_result = sharded[0]
        assert {r.domain for r in seq_result.d_ba} == {
            r.domain for r in sh_result.d_ba
        }
        assert {r.domain for r in seq_result.d_aa} == {
            r.domain for r in sh_result.d_aa
        }


class TestReportEquivalence:
    def test_protocol_counters_match(self, sequential, sharded):
        seq, sh = sequential[0].report, sharded[0].report
        assert (seq.targets, seq.ok, seq.failed) == (sh.targets, sh.ok, sh.failed)
        assert (seq.banners_seen, seq.accepted) == (sh.banners_seen, sh.accepted)
        assert seq.failure_kinds == sh.failure_kinds
        assert (seq.retried, seq.recovered) == (sh.retried, sh.recovered)

    def test_timing_fields_consistent(self, sequential, sharded):
        seq, sh = sequential[0].report, sharded[0].report
        for report in (seq, sh):
            assert report.started_at == 0
            assert report.finished_at > report.started_at
            assert report.duration_seconds == report.finished_at - report.started_at
        # The parallel campaign finishes with its slowest shard — well
        # before a sequential walk of the same ranking.
        assert sh.duration_seconds < seq.duration_seconds


class TestMetricsCrossCheck:
    def test_snapshots_agree_on_every_counter(self, sequential, sharded):
        """The cross-check that would have caught both merge bugs."""
        divergences = diff_snapshots(
            sequential[2].snapshot(),
            sharded[2].snapshot(),
            ignore_prefixes=("shard_",),
        )
        assert divergences == []

    def test_trace_kinds_differ_only_by_shard_lifecycle(self, sequential, sharded):
        seq_kinds = sequential[1].counts_by_kind()
        sh_kinds = sharded[1].counts_by_kind()
        shard_events = {
            kind: sh_kinds.pop(kind)
            for kind in ("shard-started", "shard-merged")
        }
        assert sh_kinds == seq_kinds
        assert shard_events == {"shard-started": 4, "shard-merged": 4}


class TestMergedTraceOrdering:
    """Satellite pin: the merged trace interleaves shards in replay order.

    The merge used to replay shard 0's entire history, then
    shard 1's, and so on; the fold now sorts by ``(at, shard_index,
    seq)``, so the campaign-level trace reads chronologically.
    """

    def test_merged_events_sorted_by_at_then_shard(self, sharded):
        tracer = sharded[1]
        lifecycle = {"shard-merged"}
        keys = [
            (event.at, event.fields["shard"])
            for event in tracer
            if event.kind not in lifecycle and "shard" in event.fields
        ]
        assert keys, "expected shard-tagged events in the merged trace"
        assert keys == sorted(keys)

    def test_merge_folds_handcrafted_traces_in_time_order(self, eq_world):
        tracer = Tracer()
        crawl = Crawl(eq_world, shard_count=2, tracer=tracer)
        outcomes = []
        for shard, times in enumerate(((5, 20), (1, 12))):
            shard_tracer = Tracer()
            for at in times:
                shard_tracer.emit("probe", at=at)
            report = CrawlReport(started_at=0, finished_at=max(times))
            outcomes.append(
                ShardOutcome(
                    result=CrawlResult(
                        d_ba=Dataset("D_BA"),
                        d_aa=Dataset("D_AA"),
                        report=report,
                        allowed_domains=frozenset(),
                        survey=AttestationSurvey(()),
                    ),
                    tracer=shard_tracer,
                    metrics=MetricsRegistry(),
                )
            )
        plans = [
            ShardPlan(shard_index=0, domains=("a.com",), rank_offset=0),
            ShardPlan(shard_index=1, domains=("b.com",), rank_offset=1),
        ]
        crawl._merge(plans, outcomes)
        probes = [
            (event.at, event.fields["shard"])
            for event in tracer.events("probe")
        ]
        # Time-sorted fold, not shard 0 then shard 1.
        assert probes == [(1, 1), (5, 0), (12, 1), (20, 0)]


class TestOneShardCrawl:
    def test_archive_matches_sequential_campaign(
        self, eq_world, plain_sequential, tmp_path
    ):
        """A store-less one-shard crawl is the sequential campaign."""
        expected = save_crawl(plain_sequential, tmp_path / "campaign")
        actual = save_crawl(
            Crawl(eq_world, shard_count=1).run().result, tmp_path / "crawl"
        )
        names = sorted(path.name for path in expected.iterdir())
        assert names == sorted(path.name for path in actual.iterdir())
        for name in names:
            assert (actual / name).read_bytes() == (expected / name).read_bytes()


class TestSpanEquivalence:
    """The span layer observes the campaign without perturbing it."""

    def test_instrumentation_transparency_relation(self, tmp_path):
        """Recording on must leave results byte-identical to the seed
        behaviour (spans never touch the clock or any RNG).  The relation
        is owned by the metamorphic harness; this drives it directly."""
        from repro.validate import MetamorphicHarness

        harness = MetamorphicHarness(tmp_path, sites=300, seed=3)
        result = harness.check_instrumentation_transparency()
        assert result.passed, "\n".join(result.details)

    def test_canary_byte_pin_with_and_without_spans(
        self, sequential, plain_sequential, tmp_path
    ):
        """One legacy byte pin kept as a canary for the harness itself:
        if this fires while the relation above stays green, the harness
        comparator has gone blind."""
        instrumented = sequential[0]
        plain = plain_sequential
        left_path = tmp_path / "d_ba_spans.jsonl"
        right_path = tmp_path / "d_ba_plain.jsonl"
        instrumented.d_ba.to_jsonl(left_path)
        plain.d_ba.to_jsonl(right_path)
        assert left_path.read_bytes() == right_path.read_bytes()
        assert instrumented.report == plain.report
        assert instrumented.survey._by_domain == plain.survey._by_domain

    def test_sequential_tree_shape(self, sequential):
        result, spans = sequential[0], sequential[3]
        assert spans.open_depth == 0
        roots = [s for s in spans.spans() if s.parent_id is None]
        assert [r.name for r in roots] == [SPAN_CAMPAIGN]
        assert roots[0].start == float(result.report.started_at)
        assert roots[0].end == float(result.report.finished_at)
        visits = spans.spans("visit")
        assert len(visits) == result.report.ok + result.report.failed + result.report.accepted

    def test_straggler_finish_is_merged_finished_at(self, sharded):
        """Acceptance pin: the profiler names the shard whose finish time
        equals the merged report's ``finished_at``."""
        result, spans = sharded[0], sharded[3]
        report = straggler_report(spans.spans())
        assert report is not None
        assert len(report.shards) == 4
        assert report.straggler.finished_at == float(result.report.finished_at)
        assert report.straggler.finished_at == max(
            timing.finished_at for timing in report.shards
        )

    def test_merged_tree_grafts_shards_under_one_root(self, sharded):
        spans = sharded[3]
        assert spans.open_depth == 0
        roots = [s for s in spans.spans() if s.parent_id is None]
        assert [r.name for r in roots] == [SPAN_CAMPAIGN]
        shard_spans = spans.spans(SPAN_SHARD)
        assert len(shard_spans) == 4
        assert {s.parent_id for s in shard_spans} == {roots[0].span_id}
        assert sorted(s.fields["shard"] for s in shard_spans) == [0, 1, 2, 3]

    def test_merged_spans_fold_in_chronological_order(self, sharded):
        spans = sharded[3]
        shard_tagged = [
            (s.start, s.fields["shard"])
            for s in spans.spans()
            if "shard" in s.fields
        ]
        assert shard_tagged == sorted(shard_tagged)


def _record(domain: str, phase: str, third_parties: tuple[str, ...]) -> VisitRecord:
    return VisitRecord(
        rank=1,
        domain=domain,
        final_domain=domain,
        url=f"https://www.{domain}/",
        final_url=f"https://www.{domain}/",
        phase=phase,
        banner_present=True,
        banner_language="english",
        accept_clicked=phase == PHASE_AFTER,
        cmp=None,
        third_parties=third_parties,
        calls=(),
    )


class TestAttestationTargets:
    """Unit pin of the shared encountered-set helper (bug #1)."""

    def test_after_accept_only_parties_are_included(self):
        d_ba = Dataset("D_BA", [_record("site.com", PHASE_BEFORE, ("cdn.com",))])
        d_aa = Dataset(
            "D_AA", [_record("site.com", PHASE_AFTER, ("cdn.com", "gated-ads.com"))]
        )
        targets = attestation_targets(d_ba, d_aa, frozenset({"allowed.com"}))
        assert "gated-ads.com" in targets  # the party the old merge dropped
        assert targets == {
            "site.com",
            "cdn.com",
            "gated-ads.com",
            "allowed.com",
        }


class TestMergeRegression:
    """Merge-level pins with handcrafted shard outcomes."""

    @staticmethod
    def _shard_outcome(
        d_ba: Dataset, d_aa: Dataset, started_at: int, finished_at: int
    ) -> ShardOutcome:
        report = CrawlReport(
            targets=len(d_ba),
            ok=len(d_ba),
            started_at=started_at,
            finished_at=finished_at,
        )
        result = CrawlResult(
            d_ba=d_ba,
            d_aa=d_aa,
            report=report,
            allowed_domains=frozenset(),
            survey=AttestationSurvey(()),
        )
        return ShardOutcome(result=result, tracer=NULL_TRACER, metrics=NULL_METRICS)

    def test_merge_surveys_after_accept_only_parties(self, world):
        # "aa-only.example" is loaded exclusively behind the consent gate:
        # the pre-fix merge built the survey from D_BA alone and missed it.
        sharded = ShardedCrawl(world, shard_count=1)
        outcome = self._shard_outcome(
            Dataset("D_BA", [_record("site.com", PHASE_BEFORE, ("cdn.example",))]),
            Dataset("D_AA", [_record("site.com", PHASE_AFTER, ("aa-only.example",))]),
            started_at=0,
            finished_at=10,
        )
        merged = sharded._merge(
            [ShardPlan(shard_index=0, domains=("site.com",), rank_offset=0)],
            [outcome],
        )
        assert "aa-only.example" in merged.survey
        assert "cdn.example" in merged.survey

    def test_merge_keeps_honest_timestamps(self, world):
        # Pre-fix, finished_at was assigned max(shard durations): a shard
        # spanning [5, 65] produced finished_at=60 — a duration, not a
        # timestamp.  The merged report must span min(start)..max(finish).
        sharded = ShardedCrawl(world, shard_count=2)
        outcomes = [
            self._shard_outcome(Dataset("D_BA"), Dataset("D_AA"), 5, 65),
            self._shard_outcome(Dataset("D_BA"), Dataset("D_AA"), 2, 40),
        ]
        plans = [
            ShardPlan(shard_index=0, domains=("a.com",), rank_offset=0),
            ShardPlan(shard_index=1, domains=("b.com",), rank_offset=1),
        ]
        merged = sharded._merge(plans, outcomes)
        assert merged.report.started_at == 2
        assert merged.report.finished_at == 65
        assert merged.report.duration_seconds == 63
