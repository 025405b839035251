"""Tests for sharded crawling: partitioning, determinism, merge fidelity."""

import pytest

from repro.crawler.executor import plan_shards
from repro.crawler.parallel import ShardedCrawl
from repro.web.tranco import TrancoList


class TestPlanning:
    def test_partition_covers_everything_once(self):
        ranking = TrancoList.of([f"s{i}.com" for i in range(10)])
        plans = plan_shards(ranking, 3)
        covered = [d for plan in plans for d in plan.domains]
        assert covered == list(ranking.domains)

    def test_sizes_balanced(self):
        ranking = TrancoList.of([f"s{i}.com" for i in range(10)])
        sizes = [len(p.domains) for p in plan_shards(ranking, 3)]
        assert sizes == [4, 3, 3]

    def test_rank_offsets(self):
        ranking = TrancoList.of([f"s{i}.com" for i in range(10)])
        plans = plan_shards(ranking, 3)
        assert [p.rank_offset for p in plans] == [0, 4, 7]

    def test_more_shards_than_domains(self):
        ranking = TrancoList.of(["a.com", "b.com"])
        plans = plan_shards(ranking, 5)
        assert len(plans) == 2

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            plan_shards(TrancoList.of(["a.com"]), 0)


class TestShardedCrawl:
    @pytest.fixture(scope="class")
    def sharded(self, world):
        return ShardedCrawl(world, shard_count=4).run()

    def test_full_coverage(self, sharded, world):
        reachable = sum(1 for s in world.websites if s.reachable)
        assert sharded.report.ok == reachable
        assert len(sharded.d_ba) == reachable
        assert sharded.report.targets == len(world.websites)

    def test_global_ranks_restored(self, sharded, world):
        for record in list(sharded.d_ba)[::200]:
            assert world.tranco.rank_of(record.domain) == record.rank

    def test_deterministic_across_runs(self, sharded, world):
        rerun = ShardedCrawl(world, shard_count=4).run()
        assert rerun.d_ba.records == sharded.d_ba.records
        assert rerun.d_aa.records == sharded.d_aa.records

    def test_deterministic_with_different_worker_counts(self, sharded, world):
        serial = ShardedCrawl(world, shard_count=4, max_workers=1).run()
        assert serial.d_ba.records == sharded.d_ba.records

    def test_matches_sequential_structure(self, sharded, crawl):
        # Shards use distinct browser profiles (different user seeds and
        # clocks), so timestamps and per-user noise differ from the
        # sequential campaign — but presence structure must be identical.
        assert {r.domain for r in sharded.d_ba} == {r.domain for r in crawl.d_ba}
        assert {r.domain for r in sharded.d_aa} == {r.domain for r in crawl.d_aa}
        ba_by_domain = {r.domain: r for r in crawl.d_ba}
        for record in list(sharded.d_ba)[::97]:
            assert record.third_parties == ba_by_domain[record.domain].third_parties

    def test_analysis_equivalence(self, sharded, crawl, study):
        from repro.analysis.classify import build_table1

        table = build_table1(
            sharded.d_ba, sharded.d_aa, sharded.allowed_domains, sharded.survey
        )
        assert table.allowed_total == study.table1.allowed_total
        assert table.aa_allowed_attested == study.table1.aa_allowed_attested
        # A/B enablement is (caller, site)-stable, independent of profile.
        assert table.aa_not_allowed == study.table1.aa_not_allowed

    def test_survey_present(self, sharded):
        assert len(sharded.survey) > 0
        assert all(d in sharded.survey for d in sharded.allowed_domains)

    def test_survey_matches_sequential(self, sharded, crawl):
        # The merge builds its survey from the same attestation_targets
        # helper as the sequential campaign: probe-identical surveys.
        seq_domains = set(crawl.survey._by_domain)
        sh_domains = set(sharded.survey._by_domain)
        assert seq_domains == sh_domains
        for domain in seq_domains:
            assert sharded.survey.probe(domain) == crawl.survey.probe(domain)

    def test_failure_breakdown_merged(self, sharded, crawl):
        assert sharded.report.failure_kinds == crawl.report.failure_kinds
        assert sum(sharded.report.failure_kinds.values()) == sharded.report.failed
        assert sharded.report.retried == crawl.report.retried
        assert sharded.report.recovered == crawl.report.recovered

    def test_merged_report_timing_is_honest(self, sharded):
        report = sharded.report
        assert report.started_at == 0
        assert report.finished_at > 0
        assert report.duration_seconds == report.finished_at - report.started_at
