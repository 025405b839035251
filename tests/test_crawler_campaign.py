"""Tests for the full crawl campaign protocol (uses the shared crawl)."""

from repro.crawler.campaign import CrawlCampaign
from repro.crawler.dataset import PHASE_AFTER, PHASE_BEFORE
from repro.crawler.wellknown import survey_attestations
from repro.obs import MetricsRegistry, Recorder, Telemetry
from repro.web.thirdparty import DISTILLERY_DOMAIN


class TestProtocol:
    def test_every_ok_site_in_dba(self, crawl, world):
        reachable = sum(1 for s in world.websites if s.reachable)
        assert len(crawl.d_ba) == reachable == crawl.report.ok

    def test_failures_counted(self, crawl, world):
        unreachable = sum(1 for s in world.websites if not s.reachable)
        assert crawl.report.failed == unreachable
        assert crawl.report.targets == len(world.websites)

    def test_daa_subset_of_accepted(self, crawl):
        assert len(crawl.d_aa) == crawl.report.accepted
        accepted_domains = {r.domain for r in crawl.d_ba if r.accept_clicked}
        assert {r.domain for r in crawl.d_aa} == accepted_domains

    def test_phases_labelled(self, crawl):
        assert all(r.phase == PHASE_BEFORE for r in crawl.d_ba)
        assert all(r.phase == PHASE_AFTER for r in crawl.d_aa)

    def test_after_accept_only_with_banner(self, crawl):
        assert all(r.banner_present for r in crawl.d_aa)

    def test_ranks_recorded(self, crawl, world):
        for record in list(crawl.d_ba)[:200]:
            assert world.tranco.rank_of(record.domain) == record.rank

    def test_limit(self, world):
        result = CrawlCampaign(world, limit=50).run()
        assert result.report.targets == 50

    def test_progress_callback(self, world):
        seen = []
        result = CrawlCampaign(
            world, limit=300, shard_index=2, progress=lambda *call: seen.append(call)
        ).run()
        # Once per target, as its Before-Accept leg closes: the visit
        # count then holds every earlier target's After-Accept visit.
        assert [completed for _shard, completed, _visits in seen] == list(
            range(1, 301)
        )
        assert {shard for shard, _completed, _visits in seen} == {2}
        report = result.report
        assert seen[-1][2] in (report.visits, report.visits - 1)
        assert all(
            later[2] - earlier[2] in (1, 2) for earlier, later in zip(seen, seen[1:])
        )

    def test_crawl_duration_paced(self, crawl, world):
        # ~1.5 s per visit; the paper's 50k crawl "ends after about one
        # day".  At our scale the same pacing holds proportionally.
        visits = crawl.report.ok + crawl.report.failed + crawl.report.accepted
        assert 1.0 <= crawl.report.duration_seconds / visits <= 2.0


class TestArtefacts:
    def test_allowed_snapshot(self, crawl, world):
        assert crawl.allowed_domains == world.registry.allowed_domains()

    def test_survey_covers_all_allowed(self, crawl):
        assert all(domain in crawl.survey for domain in crawl.allowed_domains)

    def test_survey_covers_encountered_parties(self, crawl):
        parties = crawl.d_ba.unique_third_parties()
        assert all(domain in crawl.survey for domain in list(parties)[:200])

    def test_distillery_attested_not_allowed(self, crawl):
        assert crawl.survey.is_attested(DISTILLERY_DOMAIN)
        assert DISTILLERY_DOMAIN not in crawl.allowed_domains

    def test_attested_allowed_is_181_of_193(self, crawl, small_config):
        attested_allowed = sum(
            1 for d in crawl.allowed_domains if crawl.survey.is_attested(d)
        )
        assert attested_allowed == small_config.allowed_total - (
            small_config.unattested_allowed
        )

    def test_survey_fetches_only_enrolled_domains(self, crawl, world, monkeypatch):
        fetched = []
        serve = type(world).well_known_payload

        def counting_serve(self, domain, now):
            fetched.append(domain)
            return serve(self, domain, now)

        monkeypatch.setattr(type(world), "well_known_payload", counting_serve)
        targets = set(crawl.survey.domains())
        recorder, metrics = Recorder(), MetricsRegistry()
        survey = survey_attestations(
            world, targets, crawl.report.finished_at, Telemetry(recorder, metrics)
        )
        assert sorted(fetched) == sorted(targets & set(world.registry.domains()))
        assert len(fetched) < len(targets) // 10
        # Every domain, absent ones included, still has its event and count.
        events = recorder.events("attestation-fetch")
        assert [event.fields["domain"] for event in events] == sorted(targets)
        absent = [d for d in targets if not crawl.survey.probe(d).served]
        counts = metrics.snapshot()
        assert counts.counter_value("attestation_probes_total", result="absent") == (
            len(absent)
        )
        assert survey == crawl.survey


class TestConsentStateAcrossPhases:
    def test_more_third_parties_after_accept(self, crawl):
        # Consent gating means BA visits load strictly fewer ad tags.
        ba_by_domain = {r.domain: r for r in crawl.d_ba}
        wins = ties = losses = 0
        for after in crawl.d_aa:
            before = ba_by_domain[after.domain]
            if len(after.third_parties) > len(before.third_parties):
                wins += 1
            elif len(after.third_parties) == len(before.third_parties):
                ties += 1
            else:
                losses += 1
        assert wins > losses

    def test_cmp_detected_consistently(self, crawl, world):
        for record in list(crawl.d_ba)[:300]:
            site = world.site(record.domain)
            if site.redirect_to is not None:
                continue
            expected = site.cmp_name
            assert record.cmp == expected, record.domain

    def test_determinism(self, world, crawl):
        rerun = CrawlCampaign(world, corrupt_allowlist=True).run()
        assert len(rerun.d_ba) == len(crawl.d_ba)
        assert rerun.d_ba.records[:50] == crawl.d_ba.records[:50]
        assert rerun.report.accepted == crawl.report.accepted
