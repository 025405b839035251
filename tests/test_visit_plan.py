"""Visit plans: compiled plans ≡ the page-walk reference.

``VisitPlanner._compile_final`` builds one consent variant of a site's
plan directly from ``Website`` fields; ``VisitPlanner._build`` is the
retained reference implementation that materialises the page and walks
its tags.  These tests pin the two equal for every site of a generated
world (both script-origin modes, both consent states), so neither
builder can drift silently; pin that instrumented visits replay the
same plans as bare ones and yield equal records; and pin that a crawl
compiles After-Accept plans only for the domains it accepted.
"""

import pytest

from repro.browser.browser import Browser
from repro.browser.context import ScriptOriginMode
from repro.crawler.campaign import CrawlCampaign
from repro.obs import EventKind, MetricsRegistry, SpanRecorder, Tracer
from repro.obs.spans import SPAN_NAVIGATE
from repro.web.config import WorldConfig
from repro.web.generator import WebGenerator


@pytest.fixture(scope="module")
def world():
    return WebGenerator(WorldConfig.small(300, seed=11)).generate()


class TestCompileMatchesPageWalk:
    @pytest.mark.parametrize("mode", list(ScriptOriginMode))
    def test_every_site_both_consents(self, world, mode):
        planner = world.visit_planner(mode)
        domains = list(world.tranco.domains) + sorted(world.shadow_sites)
        mismatches = []
        for domain in domains:
            for consent in (False, True):
                compiled = planner.plan_for(domain, consent)
                walked = planner._build(domain, consent)
                if compiled != walked:
                    mismatches.append((domain, consent))
        assert mismatches == []

    def test_redirect_plans_share_target_surface(self, world):
        planner = world.visit_planner(ScriptOriginMode.EMBEDDER)
        redirecting = [
            site
            for site in (world.site(d) for d in world.tranco.domains)
            if site.redirect_to is not None
            and world.site(site.redirect_to).redirect_to is None
        ]
        assert redirecting, "world should contain single-hop redirects"
        for site in redirecting:
            plan = planner.plan_for(site.domain, False)
            target = planner.plan_for(site.redirect_to, False)
            assert plan.url == f"https://www.{site.domain}/"
            assert plan.final_url == target.final_url
            assert plan.page_domain == target.page_domain
            assert plan.ops == target.ops
            assert plan.third_parties == target.third_parties


class TestInstrumentedVisitsReplayPlans:
    def test_instrumented_visit_compiles_its_plan(self):
        world = WebGenerator(WorldConfig.small(150, seed=23)).generate()
        tracer, metrics, spans = Tracer(), MetricsRegistry(), SpanRecorder()
        browser = Browser(world, tracer=tracer, metrics=metrics, spans=spans)
        domain = next(
            site.domain
            for site in world.websites
            if site.reachable and site.redirect_to is None
        )
        planner = world.visit_planner(ScriptOriginMode.EMBEDDER)
        assert not planner._plans

        outcome = browser.visit(domain, consent_granted=True)
        assert outcome.ok
        plan = planner._plans[(domain, True)]
        (finished,) = tracer.events(EventKind.VISIT_FINISHED)
        assert finished.fields["third_parties"] == len(plan.third_parties)
        (navigate,) = spans.spans(SPAN_NAVIGATE)
        assert navigate.fields["fetches"] == plan.fetches


class TestTelemetryTransparency:
    def test_telemetry_on_and_off_yield_equal_records(self):
        world = WebGenerator(WorldConfig.small(150, seed=23)).generate()
        bare = CrawlCampaign(world, corrupt_allowlist=True).run()
        traced = CrawlCampaign(
            world,
            corrupt_allowlist=True,
            tracer=Tracer(),
            metrics=MetricsRegistry(),
            spans=SpanRecorder(),
        ).run()

        assert bare.d_ba.records == traced.d_ba.records
        assert bare.d_aa.records == traced.d_aa.records
        assert bare.report.ok == traced.report.ok
        assert bare.report.failed == traced.report.failed
        assert bare.report.accepted == traced.report.accepted
        assert bare.report.banners_seen == traced.report.banners_seen
        assert bare.report.failure_kinds == traced.report.failure_kinds
        assert bare.report.finished_at == traced.report.finished_at
        assert bare.allowed_domains == traced.allowed_domains
        assert (
            bare.survey.attested_domains() == traced.survey.attested_domains()
        )


class TestLazyConsentVariants:
    def test_after_accept_plans_only_for_accepted_domains(self):
        world = WebGenerator(WorldConfig.small(300, seed=31)).generate()
        result = CrawlCampaign(world).run()
        planner = world.visit_planner(ScriptOriginMode.EMBEDDER)

        reached = {record.domain for record in result.d_ba.records}
        accepted = {
            record.domain for record in result.d_ba.records if record.accept_clicked
        }
        after_accept = {domain for domain, consent in planner._plans if consent}
        # Single-hop redirects compile their target's plan for the same
        # consent state and share it.
        redirect_targets = {
            world.site(domain).redirect_to
            for domain in accepted
            if world.site(domain).redirect_to is not None
        }
        assert accepted and redirect_targets
        assert {record.domain for record in result.d_aa.records} <= after_accept
        assert after_accept <= accepted | redirect_targets

        before_only = reached - accepted - redirect_targets
        failed = {domain for _, domain in world.tranco} - reached
        assert before_only and failed
        assert not after_accept & before_only
        assert not after_accept & (failed - redirect_targets)
        before_accept = {domain for domain, consent in planner._plans if not consent}
        assert len(after_accept) < len(before_accept)
