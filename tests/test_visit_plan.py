"""Visit-plan fast path: compiled plans ≡ the page-walk reference.

``VisitPlanner._compile_final`` builds one consent variant of a site's
plan directly from ``Website`` fields; ``VisitPlanner._build`` is the
retained reference implementation that materialises the page and walks
its tags.  These tests pin the two equal for every site of a generated
world (both script-origin modes, both consent states), pin the
fast-path campaign byte-equal to the instrumented legacy-path campaign,
so neither builder can drift silently, and pin that a crawl compiles
After-Accept plans only for the domains it accepted.
"""

import pytest

from repro.browser.script import ScriptOriginMode
from repro.crawler.campaign import CrawlCampaign
from repro.obs import MetricsRegistry, Tracer
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


class TestFastPathCampaignEquivalence:
    def test_fast_equals_instrumented_legacy(self):
        world = WebGenerator(WorldConfig.small(150, seed=23)).generate()
        fast = CrawlCampaign(world, corrupt_allowlist=True).run()
        legacy = CrawlCampaign(
            world,
            corrupt_allowlist=True,
            tracer=Tracer(),
            metrics=MetricsRegistry(),
        ).run()

        assert fast.d_ba.records == legacy.d_ba.records
        assert fast.d_aa.records == legacy.d_aa.records
        assert fast.report.ok == legacy.report.ok
        assert fast.report.failed == legacy.report.failed
        assert fast.report.accepted == legacy.report.accepted
        assert fast.report.banners_seen == legacy.report.banners_seen
        assert fast.report.failure_kinds == legacy.report.failure_kinds
        assert fast.report.finished_at == legacy.report.finished_at
        assert fast.allowed_domains == legacy.allowed_domains
        assert (
            fast.survey.attested_domains() == legacy.survey.attested_domains()
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
