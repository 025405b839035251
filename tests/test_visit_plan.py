"""Visit plans: compiled plans ≡ the page-walk reference.

``VisitPlanner._compile_final`` builds one consent variant of a site's
plan directly from ``Website`` fields; ``tests/plan_walk.py`` is the
reference that materialises the page and walks its tags.  These tests
pin the two equal for every site of a generated world (both
script-origin modes, both consent states), including the loaded hosts
the plan derives from its URLs, so neither builder can drift silently;
pin that instrumented visits replay the same plans as bare ones and
yield equal records; pin that a crawl compiles After-Accept plans only
for the domains it accepted; and pin the shapes the compile shares:
interned ad ops per party and a fired conditional call's host.
"""

import pytest

from repro.browser.browser import Browser
from repro.browser.context import ScriptOriginMode
from repro.crawler.campaign import CrawlCampaign
from repro.obs import EventKind, MetricsRegistry, Recorder, Telemetry
from repro.obs.spans import SPAN_NAVIGATE
from repro.web.config import WorldConfig
from repro.web.generator import WebGenerator
from tests.plan_walk import walk_plan


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
                walked, hosts = walk_plan(world, mode, domain, consent)
                if compiled != walked or compiled.loaded_hosts != hosts:
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
        recorder, metrics = Recorder(), MetricsRegistry()
        browser = Browser(world, telemetry=Telemetry(recorder, metrics))
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
        (finished,) = recorder.events(EventKind.VISIT_FINISHED)
        assert finished.fields["third_parties"] == len(plan.third_parties)
        (navigate,) = recorder.spans(SPAN_NAVIGATE)
        assert navigate.fields["fetches"] == plan.fetches


class TestTelemetryTransparency:
    def test_telemetry_on_and_off_yield_equal_records(self):
        world = WebGenerator(WorldConfig.small(150, seed=23)).generate()
        bare = CrawlCampaign(world, corrupt_allowlist=True).run()
        traced = CrawlCampaign(
            world,
            corrupt_allowlist=True,
            telemetry=Telemetry(Recorder(), MetricsRegistry()),
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


class TestSharedPlanShapes:
    def test_ad_ops_are_interned_per_calling_party(self):
        world = WebGenerator(WorldConfig.small(300, seed=11)).generate()
        CrawlCampaign(world).run()
        planner = world.visit_planner(ScriptOriginMode.EMBEDDER)

        uses: dict[str, int] = {}
        distinct: dict[str, set[int]] = {}
        for plan in planner._plans.values():
            for op in plan.ops:
                if op.call is None or op.impression_host is None:
                    continue  # impressions and rogue calls
                caller = op.impression_host
                uses[caller] = uses.get(caller, 0) + 1
                distinct.setdefault(caller, set()).add(id(op))
        assert "static.doubleclick.net" in distinct
        # (call type, count, conditional): at most 3 x 2 x 2 op objects
        assert max(len(ids) for ids in distinct.values()) <= 12
        assert sum(uses.values()) > sum(len(ids) for ids in distinct.values())

    @pytest.mark.parametrize("caller", ["doubleclick.net", "criteo.com"])
    def test_fired_conditional_call_adds_its_host(self, world, caller):
        planner = world.visit_planner(ScriptOriginMode.EMBEDDER)
        browser = Browser(world)
        seen = set()
        for site in world.websites:
            if not site.reachable or site.redirect_to is not None:
                continue
            if caller not in site.embedded:
                continue
            (op,) = [
                op
                for op in planner.plan_for(site.domain, True).ops
                if op.policy is not None and op.caller == caller
            ]
            outcome = browser.visit(site.domain, consent_granted=True)
            fired = op.policy.is_enabled(caller, site.domain, browser.clock.now())
            host = op.call.caller_host
            assert host.split(".", 1)[0] in ("frame", "bid", "ads")
            assert (host in outcome.loaded_hosts) is fired
            assert (op.call.fetch_url in outcome.fetched_urls) is fired
            assert caller in outcome.third_parties
            seen.add(fired)
        assert seen == {True, False}
