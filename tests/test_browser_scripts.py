"""What executed scripts do on a visit: rogue infrastructure calls,
script-origin modes, enrolled ad tags and consent environments.

Every case runs through :meth:`Browser.visit` (the plan replay) or the
:class:`VisitPlanner` that compiles it, over the shared world.
"""

import pytest

from repro.browser.browser import Browser
from repro.browser.context import ScriptOriginMode
from repro.browser.plan import environment_multiplier
from repro.browser.topics.types import ApiCallType
from repro.web.site import RogueVariant
from repro.web.thirdparty import GTM_DOMAIN, ThirdPartyCategory
from tests import plan_walk


def direct_sites(world, predicate):
    """Reachable, non-redirecting sites matching ``predicate``."""
    return [
        site
        for site in world.websites
        if site.reachable and site.redirect_to is None and predicate(site)
    ]


def root_gtm_site(world, **rogue):
    return direct_sites(
        world,
        lambda s: s.rogue is not None
        and s.rogue.variant is RogueVariant.ROOT_GTM
        and all(getattr(s.rogue, key) == value for key, value in rogue.items()),
    )[0]


@pytest.fixture
def browser(world) -> Browser:
    return Browser(world, corrupt_allowlist=True)


class TestInfrastructureScripts:
    def test_rogue_call_from_embedder(self, browser, world):
        site = root_gtm_site(world)
        outcome = browser.visit(site.domain, consent_granted=True)
        javascript = [
            c for c in outcome.topics_calls if c.call_type is ApiCallType.JAVASCRIPT
        ]
        rogue = [c for c in javascript if c.caller == site.domain]
        assert rogue
        assert {c.caller_host for c in rogue} == {f"www.{site.domain}"}
        assert GTM_DOMAIN not in {c.caller for c in outcome.topics_calls}

    def test_rogue_call_count_respected(self, browser, world):
        site = root_gtm_site(world, call_count=2)
        outcome = browser.visit(site.domain, consent_granted=True)
        rogue = [c for c in outcome.topics_calls if c.caller == site.domain]
        assert len(rogue) == 2

    def test_non_rogue_gtm_silent(self, browser, world):
        sites = direct_sites(
            world, lambda s: GTM_DOMAIN in s.embedded and s.rogue is None
        )[:50]
        assert sites
        for site in sites:
            outcome = browser.visit(site.domain, consent_granted=True)
            callers = {c.caller for c in outcome.topics_calls}
            assert not callers & {site.domain, GTM_DOMAIN}

    def test_before_consent_respects_flag(self, browser, world):
        silent = root_gtm_site(world, fires_before_consent=False)
        outcome = browser.visit(silent.domain, consent_granted=False)
        assert silent.domain not in {c.caller for c in outcome.topics_calls}

        firing = root_gtm_site(world, fires_before_consent=True)
        outcome = browser.visit(firing.domain, consent_granted=False)
        rogue = [c for c in outcome.topics_calls if c.caller == firing.domain]
        assert len(rogue) == firing.rogue.call_count

    def test_script_url_mode_attributes_to_script_host(self, world):
        browser = Browser(
            world,
            corrupt_allowlist=True,
            script_origin_mode=ScriptOriginMode.SCRIPT_URL,
        )
        site = root_gtm_site(world)
        outcome = browser.visit(site.domain, consent_granted=True)
        rogue = [c for c in outcome.topics_calls if c.caller == GTM_DOMAIN]
        assert len(rogue) == site.rogue.call_count
        assert {c.caller_host for c in rogue} == {f"www.{GTM_DOMAIN}"}
        assert site.domain not in {c.caller for c in outcome.topics_calls}


class TestAdTags:
    def test_unknown_ad_tag_no_policy_no_call(self, browser, world):
        no_policy = {
            domain
            for domain, service in world.third_parties.items()
            if service.category is ThirdPartyCategory.ADS
            and world.policy_of(domain) is None
        }
        site = direct_sites(world, lambda s: no_policy & set(s.embedded))[0]
        silent = no_policy & set(site.embedded)
        plan = world.visit_planner(ScriptOriginMode.EMBEDDER).plan_for(
            site.domain, True
        )
        tag_ops = [
            op
            for op in plan.ops
            if op.impression_host in {f"static.{d}" for d in silent}
        ]
        # The tag loads and tracks its impression, but never calls.
        assert len(tag_ops) == len(silent)
        assert all(op.call is None for op in tag_ops)

        outcome = browser.visit(site.domain, consent_granted=True)
        assert not silent & {c.caller for c in outcome.topics_calls}
        impressions = {caller for caller, _, _ in browser.cookie_tracker.impressions}
        assert silent <= impressions

    def test_enabled_site_produces_calls(self, browser, world):
        policy = world.policy_of("criteo.com")
        sites = direct_sites(world, lambda s: "criteo.com" in s.embedded)[:40]
        enabled_seen = 0
        for site in sites:
            outcome = browser.visit(site.domain, consent_granted=True)
            calls = [c for c in outcome.topics_calls if c.caller == "criteo.com"]
            if policy.is_enabled("criteo.com", site.domain, browser.clock.now()):
                enabled_seen += 1
                assert calls
                assert len(calls) == policy.calls_on_page("criteo.com", site.domain)
            else:
                assert not calls
        assert enabled_seen

    def test_environment_multiplier_lookup(self, world):
        config = world.config
        no_banner_site = next(s for s in world.websites if s.banner is None)
        leaky = next(
            s
            for s in world.websites
            if s.banner is not None
            and s.banner.cmp is not None
            and not s.banner.gates_before_consent
        )
        for site, expected in (
            (no_banner_site, config.questionable_multiplier_no_banner),
            (leaky, config.questionable_multiplier_leaky_cmp),
        ):
            assert environment_multiplier(site, config) == expected
            # the reference walk resolves the site by name instead
            assert plan_walk.environment_multiplier(world, site.domain) == expected

    def test_unknown_site_uses_no_banner_multiplier(self, world):
        assert plan_walk.environment_multiplier(
            world, "never-generated.example"
        ) == world.config.questionable_multiplier_no_banner
