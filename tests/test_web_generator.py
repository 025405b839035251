"""Tests for world generation: structure, determinism, calibration bands.

These run against the shared session world (3,000 sites) — large enough
for rates to stabilise, small enough to stay fast.
"""

import pytest

from repro.web.config import WorldConfig
from repro.web.generator import ROGUE_LIB_DOMAIN, WebGenerator
from repro.web.site import RogueVariant
from repro.web.thirdparty import DISTILLERY_DOMAIN, GTM_DOMAIN, ThirdPartyCategory
from repro.web.tlds import Region, region_of_domain


class TestStructure:
    def test_site_count(self, world, small_config):
        assert len(world.websites) == small_config.site_count

    def test_ranks_sequential(self, world):
        assert [site.rank for site in world.websites] == list(
            range(1, len(world.websites) + 1)
        )

    def test_domains_unique(self, world):
        domains = [site.domain for site in world.websites]
        assert len(set(domains)) == len(domains)

    def test_tranco_matches_websites(self, world):
        assert world.tranco.domains == tuple(s.domain for s in world.websites)

    def test_site_lookup(self, world):
        site = world.websites[10]
        assert world.site(site.domain) is site
        assert world.resolve("definitely-not-generated.example") is None

    def test_domain_tld_matches_region(self, world):
        for site in world.websites[:500]:
            assert region_of_domain(site.domain) is site.region

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WorldConfig(site_count=0)
        with pytest.raises(ValueError):
            WorldConfig(failure_rate=1.5)
        with pytest.raises(ValueError):
            WorldConfig(region_weights={Region.COM: 0.5})


class TestDeterminism:
    def test_same_seed_same_world(self):
        config = WorldConfig.small(300, seed=9)
        world_a = WebGenerator(config).generate()
        world_b = WebGenerator(WorldConfig.small(300, seed=9)).generate()
        # Full dataclass equality: every field, banner and redirect included.
        assert world_a.websites == world_b.websites
        assert world_a.shadow_sites == world_b.shadow_sites

    def test_different_seed_different_world(self):
        world_a = WebGenerator(WorldConfig.small(300, seed=1)).generate()
        world_b = WebGenerator(WorldConfig.small(300, seed=2)).generate()
        assert [s.domain for s in world_a.websites] != [
            s.domain for s in world_b.websites
        ]


class TestEcosystem:
    def test_allowed_total(self, world, small_config):
        assert len(world.registry.allowed_domains()) == small_config.allowed_total

    def test_unattested_count(self, world, small_config):
        allowed = world.registry.allowed_domains()
        unattested = [d for d in allowed if not world.registry.is_attested(d)]
        assert len(unattested) == small_config.unattested_allowed

    def test_distillery_site_exists(self, world):
        site = world.site(DISTILLERY_DOMAIN)
        assert DISTILLERY_DOMAIN in site.embedded
        assert site.banner is not None and site.banner.language == "en"
        assert world.registry.is_attested(DISTILLERY_DOMAIN)
        assert not world.registry.is_allowed(DISTILLERY_DOMAIN)

    def test_rogue_lib_registered(self, world):
        assert ROGUE_LIB_DOMAIN in world.third_parties

    def test_unknown_domain_is_widget(self, world):
        assert world.category_of("never-seen.example") is ThirdPartyCategory.WIDGET

    def test_well_known_serving(self, world):
        allowed = sorted(world.registry.allowed_domains())
        attested = [d for d in allowed if world.registry.is_attested(d)]
        payload = world.well_known_payload(attested[0], now=0)
        assert payload is not None and "topics_api" in payload

    def test_long_tail_pool_size(self, world, small_config):
        widgets = [
            tp
            for tp in world.third_parties.values()
            if tp.category is ThirdPartyCategory.WIDGET
        ]
        assert len(widgets) >= small_config.long_tail_pool_size


class TestCalibrationBands:
    """Generated rates must sit near their configured targets."""

    def test_failure_rate(self, world, small_config):
        failed = sum(1 for s in world.websites if not s.reachable)
        rate = failed / len(world.websites)
        assert abs(rate - small_config.failure_rate) < 0.02

    def test_region_mix(self, world, small_config):
        for region, weight in small_config.region_weights.items():
            share = sum(1 for s in world.websites if s.region is region) / len(
                world.websites
            )
            assert abs(share - weight) < 0.03, region

    def test_rogue_rate(self, world, small_config):
        rogues = sum(1 for s in world.websites if s.rogue is not None)
        rate = rogues / len(world.websites)
        assert abs(rate - small_config.rogue_rate) < 0.02

    def test_rogue_gtm_share(self, world, small_config):
        rogues = [s for s in world.websites if s.rogue is not None]
        with_gtm = sum(1 for s in rogues if GTM_DOMAIN in s.embedded)
        assert abs(with_gtm / len(rogues) - small_config.rogue_gtm_share) < 0.03

    def test_rogue_lib_on_gtm_less_rogues(self, world):
        for site in world.websites:
            if site.rogue is None or GTM_DOMAIN in site.embedded:
                continue
            if site.rogue.variant in (RogueVariant.ROOT_LIB,):
                assert ROGUE_LIB_DOMAIN in site.embedded

    def test_banner_rates_by_region(self, world, small_config):
        for region, expected in small_config.banner_probability.items():
            sites = [s for s in world.websites if s.region is region]
            if len(sites) < 100:
                continue
            share = sum(1 for s in sites if s.banner is not None) / len(sites)
            assert abs(share - expected) < 0.08, region


class TestRogueVariants:
    def test_all_variants_generated(self, world):
        variants = {s.rogue.variant for s in world.websites if s.rogue}
        assert RogueVariant.SIBLING in variants
        assert RogueVariant.ENTITY in variants
        assert RogueVariant.REDIRECT in variants
        assert RogueVariant.ROOT_GTM in variants

    def test_sibling_shares_second_level(self, world):
        from repro.util.psl import same_second_level

        for site in world.websites:
            if site.rogue and site.rogue.variant is RogueVariant.SIBLING:
                assert same_second_level(site.rogue.caller_host, site.domain)
                assert site.rogue.caller_host != f"www.{site.domain}"

    def test_entity_partner_registered(self, world):
        for site in world.websites:
            if site.rogue and site.rogue.variant is RogueVariant.ENTITY:
                assert world.entities.same_entity(
                    site.rogue.caller_host, site.domain
                )

    def test_redirect_has_shadow_site(self, world):
        for site in world.websites:
            if site.rogue and site.rogue.variant is RogueVariant.REDIRECT:
                assert site.redirect_to is not None
                shadow = world.site(site.redirect_to)
                assert shadow.rogue is not None
                assert shadow.rogue.variant in (
                    RogueVariant.ROOT_GTM,
                    RogueVariant.ROOT_LIB,
                )
                assert world.entities.same_entity(site.domain, site.redirect_to)

    def test_non_redirect_sites_do_not_redirect(self, world):
        for site in world.websites:
            if site.rogue is None or site.rogue.variant is not RogueVariant.REDIRECT:
                assert site.redirect_to is None
