"""Unit tests for the CMP catalogue and Wappalyzer-style detection."""

import pytest

from repro.web.cmp import CMP_CATALOGUE, CmpCatalogue, CmpProvider


class TestCatalogue:
    def test_figure7_cmps_present(self):
        names = CmpCatalogue().names()
        assert names == [
            "OneTrust", "HubSpot", "LiveRamp", "Cookiebot", "TrustArc",
            "Didomi", "Sourcepoint", "Osano", "Iubenda", "CookieYes",
            "Usercentrics", "CookieScript", "Civic", "Cookie Information",
            "SFBX",
        ]

    def test_onetrust_most_popular(self):
        catalogue = CmpCatalogue()
        onetrust = catalogue.get("OneTrust")
        assert all(
            onetrust.market_weight >= provider.market_weight
            for provider in catalogue.providers
        )

    def test_hubspot_and_liveramp_leak_most(self):
        # The paper singles these two out (Figure 7 discussion).
        catalogue = CmpCatalogue()
        ranked = sorted(
            catalogue.providers, key=lambda p: -p.preconsent_leak_rate
        )
        assert {ranked[0].name, ranked[1].name} == {"HubSpot", "LiveRamp"}

    def test_get_unknown(self):
        with pytest.raises(KeyError):
            CmpCatalogue().get("NotACmp")

    def test_duplicate_names_rejected(self):
        dupe = CMP_CATALOGUE + (CmpProvider("OneTrust", "other.com", 1, 0.1),)
        with pytest.raises(ValueError):
            CmpCatalogue(dupe)

    def test_duplicate_domains_rejected(self):
        dupe = CMP_CATALOGUE + (CmpProvider("Clone", "onetrust.com", 1, 0.1),)
        with pytest.raises(ValueError):
            CmpCatalogue(dupe)


class TestDetection:
    def test_detects_by_served_domain(self):
        catalogue = CmpCatalogue()
        hosts = {"www.site.com", "cdn.onetrust.com", "static.doubleclick.net"}
        assert catalogue.detect_from_domains(hosts) == "OneTrust"

    def test_subdomain_resolution(self):
        catalogue = CmpCatalogue()
        assert catalogue.detect_from_domains({"consent.cookiebot.com"}) == "Cookiebot"

    def test_no_cmp(self):
        catalogue = CmpCatalogue()
        assert catalogue.detect_from_domains({"www.site.com", "cdn.jsdelivr.net"}) is None

    def test_catalogue_order_breaks_ties(self):
        catalogue = CmpCatalogue()
        hosts = {"cdn.onetrust.com", "x.hubspot.com"}
        assert catalogue.detect_from_domains(hosts) == "OneTrust"

    def test_empty_input(self):
        assert CmpCatalogue().detect_from_domains(set()) is None


class TestFirstProviderWins:
    """Two catalogue CMPs loaded: the earlier catalogue entry wins, on
    both detection entry points, whatever order the domains come in."""

    def test_two_cmps_loaded(self):
        catalogue = CmpCatalogue()
        first, second = CMP_CATALOGUE[3], CMP_CATALOGUE[14]  # Cookiebot, SFBX
        assert catalogue.detect_from_registrables(
            {second.domain, "site.com", first.domain}
        ) == first.name
        assert catalogue.detect_from_domains(
            [f"cdn.{second.domain}", "www.site.com", f"consent.{first.domain}"]
        ) == first.name

    def test_none_loaded(self):
        catalogue = CmpCatalogue()
        assert catalogue.detect_from_registrables({"site.com", "jsdelivr.net"}) is None
        assert catalogue.detect_from_registrables(set()) is None
        assert catalogue.detect_from_domains(["www.site.com"]) is None
