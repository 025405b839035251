"""Unit tests for the third-party catalogue and Topics adoption policies."""

import pytest

from repro.browser.topics.types import ApiCallType
from repro.web.thirdparty import (
    DISTILLERY_DOMAIN,
    GTM_DOMAIN,
    ThirdParty,
    ThirdPartyCategory,
    TopicsPolicy,
    active_caller_domains,
    named_third_parties,
    questionable_caller_domains,
    stable_fraction,
)
from repro.web.tlds import Region


class TestCatalogueShape:
    def test_exactly_47_active_callers(self):
        # Paper §2.4: "we encounter only 47 CPs that call the Topics API".
        assert len(active_caller_domains()) == 47

    def test_exactly_28_questionable_callers(self):
        # Paper §5: "28 of them call the Topics API in the Before-Accept".
        assert len(questionable_caller_domains()) == 28

    def test_questionable_subset_of_active(self):
        assert set(questionable_caller_domains()) <= set(active_caller_domains())

    def test_figure2_parties_present(self):
        domains = {tp.domain for tp in named_third_parties()}
        for expected in (
            "google-analytics.com", "doubleclick.net", "bing.com",
            "rubiconproject.com", "pubmatic.com", "criteo.com",
            "casalemedia.com", "3lift.com", "openx.net", "teads.tv",
            "taboola.com", "adform.net", "indexww.com", "quantserve.com",
            "yahoo.com",
        ):
            assert expected in domains, expected

    def test_google_analytics_enrolled_but_silent(self):
        # §3: "google-analytics.com is curiously both Attested and Allowed.
        # Yet, it never calls the Topics API."
        ga = next(t for t in named_third_parties() if t.domain == "google-analytics.com")
        assert ga.enrolled and ga.attested
        assert ga.policy is None

    def test_bing_enrolled_but_silent(self):
        bing = next(t for t in named_third_parties() if t.domain == "bing.com")
        assert bing.enrolled and bing.attested and bing.policy is None

    def test_doubleclick_compliant_before_consent(self):
        # §5: "doubleclick.net, the top-1 caller, does not perform any call
        # in Before-Accept".
        dbl = next(t for t in named_third_parties() if t.domain == "doubleclick.net")
        assert dbl.policy is not None
        assert not dbl.policy.calls_before_consent

    def test_gtm_not_enrolled(self):
        gtm = next(t for t in named_third_parties() if t.domain == GTM_DOMAIN)
        assert not gtm.enrolled and not gtm.attested
        assert gtm.category is ThirdPartyCategory.TAG_MANAGER
        assert not gtm.consent_gated

    def test_yandex_regional_prevalence(self):
        yandex = next(t for t in named_third_parties() if t.domain == "yandex.com")
        assert yandex.prevalence_in(Region.RU) > 10 * yandex.prevalence_in(Region.COM)
        assert yandex.prevalence_in(Region.JP) == 0.0

    def test_figure3_rate_ordering(self):
        rates = {
            tp.domain: tp.policy.enabled_rate
            for tp in named_third_parties()
            if tp.policy is not None
        }
        # The clusters the paper highlights.
        assert rates["authorizedvault.com"] > 0.9
        assert rates["criteo.com"] == pytest.approx(0.75)
        assert rates["cpx.to"] == pytest.approx(0.75)
        assert rates["yandex.com"] == pytest.approx(0.66)
        assert rates["doubleclick.net"] == pytest.approx(0.33)


class TestTopicsPolicy:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            TopicsPolicy(enabled_rate=1.5)
        with pytest.raises(ValueError):
            TopicsPolicy(enabled_rate=0.5, before_rate=-0.1)
        with pytest.raises(ValueError):
            TopicsPolicy(enabled_rate=0.5, alternating_period=0)

    def test_ab_decision_stable_per_site(self):
        policy = TopicsPolicy(enabled_rate=0.5)
        for site in ("a.com", "b.com", "c.com"):
            first = policy.is_enabled("cp.com", site, 100)
            assert all(
                policy.is_enabled("cp.com", site, now) == first
                for now in (0, 10_000, 10**7)
            )

    def test_ab_rate_approximation(self):
        policy = TopicsPolicy(enabled_rate=0.75)
        hits = sum(
            policy.is_enabled("cp.com", f"site{i}.com", 0) for i in range(4000)
        )
        assert 0.72 < hits / 4000 < 0.78

    def test_alternating_policy_changes_over_windows(self):
        policy = TopicsPolicy(enabled_rate=0.5, alternating_period=3600)
        site = "site.com"
        decisions = {
            policy.is_enabled("cp.com", site, window * 3600)
            for window in range(50)
        }
        assert decisions == {True, False}

    def test_alternating_policy_stable_within_window(self):
        policy = TopicsPolicy(enabled_rate=0.5, alternating_period=3600)
        assert policy.is_enabled("cp.com", "s.com", 0) == policy.is_enabled(
            "cp.com", "s.com", 3599
        )

    def test_before_accept_requires_positive_rate(self):
        policy = TopicsPolicy(enabled_rate=0.5, before_rate=0.0)
        assert not policy.calls_before_consent
        assert not policy.calls_in_before_accept("cp.com", "site.com")

    def test_environment_multiplier_scales(self):
        policy = TopicsPolicy(enabled_rate=0.5, before_rate=0.2)
        sites = [f"s{i}.com" for i in range(4000)]
        low = sum(policy.calls_in_before_accept("cp.com", s, 0.5) for s in sites)
        high = sum(policy.calls_in_before_accept("cp.com", s, 2.0) for s in sites)
        assert 0.08 < low / 4000 < 0.12
        assert 0.36 < high / 4000 < 0.44

    def test_ignores_environment_flag(self):
        policy = TopicsPolicy(
            enabled_rate=0.5, before_rate=0.2, ignores_consent_environment=True
        )
        sites = [f"s{i}.com" for i in range(2000)]
        low = [policy.calls_in_before_accept("cp.com", s, 0.1) for s in sites]
        high = [policy.calls_in_before_accept("cp.com", s, 5.0) for s in sites]
        assert low == high

    def test_multiplier_caps_at_one(self):
        policy = TopicsPolicy(enabled_rate=0.5, before_rate=0.9)
        assert all(
            policy.calls_in_before_accept("cp.com", f"s{i}.com", 100.0)
            for i in range(100)
        )

    def test_call_type_deterministic(self):
        policy = TopicsPolicy(enabled_rate=1.0)
        assert policy.pick_call_type("cp.com", "s.com") is policy.pick_call_type(
            "cp.com", "s.com"
        )

    def test_call_type_respects_weights(self):
        policy = TopicsPolicy(
            enabled_rate=1.0, call_type_weights={ApiCallType.FETCH: 1.0}
        )
        assert all(
            policy.pick_call_type("cp.com", f"s{i}.com") is ApiCallType.FETCH
            for i in range(50)
        )

    def test_calls_on_page_bounds(self):
        policy = TopicsPolicy(enabled_rate=1.0, max_calls_per_page=2)
        counts = {policy.calls_on_page("cp.com", f"s{i}.com") for i in range(200)}
        assert counts == {1, 2}

    def test_single_call_policy(self):
        policy = TopicsPolicy(enabled_rate=1.0, max_calls_per_page=1)
        assert all(
            policy.calls_on_page("cp.com", f"s{i}.com") == 1 for i in range(50)
        )


class TestThirdParty:
    def test_preconsent_load_deterministic(self):
        tp = ThirdParty(
            domain="ads.example",
            category=ThirdPartyCategory.ADS,
            prevalence={},
            consent_gated=True,
            preconsent_load_rate=0.3,
        )
        assert tp.loads_preconsent_on("x.com") == tp.loads_preconsent_on("x.com")

    def test_preconsent_load_rate_approximation(self):
        tp = ThirdParty(
            domain="ads.example",
            category=ThirdPartyCategory.ADS,
            prevalence={},
            consent_gated=True,
            preconsent_load_rate=0.3,
        )
        hits = sum(tp.loads_preconsent_on(f"s{i}.com") for i in range(4000))
        assert 0.27 < hits / 4000 < 0.33

    def test_ungated_always_loads(self):
        tp = ThirdParty(
            domain="cdn.example",
            category=ThirdPartyCategory.CDN,
            prevalence={},
            consent_gated=False,
            preconsent_load_rate=0.0,
        )
        assert tp.loads_preconsent_on("any.com")

    def test_stable_fraction_range(self):
        values = [stable_fraction("a", str(i)) for i in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.45 < sum(values) / len(values) < 0.55

    def test_distillery_constant(self):
        assert DISTILLERY_DOMAIN == "distillery.com"


class TestDecisionDigestInputs:
    """Each per-(party, site) decision hashes exactly the parts
    ``stable_fraction`` joins: the worlds and datasets depend on it."""

    SITES = [f"site{i}.example" for i in range(300)] + ["café.fr", "x.co.uk"]

    def test_decisions_match_stable_fraction(self):
        policy = TopicsPolicy(enabled_rate=0.4, before_rate=0.3)
        alternating = TopicsPolicy(enabled_rate=0.5, alternating_period=3600)
        service = ThirdParty(
            domain="ads.example",
            category=ThirdPartyCategory.ADS,
            prevalence={},
            consent_gated=True,
        )
        weights = policy.call_type_weights
        total = sum(weights.values())
        caller = "criteo.com"
        for site in self.SITES:
            assert policy.is_enabled(caller, site, 0) == (
                stable_fraction("ab", caller, site, "static") < 0.4
            )
            assert alternating.is_enabled(caller, site, 7300) == (
                stable_fraction("ab", caller, site, "2") < 0.5
            )
            assert policy.calls_in_before_accept(caller, site, 2.0) == (
                stable_fraction("ba", caller, site) < 0.6
            )
            assert policy.calls_on_page(caller, site) == (
                2 if stable_fraction("repeat", caller, site) < 0.3 else 1
            )
            assert service.loads_preconsent_on(site) == (
                stable_fraction("preload", "ads.example", site) < 0.30
            )
            fraction = stable_fraction("calltype", caller, site)
            cumulative, expected = 0.0, None
            for call_type, weight in weights.items():
                cumulative += weight / total
                if fraction < cumulative:
                    expected = call_type
                    break
            assert policy.pick_call_type(caller, site) is expected
