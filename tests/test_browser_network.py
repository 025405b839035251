"""Unit tests for the browser cache and the consent ledger."""

from repro.browser.consent import ConsentLedger
from repro.browser.network import BrowserCache
from repro.util.urls import https


class TestBrowserCache:
    def test_membership(self):
        cache = BrowserCache()
        url = https("a.com", "/x")
        assert url not in cache
        cache.add(url)
        assert url in cache
        assert len(cache) == 1

    def test_distinct_paths_distinct_entries(self):
        cache = BrowserCache()
        cache.add(https("a.com", "/x"))
        assert https("a.com", "/y") not in cache

    def test_cache_clear_forces_reload(self):
        # §2.2: "We delete the browser cache to load again all objects."
        cache = BrowserCache()
        url = https("cdn.ads.net", "/x.js")
        cache.add(url)
        cache.clear()
        assert url not in cache
        assert len(cache) == 0


class TestConsentLedger:
    def test_grant_and_check(self):
        ledger = ConsentLedger()
        assert not ledger.is_granted("site.com")
        ledger.grant("site.com")
        assert ledger.is_granted("site.com")
        assert len(ledger) == 1

    def test_revoke(self):
        ledger = ConsentLedger()
        ledger.grant("site.com")
        ledger.revoke("site.com")
        assert not ledger.is_granted("site.com")

    def test_clear(self):
        ledger = ConsentLedger()
        ledger.grant("a.com")
        ledger.grant("b.com")
        ledger.clear()
        assert len(ledger) == 0
