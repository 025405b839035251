"""Tests for the Topics opt-in switch (the paper's §2.2 manual opt-in)."""

import pytest

from repro.attestation.allowlist import AllowList, AllowListDatabase
from repro.browser.browser import Browser
from repro.browser.context import root_context_for
from repro.browser.topics.api import TopicsApi
from repro.browser.topics.manager import (
    BrowsingTopicsSiteDataManager,
    TopicsApiDisabledError,
)
from repro.browser.topics.selection import EpochTopicsSelector
from repro.browser.topics.types import ApiCallType
from repro.taxonomy.classifier import SiteClassifier
from repro.util.urls import https


def make_manager(topics_enabled: bool) -> BrowsingTopicsSiteDataManager:
    return BrowsingTopicsSiteDataManager(
        EpochTopicsSelector(SiteClassifier(), user_seed=1),
        AllowListDatabase.from_allowlist(AllowList.of(["criteo.com"])),
        topics_enabled=topics_enabled,
    )


class TestManagerSwitch:
    def test_disabled_rejects(self):
        manager = make_manager(topics_enabled=False)
        with pytest.raises(TopicsApiDisabledError):
            manager.handle_topics_call(
                "bid.criteo.com", "news.com", ApiCallType.JAVASCRIPT, 0
            )
        assert manager.call_count == 0  # a rejection is not a logged call

    def test_enabled_default(self):
        manager = make_manager(topics_enabled=True)
        manager.handle_topics_call(
            "bid.criteo.com", "news.com", ApiCallType.JAVASCRIPT, 0
        )
        assert manager.call_count == 1

    def test_js_surface_propagates_rejection(self):
        api = TopicsApi(make_manager(topics_enabled=False))
        root = root_context_for(https("www.example.org"))
        frame = root.open_iframe(https("frame.criteo.com"))
        with pytest.raises(TopicsApiDisabledError):
            api.document_browsing_topics(frame, now=0)


class TestBrowserWithoutOptIn:
    def test_visits_work_but_produce_no_calls(self, world):
        browser = Browser(world, corrupt_allowlist=True, topics_enabled=False)
        produced = 0
        for site in world.websites[:300]:
            if not site.reachable:
                continue
            outcome = browser.visit(site.domain, consent_granted=True)
            assert outcome.ok
            produced += len(outcome.topics_calls)
        assert produced == 0

    def test_page_loading_unaffected(self, world):
        enabled = Browser(world, corrupt_allowlist=True, topics_enabled=True)
        disabled = Browser(world, corrupt_allowlist=True, topics_enabled=False)
        site = next(
            s for s in world.websites if s.reachable and s.redirect_to is None
        )
        with_topics = enabled.visit(site.domain, consent_granted=True)
        without = disabled.visit(site.domain, consent_granted=True)
        # Ad helper frames differ, but the page's own tags load the same.
        page_hosts = {
            host
            for host in with_topics.loaded_hosts
            if not host.startswith(("frame.", "bid.", "ads."))
        }
        assert page_hosts <= set(without.loaded_hosts)
        assert without.ok
