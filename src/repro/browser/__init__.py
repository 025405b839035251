"""The browser simulator.

A faithful, minimal stand-in for the paper's instrumented Chromium: page
loading with a browser cache (:mod:`repro.browser.network`), a browsing
context tree with HTML-spec origin semantics (:mod:`repro.browser.context`),
compiled visit plans executing third-party behaviours including Google Tag
Manager's rogue root-context call (:mod:`repro.browser.plan`), and a full
Topics API implementation with the instrumentation hook the paper added to
``BrowsingTopicsSiteDataManagerImpl`` (:mod:`repro.browser.topics`).
"""

from repro.browser.browser import Browser, VisitOutcome
from repro.browser.topics.api import TopicsApi
from repro.browser.topics.manager import BrowsingTopicsSiteDataManager, TopicsApiCall
from repro.browser.topics.types import ApiCallType

__all__ = [
    "ApiCallType",
    "Browser",
    "BrowsingTopicsSiteDataManager",
    "TopicsApi",
    "TopicsApiCall",
    "VisitOutcome",
]
