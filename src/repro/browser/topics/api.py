"""The three web-facing Topics API surfaces (paper §2.2).

The paper's modified handler logs the *call type* of every invocation:

* ``JAVASCRIPT`` — ``document.browsingTopics()``: the caller is the
  **calling context's origin** (which is why a script tag in the page HTML
  calls as the website itself — §4);
* ``FETCH`` — ``fetch(url, {browsingTopics: true})``: the caller is the
  **request destination's** origin, and topics travel in the
  ``Sec-Browsing-Topics`` header;
* ``IFRAME`` — ``<iframe browsingtopics src=...>``: as fetch, for the
  frame's navigation request.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.browser.context import BrowsingContext
from repro.browser.topics.headers import (
    OBSERVE_TRUE,
    format_topics_header,
    observe_requested,
)
from repro.browser.topics.manager import BrowsingTopicsSiteDataManager, TopicsApiCall
from repro.browser.topics.types import ApiCallType, Topic
from repro.obs import EventKind, NULL_METRICS, NULL_TRACER, MetricsRegistry, Tracer
from repro.util.timeline import Timestamp
from repro.util.urls import Url


#: ``caller_context`` label per surface; the label's host is always the
#: call's ``caller_host`` (the calling context's origin for JavaScript,
#: the request destination for fetch and iframe).
_CONTEXT_LABEL = {
    ApiCallType.JAVASCRIPT: "js",
    ApiCallType.FETCH: "fetch",
    ApiCallType.IFRAME: "iframe",
}


def instrument_topics_call(
    tracer: Tracer, metrics: MetricsRegistry, call: TopicsApiCall
) -> None:
    """Count and trace one logged call, with its gating classification.

    The one shape of the ``TOPICS_CALL`` event and ``topics_calls_total``
    series, shared by :class:`TopicsApi` and the browser's plan replay.
    """
    metrics.counter(
        "topics_calls_total",
        type=call.call_type.value,
        decision=call.decision.value,
    )
    tracer.emit(
        EventKind.TOPICS_CALL,
        at=call.at,
        caller=call.caller,
        caller_host=call.caller_host,
        site=call.site,
        call_type=call.call_type.value,
        caller_context=f"{_CONTEXT_LABEL[call.call_type]}:{call.caller_host}",
        decision=call.decision.value,
        allowed=call.allowed,
        topics_returned=call.topics_returned,
    )


@dataclass(frozen=True)
class FetchWithTopicsResult:
    """Outcome of a topics-enabled fetch: the header the request carried."""

    url: Url
    topics: tuple[Topic, ...]
    observed: bool = True

    @property
    def sec_browsing_topics_header(self) -> str:
        """The ``Sec-Browsing-Topics`` header value (padded, per spec)."""
        return format_topics_header(list(self.topics))


class TopicsApi:
    """The surface page script interacts with, bound to one manager."""

    def __init__(
        self,
        manager: BrowsingTopicsSiteDataManager,
        tracer: Tracer = NULL_TRACER,
        metrics: MetricsRegistry = NULL_METRICS,
    ) -> None:
        self._manager = manager
        self._tracer = tracer
        self._metrics = metrics

    def _instrument_last_call(self) -> None:
        """Trace the call the manager just logged, with its classification."""
        if self._tracer.enabled or self._metrics.enabled:
            instrument_topics_call(
                self._tracer, self._metrics, self._manager.last_call
            )

    def document_browsing_topics(
        self,
        context: BrowsingContext,
        now: Timestamp,
        skip_observation: bool = False,
    ) -> list[Topic]:
        """``document.browsingTopics()`` from ``context``.

        The caller is the context's execution origin — the crux of the
        paper's anomalous-usage finding.
        """
        origin = context.script_execution_origin()
        topics = self._manager.handle_topics_call(
            caller_host=origin.host,
            top_frame_site=context.top_frame_site,
            call_type=ApiCallType.JAVASCRIPT,
            now=now,
            observe=not skip_observation,
        )
        self._instrument_last_call()
        return topics

    def fetch_with_topics(
        self,
        context: BrowsingContext,
        url: Url,
        now: Timestamp,
        response_observe_header: str | None = OBSERVE_TRUE,
    ) -> FetchWithTopicsResult:
        """``fetch(url, {browsingTopics: true})`` issued from ``context``.

        The *destination* is the caller: topics are disclosed to the
        server receiving the request, so gating applies to it.  Unlike
        the JavaScript surface, observation is **server opt-in**: the
        visit is only marked observed when the response carries
        ``Observe-Browsing-Topics: ?1`` (our simulated ad servers do by
        default; pass None to model one that does not).
        """
        topics = self._manager.handle_topics_call(
            caller_host=url.host,
            top_frame_site=context.top_frame_site,
            call_type=ApiCallType.FETCH,
            now=now,
            observe=False,
        )
        self._instrument_last_call()
        observed = False
        if observe_requested(response_observe_header) and self._manager.last_call.allowed:
            self._manager.record_caller_observation(
                url.host, context.top_frame_site, now
            )
            observed = True
        return FetchWithTopicsResult(url=url, topics=tuple(topics), observed=observed)

    def iframe_with_topics(
        self,
        parent: BrowsingContext,
        src: Url,
        now: Timestamp,
        response_observe_header: str | None = OBSERVE_TRUE,
    ) -> tuple[BrowsingContext, list[Topic]]:
        """Load ``<iframe browsingtopics src=...>`` under ``parent``.

        Returns the new child context plus the topics attached to its
        navigation request.  As with fetch, observation requires the
        navigation response to opt in via ``Observe-Browsing-Topics``.
        """
        child = parent.open_iframe(src)
        topics = self._manager.handle_topics_call(
            caller_host=src.host,
            top_frame_site=parent.top_frame_site,
            call_type=ApiCallType.IFRAME,
            now=now,
            observe=False,
        )
        self._instrument_last_call()
        if observe_requested(response_observe_header) and self._manager.last_call.allowed:
            self._manager.record_caller_observation(
                src.host, parent.top_frame_site, now
            )
        return child, topics
