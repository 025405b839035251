"""The browser: navigation, rendering, and Topics instrumentation.

One :class:`Browser` models the crawler's Chromium profile: it owns the
browsing history, the (possibly deliberately corrupted) enrolment
allow-list database, the cache, the consent ledger and the instrumented
Topics manager.  :meth:`Browser.visit` performs one page load end to end —
redirects, resource fetches, consent gating, script execution, iframe
contexts — by replaying the page's compiled
:class:`~repro.browser.plan.SitePlan`, and returns everything the paper's
crawler records about it.  Tracing, metrics and span recording only
observe the replay; they never change which path a visit takes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.attestation.allowlist import AllowListDatabase
from repro.browser.consent import ConsentLedger
from repro.browser.context import ScriptOriginMode
from repro.browser.cookies import Cookie, CookieJar, CookieTracker
from repro.browser.network import BrowserCache
from repro.browser.failures import failure_kind_for
from repro.browser.topics.api import instrument_topics_call
from repro.browser.topics.manager import BrowsingTopicsSiteDataManager, TopicsApiCall
from repro.browser.topics.selection import EpochTopicsSelector
from repro.obs import EventKind, Telemetry
from repro.obs.spans import SPAN_NAVIGATE, SPAN_SCRIPT_EXEC, SPAN_TOPICS_CALL
from repro.taxonomy.classifier import SiteClassifier
from repro.util.text import stable_digest
from repro.util.timeline import SimClock
from repro.util.urls import hosts_of
from repro.web.banner import ConsentBanner

if TYPE_CHECKING:
    from repro.web.generator import SyntheticWeb

#: Error label for a domain outside the generated world entirely
#: (real failure causes come from :mod:`repro.browser.failures`).
ERROR_UNKNOWN_HOST = "unknown-host"


def state_digest_of(snapshot: dict) -> str:
    """Stable hex digest of a browser state snapshot (canonical JSON)."""
    canonical = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return f"{stable_digest('browser-state', canonical):016x}"


@dataclass(frozen=True)
class VisitOutcome:
    """Everything one visit produced (one row of the crawl datasets)."""

    requested_domain: str
    ok: bool
    error: str | None = None
    final_domain: str = ""
    url: str = ""
    final_url: str = ""
    consent_granted: bool = False
    banner: ConsentBanner | None = None
    #: every URL the visit fetched: its plan's, then the endpoint of each
    #: conditional call that fired
    fetched_urls: tuple[str, ...] = ()
    #: registrable domains of the third parties the visit loaded, sorted
    third_parties: tuple[str, ...] = ()
    #: the CMP detected from the loaded hosts (Wappalyzer-style)
    detected_cmp: str | None = None
    topics_calls: tuple[TopicsApiCall, ...] = ()

    @property
    def redirected(self) -> bool:
        return self.ok and self.final_domain != self.requested_domain

    @property
    def loaded_hosts(self) -> tuple[str, ...]:
        """Every host the visit contacted, sorted."""
        return hosts_of(self.fetched_urls)

    @property
    def third_party_domains(self) -> frozenset[str]:
        """Set view of :attr:`third_parties`."""
        return frozenset(self.third_parties)


class Browser:
    """A stateful simulated Chromium profile."""

    def __init__(
        self,
        world: "SyntheticWeb",
        clock: SimClock | None = None,
        corrupt_allowlist: bool = False,
        user_seed: int = 0,
        classifier: SiteClassifier | None = None,
        script_origin_mode: ScriptOriginMode = ScriptOriginMode.EMBEDDER,
        third_party_cookies: bool = True,
        topics_enabled: bool = True,
        telemetry: Telemetry = Telemetry.OFF,
    ) -> None:
        self._world = world
        # Unpacked once: a visit reads the handles directly.
        self._telemetry = telemetry
        self._tracer = telemetry.tracer
        self._metrics = telemetry.metrics
        self._spans = telemetry.spans
        self.clock = clock if clock is not None else SimClock()
        self.consent = ConsentLedger()
        self.cookie_jar = CookieJar(third_party_cookies_enabled=third_party_cookies)
        self.cookie_tracker = CookieTracker(self.cookie_jar, profile_seed=user_seed)

        self.allowlist_db = AllowListDatabase.from_allowlist(
            world.registry.allowlist()
        )
        if corrupt_allowlist:
            # The paper's instrumentation trick (§2.3): a corrupted
            # database makes the browser default-allow every caller, so
            # not-Allowed call attempts become observable.
            self.allowlist_db.corrupt()

        selector = EpochTopicsSelector(
            classifier=classifier if classifier is not None else SiteClassifier(),
            user_seed=user_seed,
        )
        # The paper's crawler opts the profile in (§2.2); a default Chrome
        # profile outside the 1% rollout would have topics_enabled=False.
        self.topics_manager = BrowsingTopicsSiteDataManager(
            selector=selector,
            allowlist_db=self.allowlist_db,
            topics_enabled=topics_enabled,
        )
        self._cache = BrowserCache()
        self._visit_counter = 0
        self._failed_attempts: dict[str, int] = {}
        self._planner = world.visit_planner(script_origin_mode)

    # -- profile management --------------------------------------------------------

    def clear_cache(self) -> None:
        """Drop the object cache (between Before- and After-Accept)."""
        self._cache.clear()

    def refresh_allowlist(self) -> None:
        """Re-install a healthy allow-list component (browser restart)."""
        self.allowlist_db.update(self._world.registry.allowlist().serialize())

    # -- state snapshot / restore ----------------------------------------------------

    def state_snapshot(self) -> dict:
        """Everything a checkpoint must capture to resume this profile.

        The snapshot is a plain JSON-serialisable dict covering every
        piece of state a visit reads: the simulated clock, the visit
        counter (the pacing-RNG cursor — ``load_seconds`` is drawn from
        it), the per-domain failed-attempt counts (transient failures
        recover on the second try), the consent ledger, the object
        cache, the cookie jar, the tracking-impression log and the full
        per-epoch Topics browsing history.  Restoring it into a freshly
        constructed browser (same world, seed and allow-list mode)
        reproduces the exact visit stream an uninterrupted run would
        have produced — the resume-equivalence tests pin this byte for
        byte.  Derived state (selector epoch caches, drained call log)
        is deliberately excluded: it is recomputed on demand.
        """
        history = self.topics_manager.history
        epochs = {}
        for epoch in history.epochs():
            record = history._epochs[epoch]
            epochs[str(epoch)] = {
                "visits": dict(sorted(record.visit_counts.items())),
                "observers": {
                    site: sorted(callers)
                    for site, callers in sorted(record.observers.items())
                },
            }
        return {
            "clock_now": self.clock.now(),
            "rng_cursor": self._visit_counter,
            "failed_attempts": dict(sorted(self._failed_attempts.items())),
            "consent": sorted(self.consent._granted),
            "cache": sorted(self._cache._entries),
            "allowlist_corrupt": self.allowlist_db.is_corrupt,
            "cookies": [
                {
                    "domain": cookie.domain,
                    "name": cookie.name,
                    "value": cookie.value,
                    "created_at": cookie.created_at,
                    "third_party": cookie.third_party,
                }
                for (_, _), cookie in sorted(self.cookie_jar._store.items())
            ],
            "impressions": [list(entry) for entry in self.cookie_tracker.impressions],
            "history": epochs,
        }

    def restore_state(self, snapshot: dict) -> None:
        """Rehydrate a profile from :meth:`state_snapshot`'s output.

        The browser must have been constructed for the same world with
        the same ``user_seed`` and allow-list mode; only mutable visit
        state is restored here.
        """
        if bool(snapshot["allowlist_corrupt"]) != self.allowlist_db.is_corrupt:
            raise ValueError(
                "allow-list mode mismatch: snapshot was taken with "
                f"corrupt={snapshot['allowlist_corrupt']}, browser has "
                f"corrupt={self.allowlist_db.is_corrupt}"
            )
        self.clock.advance_to(int(snapshot["clock_now"]))
        self._visit_counter = int(snapshot["rng_cursor"])
        self._failed_attempts = {
            domain: int(count)
            for domain, count in snapshot["failed_attempts"].items()
        }
        self.consent.clear()
        for domain in snapshot["consent"]:
            self.consent.grant(domain)
        self._cache.clear()
        for url in snapshot["cache"]:
            self._cache._entries.add(url)
        self.cookie_jar.clear()
        for payload in snapshot["cookies"]:
            self.cookie_jar._store[(payload["domain"], payload["name"])] = Cookie(
                domain=payload["domain"],
                name=payload["name"],
                value=payload["value"],
                created_at=payload["created_at"],
                third_party=payload["third_party"],
            )
        self.cookie_tracker.impressions = [
            tuple(entry) for entry in snapshot["impressions"]
        ]
        history = self.topics_manager.history
        history.clear()
        for epoch_key, record in snapshot["history"].items():
            epoch = int(epoch_key)
            for site, count in record["visits"].items():
                history._epochs[epoch].visit_counts[site] = int(count)
            for site, callers in record["observers"].items():
                history._epochs[epoch].observers[site].update(callers)

    def state_digest(self) -> str:
        """Stable hex digest of the current profile state.

        Checkpoints store it so a restore can verify the rehydrated
        browser matches the state the writer captured.
        """
        return state_digest_of(self.state_snapshot())

    # -- instrumentation ------------------------------------------------------------

    def _trace_failed_visit(
        self, domain: str, error: str, load_seconds: int
    ) -> None:
        self._metrics.counter("browser_visits_total", outcome="failed")
        self._metrics.counter("browser_failures_total", kind=error)
        self._metrics.observe("visit_seconds", load_seconds, outcome="failed")
        self._tracer.emit(
            EventKind.VISIT_FINISHED,
            at=self.clock.now(),
            domain=domain,
            ok=False,
            error=error,
            load_seconds=load_seconds,
        )

    def _record_failed_stage(
        self, domain: str, error: str, load_seconds: int
    ) -> None:
        """A failed load spends its whole window failing to navigate."""
        end = float(self.clock.now())
        self._spans.record(
            SPAN_NAVIGATE,
            end - load_seconds,
            end,
            domain=domain,
            ok=False,
            error=error,
        )

    def _record_stage_spans(
        self,
        domain: str,
        load_seconds: int,
        fetches: int,
        scripts_run: int,
        calls: tuple,
        redirected: bool,
    ) -> None:
        """Carve the visit's load window into per-stage spans.

        The simulated clock paces whole visits (1–2 s each), so stage
        boundaries inside the window are apportioned from the visit's
        actual work mix — resource fetches, script executions, Topics
        calls — keeping the profile deterministic and the tree exactly
        within the visit interval.
        """
        end = float(self.clock.now())
        start = end - load_seconds
        nav_work = 1.0 + 0.25 * fetches
        script_work = 0.5 * scripts_run
        topics_work = 0.1 * len(calls)
        total = nav_work + script_work + topics_work
        nav_end = start + load_seconds * (nav_work / total)
        script_end = start + load_seconds * ((nav_work + script_work) / total)
        if not scripts_run and not calls:
            nav_end = end
        if scripts_run and not calls:
            script_end = end
        self._spans.record(
            SPAN_NAVIGATE,
            start,
            nav_end,
            domain=domain,
            fetches=fetches,
            redirected=redirected,
        )
        if scripts_run:
            self._spans.record(
                SPAN_SCRIPT_EXEC, nav_end, script_end, scripts=scripts_run
            )
        if calls:
            per_call = (end - script_end) / len(calls)
            cursor = script_end
            for index, call in enumerate(calls):
                call_end = end if index == len(calls) - 1 else cursor + per_call
                self._spans.record(
                    SPAN_TOPICS_CALL,
                    cursor,
                    call_end,
                    caller=call.caller,
                    call_type=call.call_type.value,
                    decision=call.decision.value,
                )
                cursor = call_end

    # -- navigation -----------------------------------------------------------------

    def visit(self, domain: str, consent_granted: bool | None = None) -> VisitOutcome:
        """Load ``domain``'s landing page and run everything on it.

        ``consent_granted`` defaults to the consent ledger's state for the
        site; the crawler passes nothing and manages the ledger instead.
        """
        self._visit_counter += 1
        # Page loads pace the simulated clock; ~1.5 s per visit lands a
        # 50k-site double crawl in about a day, as in the paper.
        load_seconds = 1 + stable_digest("visit", str(self._visit_counter)) % 2
        self.clock.advance(load_seconds)
        instrumented = self._tracer.enabled or self._metrics.enabled
        if instrumented:
            self._tracer.emit(
                EventKind.VISIT_STARTED,
                at=self.clock.now(),
                domain=domain,
                visit_index=self._visit_counter,
            )

        site = self._world.resolve(domain)
        if site is None:
            if instrumented:
                self._trace_failed_visit(domain, ERROR_UNKNOWN_HOST, load_seconds)
            if self._spans.enabled:
                self._record_failed_stage(domain, ERROR_UNKNOWN_HOST, load_seconds)
            return VisitOutcome(
                requested_domain=domain, ok=False, error=ERROR_UNKNOWN_HOST
            )
        if not site.reachable:
            self._failed_attempts[domain] = self._failed_attempts.get(domain, 0) + 1
            # Transient timeouts recover on a subsequent attempt.
            if not (site.transient_failure and self._failed_attempts[domain] >= 2):
                kind = failure_kind_for(domain, site.transient_failure)
                if instrumented:
                    self._tracer.emit(
                        EventKind.FAILURE_INJECTED,
                        at=self.clock.now(),
                        domain=domain,
                        failure_kind=kind.value,
                        transient=site.transient_failure,
                        attempt=self._failed_attempts[domain],
                    )
                    self._trace_failed_visit(domain, kind.value, load_seconds)
                if self._spans.enabled:
                    self._record_failed_stage(domain, kind.value, load_seconds)
                return VisitOutcome(
                    requested_domain=domain, ok=False, error=kind.value
                )

        if consent_granted is None:
            consent_granted = self.consent.is_granted(domain)
        return self._planned_visit(
            domain,
            consent_granted,
            load_seconds,
            redirected=site.redirect_to is not None,
        )

    def _planned_visit(
        self,
        domain: str,
        consent_granted: bool,
        load_seconds: int,
        redirected: bool,
    ) -> VisitOutcome:
        """Execute a visit from its precomputed :class:`SitePlan`.

        Performs the visit's state mutations — page history, cache
        inserts, cookie impressions, Topics calls and observations, in
        page order — reading every static decision (which tags run, who
        calls, how often) from the plan, then reports the visit to the
        tracer, metrics and span recorder.  Reachable sites only; the
        caller has already resolved reachability, retries and consent.
        """
        plan = self._planner.plan_for(domain, consent_granted)
        manager = self.topics_manager
        tracker = self.cookie_tracker
        telemetry = self._telemetry
        tracer = self._tracer
        metrics = self._metrics
        instrumented = tracer.enabled or metrics.enabled
        now = self.clock.now()
        page_domain = plan.page_domain

        self._cache._entries.update(plan.cache_urls)
        manager.record_page_visit(page_domain, now)
        call_mark = manager.call_count
        enabled = manager.topics_enabled
        fired_urls: list[str] | None = [] if plan.conditional else None

        for op in plan.ops:
            if op.impression_host is not None:
                tracker.track_impression(op.impression_host, page_domain, now)
            call = op.call
            if call is None:
                continue
            if op.policy is not None:
                if not op.policy.is_enabled(op.caller, page_domain, now):
                    continue
                # A fired conditional call fetches its endpoint whether or
                # not the API itself is enabled (the fetch precedes the
                # call).  Its registrable domain is its caller's, which the
                # plan already loads: third parties and CMP stay the plan's.
                self._cache._entries.add(call.fetch_url)
                fired_urls.append(call.fetch_url)
            if not enabled:
                # Every attempt raises before mutating any state; ad tags
                # swallow it, rogue loops bail out.
                continue
            # JavaScript calls observe in-call; fetch and iframe calls
            # record the observation after an allowed call.
            observe = call.javascript
            for _ in range(call.count):
                manager.handle_topics_call(
                    call.caller_host, page_domain, call.call_type, now, observe=observe
                )
                if instrumented:
                    instrument_topics_call(telemetry, manager.last_call)
                if not observe and manager.last_call.decision.allowed:
                    manager.record_caller_observation(
                        call.caller_host, page_domain, now
                    )

        calls = tuple(manager.drain_calls_since(call_mark))
        if self._spans.enabled:
            self._record_stage_spans(
                domain, load_seconds, plan.fetches, plan.scripts_run, calls, redirected
            )
        if instrumented:
            metrics.counter("browser_visits_total", outcome="ok")
            metrics.observe("visit_seconds", load_seconds, outcome="ok")
            tracer.emit(
                EventKind.VISIT_FINISHED,
                at=now,
                domain=domain,
                ok=True,
                final_domain=page_domain,
                consent_granted=consent_granted,
                third_parties=len(plan.third_parties),
                topics_calls=len(calls),
                load_seconds=load_seconds,
            )
        return VisitOutcome(
            requested_domain=domain,
            ok=True,
            final_domain=page_domain,
            url=plan.url,
            final_url=plan.final_url,
            consent_granted=consent_granted,
            banner=plan.banner,
            fetched_urls=(
                plan.cache_urls + tuple(fired_urls) if fired_urls else plan.cache_urls
            ),
            third_parties=plan.third_parties,
            detected_cmp=plan.cmp,
            topics_calls=calls,
        )
