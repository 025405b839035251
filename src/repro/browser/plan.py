"""Precomputed visit plans: how the browser executes a page.

Page materialisation and tag execution are deterministic per
(requested domain, consent state, script-origin mode): which tags a
page carries, which URLs they fetch, which ad tags fire, as what caller,
with which call type and how many repeats — all of it is a stable
function of world data.  Recomputing it on every visit would dominate
the shard inner loop, so :meth:`Browser.visit` replays compiled plans.

A :class:`VisitPlanner` compiles each (domain, consent) variant **once**,
on the first visit that needs it, into a :class:`SitePlan`:

* the static fetch surface — URL strings for the browser cache, the
  sorted loaded hosts and the sorted third-party registrable domains,
  shared by every visit instead of rebuilt per visit — plus the fetch
  and script-execution counts the visit's stage spans are carved from;
* the pre-detected CMP name (Wappalyzer-style detection over the static
  host set — the batched topic-classification/allow-list sibling checks
  happen inside the manager, which the plan still calls per visit);
* an ordered op list for the state-mutating work that must run per
  visit: cookie-tracking impressions and Topics API invocations, with
  caller host / call type / repeat count resolved ahead of time.

Variants compile independently: the crawl visits every reachable domain
Before-Accept but only the accepted ones After-Accept, so an After-Accept
plan is built only for a domain the crawl actually accepted.

Plans bake **no per-profile state**: browsing history, the cookie jar,
allow-list gating, epoch topic selection and the clock all flow through
the manager/tracker entry points in page order at visit time.  The only
time-dependent decision — an alternating A/B policy's ON/OFF window
(doubleclick.net, criteo.com) — stays dynamic: such ops carry their
policy and are re-evaluated against the visit clock.  Instrumented and
bare browsers replay the same plans; telemetry only reads what the
replay did (the metamorphic harness's instrumentation-transparency
relation pins the datasets equal).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.browser.context import ScriptOriginMode
from repro.browser.topics.types import ApiCallType
from repro.util.psl import etld_plus_one
from repro.web.page import ScriptKind, ScriptTag
from repro.web.site import SCRIPT_PATHS, RogueVariant
from repro.web.thirdparty import GTM_DOMAIN, ThirdPartyCategory, TopicsPolicy

if TYPE_CHECKING:
    from repro.web.banner import ConsentBanner
    from repro.web.generator import SyntheticWeb
    from repro.web.site import Website
    from repro.web.thirdparty import ThirdParty

_GTM_HOST = f"www.{GTM_DOMAIN}"
_GTM_URL = f"https://{_GTM_HOST}/gtm.js?id=GTM-XXXX"
_LIB_DOMAIN = "adwidgets-lib.com"
_LIB_HOST = f"cdn.{_LIB_DOMAIN}"
_LIB_URL = f"https://{_LIB_HOST}/widget/loader.js"


@dataclass(frozen=True, slots=True)
class PlannedCall:
    """One statically resolved Topics API invocation burst.

    ``javascript`` calls observe in-call (``document.browsingTopics()``);
    the fetch/iframe surfaces call with ``observe=False`` and record the
    observation afterwards when the response opts in and the call was
    allowed — exactly the split in :mod:`repro.browser.topics.api`.
    ``fetch_url`` is only set on ad calls: a conditional
    (alternating-policy) op's fetch joins the visit's cache surface when
    the policy fires; static ops' fetches are already part of the plan's
    URL set.  Rogue calls fetch nothing.
    """

    caller_host: str
    call_type: ApiCallType
    count: int
    javascript: bool
    fetch_url: str | None = None
    fetch_host: str | None = None
    fetch_registrable: str | None = None


@dataclass(frozen=True, slots=True)
class PlannedOp:
    """One page-order step of per-visit mutable work.

    ``impression_host`` fires cookie tracking (every executed ad tag);
    ``call`` is the tag's Topics invocation, if its policy said ON at
    plan time.  ``policy`` is set only for alternating policies, whose
    ON/OFF window must be re-evaluated per visit (with ``caller`` as the
    policy's subject).
    """

    impression_host: str | None = None
    call: PlannedCall | None = None
    policy: TopicsPolicy | None = None
    caller: str = ""


def _rogue_op(caller_host: str, count: int) -> PlannedOp:
    """A first-party-context ``document.browsingTopics()`` burst."""
    return PlannedOp(
        call=PlannedCall(
            caller_host=caller_host,
            call_type=ApiCallType.JAVASCRIPT,
            count=count,
            javascript=True,
        )
    )


@dataclass(frozen=True, slots=True)
class SitePlan:
    """Everything a visit to one (domain, consent) variant does."""

    page_domain: str
    url: str
    final_url: str
    banner: "ConsentBanner | None"
    cmp: str | None
    #: every URL the visit fetches (deduplicated) — bulk-inserted into
    #: the browser cache
    cache_urls: tuple[str, ...]
    #: every host the visit contacts, sorted
    loaded_hosts: tuple[str, ...]
    #: registrable domains of the loaded hosts other than the page's, sorted
    third_parties: tuple[str, ...]
    ops: tuple[PlannedOp, ...]
    #: tag fetches: the page, its resources, scripts and iframes (ad-call
    #: endpoints are not counted) — the navigate span's work measure
    fetches: int
    #: script tags executed
    scripts_run: int
    #: True when any op carries an alternating policy (per-visit re-check)
    conditional: bool = False
    #: True when a fired conditional host could flip CMP detection (never
    #: in the shipped catalogue; kept for correctness with custom worlds)
    cmp_rescan: bool = False


@dataclass(frozen=True, slots=True)
class _Embed:
    """A third party's site-independent facts, resolved once per planner."""

    #: the catalogue entry when its tag waits for consent, else None
    gated_service: "ThirdParty | None"
    tag_manager: bool
    ads: bool
    host: str
    url: str
    policy: TopicsPolicy | None
    #: the op of an ad tag that loads but does not call (shared)
    impression: PlannedOp


class VisitPlanner:
    """Per-world, per-script-origin-mode cache of :class:`SitePlan`s.

    Shared by every browser over one world (serial shards, all threads,
    and — via the worker world cache — every campaign a worker process
    runs), so each (domain, consent) variant is compiled at most once per
    process, and only if some visit asks for it.
    """

    def __init__(self, world: "SyntheticWeb", mode: ScriptOriginMode) -> None:
        self._world = world
        self._mode = mode
        self._plans: dict[tuple[str, bool], SitePlan] = {}
        self._embeds: dict[str, _Embed] = {}

    def plan_for(self, domain: str, consent_granted: bool) -> SitePlan:
        """The plan of ``domain``'s page in one consent state.

        Compiled on the first request for that (domain, consent) variant
        and cached for the world's lifetime; the other variant is not
        touched.
        """
        key = (domain, consent_granted)
        plan = self._plans.get(key)
        if plan is None:
            # setdefault keeps the first builder's plan under concurrent
            # thread-backend races; both builds are identical anyway.
            plan = self._plans.setdefault(key, self._compile(domain, consent_granted))
        return plan

    # -- direct compilation (the hot path) -------------------------------------
    #
    # ``_compile_final`` goes straight from ``Website`` fields to one
    # SitePlan without materialising PageModel/ScriptTag/Url objects — it
    # mirrors ``Website.build_page`` plus the page walk in ``_build`` tag
    # for tag.  ``_build`` below stays as the reference implementation;
    # ``tests/test_visit_plan.py`` pins compile ≡ walk for every site of a
    # generated world, so the two cannot drift silently.

    def _compile(self, domain: str, consent: bool) -> SitePlan:
        world = self._world
        site = world.site(domain)
        if site.redirect_to is None:
            return self._compile_final(site, consent)
        final = world.site(site.redirect_to)
        if final.redirect_to is None:
            # Share the target's cached plan; only the requested URL
            # differs.  (Redirect chains fall through to a direct compile
            # because a second hop would change the page.)
            key = (final.domain, consent)
            target = self._plans.get(key)
            if target is None:
                target = self._plans.setdefault(
                    key, self._compile_final(final, consent)
                )
        else:
            target = self._compile_final(final, consent)
        return replace(target, url=f"https://www.{site.domain}/")

    def _embed(self, tp_domain: str) -> _Embed:
        world = self._world
        service = world.third_parties.get(tp_domain)
        category = service.category if service else ThirdPartyCategory.WIDGET
        host = f"static.{tp_domain}"
        return self._embeds.setdefault(
            tp_domain,
            _Embed(
                gated_service=service if service and service.consent_gated else None,
                tag_manager=category is ThirdPartyCategory.TAG_MANAGER,
                ads=category is ThirdPartyCategory.ADS,
                host=host,
                url=f"https://{host}{SCRIPT_PATHS[category]}",
                policy=world.policy_of(tp_domain),
                impression=PlannedOp(impression_host=host),
            ),
        )

    def _compile_final(self, site: "Website", consent: bool) -> SitePlan:
        # Registrable domains are tracked alongside hosts instead of being
        # re-derived per host at assembly: every host the compiler emits
        # has a known eTLD+1 by construction (``static.{tp}`` → ``tp``,
        # ``www.{d}`` → ``d``, …); only rogue frame hosts need a lookup.
        # The compile ≡ page-walk test pins this against ``_build``, which
        # still derives everything through ``etld_plus_one``.
        world = self._world
        page_domain = site.domain
        page_host = f"www.{page_domain}"
        page_url = f"https://{page_host}/"
        banner = site.banner
        rogue = site.rogue
        rogue_fires = rogue is not None and (consent or rogue.fires_before_consent)
        script_url_mode = self._mode is ScriptOriginMode.SCRIPT_URL

        urls = [page_url, f"{page_url}static/site.css", f"{page_url}static/logo.png"]
        hosts = {page_host}
        regs = {page_domain}
        ops: list[PlannedOp] = []
        scripts = frames = 0
        conditional = False
        enforce = site.gates_before_consent
        multiplier = None if consent else self._environment_multiplier(page_domain)

        if banner is not None and banner.cmp is not None:
            cmp_domain = world.cmp_domain(banner.cmp)
            cmp_host = f"cdn.{cmp_domain}"
            urls.append(f"https://{cmp_host}/cmp/stub.js")
            hosts.add(cmp_host)
            regs.add(cmp_domain)
            scripts += 1

        embeds = self._embeds
        for tp_domain in site.embedded:
            embed = embeds.get(tp_domain) or self._embed(tp_domain)
            if embed.tag_manager:
                urls.append(_GTM_URL)
                hosts.add(_GTM_HOST)
                regs.add(GTM_DOMAIN)
                scripts += 1
                if (
                    rogue_fires
                    and rogue.variant is RogueVariant.ROOT_GTM
                    and tp_domain == GTM_DOMAIN
                ):
                    caller_host = _GTM_HOST if script_url_mode else page_host
                    ops.append(_rogue_op(caller_host, rogue.call_count))
                continue

            service = embed.gated_service
            if (
                not consent
                and service is not None
                and (enforce or not service.loads_preconsent_on(page_domain))
            ):
                continue  # the tag waits for consent
            urls.append(embed.url)
            hosts.add(embed.host)
            regs.add(tp_domain)
            scripts += 1
            if not embed.ads:
                continue
            policy = embed.policy
            if policy is None:
                ops.append(embed.impression)
                continue
            if consent and policy.alternating_period is not None:
                # The ON/OFF window depends on the visit clock: bake the
                # call shape, defer the fire decision.
                ops.append(
                    PlannedOp(
                        impression_host=embed.host,
                        call=self._planned_ad_call(policy, tp_domain, page_domain),
                        policy=policy,
                        caller=tp_domain,
                    )
                )
                conditional = True
                continue
            if consent:
                # now is unused for non-alternating policies (window="static")
                fires = policy.is_enabled(tp_domain, page_domain, 0)
            else:
                fires = policy.calls_in_before_accept(
                    tp_domain, page_domain, multiplier
                )
            if not fires:
                ops.append(embed.impression)
                continue
            call = self._planned_ad_call(policy, tp_domain, page_domain)
            urls.append(call.fetch_url)
            hosts.add(call.fetch_host)
            regs.add(tp_domain)
            ops.append(PlannedOp(impression_host=embed.host, call=call))

        if rogue is not None and rogue.variant is RogueVariant.ROOT_LIB:
            urls.append(_LIB_URL)
            hosts.add(_LIB_HOST)
            regs.add(_LIB_DOMAIN)
            scripts += 1
            if rogue_fires:
                caller_host = _LIB_HOST if script_url_mode else page_host
                ops.append(_rogue_op(caller_host, rogue.call_count))
        elif rogue is not None and rogue.variant in (
            RogueVariant.SIBLING,
            RogueVariant.ENTITY,
        ):
            frame_host = rogue.caller_host
            urls.append(f"https://{frame_host}/embed/frame.html")
            urls.append(f"https://{frame_host}/embed/inner.js")
            hosts.add(frame_host)
            regs.add(etld_plus_one(frame_host))
            frames += 1
            scripts += 1
            if rogue_fires:
                # Both script-origin modes resolve to the frame host: the
                # inner tag's src host equals the frame's.
                ops.append(_rogue_op(frame_host, rogue.call_count))

        third_parties = regs - {page_domain}
        cmps = world.cmps
        cmp_name = cmps.detect_from_registrables(regs)
        cmp_rescan = False
        if conditional:
            with_fired = set(regs)
            for op in ops:
                if op.policy is not None and op.call is not None:
                    with_fired.add(op.caller)
            cmp_rescan = cmps.detect_from_registrables(with_fired) != cmp_name
        return SitePlan(
            page_domain=page_domain,
            url=page_url,
            final_url=page_url,
            banner=banner,
            cmp=cmp_name,
            cache_urls=tuple(dict.fromkeys(urls)),
            loaded_hosts=tuple(sorted(hosts)),
            third_parties=tuple(sorted(third_parties)),
            ops=tuple(ops),
            # the page and its two resources, then one fetch per tag
            fetches=3 + frames + scripts,
            scripts_run=scripts,
            conditional=conditional,
            cmp_rescan=cmp_rescan,
        )

    # -- reference builder (page walk) -----------------------------------------

    def _build(self, domain: str, consent: bool) -> SitePlan:
        world = self._world
        site = world.site(domain)
        final_site = site
        if site.redirect_to is not None:
            final_site = world.site(site.redirect_to)
        page = final_site.build_page(world)
        page_domain = final_site.domain

        urls: list[str] = [str(page.url)]
        hosts: set[str] = {page.url.host}
        ops: list[PlannedOp] = []
        fetches = 1
        scripts = 0
        conditional = False

        for resource in page.resources:
            if resource.gated and not consent:
                continue
            urls.append(str(resource.src))
            hosts.add(resource.src.host)
            fetches += 1

        for tag in page.scripts:
            if tag.gated and not consent:
                continue
            urls.append(str(tag.src))
            hosts.add(tag.src.host)
            scripts += 1
            conditional |= self._plan_script(
                tag, page_domain, page.url.host, consent, ops, urls, hosts
            )

        for frame in page.iframes:
            if frame.gated and not consent:
                continue
            urls.append(str(frame.src))
            hosts.add(frame.src.host)
            fetches += 1
            if frame.browsingtopics_attr:
                ops.append(
                    PlannedOp(
                        call=PlannedCall(
                            caller_host=frame.src.host,
                            call_type=ApiCallType.IFRAME,
                            count=1,
                            javascript=False,
                        )
                    )
                )
            for inner in frame.scripts:
                urls.append(str(inner.src))
                hosts.add(inner.src.host)
                scripts += 1
                conditional |= self._plan_script(
                    inner, page_domain, frame.src.host, consent, ops, urls, hosts
                )

        third_parties = {etld_plus_one(host) for host in hosts}
        third_parties.discard(page_domain)
        cmp_name = world.cmps.detect_from_domains(hosts)
        cmp_rescan = False
        if conditional:
            # A fired conditional call adds its ad host to the visit's
            # loaded set.  Detection is first-provider-wins, so if adding
            # ALL conditional hosts leaves the verdict unchanged, any
            # fired subset does too; otherwise fall back to per-visit
            # detection (unreachable with the shipped CMP catalogue).
            with_fired = set(hosts)
            for op in ops:
                if op.policy is not None and op.call is not None:
                    with_fired.add(op.call.fetch_host)
            cmp_rescan = world.cmps.detect_from_domains(with_fired) != cmp_name

        return SitePlan(
            page_domain=page_domain,
            url=str(site.url),
            final_url=str(page.url),
            banner=page.banner,
            cmp=cmp_name,
            cache_urls=tuple(dict.fromkeys(urls)),
            loaded_hosts=tuple(sorted(hosts)),
            third_parties=tuple(sorted(third_parties)),
            ops=tuple(ops),
            fetches=fetches + scripts,
            scripts_run=scripts,
            conditional=conditional,
            cmp_rescan=cmp_rescan,
        )

    def _plan_script(
        self,
        tag: ScriptTag,
        page_domain: str,
        context_host: str,
        consent: bool,
        ops: list[PlannedOp],
        urls: list[str],
        hosts: set[str],
    ) -> bool:
        """Plan one script tag's execution; True if it needs a per-visit
        policy re-check (alternating A/B window)."""
        if tag.kind is ScriptKind.AD_TAG:
            return self._plan_ad_tag(tag, page_domain, consent, ops, urls, hosts)
        if tag.kind in (ScriptKind.TAG_MANAGER, ScriptKind.ROGUE_FIRST_PARTY):
            self._plan_infrastructure(tag, context_host, consent, ops)
        # CMP and GENERIC scripts: nothing beyond their own fetch.
        return False

    def _plan_ad_tag(
        self,
        tag: ScriptTag,
        page_domain: str,
        consent: bool,
        ops: list[PlannedOp],
        urls: list[str],
        hosts: set[str],
    ) -> bool:
        caller_domain = etld_plus_one(tag.src.host)
        impression_host = tag.src.host
        policy = self._world.policy_of(caller_domain)
        if policy is None:
            ops.append(PlannedOp(impression_host=impression_host))
            return False
        if consent:
            if policy.alternating_period is not None:
                # The ON/OFF window depends on the visit clock: bake the
                # call shape, defer the fire decision.
                ops.append(
                    PlannedOp(
                        impression_host=impression_host,
                        call=self._planned_ad_call(policy, caller_domain, page_domain),
                        policy=policy,
                        caller=caller_domain,
                    )
                )
                return True
            # now is unused for non-alternating policies (window="static")
            should_call = policy.is_enabled(caller_domain, page_domain, 0)
        else:
            should_call = policy.calls_in_before_accept(
                caller_domain,
                page_domain,
                self._environment_multiplier(page_domain),
            )
        if not should_call:
            ops.append(PlannedOp(impression_host=impression_host))
            return False
        call = self._planned_ad_call(policy, caller_domain, page_domain)
        # Static fire: the per-attempt fetch is part of the fixed surface.
        urls.append(call.fetch_url)
        hosts.add(call.fetch_host)
        ops.append(PlannedOp(impression_host=impression_host, call=call))
        return False

    def _planned_ad_call(
        self, policy: TopicsPolicy, caller: str, page_domain: str
    ) -> PlannedCall:
        call_type = policy.pick_call_type(caller, page_domain)
        count = policy.calls_on_page(caller, page_domain)
        if call_type is ApiCallType.JAVASCRIPT:
            host = f"frame.{caller}"
            url = f"https://{host}/topics.html"
        elif call_type is ApiCallType.FETCH:
            host = f"bid.{caller}"
            url = f"https://{host}/topics/bid"
        else:
            host = f"ads.{caller}"
            url = f"https://{host}/render/ad.html"
        return PlannedCall(
            caller_host=host,
            call_type=call_type,
            count=count,
            javascript=call_type is ApiCallType.JAVASCRIPT,
            fetch_url=url,
            fetch_host=host,
            fetch_registrable=caller,
        )

    def _plan_infrastructure(
        self,
        tag: ScriptTag,
        context_host: str,
        consent: bool,
        ops: list[PlannedOp],
    ) -> None:
        if not tag.rogue_topics_call:
            return
        if not consent and not tag.rogue_fires_before_consent:
            return
        if self._mode is ScriptOriginMode.SCRIPT_URL:
            caller_host = tag.src.host
        else:
            # Real platform behaviour: the embedding context's origin —
            # the page itself at root, the frame host inside an iframe.
            caller_host = context_host
        ops.append(_rogue_op(caller_host, tag.rogue_call_count))

    def _environment_multiplier(self, page_domain: str) -> float:
        """How the visited site's consent setup modulates pre-consent ad
        calls: no banner → no consent string, services stay mostly
        conservative; a leaky CMP mis-signals consent and services trust
        it; a home-grown non-gating banner sits in between."""
        site = self._world.resolve(page_domain)
        config = self._world.config
        if site is None or site.banner is None:
            return config.questionable_multiplier_no_banner
        if site.banner.cmp is not None and not site.banner.gates_before_consent:
            return config.questionable_multiplier_leaky_cmp
        return config.questionable_multiplier_custom_banner
