"""Precomputed visit plans: how the browser executes a page.

Page materialisation and tag execution are deterministic per
(requested domain, consent state, script-origin mode): which tags a
page carries, which URLs they fetch, which ad tags fire, as what caller,
with which call type and how many repeats — all of it is a stable
function of world data.  Recomputing it on every visit would dominate
the shard inner loop, so :meth:`Browser.visit` replays compiled plans.

A :class:`VisitPlanner` compiles each (domain, consent) variant **once**,
on the first visit that needs it, into a :class:`SitePlan`:

* the static fetch surface — the deduplicated URL strings for the
  browser cache and the sorted third-party registrable domains, shared
  by every visit instead of rebuilt per visit — plus the fetch and
  script-execution counts the visit's stage spans are carved from.
  Loaded hosts are not stored: every host a plan contacts is the host
  of a URL it fetches, so :attr:`SitePlan.loaded_hosts` derives them;
* the pre-detected CMP name (Wappalyzer-style detection over the
  page's registrable domains — the batched topic-classification/
  allow-list sibling checks happen inside the manager, which the plan
  still calls per visit);
* an ordered op list for the state-mutating work that must run per
  visit: cookie-tracking impressions and Topics API invocations, with
  caller host / call type / repeat count resolved ahead of time.

The compile reads per-party tables the planner fills once per party: a
plain party (not consent-gated, not an ad, not the tag manager) is one
``domain → script URL`` lookup; the others keep an :class:`_Embed` whose
ad ops are interned by (call type, count, conditional), so every plan
shares at most 12 op objects per calling party.  Per-(party, site)
decisions stay per variant: each is one SHA-256 over its digest inputs
(:class:`repro.web.thirdparty.TopicsPolicy`), and the two consent
variants of a site rarely repeat one.

Variants compile independently: the crawl visits every reachable domain
Before-Accept but only the accepted ones After-Accept, so an After-Accept
plan is built only for a domain the crawl actually accepted.

Plans bake **no per-profile state**: browsing history, the cookie jar,
allow-list gating, epoch topic selection and the clock all flow through
the manager/tracker entry points in page order at visit time.  The only
time-dependent decision — an alternating A/B policy's ON/OFF window
(doubleclick.net, criteo.com) — stays dynamic: such ops carry their
policy and are re-evaluated against the visit clock.  A fired call adds
only its endpoint URL to the visit: its registrable domain is its
caller's, whose tag the plan already loads, so the third parties and
the CMP verdict never change.  Instrumented and bare browsers replay
the same plans; telemetry only reads what the replay did (the
metamorphic harness's instrumentation-transparency relation pins the
datasets equal).

``tests/plan_walk.py`` keeps the reference page walk that materialises
each page and walks its tags; ``tests/test_visit_plan.py`` pins the
compile equal to it for every site of a generated world.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.browser.context import ScriptOriginMode
from repro.browser.topics.types import ApiCallType
from repro.util.psl import etld_plus_one
from repro.util.urls import hosts_of
from repro.web.site import SCRIPT_PATHS, RogueVariant
from repro.web.thirdparty import GTM_DOMAIN, ThirdPartyCategory, TopicsPolicy

if TYPE_CHECKING:
    from repro.web.banner import ConsentBanner
    from repro.web.config import WorldConfig
    from repro.web.generator import SyntheticWeb
    from repro.web.site import Website
    from repro.web.thirdparty import ThirdParty

_GTM_HOST = f"www.{GTM_DOMAIN}"
_GTM_URL = f"https://{_GTM_HOST}/gtm.js?id=GTM-XXXX"
_LIB_DOMAIN = "adwidgets-lib.com"
_LIB_HOST = f"cdn.{_LIB_DOMAIN}"
_LIB_URL = f"https://{_LIB_HOST}/widget/loader.js"

#: call type -> (endpoint host label, endpoint path) of an ad call
_CALL_ENDPOINTS: dict[ApiCallType, tuple[str, str]] = {
    ApiCallType.JAVASCRIPT: ("frame", "/topics.html"),
    ApiCallType.FETCH: ("bid", "/topics/bid"),
    ApiCallType.IFRAME: ("ads", "/render/ad.html"),
}


def environment_multiplier(site: "Website", config: "WorldConfig") -> float:
    """How the visited site's consent setup modulates pre-consent ad
    calls: no banner → no consent string, services stay mostly
    conservative; a leaky CMP mis-signals consent and services trust
    it; a home-grown non-gating banner sits in between."""
    banner = site.banner
    if banner is None:
        return config.questionable_multiplier_no_banner
    if banner.cmp is not None and not banner.gates_before_consent:
        return config.questionable_multiplier_leaky_cmp
    return config.questionable_multiplier_custom_banner


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

    @property
    def loaded_hosts(self) -> tuple[str, ...]:
        """Every host the visit contacts, sorted (those of ``cache_urls``)."""
        return hosts_of(self.cache_urls)


@dataclass(frozen=True, slots=True)
class _Embed:
    """A consent-gated, ad or tag-manager party's site-independent facts,
    resolved once per planner."""

    domain: str
    #: the catalogue entry when its tag waits for consent, else None
    gated_service: "ThirdParty | None"
    tag_manager: bool
    ads: bool
    url: str
    policy: TopicsPolicy | None
    #: the op of an ad tag that loads but does not call (shared)
    impression: PlannedOp
    #: interned call ops, keyed by (call type, count, conditional)
    call_ops: dict[tuple[ApiCallType, int, bool], PlannedOp] = field(
        default_factory=dict
    )

    def call_op(self, page_domain: str, conditional: bool) -> PlannedOp:
        """The op of this party's ad tag calling on ``page_domain``."""
        policy = self.policy
        call_type = policy.pick_call_type(self.domain, page_domain)
        count = policy.calls_on_page(self.domain, page_domain)
        key = (call_type, count, conditional)
        op = self.call_ops.get(key)
        if op is None:
            label, path = _CALL_ENDPOINTS[call_type]
            host = f"{label}.{self.domain}"
            call = PlannedCall(
                caller_host=host,
                call_type=call_type,
                count=count,
                javascript=call_type is ApiCallType.JAVASCRIPT,
                fetch_url=f"https://{host}{path}",
            )
            op = self.call_ops.setdefault(
                key,
                PlannedOp(
                    impression_host=self.impression.impression_host,
                    call=call,
                    policy=policy if conditional else None,
                    caller=self.domain if conditional else "",
                ),
            )
        return op


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
        #: plain party domain -> its script URL
        self._plain: dict[str, str] = {}
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

    # ``_compile_final`` goes straight from ``Website`` fields to one
    # SitePlan without materialising PageModel/ScriptTag/Url objects — it
    # mirrors ``Website.build_page`` plus the reference page walk in
    # ``tests/plan_walk.py`` tag for tag; ``tests/test_visit_plan.py``
    # pins compile ≡ walk for every site of a generated world.

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

    def _add_party(self, tp_domain: str) -> str | None:
        """Record a first-seen party; its script URL if it is plain."""
        world = self._world
        service = world.third_parties.get(tp_domain)
        category = service.category if service else ThirdPartyCategory.WIDGET
        host = f"static.{tp_domain}"
        url = f"https://{host}{SCRIPT_PATHS[category]}"
        gated = service if service and service.consent_gated else None
        tag_manager = category is ThirdPartyCategory.TAG_MANAGER
        ads = category is ThirdPartyCategory.ADS
        if gated is None and not tag_manager and not ads:
            return self._plain.setdefault(tp_domain, url)
        self._embeds.setdefault(
            tp_domain,
            _Embed(
                domain=tp_domain,
                gated_service=gated,
                tag_manager=tag_manager,
                ads=ads,
                url=url,
                policy=world.policy_of(tp_domain),
                impression=PlannedOp(impression_host=host),
            ),
        )
        return None

    def _compile_final(self, site: "Website", consent: bool) -> SitePlan:
        # Registrable domains are tracked alongside URLs instead of being
        # re-derived per host at assembly: every URL the compiler emits
        # has a known eTLD+1 by construction (``static.{tp}`` → ``tp``,
        # ``www.{d}`` → ``d``, …); only rogue frame hosts need a lookup.
        world = self._world
        page_domain = site.domain
        page_host = f"www.{page_domain}"
        page_url = f"https://{page_host}/"
        banner = site.banner
        rogue = site.rogue
        rogue_fires = rogue is not None and (consent or rogue.fires_before_consent)
        script_url_mode = self._mode is ScriptOriginMode.SCRIPT_URL

        urls = [page_url, f"{page_url}static/site.css", f"{page_url}static/logo.png"]
        regs = {page_domain}
        ops: list[PlannedOp] = []
        scripts = frames = 0
        conditional = False
        enforce = site.gates_before_consent
        #: computed on the first Before-Accept ad decision that needs it
        multiplier: float | None = None

        if banner is not None and banner.cmp is not None:
            cmp_domain = world.cmp_domain(banner.cmp)
            urls.append(f"https://cdn.{cmp_domain}/cmp/stub.js")
            regs.add(cmp_domain)
            scripts += 1

        plain = self._plain
        embeds = self._embeds
        for tp_domain in site.embedded:
            url = plain.get(tp_domain)
            if url is None and tp_domain not in embeds:
                url = self._add_party(tp_domain)
            if url is not None:
                urls.append(url)
                regs.add(tp_domain)
                scripts += 1
                continue
            embed = embeds[tp_domain]
            if embed.tag_manager:
                urls.append(_GTM_URL)
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
                ops.append(embed.call_op(page_domain, True))
                conditional = True
                continue
            if consent:
                # now is unused for non-alternating policies (window="static")
                fires = policy.is_enabled(tp_domain, page_domain, 0)
            elif policy.calls_before_consent:
                if multiplier is None:
                    multiplier = environment_multiplier(site, world.config)
                fires = policy.calls_in_before_accept(
                    tp_domain, page_domain, multiplier
                )
            else:
                fires = False
            if not fires:
                ops.append(embed.impression)
                continue
            op = embed.call_op(page_domain, False)
            urls.append(op.call.fetch_url)
            ops.append(op)

        if rogue is not None and rogue.variant is RogueVariant.ROOT_LIB:
            urls.append(_LIB_URL)
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
            regs.add(etld_plus_one(frame_host))
            frames += 1
            scripts += 1
            if rogue_fires:
                # Both script-origin modes resolve to the frame host: the
                # inner tag's src host equals the frame's.
                ops.append(_rogue_op(frame_host, rogue.call_count))

        cmp_name = world.cmps.detect_from_registrables(regs)
        regs.discard(page_domain)
        return SitePlan(
            page_domain=page_domain,
            url=page_url,
            final_url=page_url,
            banner=banner,
            cmp=cmp_name,
            cache_urls=tuple(dict.fromkeys(urls)),
            third_parties=tuple(sorted(regs)),
            ops=tuple(ops),
            # the page and its two resources, then one fetch per tag
            fetches=3 + frames + scripts,
            scripts_run=scripts,
            conditional=conditional,
        )
