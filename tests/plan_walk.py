"""The reference page walk: a visit plan built the slow, obvious way.

:func:`walk_plan` materialises a site's page (``Website.build_page``)
and walks its resources, scripts and iframes tag by tag, deriving every
registrable domain and the CMP verdict through ``etld_plus_one`` over
the host set it collects.  It shares no code with the compile in
:mod:`repro.browser.plan` beyond the plan types, so the compile ≡ walk
pin (``tests/test_visit_plan.py``) catches either side drifting.  It
also sees hand-patched ``build_page`` methods, which the compile (that
reads ``Website`` fields directly) does not.
"""

from __future__ import annotations

from repro.browser.context import ScriptOriginMode
from repro.browser.plan import PlannedCall, PlannedOp, SitePlan
from repro.browser.topics.types import ApiCallType
from repro.util.psl import etld_plus_one
from repro.web.generator import SyntheticWeb
from repro.web.page import ScriptKind, ScriptTag
from repro.web.thirdparty import TopicsPolicy


def walk_plan(
    world: SyntheticWeb, mode: ScriptOriginMode, domain: str, consent: bool
) -> tuple[SitePlan, tuple[str, ...]]:
    """``domain``'s plan in one consent state, and its sorted loaded hosts."""
    site = world.site(domain)
    final_site = site
    if site.redirect_to is not None:
        final_site = world.site(site.redirect_to)
    page = final_site.build_page(world)
    walk = _Walk(world, mode, final_site.domain, consent)

    walk.fetch(page.url)
    fetches = 1
    for resource in page.resources:
        if resource.gated and not consent:
            continue
        walk.fetch(resource.src)
        fetches += 1

    for tag in page.scripts:
        if tag.gated and not consent:
            continue
        walk.script(tag, page.url.host)

    for frame in page.iframes:
        if frame.gated and not consent:
            continue
        walk.fetch(frame.src)
        fetches += 1
        if frame.browsingtopics_attr:
            walk.ops.append(
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
            walk.script(inner, frame.src.host)

    third_parties = {etld_plus_one(host) for host in walk.hosts}
    third_parties.discard(final_site.domain)
    plan = SitePlan(
        page_domain=final_site.domain,
        url=str(site.url),
        final_url=str(page.url),
        banner=page.banner,
        cmp=world.cmps.detect_from_domains(walk.hosts),
        cache_urls=tuple(dict.fromkeys(walk.urls)),
        third_parties=tuple(sorted(third_parties)),
        ops=tuple(walk.ops),
        fetches=fetches + walk.scripts,
        scripts_run=walk.scripts,
        conditional=walk.conditional,
    )
    return plan, tuple(sorted(walk.hosts))


def environment_multiplier(world: SyntheticWeb, page_domain: str) -> float:
    """The consent-environment multiplier of ``page_domain``, resolved by
    name (an unknown domain counts as a site without a banner)."""
    site = world.resolve(page_domain)
    config = world.config
    if site is None or site.banner is None:
        return config.questionable_multiplier_no_banner
    if site.banner.cmp is not None and not site.banner.gates_before_consent:
        return config.questionable_multiplier_leaky_cmp
    return config.questionable_multiplier_custom_banner


class _Walk:
    """The URLs, hosts and ops one page walk has collected so far."""

    def __init__(
        self,
        world: SyntheticWeb,
        mode: ScriptOriginMode,
        page_domain: str,
        consent: bool,
    ) -> None:
        self.world = world
        self.mode = mode
        self.page_domain = page_domain
        self.consent = consent
        self.urls: list[str] = []
        self.hosts: set[str] = set()
        self.ops: list[PlannedOp] = []
        self.scripts = 0
        self.conditional = False

    def fetch(self, url) -> None:
        self.urls.append(str(url))
        self.hosts.add(url.host)

    def script(self, tag: ScriptTag, context_host: str) -> None:
        """Fetch and run one script tag."""
        self.fetch(tag.src)
        self.scripts += 1
        if tag.kind is ScriptKind.AD_TAG:
            self._ad_tag(tag)
        elif tag.kind in (ScriptKind.TAG_MANAGER, ScriptKind.ROGUE_FIRST_PARTY):
            self._infrastructure(tag, context_host)
        # CMP and GENERIC scripts: nothing beyond their own fetch.

    def _ad_tag(self, tag: ScriptTag) -> None:
        caller = etld_plus_one(tag.src.host)
        impression_host = tag.src.host
        page_domain = self.page_domain
        policy = self.world.policy_of(caller)
        if policy is None:
            self.ops.append(PlannedOp(impression_host=impression_host))
            return
        if self.consent:
            if policy.alternating_period is not None:
                # The ON/OFF window depends on the visit clock: bake the
                # call shape, defer the fire decision.
                self.ops.append(
                    PlannedOp(
                        impression_host=impression_host,
                        call=_ad_call(policy, caller, page_domain),
                        policy=policy,
                        caller=caller,
                    )
                )
                self.conditional = True
                return
            # now is unused for non-alternating policies (window="static")
            fires = policy.is_enabled(caller, page_domain, 0)
        else:
            fires = policy.calls_in_before_accept(
                caller, page_domain, environment_multiplier(self.world, page_domain)
            )
        if not fires:
            self.ops.append(PlannedOp(impression_host=impression_host))
            return
        call = _ad_call(policy, caller, page_domain)
        # Static fire: the per-attempt fetch is part of the fixed surface.
        self.urls.append(call.fetch_url)
        self.hosts.add(call.caller_host)
        self.ops.append(PlannedOp(impression_host=impression_host, call=call))

    def _infrastructure(self, tag: ScriptTag, context_host: str) -> None:
        if not tag.rogue_topics_call:
            return
        if not self.consent and not tag.rogue_fires_before_consent:
            return
        if self.mode is ScriptOriginMode.SCRIPT_URL:
            caller_host = tag.src.host
        else:
            # Real platform behaviour: the embedding context's origin —
            # the page itself at root, the frame host inside an iframe.
            caller_host = context_host
        self.ops.append(
            PlannedOp(
                call=PlannedCall(
                    caller_host=caller_host,
                    call_type=ApiCallType.JAVASCRIPT,
                    count=tag.rogue_call_count,
                    javascript=True,
                )
            )
        )


def _ad_call(policy: TopicsPolicy, caller: str, page_domain: str) -> PlannedCall:
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
    )
