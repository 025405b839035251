"""Third-party ecosystem: services, prevalence, Topics adoption policies.

The catalogue names the calling parties that appear in the paper's figures
(doubleclick.net, criteo.com, yandex.com, ...) with prevalence and
A/B-test rates calibrated to reproduce Figures 2, 3, 5 and 6, plus the
non-calling enrolled parties (google-analytics.com, bing.com), the
tag-manager whose root-context call drives §4, CDNs/social widgets, and
the special ``distillery.com`` attested-but-not-allowed case.

Adoption policies are *deterministic per (caller, site)*: the paper infers
A/B tests precisely because a CP's ON/OFF decision is stable per site (and
for some CPs alternates over time windows) — we reproduce both with hashed
coin flips.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Mapping

from repro.browser.topics.types import ApiCallType
from repro.util.text import stable_digest
from repro.util.timeline import Timestamp
from repro.web.tlds import Region

_HASH_SPACE = float(2**64)


def stable_fraction(*parts: str) -> float:
    """Deterministic uniform-ish fraction in [0, 1) from string parts."""
    return stable_digest(*parts) / _HASH_SPACE


def _payload_fraction(payload: str) -> float:
    """:func:`stable_fraction` of parts already joined into their digest
    payload, ``"\\x00".join(parts) + "\\x00"``.

    The per-(party, site) decisions below build that payload with one
    f-string and hash it here: one string and one SHA-256 per decision,
    the same bytes as ``stable_fraction(*parts)``.
    """
    digest = hashlib.sha256(payload.encode()).digest()
    return int.from_bytes(digest[:8], "big") / _HASH_SPACE


class ThirdPartyCategory(enum.Enum):
    """Coarse service category; drives consent gating and page placement."""

    ADS = "ads"
    ANALYTICS = "analytics"
    TAG_MANAGER = "tag-manager"
    CMP = "cmp"
    CDN = "cdn"
    SOCIAL = "social"
    WIDGET = "widget"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class TopicsPolicy:
    """How an enrolled service uses the Topics API.

    ``enabled_rate`` — fraction of embedding sites where the service calls
    the API after consent (the A/B split of Figure 3).  The assignment is a
    stable hash of (caller, site), optionally re-drawn every
    ``alternating_period`` seconds (the ON/OFF alternation of §3).

    ``before_rate`` — among sites where the service is loaded *before*
    consent (no banner / misconfigured CMP), the fraction where it calls
    anyway (the questionable usage of §5); zero for compliant services.
    """

    enabled_rate: float
    before_rate: float = 0.0
    #: When True the service fires pre-consent at its base rate no matter
    #: what consent environment the site presents (it reads no TCF string
    #: at all) — the behaviour of services outside the GDPR's reach.
    ignores_consent_environment: bool = False
    call_type_weights: Mapping[ApiCallType, float] = field(
        default_factory=lambda: {
            ApiCallType.JAVASCRIPT: 0.6,
            ApiCallType.FETCH: 0.3,
            ApiCallType.IFRAME: 0.1,
        }
    )
    alternating_period: int | None = None
    max_calls_per_page: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.enabled_rate <= 1.0:
            raise ValueError(f"enabled_rate out of range: {self.enabled_rate}")
        if not 0.0 <= self.before_rate <= 1.0:
            raise ValueError(f"before_rate out of range: {self.before_rate}")
        if self.alternating_period is not None and self.alternating_period <= 0:
            raise ValueError("alternating_period must be positive")

    @property
    def calls_before_consent(self) -> bool:
        return self.before_rate > 0.0

    def is_enabled(self, caller: str, site: str, now: Timestamp) -> bool:
        """The A/B decision: does ``caller`` use Topics on ``site`` at ``now``?

        Stable per (caller, site); for alternating policies the coin is
        re-flipped once per period, producing the consistent ON-then-OFF
        runs the paper observed on repeated visits.
        """
        if self.alternating_period is None:
            window = "static"
        else:
            window = str(now // self.alternating_period)
        payload = f"ab\x00{caller}\x00{site}\x00{window}\x00"
        return _payload_fraction(payload) < self.enabled_rate

    def calls_in_before_accept(
        self, caller: str, site: str, environment_multiplier: float = 1.0
    ) -> bool:
        """Whether the service fires pre-consent on an ungated site.

        ``environment_multiplier`` scales the base rate by the site's
        consent environment: a leaky CMP that mis-signals consent pushes
        services to fire, while the absence of any consent string keeps
        most of them conservative (paper §5's two explanations).
        """
        if not self.calls_before_consent:
            return False
        if self.ignores_consent_environment:
            effective = self.before_rate
        else:
            effective = min(1.0, self.before_rate * environment_multiplier)
        return _payload_fraction(f"ba\x00{caller}\x00{site}\x00") < effective

    def pick_call_type(self, caller: str, site: str) -> ApiCallType:
        """Deterministic per-(caller, site) choice of invocation mechanism."""
        fraction = _payload_fraction(f"calltype\x00{caller}\x00{site}\x00")
        total = sum(self.call_type_weights.values())
        cumulative = 0.0
        for call_type, weight in self.call_type_weights.items():
            cumulative += weight / total
            if fraction < cumulative:
                return call_type
        return next(iter(self.call_type_weights))

    def calls_on_page(self, caller: str, site: str) -> int:
        """How many times the service calls per page (paper logs repeats)."""
        if self.max_calls_per_page <= 1:
            return 1
        extra = _payload_fraction(f"repeat\x00{caller}\x00{site}\x00") < 0.3
        return 2 if extra else 1


@dataclass(frozen=True)
class ThirdParty:
    """One third-party service in the ecosystem."""

    domain: str
    category: ThirdPartyCategory
    prevalence: Mapping[Region, float]
    enrolled: bool = False
    attested: bool = False
    policy: TopicsPolicy | None = None
    consent_gated: bool = False  # loaded only post-consent on well-configured sites
    #: Among sites that do NOT block scripts pre-consent, the share of
    #: embeddings whose tag still loads before acceptance.  Most ad stacks
    #: defer loading until a consent signal exists (Google consent mode,
    #: TCF), so this is well below 1 even on banner-less sites — which is
    #: why the paper sees far fewer ad parties in Before-Accept than in
    #: After-Accept.  Services that ignore consent plumbing sit near 1.
    preconsent_load_rate: float = 0.30

    def prevalence_in(self, region: Region) -> float:
        return self.prevalence.get(region, 0.0)

    def loads_preconsent_on(self, site: str) -> bool:
        """Deterministic per-site coin: does this tag load before consent
        (on a site that does not block scripts outright)?"""
        if not self.consent_gated:
            return True
        payload = f"preload\x00{self.domain}\x00{site}\x00"
        return _payload_fraction(payload) < self.preconsent_load_rate

    @property
    def is_active_caller(self) -> bool:
        """Whether the service ever calls the Topics API."""
        return self.policy is not None and self.policy.enabled_rate > 0.0


def _uniform(probability: float) -> dict[Region, float]:
    return {region: probability for region in Region}


_JS_ONLY = {ApiCallType.JAVASCRIPT: 1.0}
_FETCH_HEAVY = {ApiCallType.FETCH: 0.7, ApiCallType.JAVASCRIPT: 0.3}
_IFRAME_HEAVY = {ApiCallType.IFRAME: 0.5, ApiCallType.JAVASCRIPT: 0.5}

_SIX_HOURS = 6 * 3600

# (domain, uniform prevalence, enabled_rate, before_rate, call weights, alternating)
# Prevalence targets Figure 2/3 presence counts at paper scale; enabled
# rates are Figure 3's clustered percentages; before rates shape Figure 5.
_AD_PLATFORMS: tuple[tuple[str, float, float, float, dict, int | None], ...] = (
    ("doubleclick.net", 0.600, 0.33, 0.00, _FETCH_HEAVY, _SIX_HOURS),
    ("rubiconproject.com", 0.170, 0.54, 0.10, None, None),
    ("pubmatic.com", 0.190, 0.20, 0.08, None, None),
    ("criteo.com", 0.155, 0.75, 0.45, None, _SIX_HOURS),
    ("casalemedia.com", 0.133, 0.58, 0.25, None, None),
    ("3lift.com", 0.103, 0.46, 0.25, None, None),
    ("openx.net", 0.097, 0.70, 0.35, None, None),
    ("teads.tv", 0.081, 0.50, 0.32, _IFRAME_HEAVY, None),
    ("taboola.com", 0.077, 0.62, 0.42, None, None),
    ("adform.net", 0.072, 0.12, 0.00, None, None),
    ("indexww.com", 0.065, 0.10, 0.00, None, None),
    ("quantserve.com", 0.061, 0.08, 0.00, None, None),
    ("yahoo.com", 0.058, 0.06, 0.00, _FETCH_HEAVY, None),
    ("outbrain.com", 0.055, 0.29, 0.35, None, None),
    ("postrelease.com", 0.042, 0.25, 0.25, None, None),
    ("creativecdn.com", 0.040, 0.38, 0.60, None, None),
    ("authorizedvault.com", 0.0148, 0.98, 0.40, _JS_ONLY, None),
    ("unrulymedia.com", 0.0128, 0.42, 0.35, None, None),
    ("cpx.to", 0.0077, 0.75, 0.00, None, None),
)

# Yandex embeds overwhelmingly on .ru sites — which rarely carry a
# Priv-Accept-able banner, explaining its low After-Accept presence (210)
# against a large Before-Accept presence and the top spot in Figure 5.
_YANDEX_COM_PREVALENCE = {
    Region.RU: 0.56,
    Region.COM: 0.013,
    Region.OTHER: 0.030,
    Region.EU: 0.0015,
    Region.JP: 0.0,
}
_YANDEX_RU_PREVALENCE = {
    Region.RU: 0.40,
    Region.COM: 0.004,
    Region.OTHER: 0.010,
    Region.EU: 0.0005,
    Region.JP: 0.0,
}

# Longer-tail enrolled ad services (real Privacy Sandbox enrollees) that
# round the active-caller population out to the paper's 47.  Fields:
# (domain, prevalence, enabled_rate, before_rate).
_EXTRA_ACTIVE: tuple[tuple[str, float, float, float], ...] = (
    ("amazon-adsystem.com", 0.140, 0.15, 0.00),
    ("adnxs.com", 0.120, 0.22, 0.12),
    ("smartadserver.com", 0.055, 0.24, 0.16),
    ("media.net", 0.048, 0.18, 0.00),
    ("sovrn.com", 0.044, 0.23, 0.14),
    ("sharethrough.com", 0.040, 0.21, 0.00),
    ("gumgum.com", 0.036, 0.22, 0.12),
    ("improvedigital.com", 0.033, 0.21, 0.00),
    ("adsrvr.org", 0.058, 0.17, 0.10),
    ("crwdcntrl.net", 0.030, 0.14, 0.00),
    ("bidswitch.net", 0.028, 0.23, 0.14),
    ("id5-sync.com", 0.026, 0.24, 0.18),
    ("adition.com", 0.022, 0.24, 0.00),
    ("onetag-sys.com", 0.020, 0.22, 0.16),
    ("seedtag.com", 0.018, 0.20, 0.00),
    ("smilewanted.com", 0.015, 0.22, 0.12),
    ("richaudience.com", 0.013, 0.19, 0.00),
    ("zemanta.com", 0.012, 0.23, 0.10),
    ("mgid.com", 0.011, 0.21, 0.16),
    ("revcontent.com", 0.010, 0.16, 0.00),
    ("nativo.com", 0.009, 0.23, 0.08),
    ("connatix.com", 0.008, 0.20, 0.00),
    ("minutemedia.com", 0.007, 0.20, 0.10),
    ("loopme.com", 0.006, 0.23, 0.00),
    ("vidazoo.com", 0.005, 0.24, 0.00),
    ("dailymotion.com", 0.004, 0.18, 0.00),
)

# Enrolled and attested, embedded widely, but never calling the API —
# the paper singles out google-analytics.com and bing.com (§3, Figure 2).
_ENROLLED_SILENT: tuple[tuple[str, ThirdPartyCategory, float], ...] = (
    ("google-analytics.com", ThirdPartyCategory.ANALYTICS, 0.700),
    ("bing.com", ThirdPartyCategory.ADS, 0.270),
    ("adobe.com", ThirdPartyCategory.ANALYTICS, 0.150),
    ("hotjar.com", ThirdPartyCategory.ANALYTICS, 0.100),
)

# Not enrolled, never calling: infrastructure and social widgets.  These
# load before consent (not gated), filling the Before-Accept object logs.
_PLUMBING: tuple[tuple[str, ThirdPartyCategory, float], ...] = (
    ("googletagmanager.com", ThirdPartyCategory.TAG_MANAGER, 0.620),
    ("googleapis.com", ThirdPartyCategory.CDN, 0.550),
    ("cloudflare.com", ThirdPartyCategory.CDN, 0.350),
    ("facebook.com", ThirdPartyCategory.SOCIAL, 0.300),
    ("jsdelivr.net", ThirdPartyCategory.CDN, 0.200),
    ("jquery.com", ThirdPartyCategory.CDN, 0.180),
    ("fontawesome.com", ThirdPartyCategory.CDN, 0.150),
    ("twitter.com", ThirdPartyCategory.SOCIAL, 0.120),
    ("wp.com", ThirdPartyCategory.CDN, 0.120),
    ("linkedin.com", ThirdPartyCategory.SOCIAL, 0.080),
)

#: The tag manager whose script triggers §4's anomalous root-context calls.
GTM_DOMAIN = "googletagmanager.com"

#: The attested-but-not-Allowed party (paper §2.4, footnote 9).
DISTILLERY_DOMAIN = "distillery.com"


def named_third_parties() -> tuple[ThirdParty, ...]:
    """The hand-calibrated portion of the ecosystem.

    The generator adds synthesized inactive enrollees (to reach the
    paper's 193 Allowed) and the ~20k long-tail widget/CDN population on
    top of these.
    """
    services: list[ThirdParty] = []

    for domain, prevalence, enabled, before, weights, period in _AD_PLATFORMS:
        policy = TopicsPolicy(
            enabled_rate=enabled,
            before_rate=before,
            call_type_weights=weights
            or {
                ApiCallType.JAVASCRIPT: 0.6,
                ApiCallType.FETCH: 0.3,
                ApiCallType.IFRAME: 0.1,
            },
            alternating_period=period,
        )
        services.append(
            ThirdParty(
                domain=domain,
                category=ThirdPartyCategory.ADS,
                prevalence=_uniform(prevalence),
                enrolled=True,
                attested=True,
                policy=policy,
                consent_gated=True,
            )
        )

    for domain, prevalence_map, enabled, before in (
        ("yandex.com", _YANDEX_COM_PREVALENCE, 0.66, 0.46),
        ("yandex.ru", _YANDEX_RU_PREVALENCE, 0.50, 0.35),
    ):
        services.append(
            ThirdParty(
                domain=domain,
                category=ThirdPartyCategory.ADS,
                prevalence=prevalence_map,
                enrolled=True,
                attested=True,
                policy=TopicsPolicy(
                    enabled_rate=enabled,
                    before_rate=before,
                    ignores_consent_environment=True,
                ),
                consent_gated=True,
                # Yandex's tags ignore European consent plumbing and load
                # everywhere immediately — hence its dominant Figure 5 spot.
                preconsent_load_rate=0.95,
            )
        )

    for domain, prevalence, enabled, before in _EXTRA_ACTIVE:
        services.append(
            ThirdParty(
                domain=domain,
                category=ThirdPartyCategory.ADS,
                prevalence=_uniform(prevalence),
                enrolled=True,
                attested=True,
                policy=TopicsPolicy(enabled_rate=enabled, before_rate=before),
                consent_gated=True,
            )
        )

    for domain, category, prevalence in _ENROLLED_SILENT:
        services.append(
            ThirdParty(
                domain=domain,
                category=category,
                prevalence=_uniform(prevalence),
                enrolled=True,
                attested=True,
                policy=None,
                consent_gated=category is ThirdPartyCategory.ADS,
            )
        )

    for domain, category, prevalence in _PLUMBING:
        services.append(
            ThirdParty(
                domain=domain,
                category=category,
                prevalence=_uniform(prevalence),
                consent_gated=False,
            )
        )

    return tuple(services)


def active_caller_domains() -> tuple[str, ...]:
    """Domains of the named services that actually call the API (the 47)."""
    return tuple(
        service.domain for service in named_third_parties() if service.is_active_caller
    )


def questionable_caller_domains() -> tuple[str, ...]:
    """Domains of named services that call before consent (the 28)."""
    return tuple(
        service.domain
        for service in named_third_parties()
        if service.policy is not None and service.policy.calls_before_consent
    )
