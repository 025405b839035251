"""Consent Management Platforms: catalogue, fingerprints, detection.

The paper identifies a website's CMP "by their domain name" using the
Wappalyzer list and studies whether questionable Topics API calls correlate
with specific CMPs (Figure 7: HubSpot and LiveRamp stand out with ≈3× the
baseline misconfiguration-conditional probability).

Each catalogue entry carries the CMP's serving domain (the Wappalyzer-style
fingerprint), a market-share weight (drives how often the generator assigns
it) and a *pre-consent leak rate* — the probability that a site deploying
this CMP fails to hold consent-requiring tags back before acceptance.  A
leaking deployment both loads ad tags early and (by mis-signalling consent)
encourages them to act, which is how the paper explains questionable calls
on CMP-equipped sites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.util.psl import etld_plus_one


@dataclass(frozen=True)
class CmpProvider:
    """One Consent Management Platform product."""

    name: str
    domain: str
    market_weight: float
    preconsent_leak_rate: float


#: The 15 CMPs of the paper's Figure 7, in the figure's order.
#: Market weights approximate the red bars (P(CMP=x) over all websites);
#: leak rates are uniform at a baseline except HubSpot and LiveRamp, which
#: the paper singles out as doing "a bad job of properly handling the
#: Topics API" (≈3x over-represented among questionable calls).
CMP_CATALOGUE: tuple[CmpProvider, ...] = (
    CmpProvider("OneTrust", "onetrust.com", 12.0, 0.38),
    CmpProvider("HubSpot", "hubspot.com", 2.4, 0.95),
    CmpProvider("LiveRamp", "liveramp.com", 1.9, 0.88),
    CmpProvider("Cookiebot", "cookiebot.com", 5.2, 0.38),
    CmpProvider("TrustArc", "trustarc.com", 3.1, 0.38),
    CmpProvider("Didomi", "didomi.io", 2.9, 0.38),
    CmpProvider("Sourcepoint", "sourcepoint.com", 2.5, 0.38),
    CmpProvider("Osano", "osano.com", 2.1, 0.38),
    CmpProvider("Iubenda", "iubenda.com", 2.0, 0.38),
    CmpProvider("CookieYes", "cookieyes.com", 1.6, 0.38),
    CmpProvider("Usercentrics", "usercentrics.eu", 1.5, 0.38),
    CmpProvider("CookieScript", "cookie-script.com", 1.0, 0.38),
    CmpProvider("Civic", "civiccomputing.com", 0.8, 0.38),
    CmpProvider("Cookie Information", "cookieinformation.com", 0.7, 0.38),
    CmpProvider("SFBX", "sfbx.io", 0.5, 0.38),
)


class CmpCatalogue:
    """Lookup and detection over a set of CMP providers."""

    def __init__(self, providers: tuple[CmpProvider, ...] = CMP_CATALOGUE) -> None:
        self._providers = providers
        self._by_name = {p.name: p for p in providers}
        self._by_domain = {etld_plus_one(p.domain): p for p in providers}
        #: registrable domain -> catalogue index: first-provider-wins
        #: detection intersects a page's registrables with these keys and
        #: takes the lowest index of the hits.
        self._detect_index = {
            etld_plus_one(p.domain): i for i, p in enumerate(providers)
        }
        if len(self._by_name) != len(providers):
            raise ValueError("duplicate CMP names in catalogue")
        if len(self._by_domain) != len(providers):
            raise ValueError("duplicate CMP domains in catalogue")

    @property
    def providers(self) -> tuple[CmpProvider, ...]:
        return self._providers

    def names(self) -> list[str]:
        """Catalogue order names (Figure 7's x-axis)."""
        return [p.name for p in self._providers]

    def get(self, name: str) -> CmpProvider:
        """Provider by product name; KeyError if unknown."""
        return self._by_name[name]

    def detect_from_domains(self, loaded_domains: Iterable[str]) -> str | None:
        """Wappalyzer-style detection: which CMP served resources to a page.

        ``loaded_domains`` is the set of third-party hosts a visit fetched
        from; the first catalogue provider whose serving domain appears
        wins (pages practically never deploy two CMPs).
        """
        return self.detect_from_registrables(
            {etld_plus_one(domain) for domain in loaded_domains}
        )

    def detect_from_registrables(self, registrables: set[str]) -> str | None:
        """As :meth:`detect_from_domains`, for callers that already hold
        registrable domains (skips the per-host eTLD+1 step)."""
        index = self._detect_index
        hits = index.keys() & registrables
        if not hits:
            return None
        return self._providers[min(index[domain] for domain in hits)].name
